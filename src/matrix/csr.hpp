// Compressed Sparse Row matrix — the primary storage format of the library
// (paper §2.1: "we use the CSR format in most cases"). Column indices within
// each row are kept sorted; every masked-SpGEMM kernel relies on this.
#pragma once

#include <span>
#include <vector>

#include "util/common.hpp"

namespace msp {

template <class IT = index_t, class VT = double>
struct CsrMatrix {
  using index_type = IT;
  using value_type = VT;

  IT nrows = 0;
  IT ncols = 0;
  /// rowptr.size() == nrows + 1 (also for empty matrices).
  std::vector<IT> rowptr{0};
  std::vector<IT> colids;
  std::vector<VT> values;

  CsrMatrix() = default;

  /// Empty matrix of the given shape.
  CsrMatrix(IT rows, IT cols)
      : nrows(rows), ncols(cols), rowptr(checked_extent(rows, cols), 0) {}

  /// Take ownership of prebuilt arrays (validated in debug builds).
  CsrMatrix(IT rows, IT cols, std::vector<IT> rp, std::vector<IT> ci,
            std::vector<VT> va)
      : nrows(rows),
        ncols(cols),
        rowptr(std::move(rp)),
        colids(std::move(ci)),
        values(std::move(va)) {
    MSP_ASSERT(check_structure());
  }

  [[nodiscard]] std::size_t nnz() const { return colids.size(); }

  [[nodiscard]] IT row_nnz(IT i) const {
    MSP_ASSERT(i >= 0 && i < nrows);
    return rowptr[static_cast<std::size_t>(i) + 1] -
           rowptr[static_cast<std::size_t>(i)];
  }

  /// Column indices of row i as a span (sorted ascending).
  [[nodiscard]] std::span<const IT> row_cols(IT i) const {
    MSP_ASSERT(i >= 0 && i < nrows);
    return {colids.data() + rowptr[static_cast<std::size_t>(i)],
            static_cast<std::size_t>(row_nnz(i))};
  }

  /// Values of row i as a span, parallel to row_cols(i).
  [[nodiscard]] std::span<const VT> row_vals(IT i) const {
    MSP_ASSERT(i >= 0 && i < nrows);
    return {values.data() + rowptr[static_cast<std::size_t>(i)],
            static_cast<std::size_t>(row_nnz(i))};
  }

  /// Structural validation: monotone row pointers, in-range sorted columns,
  /// matching array lengths. Used by tests and debug assertions.
  [[nodiscard]] bool check_structure() const {
    if (rowptr.size() != static_cast<std::size_t>(nrows) + 1) return false;
    if (rowptr.front() != 0) return false;
    if (static_cast<std::size_t>(rowptr.back()) != colids.size()) return false;
    if (colids.size() != values.size()) return false;
    for (IT i = 0; i < nrows; ++i) {
      if (rowptr[i] < 0) return false;
      const std::size_t lo = static_cast<std::size_t>(rowptr[i]);
      const std::size_t hi = static_cast<std::size_t>(rowptr[i + 1]);
      if (hi < lo || hi > colids.size()) return false;
      for (std::size_t p = lo; p < hi; ++p) {
        if (colids[p] < 0 || colids[p] >= ncols) return false;
        if (p > lo && colids[p] <= colids[p - 1]) return false;
      }
    }
    return true;
  }

  friend bool operator==(const CsrMatrix& a, const CsrMatrix& b) {
    return a.nrows == b.nrows && a.ncols == b.ncols && a.rowptr == b.rowptr &&
           a.colids == b.colids && a.values == b.values;
  }

 private:
  /// Validate the shape before any allocation happens in the member
  /// initializer list (a negative dimension must throw, not bad_alloc).
  static std::size_t checked_extent(IT rows, IT cols) {
    if (rows < 0 || cols < 0) {
      throw invalid_argument_error("CsrMatrix: negative dimension");
    }
    return static_cast<std::size_t>(rows) + 1;
  }
};

/// Copy rows [begin, end) of `a` as a self-contained CSR over the full
/// column space — the shard payload and the serve coordinator's row block.
template <class IT, class VT>
CsrMatrix<IT, VT> slice_rows(const CsrMatrix<IT, VT>& a, IT begin, IT end) {
  if (begin < 0 || end < begin || end > a.nrows) {
    throw invalid_argument_error("slice_rows: range out of bounds");
  }
  const std::size_t lo = static_cast<std::size_t>(a.rowptr[begin]);
  const std::size_t hi = static_cast<std::size_t>(a.rowptr[end]);
  std::vector<IT> rowptr(static_cast<std::size_t>(end - begin) + 1);
  for (IT i = begin; i <= end; ++i) {
    rowptr[static_cast<std::size_t>(i - begin)] =
        a.rowptr[i] - static_cast<IT>(lo);
  }
  std::vector<IT> colids(a.colids.begin() + static_cast<std::ptrdiff_t>(lo),
                         a.colids.begin() + static_cast<std::ptrdiff_t>(hi));
  std::vector<VT> values(a.values.begin() + static_cast<std::ptrdiff_t>(lo),
                         a.values.begin() + static_cast<std::ptrdiff_t>(hi));
  return CsrMatrix<IT, VT>(end - begin, a.ncols, std::move(rowptr),
                           std::move(colids), std::move(values));
}

/// Concatenate row blocks (in order) into one CSR — the inverse of the
/// row-block split, used by the tiled driver and the serve coordinator to
/// stitch per-block results.
template <class IT, class VT>
CsrMatrix<IT, VT> stitch_row_blocks(const std::vector<CsrMatrix<IT, VT>>& parts,
                                    IT ncols) {
  IT nrows = 0;
  std::size_t nnz = 0;
  for (const auto& p : parts) {
    if (p.ncols != ncols) {
      throw invalid_argument_error("stitch_row_blocks: column-count mismatch");
    }
    nrows += p.nrows;
    nnz += p.nnz();
  }
  std::vector<IT> rowptr;
  rowptr.reserve(static_cast<std::size_t>(nrows) + 1);
  rowptr.push_back(0);
  std::vector<IT> colids;
  colids.reserve(nnz);
  std::vector<VT> values;
  values.reserve(nnz);
  IT base = 0;
  for (const auto& p : parts) {
    for (IT i = 0; i < p.nrows; ++i) {
      rowptr.push_back(base + p.rowptr[static_cast<std::size_t>(i) + 1]);
    }
    colids.insert(colids.end(), p.colids.begin(), p.colids.end());
    values.insert(values.end(), p.values.begin(), p.values.end());
    base += static_cast<IT>(p.nnz());
  }
  return CsrMatrix<IT, VT>(nrows, ncols, std::move(rowptr), std::move(colids),
                           std::move(values));
}

}  // namespace msp
