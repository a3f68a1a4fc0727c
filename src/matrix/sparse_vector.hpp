// Sparse row vector — the object the paper's §5 algorithm descriptions are
// phrased in terms of (Masked SpGEVM: v = m ⊙ (u·B)), and the operand of
// masked SpMV (core/masked_spmv.hpp). Stored as sorted (index, value)
// parallel arrays; convertible to/from a 1×n CSR matrix.
#pragma once

#include <algorithm>
#include <numeric>
#include <vector>

#include "matrix/csr.hpp"
#include "util/common.hpp"

namespace msp {

template <class IT = index_t, class VT = double>
struct SparseVector {
  using index_type = IT;
  using value_type = VT;

  IT size = 0;  ///< logical dimension
  std::vector<IT> indices;
  std::vector<VT> values;

  SparseVector() = default;
  explicit SparseVector(IT n) : size(n) {
    if (n < 0) throw invalid_argument_error("SparseVector: negative size");
  }

  [[nodiscard]] std::size_t nnz() const { return indices.size(); }

  /// Append an entry (bounds-checked in debug builds; callers must keep
  /// indices sorted or call `canonicalize`).
  void push(IT i, VT v) {
    MSP_ASSERT(i >= 0 && i < size);
    indices.push_back(i);
    values.push_back(v);
  }

  /// Sort by index and combine duplicates by addition.
  void canonicalize() {
    std::vector<std::size_t> order(indices.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
      return indices[a] < indices[b];
    });
    std::vector<IT> idx;
    std::vector<VT> val;
    idx.reserve(indices.size());
    val.reserve(values.size());
    for (std::size_t o : order) {
      if (!idx.empty() && idx.back() == indices[o]) {
        val.back() += values[o];
      } else {
        idx.push_back(indices[o]);
        val.push_back(values[o]);
      }
    }
    indices = std::move(idx);
    values = std::move(val);
  }

  [[nodiscard]] bool is_canonical() const {
    for (std::size_t p = 1; p < indices.size(); ++p) {
      if (indices[p] <= indices[p - 1]) return false;
    }
    return indices.empty() || (indices.front() >= 0 && indices.back() < size);
  }

  friend bool operator==(const SparseVector& a, const SparseVector& b) {
    return a.size == b.size && a.indices == b.indices && a.values == b.values;
  }
};

/// View a sparse vector as a 1×n CSR matrix (copy).
template <class IT, class VT>
CsrMatrix<IT, VT> vector_as_row_matrix(const SparseVector<IT, VT>& v) {
  MSP_ASSERT(v.is_canonical());
  CsrMatrix<IT, VT> m(IT{1}, v.size);
  m.rowptr = {0, static_cast<IT>(v.nnz())};
  m.colids = v.indices;
  m.values = v.values;
  MSP_ASSERT(m.check_structure());
  return m;
}

/// Extract row i of a CSR matrix as a sparse vector (copy).
template <class IT, class VT>
SparseVector<IT, VT> row_as_vector(const CsrMatrix<IT, VT>& m, IT i) {
  MSP_ASSERT(i >= 0 && i < m.nrows);
  SparseVector<IT, VT> v(m.ncols);
  const auto cols = m.row_cols(i);
  const auto vals = m.row_vals(i);
  v.indices.assign(cols.begin(), cols.end());
  v.values.assign(vals.begin(), vals.end());
  return v;
}

}  // namespace msp
