// GraphBLAS-style element-wise and structural operations on CSR matrices.
// These are the substrate operations the paper's applications (triangle
// counting, k-truss, betweenness centrality) compose with masked SpGEMM.
#pragma once

#include <algorithm>
#include <functional>
#include <numeric>
#include <vector>

#include "matrix/convert.hpp"
#include "matrix/csr.hpp"
#include "util/common.hpp"
#include "util/prefix_sum.hpp"

namespace msp {

/// Element-wise (Hadamard) product: C = A .* B with `mul` combining values
/// at shared coordinates. Pattern of C is the pattern intersection.
template <class IT, class VT, class Mul = std::multiplies<VT>>
CsrMatrix<IT, VT> ewise_mult(const CsrMatrix<IT, VT>& a,
                             const CsrMatrix<IT, VT>& b, Mul mul = Mul{}) {
  if (a.nrows != b.nrows || a.ncols != b.ncols) {
    throw invalid_argument_error("ewise_mult: dimension mismatch");
  }
  std::vector<IT> counts(static_cast<std::size_t>(a.nrows), 0);
#pragma omp parallel for schedule(dynamic, 256)
  for (IT i = 0; i < a.nrows; ++i) {
    IT pa = a.rowptr[i], pb = b.rowptr[i];
    const IT ea = a.rowptr[i + 1], eb = b.rowptr[i + 1];
    IT c = 0;
    while (pa < ea && pb < eb) {
      if (a.colids[pa] < b.colids[pb]) {
        ++pa;
      } else if (a.colids[pa] > b.colids[pb]) {
        ++pb;
      } else {
        ++c, ++pa, ++pb;
      }
    }
    counts[static_cast<std::size_t>(i)] = c;
  }
  const IT total = exclusive_prefix_sum(counts);
  CsrMatrix<IT, VT> out(a.nrows, a.ncols);
  out.colids.resize(static_cast<std::size_t>(total));
  out.values.resize(static_cast<std::size_t>(total));
  for (IT i = 0; i < a.nrows; ++i) out.rowptr[i] = counts[i];
  out.rowptr[a.nrows] = total;
#pragma omp parallel for schedule(dynamic, 256)
  for (IT i = 0; i < a.nrows; ++i) {
    IT pa = a.rowptr[i], pb = b.rowptr[i];
    const IT ea = a.rowptr[i + 1], eb = b.rowptr[i + 1];
    std::size_t pos = static_cast<std::size_t>(out.rowptr[i]);
    while (pa < ea && pb < eb) {
      if (a.colids[pa] < b.colids[pb]) {
        ++pa;
      } else if (a.colids[pa] > b.colids[pb]) {
        ++pb;
      } else {
        out.colids[pos] = a.colids[pa];
        out.values[pos] = mul(a.values[pa], b.values[pb]);
        ++pos, ++pa, ++pb;
      }
    }
  }
  MSP_ASSERT(out.check_structure());
  return out;
}

/// Element-wise sum: C = A (+) B with `add` combining values at shared
/// coordinates; pattern of C is the pattern union.
template <class IT, class VT, class Add = std::plus<VT>>
CsrMatrix<IT, VT> ewise_add(const CsrMatrix<IT, VT>& a,
                            const CsrMatrix<IT, VT>& b, Add add = Add{}) {
  if (a.nrows != b.nrows || a.ncols != b.ncols) {
    throw invalid_argument_error("ewise_add: dimension mismatch");
  }
  std::vector<IT> counts(static_cast<std::size_t>(a.nrows), 0);
#pragma omp parallel for schedule(dynamic, 256)
  for (IT i = 0; i < a.nrows; ++i) {
    IT pa = a.rowptr[i], pb = b.rowptr[i];
    const IT ea = a.rowptr[i + 1], eb = b.rowptr[i + 1];
    IT c = 0;
    while (pa < ea || pb < eb) {
      if (pb >= eb || (pa < ea && a.colids[pa] < b.colids[pb])) {
        ++pa;
      } else if (pa >= ea || a.colids[pa] > b.colids[pb]) {
        ++pb;
      } else {
        ++pa, ++pb;
      }
      ++c;
    }
    counts[static_cast<std::size_t>(i)] = c;
  }
  const IT total = exclusive_prefix_sum(counts);
  CsrMatrix<IT, VT> out(a.nrows, a.ncols);
  out.colids.resize(static_cast<std::size_t>(total));
  out.values.resize(static_cast<std::size_t>(total));
  for (IT i = 0; i < a.nrows; ++i) out.rowptr[i] = counts[i];
  out.rowptr[a.nrows] = total;
#pragma omp parallel for schedule(dynamic, 256)
  for (IT i = 0; i < a.nrows; ++i) {
    IT pa = a.rowptr[i], pb = b.rowptr[i];
    const IT ea = a.rowptr[i + 1], eb = b.rowptr[i + 1];
    std::size_t pos = static_cast<std::size_t>(out.rowptr[i]);
    while (pa < ea || pb < eb) {
      if (pb >= eb || (pa < ea && a.colids[pa] < b.colids[pb])) {
        out.colids[pos] = a.colids[pa];
        out.values[pos] = a.values[pa];
        ++pa;
      } else if (pa >= ea || a.colids[pa] > b.colids[pb]) {
        out.colids[pos] = b.colids[pb];
        out.values[pos] = b.values[pb];
        ++pb;
      } else {
        out.colids[pos] = a.colids[pa];
        out.values[pos] = add(a.values[pa], b.values[pb]);
        ++pa, ++pb;
      }
      ++pos;
    }
  }
  MSP_ASSERT(out.check_structure());
  return out;
}

/// Apply a unary function to every stored value, keeping the pattern.
template <class IT, class VT, class Fn>
CsrMatrix<IT, VT> apply(CsrMatrix<IT, VT> a, Fn fn) {
#pragma omp parallel for schedule(static)
  for (std::size_t p = 0; p < a.values.size(); ++p) {
    a.values[p] = fn(a.values[p]);
  }
  return a;
}

/// Keep only entries where pred(row, col, value) holds (GraphBLAS select).
template <class IT, class VT, class Pred>
CsrMatrix<IT, VT> select(const CsrMatrix<IT, VT>& a, Pred pred) {
  std::vector<IT> counts(static_cast<std::size_t>(a.nrows), 0);
#pragma omp parallel for schedule(dynamic, 256)
  for (IT i = 0; i < a.nrows; ++i) {
    IT c = 0;
    for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      if (pred(i, a.colids[p], a.values[p])) ++c;
    }
    counts[static_cast<std::size_t>(i)] = c;
  }
  const IT total = exclusive_prefix_sum(counts);
  CsrMatrix<IT, VT> out(a.nrows, a.ncols);
  out.colids.resize(static_cast<std::size_t>(total));
  out.values.resize(static_cast<std::size_t>(total));
  for (IT i = 0; i < a.nrows; ++i) out.rowptr[i] = counts[i];
  out.rowptr[a.nrows] = total;
#pragma omp parallel for schedule(dynamic, 256)
  for (IT i = 0; i < a.nrows; ++i) {
    std::size_t pos = static_cast<std::size_t>(out.rowptr[i]);
    for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      if (pred(i, a.colids[p], a.values[p])) {
        out.colids[pos] = a.colids[p];
        out.values[pos] = a.values[p];
        ++pos;
      }
    }
  }
  MSP_ASSERT(out.check_structure());
  return out;
}

/// Drop explicitly stored zeros (parallel, via select). This is the
/// reduction that defines *valued* mask semantics relative to structural
/// semantics: a valued mask admits only entries whose stored value is
/// nonzero, so filtering the zeros once turns it into a structurally
/// equivalent mask. Shared by the planless dispatchers
/// (core/masked_spgemm.hpp), the scheme registry's baseline paths, and
/// `SpgemmPlan`'s constructor.
template <class IT, class VT>
CsrMatrix<IT, VT> drop_explicit_zeros(const CsrMatrix<IT, VT>& m) {
  return select(m, [](IT, IT, const VT& v) { return v != VT{}; });
}

/// `drop_explicit_zeros` of the listed rows only (`rows` sorted, distinct):
/// a matrix of m's shape whose other rows are empty. Valued semantics over
/// a few recomputed rows (the Engine's result splice) need no more of the
/// mask, and this costs O(nrows + their nnz) instead of O(nnz(m)).
template <class IT, class VT>
CsrMatrix<IT, VT> drop_explicit_zeros_in_rows(const CsrMatrix<IT, VT>& m,
                                              const std::vector<IT>& rows) {
  CsrMatrix<IT, VT> out(m.nrows, m.ncols);
  std::size_t k = 0;
  for (IT i = 0; i < m.nrows; ++i) {
    out.rowptr[i] = static_cast<IT>(out.colids.size());
    if (k == rows.size() || rows[k] != i) continue;
    ++k;
    for (IT p = m.rowptr[i]; p < m.rowptr[i + 1]; ++p) {
      if (m.values[p] != VT{}) {
        out.colids.push_back(m.colids[p]);
        out.values.push_back(m.values[p]);
      }
    }
  }
  out.rowptr[m.nrows] = static_cast<IT>(out.colids.size());
  MSP_ASSERT(out.check_structure());
  return out;
}

/// Strictly lower-triangular part (col < row). Used by triangle counting.
template <class IT, class VT>
CsrMatrix<IT, VT> tril(const CsrMatrix<IT, VT>& a) {
  return select(a, [](IT i, IT j, const VT&) { return j < i; });
}

/// Strictly upper-triangular part (col > row).
template <class IT, class VT>
CsrMatrix<IT, VT> triu(const CsrMatrix<IT, VT>& a) {
  return select(a, [](IT i, IT j, const VT&) { return j > i; });
}

/// Drop diagonal entries (graph algorithms want simple graphs).
template <class IT, class VT>
CsrMatrix<IT, VT> remove_diagonal(const CsrMatrix<IT, VT>& a) {
  return select(a, [](IT i, IT j, const VT&) { return i != j; });
}

/// Sum-reduce all stored values (parallel).
template <class IT, class VT>
VT reduce_sum(const CsrMatrix<IT, VT>& a) {
  VT total{};
#pragma omp parallel
  {
    VT local{};
#pragma omp for schedule(static) nowait
    for (std::size_t p = 0; p < a.values.size(); ++p) local += a.values[p];
#pragma omp critical(msp_reduce_sum)
    total += local;
  }
  return total;
}

/// Replace every stored value with one(): a pattern matrix.
template <class IT, class VT>
CsrMatrix<IT, VT> to_pattern(CsrMatrix<IT, VT> a, VT one = VT{1}) {
  std::fill(a.values.begin(), a.values.end(), one);
  return a;
}

/// Symmetrize the pattern: A ∪ Aᵀ with values combined by addition where
/// both directions exist. Makes directed generator output undirected.
template <class IT, class VT>
CsrMatrix<IT, VT> symmetrize(const CsrMatrix<IT, VT>& a) {
  if (a.nrows != a.ncols) {
    throw invalid_argument_error("symmetrize: matrix must be square");
  }
  return ewise_add(a, transpose(a),
                   [](const VT& x, const VT&) { return x; });
}

/// Out-degrees (row nnz counts) of an adjacency matrix.
template <class IT, class VT>
std::vector<IT> row_degrees(const CsrMatrix<IT, VT>& a) {
  std::vector<IT> deg(static_cast<std::size_t>(a.nrows));
#pragma omp parallel for schedule(static)
  for (IT i = 0; i < a.nrows; ++i) deg[static_cast<std::size_t>(i)] = a.row_nnz(i);
  return deg;
}

/// Symmetric permutation C = A(p, p): vertex i of C is vertex p[i] of A.
/// `perm` must be a permutation of 0..nrows-1 (validated).
template <class IT, class VT>
CsrMatrix<IT, VT> permute_symmetric(const CsrMatrix<IT, VT>& a,
                                    const std::vector<IT>& perm) {
  if (a.nrows != a.ncols) {
    throw invalid_argument_error("permute_symmetric: matrix must be square");
  }
  if (perm.size() != static_cast<std::size_t>(a.nrows)) {
    throw invalid_argument_error("permute_symmetric: permutation size");
  }
  std::vector<IT> inv(perm.size(), IT{-1});
  for (std::size_t i = 0; i < perm.size(); ++i) {
    const IT p = perm[i];
    if (p < 0 || p >= a.nrows || inv[static_cast<std::size_t>(p)] != IT{-1}) {
      throw invalid_argument_error("permute_symmetric: not a permutation");
    }
    inv[static_cast<std::size_t>(p)] = static_cast<IT>(i);
  }
  CooMatrix<IT, VT> coo(a.nrows, a.ncols);
  coo.entries.reserve(a.nnz());
  for (IT i = 0; i < a.nrows; ++i) {
    for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      coo.entries.push_back({inv[static_cast<std::size_t>(i)],
                             inv[static_cast<std::size_t>(a.colids[p])],
                             a.values[p]});
    }
  }
  return coo_to_csr(std::move(coo));
}

/// Identity matrix of size n (GraphBLAS-style convenience).
template <class IT = index_t, class VT = double>
CsrMatrix<IT, VT> identity_matrix(IT n, VT one = VT{1}) {
  if (n < 0) throw invalid_argument_error("identity_matrix: negative n");
  CsrMatrix<IT, VT> out(n, n);
  out.colids.resize(static_cast<std::size_t>(n));
  out.values.assign(static_cast<std::size_t>(n), one);
  for (IT i = 0; i < n; ++i) {
    out.colids[static_cast<std::size_t>(i)] = i;
    out.rowptr[static_cast<std::size_t>(i) + 1] = i + 1;
  }
  return out;
}

/// Extract the contiguous submatrix A(row_begin:row_end, col_begin:col_end)
/// (half-open ranges) — the GraphBLAS extract primitive for ranges.
template <class IT, class VT>
CsrMatrix<IT, VT> extract_submatrix(const CsrMatrix<IT, VT>& a, IT row_begin,
                                    IT row_end, IT col_begin, IT col_end) {
  if (row_begin < 0 || row_end < row_begin || row_end > a.nrows ||
      col_begin < 0 || col_end < col_begin || col_end > a.ncols) {
    throw invalid_argument_error("extract_submatrix: range out of bounds");
  }
  CsrMatrix<IT, VT> out(row_end - row_begin, col_end - col_begin);
  for (IT i = row_begin; i < row_end; ++i) {
    for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      const IT j = a.colids[p];
      if (j >= col_begin && j < col_end) {
        out.colids.push_back(j - col_begin);
        out.values.push_back(a.values[p]);
      }
    }
    out.rowptr[static_cast<std::size_t>(i - row_begin) + 1] =
        static_cast<IT>(out.colids.size());
  }
  MSP_ASSERT(out.check_structure());
  return out;
}

/// Diagonal of a matrix as a dense vector (absent entries are zero).
template <class IT, class VT>
std::vector<VT> extract_diagonal(const CsrMatrix<IT, VT>& a) {
  const IT n = std::min(a.nrows, a.ncols);
  std::vector<VT> diag(static_cast<std::size_t>(n), VT{});
#pragma omp parallel for schedule(static)
  for (IT i = 0; i < n; ++i) {
    for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      if (a.colids[p] == i) {
        diag[static_cast<std::size_t>(i)] = a.values[p];
        break;
      }
      if (a.colids[p] > i) break;  // sorted row: diagonal passed
    }
  }
  return diag;
}

/// Permutation that sorts vertices by non-increasing degree (ties by id) —
/// the triangle-counting relabeling from paper §8.2.
template <class IT, class VT>
std::vector<IT> degree_order(const CsrMatrix<IT, VT>& a) {
  std::vector<IT> deg = row_degrees(a);
  std::vector<IT> perm(static_cast<std::size_t>(a.nrows));
  std::iota(perm.begin(), perm.end(), IT{0});
  std::sort(perm.begin(), perm.end(), [&](IT x, IT y) {
    const IT dx = deg[static_cast<std::size_t>(x)];
    const IT dy = deg[static_cast<std::size_t>(y)];
    return dx != dy ? dx > dy : x < y;
  });
  return perm;
}

}  // namespace msp
