// Connected components by semiring label propagation — a further member of
// the GraphBLAS application family the paper positions Masked SpGEMM within
// (§2: "many graph algorithms can be expressed in terms of computations on
// sparse matrices"). Each vertex repeatedly adopts the minimum label in its
// closed neighbourhood; on the (min, second) semiring one step is a masked
// SpMV, and the iteration converges in O(diameter) steps.
//
// The mask enters as an *active-vertex filter*: only vertices whose label
// changed in the previous round can lower a neighbour's label in the next,
// so the frontier vector drives a masked sparse product exactly like the
// BFS applications (§1's "multi-source graph traversal" pattern).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/masked_spmv.hpp"
#include "matrix/csr.hpp"
#include "matrix/sparse_vector.hpp"
#include "semiring/semiring.hpp"
#include "util/common.hpp"

namespace msp {

/// (min, second) semiring: add = min, multiply returns the right operand —
/// "propagate B's value, keep the smallest".
template <class T>
struct MinSecond {
  using value_type = T;
  static constexpr T add_identity() { return std::numeric_limits<T>::max(); }
  static constexpr T add(T a, T b) { return std::min(a, b); }
  static constexpr T multiply(T /*a*/, T b) { return b; }
};

static_assert(Semiring<MinSecond<double>>);

/// (min, first) semiring: add = min, multiply returns the left operand —
/// "propagate the vector's value, keep the smallest". This is the semiring
/// of label propagation as a masked SpMV: x carries the frontier's labels,
/// and y[j] = min over frontier in-neighbours of their label.
template <class T>
struct MinFirst {
  using value_type = T;
  static constexpr T add_identity() { return std::numeric_limits<T>::max(); }
  static constexpr T add(T a, T b) { return std::min(a, b); }
  static constexpr T multiply(T a, T /*b*/) { return a; }
};

static_assert(Semiring<MinFirst<double>>);

template <class IT = index_t>
struct ComponentsResult {
  /// Component label per vertex: the smallest vertex id in its component.
  std::vector<IT> label;
  int iterations = 0;
};

/// Label-propagation connected components on a symmetric adjacency matrix.
template <class IT, class VT>
ComponentsResult<IT> connected_components(const CsrMatrix<IT, VT>& adj,
                                          int max_iterations = 1 << 20) {
  if (adj.nrows != adj.ncols) {
    throw invalid_argument_error("connected_components: square required");
  }
  const IT n = adj.nrows;
  ComponentsResult<IT> result;
  result.label.resize(static_cast<std::size_t>(n));
  for (IT v = 0; v < n; ++v) result.label[static_cast<std::size_t>(v)] = v;
  if (n == 0) return result;

  // Frontier: vertices whose label changed last round (initially all).
  std::vector<IT> frontier(static_cast<std::size_t>(n));
  for (IT v = 0; v < n; ++v) frontier[static_cast<std::size_t>(v)] = v;

  while (!frontier.empty() && result.iterations < max_iterations) {
    ++result.iterations;
    std::vector<IT> changed;
    // Push the frontier's labels to their neighbours; a neighbour adopts
    // the minimum. (Scatter formulation of the (min, second) masked SpMV —
    // the mask here is implicit: only frontier rows are touched.)
    for (IT v : frontier) {
      const IT lv = result.label[static_cast<std::size_t>(v)];
      for (IT p = adj.rowptr[v]; p < adj.rowptr[v + 1]; ++p) {
        const std::size_t w = static_cast<std::size_t>(adj.colids[p]);
        if (lv < result.label[w]) {
          result.label[w] = lv;
          changed.push_back(adj.colids[p]);
        }
      }
    }
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
    frontier = std::move(changed);
  }
  return result;
}

/// Label-propagation connected components as masked SpMV: each round is
/// literally the product the header comment describes — y = ¬∅ ⊙ (x⊺·A)
/// on the (min, first) semiring, where x holds the frontier's labels. A
/// Jacobi-style counterpart of the scalar `connected_components` above: it
/// may take a different number of rounds (the scalar loop updates labels
/// eagerly within a round) but converges to the identical labeling.
template <class IT, class VT>
ComponentsResult<IT> connected_components_spmv(
    const CsrMatrix<IT, VT>& adj, int max_iterations = 1 << 20) {
  if (adj.nrows != adj.ncols) {
    throw invalid_argument_error(
        "connected_components_spmv: square required");
  }
  const IT n = adj.nrows;
  ComponentsResult<IT> result;
  result.label.resize(static_cast<std::size_t>(n));
  for (IT v = 0; v < n; ++v) result.label[static_cast<std::size_t>(v)] = v;
  if (n == 0) return result;

  std::vector<IT> frontier(static_cast<std::size_t>(n));
  for (IT v = 0; v < n; ++v) frontier[static_cast<std::size_t>(v)] = v;
  const SparseVector<IT, VT> empty_mask(n);  // ¬∅ admits every position

  while (!frontier.empty() && result.iterations < max_iterations) {
    ++result.iterations;
    SparseVector<IT, VT> x(n);
    for (IT v : frontier) {  // frontier is sorted ascending
      x.push(v, static_cast<VT>(result.label[static_cast<std::size_t>(v)]));
    }
    const SparseVector<IT, VT> y = masked_spmv_push<MinFirst<VT>>(
        x, adj, empty_mask, /*complemented=*/true);
    std::vector<IT> changed;
    for (std::size_t p = 0; p < y.nnz(); ++p) {
      const auto w = static_cast<std::size_t>(y.indices[p]);
      const IT lv = static_cast<IT>(y.values[p]);
      if (lv < result.label[w]) {
        result.label[w] = lv;
        changed.push_back(y.indices[p]);
      }
    }
    frontier = std::move(changed);  // y (and thus `changed`) is sorted
  }
  return result;
}

/// Number of distinct components in a result.
template <class IT>
IT count_components(const ComponentsResult<IT>& r) {
  IT count = 0;
  for (std::size_t v = 0; v < r.label.size(); ++v) {
    if (r.label[v] == static_cast<IT>(v)) ++count;
  }
  return count;
}

}  // namespace msp
