// Single-source direction-optimized BFS on masked SpMV — the application
// that originated output masking (paper §4: Beamer's direction-optimization
// [5], implemented in GraphBLAS by Yang et al. [38]). Each level chooses
// between:
//
//  * push — masked_spmv_push from the frontier, complemented visited mask:
//    work ∝ Σ_{v∈frontier} deg(v); wins while the frontier is small;
//  * pull — masked_spmv_pull over the *unvisited* vertices (complemented
//    visited mask, pull side): work ∝ Σ_{u∉visited} deg(u) with early exit
//    on the first visited in-neighbour; wins once the frontier covers a
//    large fraction of the graph.
//
// The heuristic is Beamer's: switch to pull when the frontier is growing
// and its outgoing edge count times `alpha` exceeds the unexplored edge
// count (larger alpha switches earlier); switch back to push when the
// frontier shrinks below 1/`beta` of the vertices.
#pragma once

#include <cstdint>
#include <vector>

#include "core/masked_spmv.hpp"
#include "matrix/convert.hpp"
#include "matrix/ops.hpp"
#include "semiring/semiring.hpp"

namespace msp {

template <class IT = index_t>
struct DirectionOptimizedBfsResult {
  std::vector<IT> level;  ///< BFS depth per vertex, -1 when unreachable
  int pull_steps = 0;
  int push_steps = 0;
};

/// Direction-optimized BFS from `source` on a symmetric adjacency matrix.
/// `alpha`/`beta` are Beamer's switching parameters (14 and 24 in the BFS
/// literature; larger alpha switches to pull earlier, larger beta switches
/// back to push earlier).
template <class IT, class VT>
DirectionOptimizedBfsResult<IT> bfs_direction_optimized(
    const CsrMatrix<IT, VT>& adj, IT source, double alpha = 14.0,
    double beta = 24.0) {
  if (adj.nrows != adj.ncols) {
    throw invalid_argument_error("bfs_direction_optimized: square required");
  }
  const IT n = adj.nrows;
  DirectionOptimizedBfsResult<IT> result;
  result.level.assign(static_cast<std::size_t>(n), IT{-1});
  if (n == 0) return result;
  if (source < 0 || source >= n) {
    throw invalid_argument_error("bfs_direction_optimized: source range");
  }

  // Pattern view + CSC copy for the pull side (symmetric: plain copy).
  const CsrMatrix<IT, VT> a = to_pattern(adj);
  const CscMatrix<IT, VT> a_csc(a.nrows, a.ncols, std::vector<IT>(a.rowptr),
                                std::vector<IT>(a.colids),
                                std::vector<VT>(a.values));
  const std::int64_t total_edges = static_cast<std::int64_t>(a.nnz());

  SparseVector<IT, VT> frontier(n);
  frontier.push(source, VT{1});
  SparseVector<IT, VT> visited(n);
  visited.push(source, VT{1});
  result.level[static_cast<std::size_t>(source)] = 0;

  std::int64_t explored_edges = 0;
  std::size_t prev_frontier_nnz = 0;
  IT depth = 0;
  bool pulling = false;
  using SR = PlusPair<VT>;
  while (frontier.nnz() > 0) {
    ++depth;
    // Beamer's heuristic on the frontier's edge mass; switching down to
    // pull additionally requires a growing frontier, so a long thin
    // traversal (e.g. a path) never pays the pull scan.
    std::int64_t frontier_edges = 0;
    for (IT v : frontier.indices) frontier_edges += a.row_nnz(v);
    explored_edges += frontier_edges;
    const std::int64_t unexplored = total_edges - explored_edges;
    const bool growing = frontier.nnz() > prev_frontier_nnz;
    prev_frontier_nnz = frontier.nnz();
    if (!pulling && growing &&
        static_cast<double>(frontier_edges) * alpha >
            static_cast<double>(unexplored)) {
      pulling = true;
    } else if (pulling && beta > 0.0 &&
               static_cast<double>(frontier.nnz()) * beta <
                   static_cast<double>(n)) {
      pulling = false;
    }

    SparseVector<IT, VT> next(n);
    if (pulling) {
      ++result.pull_steps;
      // Pull: every unvisited vertex checks its in-neighbours against the
      // frontier. Complemented visited mask on the pull side.
      // BFS only needs existence of a frontier in-neighbour, so the scan
      // may stop at the first hit (classic bottom-up early exit).
      next = masked_spmv_pull<SR>(frontier, a_csc, visited,
                                  /*complemented=*/true, /*early_exit=*/true);
    } else {
      ++result.push_steps;
      next = masked_spmv_push<SR>(frontier, a, visited,
                                  /*complemented=*/true);
    }
    if (next.nnz() == 0) break;
    for (IT v : next.indices) result.level[static_cast<std::size_t>(v)] = depth;
    // visited ∪= next (both sorted).
    SparseVector<IT, VT> merged(n);
    std::size_t pv = 0, pn = 0;
    while (pv < visited.nnz() || pn < next.nnz()) {
      if (pn >= next.nnz() ||
          (pv < visited.nnz() && visited.indices[pv] < next.indices[pn])) {
        merged.push(visited.indices[pv], visited.values[pv]);
        ++pv;
      } else {
        merged.push(next.indices[pn], next.values[pn]);
        ++pn;
      }
    }
    visited = std::move(merged);
    frontier = std::move(next);
  }
  return result;
}

}  // namespace msp
