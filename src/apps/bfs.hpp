// Multi-source BFS via complemented Masked SpGEMM — the canonical
// "mask as visited-set filter" application (paper §1: "any multi-source
// graph traversal where the mask serves as a filter to avoid rediscovery of
// previously discovered vertices"). Also the forward half of betweenness
// centrality, exposed on its own for direct use and testing.
//
// The frontier is a batch×n matrix; each step is
//   F ← ¬Visited ⊙ (F · A)
// on the boolean-ish plus-pair semiring (any nonzero means "reached").
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "matrix/convert.hpp"
#include "matrix/ops.hpp"
#include "semiring/semiring.hpp"
#include "util/timer.hpp"

namespace msp {

template <class IT = index_t>
struct BfsResult {
  /// levels[s][v] = BFS depth of v from sources[s], or -1 if unreachable.
  std::vector<std::vector<IT>> levels;
  int depth = 0;                ///< number of levels expanded
  double spgemm_seconds = 0.0;  ///< time in the masked multiplies
};

/// Multi-source BFS from `sources` on a symmetric adjacency matrix. Every
/// expansion runs through the Engine facade with the adjacency pattern
/// held as a BoundMatrix handle (fingerprinted once per call, plans cached
/// across levels and across repeated calls).
template <class IT, class VT>
BfsResult<IT> multi_source_bfs(const CsrMatrix<IT, VT>& adj,
                               const std::vector<IT>& sources, Scheme scheme,
                               Engine& engine) {
  if (adj.nrows != adj.ncols) {
    throw invalid_argument_error("multi_source_bfs: square matrix required");
  }
  require_scheme_supports(scheme, MaskKind::kComplement);
  const IT n = adj.nrows;
  const IT batch = static_cast<IT>(sources.size());
  BfsResult<IT> result;
  result.levels.assign(static_cast<std::size_t>(batch),
                       std::vector<IT>(static_cast<std::size_t>(n), IT{-1}));
  if (batch == 0 || n == 0) return result;

  const CsrMatrix<IT, VT> a = to_pattern(adj);
  const BoundMatrix<IT, VT> a_bound = engine.bind(a);
  CooMatrix<IT, VT> f0(batch, n);
  for (IT s = 0; s < batch; ++s) {
    const IT src = sources[static_cast<std::size_t>(s)];
    if (src < 0 || src >= n) {
      throw invalid_argument_error("multi_source_bfs: source out of range");
    }
    f0.push(s, src, VT{1});
    result.levels[static_cast<std::size_t>(s)][static_cast<std::size_t>(src)] =
        0;
  }
  CsrMatrix<IT, VT> frontier = coo_to_csr(std::move(f0));
  CsrMatrix<IT, VT> visited = frontier;

  IT depth = 0;
  while (frontier.nnz() > 0) {
    ++depth;
    Timer timer;
    CsrMatrix<IT, VT> next = engine.multiply_scheme<PlusPair<VT>>(
        scheme, frontier, a, visited, MaskKind::kComplement,
        MaskSemantics::kStructural, nullptr, nullptr, &a_bound);
    result.spgemm_seconds += timer.seconds();
    if (next.nnz() == 0) break;
    for (IT s = 0; s < batch; ++s) {
      for (IT p = next.rowptr[s]; p < next.rowptr[s + 1]; ++p) {
        result.levels[static_cast<std::size_t>(s)]
                     [static_cast<std::size_t>(next.colids[p])] = depth;
      }
    }
    visited = ewise_add(visited, next);
    frontier = std::move(next);
    result.depth = static_cast<int>(depth);
  }
  return result;
}

}  // namespace msp
