// Per-vertex triangle counts and local clustering coefficients via Masked
// SpGEMM — the per-vertex refinement of §8.2's triangle counting: the
// masked product T = A ⊙ (A·A) on the plus-pair semiring gives, at each
// edge (i,j), the number of triangles through that edge; half the row sum
// is the vertex's triangle count, normalized by deg(deg-1)/2 it is the
// local clustering coefficient (global average excludes degree<2 vertices).
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "matrix/ops.hpp"
#include "semiring/semiring.hpp"

namespace msp {

template <class IT = index_t>
struct ClusteringResult {
  std::vector<std::int64_t> triangles_per_vertex;
  std::vector<double> local_coefficient;
  double average_coefficient = 0.0;  ///< mean over vertices with degree >= 2
};

/// Compute per-vertex triangle participation and clustering coefficients.
/// `adj` must be a symmetric simple adjacency matrix. The masked product
/// T = A ⊙ (A·A) runs through the Engine facade (plan cached, so repeated
/// calls over the same graph amortize).
template <class IT, class VT>
ClusteringResult<IT> clustering_coefficients(const CsrMatrix<IT, VT>& adj,
                                             Scheme scheme, Engine& engine) {
  if (adj.nrows != adj.ncols) {
    throw invalid_argument_error("clustering_coefficients: square required");
  }
  const IT n = adj.nrows;
  ClusteringResult<IT> result;
  result.triangles_per_vertex.assign(static_cast<std::size_t>(n), 0);
  result.local_coefficient.assign(static_cast<std::size_t>(n), 0.0);
  if (n == 0) return result;

  const CsrMatrix<IT, VT> a = to_pattern(adj);
  const CsrMatrix<IT, VT> t =
      engine.multiply_scheme<PlusPair<VT>>(scheme, a, a, a);

  double coeff_sum = 0.0;
  std::int64_t eligible = 0;
  for (IT i = 0; i < n; ++i) {
    std::int64_t wedge_closures = 0;
    for (IT p = t.rowptr[i]; p < t.rowptr[i + 1]; ++p) {
      wedge_closures += static_cast<std::int64_t>(t.values[p]);
    }
    // Each triangle through i is counted twice in row i (once per incident
    // edge... via both neighbours).
    result.triangles_per_vertex[static_cast<std::size_t>(i)] =
        wedge_closures / 2;
    const std::int64_t deg = a.row_nnz(i);
    if (deg >= 2) {
      const double wedges = static_cast<double>(deg) *
                            static_cast<double>(deg - 1) / 2.0;
      const double c =
          static_cast<double>(result.triangles_per_vertex[i]) / wedges;
      result.local_coefficient[static_cast<std::size_t>(i)] = c;
      coeff_sum += c;
      ++eligible;
    }
  }
  result.average_coefficient =
      eligible > 0 ? coeff_sum / static_cast<double>(eligible) : 0.0;
  return result;
}

}  // namespace msp
