// Graph analytics tour: run the full application suite — connected
// components, triangle counting (all four formulations), clustering
// coefficients, multi-source BFS, and direction-optimized BFS — on one
// generated graph, showing how every analysis reduces to (masked) sparse
// matrix products over the same adjacency matrix.
//
//   $ ./examples/graph_analytics [scale] [edge_factor]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "mspgemm.hpp"

int main(int argc, char** argv) {
  const int scale = argc > 1 ? std::atoi(argv[1]) : 11;
  const double edge_factor = argc > 2 ? std::atof(argv[2]) : 8.0;
  using IT = msp::index_t;
  using VT = double;

  const auto g = msp::rmat_graph<IT, VT>(scale, edge_factor);
  std::printf("R-MAT scale %d, edge factor %.0f: %d vertices, %zu nnz\n\n",
              scale, edge_factor, g.nrows, g.nnz());

  // One Engine is the front door for every masked SpGEMM below: those
  // analyses share its plan cache and per-thread scratch.
  msp::Engine engine;

  // Connected components (label propagation as masked SpMV on the
  // (min, first) semiring).
  const auto cc = msp::connected_components_spmv(g);
  std::printf("components:        %d (in %d label-propagation rounds)\n",
              msp::count_components(cc), cc.iterations);

  // Triangle counting, all four masked-SpGEMM formulations.
  std::printf("triangles:        ");
  for (msp::TricountVariant v :
       {msp::TricountVariant::kBurkhardt, msp::TricountVariant::kCohen,
        msp::TricountVariant::kSandiaLL, msp::TricountVariant::kSandiaUU}) {
    const auto r =
        msp::triangle_count_variant(g, v, msp::Scheme::kMsa1P, engine);
    std::printf(" %s=%lld", msp::tricount_variant_name(v),
                static_cast<long long>(r.triangles));
  }
  std::printf("\n");

  // Clustering coefficients.
  const auto cl =
      msp::clustering_coefficients(g, msp::Scheme::kHash1P, engine);
  std::printf("avg clustering:    %.4f\n", cl.average_coefficient);

  // Multi-source BFS (complemented-mask Masked SpGEMM) from 4 sources.
  const std::vector<IT> sources = {0, 1, 2, 3};
  const auto bfs =
      msp::multi_source_bfs(g, sources, msp::Scheme::kMsa1P, engine);
  std::printf("BFS depth:         %d levels from %zu sources (%.6f s in "
              "Masked SpGEMM)\n",
              bfs.depth, sources.size(), bfs.spgemm_seconds);

  // Direction-optimized single-source BFS (masked SpMV push/pull).
  const auto dob = msp::bfs_direction_optimized(g, IT{0}, 14.0, 24.0);
  IT reached = 0;
  IT eccentricity = 0;
  for (IT lvl : dob.level) {
    if (lvl >= 0) {
      ++reached;
      eccentricity = std::max(eccentricity, lvl);
    }
  }
  std::printf("DO-BFS from 0:     reached %d vertices, eccentricity %d "
              "(%d push / %d pull steps)\n",
              reached, eccentricity, dob.push_steps, dob.pull_steps);

  // k-truss peeling summary.
  const auto kt = msp::ktruss(g, 5, msp::Scheme::kMsa1P, engine);
  std::printf("5-truss:           %zu of %zu edges survive (%d rounds)\n",
              kt.truss.nnz() / 2, g.nnz() / 2, kt.iterations);

  // Betweenness centrality of the most central vertex.
  const auto bc = msp::betweenness_centrality_batch(
      g, std::min<IT>(64, g.nrows), msp::Scheme::kMsa1P, engine);
  const auto max_it =
      std::max_element(bc.centrality.begin(), bc.centrality.end());
  std::printf("max BC (batch 64): vertex %ld with score %.1f\n",
              static_cast<long>(max_it - bc.centrality.begin()), *max_it);
  return 0;
}
