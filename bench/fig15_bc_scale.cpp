// Figure 15: Betweenness Centrality MTEPS vs R-MAT scale. The paper uses
// batches of 512 sources on scales 8..20; defaults here are batch 64 on
// scales 8..12 (MSP_BATCH / MSP_SCALE_MAX override). MTEPS =
// batch × nnz(A) / total-Masked-SpGEMM-seconds / 1e6, as in the paper.
// MCA is excluded (no complemented-mask support); Heap/Inner/SS:DOT are
// included so their noncompetitiveness (paper §8.4) is visible at small
// scales without dominating the runtime.
#include <cstdio>

#include "apps/bc.hpp"
#include "harness.hpp"

int main() {
  using namespace msp;
  using namespace msp::bench;

  const int scale_min = static_cast<int>(env_long("MSP_SCALE_MIN", 8));
  const int scale_max = static_cast<int>(env_long("MSP_SCALE_MAX", 12));
  const IT batch = static_cast<IT>(env_long("MSP_BATCH", 64));
  const std::vector<Scheme> schemes = {Scheme::kMsa1P, Scheme::kHash1P,
                                       Scheme::kMsa2P, Scheme::kHash2P,
                                       Scheme::kSsSaxpy};

  std::printf("# Figure 15: Betweenness Centrality MTEPS vs R-MAT scale "
              "(edge factor 16, batch %d)\n", static_cast<int>(batch));
  std::printf("%-6s", "scale");
  for (Scheme s : schemes) {
    std::printf(" %12s", std::string(scheme_name(s)).c_str());
  }
  std::printf("\n");
  for (int scale = scale_min; scale <= scale_max; ++scale) {
    const Graph g = rmat_graph<IT, VT>(scale, 16.0);
    // One Engine per scale; each scheme gets an untimed warm-up batch, so
    // the timed repetitions hit every level's plan.
    Engine engine;
    std::printf("%-6d", scale);
    for (Scheme s : schemes) {
      (void)betweenness_centrality_batch(g, batch, s, engine);
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < reps(); ++r) {
        best = std::min(best, betweenness_centrality_batch(g, batch, s, engine)
                                  .spgemm_seconds);
      }
      const double mteps = static_cast<double>(batch) *
                           static_cast<double>(g.nnz()) / best / 1e6;
      std::printf(" %12.2f", mteps);
    }
    std::printf("\n");
  }
  return 0;
}
