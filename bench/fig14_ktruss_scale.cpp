// Figure 14: k-truss GFLOPS vs R-MAT scale (edge factor 16). As in the
// paper: sum of flops over all Masked SpGEMM operations divided by their
// total time, with k = 5. Defaults sweep scale 8..13; MSP_SCALE_MAX raises
// it towards the paper's 20.
#include <cstdio>

#include "apps/ktruss.hpp"
#include "harness.hpp"

int main() {
  using namespace msp;
  using namespace msp::bench;

  const int k = static_cast<int>(env_long("MSP_KTRUSS_K", 5));
  const int scale_min = static_cast<int>(env_long("MSP_SCALE_MIN", 8));
  const int scale_max = static_cast<int>(env_long("MSP_SCALE_MAX", 13));
  const std::vector<Scheme> schemes = {Scheme::kMsa1P, Scheme::kHash1P,
                                       Scheme::kMca1P, Scheme::kInner1P,
                                       Scheme::kSsSaxpy, Scheme::kSsDot};

  std::printf("# Figure 14: %d-truss GFLOPS vs R-MAT scale (edge factor 16)\n",
              k);
  std::printf("%-6s", "scale");
  for (Scheme s : schemes) {
    std::printf(" %12s", std::string(scheme_name(s)).c_str());
  }
  std::printf("\n");
  for (int scale = scale_min; scale <= scale_max; ++scale) {
    const Graph g = rmat_graph<IT, VT>(scale, 16.0);
    // One Engine per scale; each scheme gets an untimed warm-up run, so
    // the timed repetitions hit every iteration's plan.
    Engine engine;
    std::printf("%-6d", scale);
    for (Scheme s : schemes) {
      (void)ktruss(g, k, s, engine);
      double best_rate = 0.0;
      for (int r = 0; r < reps(); ++r) {
        const auto result = ktruss(g, k, s, engine);
        const double rate = 2.0 * static_cast<double>(result.flops) /
                            result.spgemm_seconds / 1e9;
        best_rate = std::max(best_rate, rate);
      }
      std::printf(" %12.3f", best_rate);
    }
    std::printf("\n");
  }
  return 0;
}
