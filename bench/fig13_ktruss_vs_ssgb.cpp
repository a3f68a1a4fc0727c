// Figure 13: k-truss (k = 5) — our four best schemes against the SS:GB-style
// baselines, as performance profiles over the benchmark corpus.
#include <cstdio>

#include "apps/ktruss.hpp"
#include "harness.hpp"

int main() {
  using namespace msp;
  using namespace msp::bench;

  const int k = static_cast<int>(env_long("MSP_KTRUSS_K", 5));
  const std::vector<Scheme> schemes = {Scheme::kMsa1P, Scheme::kHash1P,
                                       Scheme::kMca1P, Scheme::kInner1P,
                                       Scheme::kSsSaxpy, Scheme::kSsDot};
  const auto entries = corpus();
  std::vector<std::string> case_names;
  std::vector<std::vector<double>> times(schemes.size());

  std::printf("# Figure 13: %d-truss, ours vs SS:GB-style baselines\n", k);
  for (const auto& entry : entries) {
    const Graph g = entry.make();
    case_names.push_back(entry.name);
    // One Engine per graph; each scheme gets an untimed warm-up run, so
    // the timed repetitions hit every iteration's plan.
    Engine engine;
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      (void)ktruss(g, k, schemes[s], engine);
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < reps(); ++r) {
        best = std::min(best, ktruss(g, k, schemes[s], engine).spgemm_seconds);
      }
      times[s].push_back(best);
    }
  }

  std::printf("\n## per-graph total Masked SpGEMM seconds (min of %d reps)\n",
              reps());
  print_times(case_names, names_of(schemes), times);
  std::printf("\n## performance profiles\n");
  print_profiles(names_of(schemes), times, 1.8);
  return 0;
}
