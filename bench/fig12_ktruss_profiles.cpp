// Figure 12: k-truss (k = 5) performance profiles of our schemes over the
// benchmark corpus. Heap-based schemes are included here even though the
// paper drops them from later plots as noncompetitive — the profile makes
// that visible. Time is the sum of all Masked SpGEMM calls, as in the paper.
#include <cstdio>

#include "apps/ktruss.hpp"
#include "harness.hpp"

int main() {
  using namespace msp;
  using namespace msp::bench;

  const int k = static_cast<int>(env_long("MSP_KTRUSS_K", 5));
  const auto schemes = our_schemes();
  const auto entries = corpus();
  std::vector<std::string> case_names;
  std::vector<std::vector<double>> times(schemes.size());

  std::printf("# Figure 12: %d-truss, our 12 schemes\n", k);
  for (const auto& entry : entries) {
    const Graph g = entry.make();
    case_names.push_back(entry.name);
    // One Engine per graph; each scheme gets an untimed warm-up run, so
    // the timed repetitions hit every iteration's plan.
    Engine engine;
    std::size_t truss_nnz = 0;
    int iters = 0;
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      (void)ktruss(g, k, schemes[s], engine);
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < reps(); ++r) {
        const auto result = ktruss(g, k, schemes[s], engine);
        best = std::min(best, result.spgemm_seconds);
        truss_nnz = result.truss.nnz();
        iters = result.iterations;
      }
      times[s].push_back(best);
    }
    std::printf("graph %-14s nnz=%-9zu truss_nnz=%-9zu iters=%d\n",
                entry.name.c_str(), g.nnz(), truss_nnz, iters);
  }

  std::printf("\n## per-graph total Masked SpGEMM seconds (min of %d reps)\n",
              reps());
  print_times(case_names, names_of(schemes), times);
  std::printf("\n## performance profiles\n");
  print_profiles(names_of(schemes), times, 1.8);
  return 0;
}
