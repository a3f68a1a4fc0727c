// Figure 16: Betweenness Centrality performance profiles — MSA/Hash in 1P
// and 2P variants against the SS:SAXPY-style baseline, over the benchmark
// corpus. MCA is excluded (no complement support); Heap, Inner, and SS:DOT
// are excluded as prohibitively slow, exactly as in the paper.
#include <cstdio>

#include "apps/bc.hpp"
#include "harness.hpp"

int main() {
  using namespace msp;
  using namespace msp::bench;

  const IT batch = static_cast<IT>(env_long("MSP_BATCH", 64));
  const std::vector<Scheme> schemes = {Scheme::kMsa1P, Scheme::kHash1P,
                                       Scheme::kMsa2P, Scheme::kHash2P,
                                       Scheme::kSsSaxpy};
  const auto entries = corpus();
  std::vector<std::string> case_names;
  std::vector<std::vector<double>> times(schemes.size());

  std::printf("# Figure 16: Betweenness Centrality (batch %d), ours vs "
              "SS:SAXPY\n", static_cast<int>(batch));
  for (const auto& entry : entries) {
    const Graph g = entry.make();
    case_names.push_back(entry.name);
    // One Engine per graph; each scheme gets an untimed warm-up batch, so
    // the timed repetitions hit every level's plan.
    Engine engine;
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      (void)betweenness_centrality_batch(g, batch, schemes[s], engine);
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < reps(); ++r) {
        best = std::min(best, betweenness_centrality_batch(g, batch,
                                                           schemes[s], engine)
                                  .spgemm_seconds);
      }
      times[s].push_back(best);
    }
  }

  std::printf("\n## per-graph total Masked SpGEMM seconds (min of %d reps)\n",
              reps());
  print_times(case_names, names_of(schemes), times);
  std::printf("\n## performance profiles\n");
  print_profiles(names_of(schemes), times, 1.5);
  return 0;
}
