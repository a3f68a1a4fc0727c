// Figure 9: Triangle Counting — our three best schemes (MSA-1P, Hash-1P,
// MCA-1P) against the SuiteSparse:GraphBLAS-style baselines (SS:SAXPY and
// SS:DOT reimplementations; see core/baseline.hpp). Performance profiles
// over the benchmark corpus.
#include <cstdio>

#include "apps/tricount.hpp"
#include "harness.hpp"

int main() {
  using namespace msp;
  using namespace msp::bench;

  const std::vector<Scheme> schemes = {Scheme::kMsa1P, Scheme::kHash1P,
                                       Scheme::kMca1P, Scheme::kSsSaxpy,
                                       Scheme::kSsDot};
  const auto entries = corpus();
  std::vector<std::string> case_names;
  std::vector<std::vector<double>> times(schemes.size());

  std::printf("# Figure 9: Triangle Counting, ours vs SS:GB-style baselines\n");
  for (const auto& entry : entries) {
    const Graph g = entry.make();
    const auto input = tricount_prepare(g);
    case_names.push_back(entry.name);
    // One Engine per graph with L bound once; each scheme gets an untimed
    // warm-up, so the timed repetitions run the warm planned kernel.
    Engine engine;
    const BoundMatrix<IT, VT> l = engine.bind(input.l);
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      (void)triangle_count(input, schemes[s], engine, &l);
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < reps(); ++r) {
        best = std::min(
            best, triangle_count(input, schemes[s], engine, &l).spgemm_seconds);
      }
      times[s].push_back(best);
    }
  }

  std::printf("\n## per-graph Masked SpGEMM seconds (min of %d reps)\n",
              reps());
  print_times(case_names, names_of(schemes), times);
  std::printf("\n## performance profiles\n");
  print_profiles(names_of(schemes), times);
  return 0;
}
