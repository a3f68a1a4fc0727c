// Figure 8: Triangle Counting performance profiles of the paper's 12
// proposed schemes ({MSA, Hash, MCA, Heap, HeapDot, Inner} × {1P, 2P})
// over the benchmark corpus. Prints the raw per-graph Masked-SpGEMM times
// and the Dolan–Moré profile table.
#include <cstdio>

#include "apps/tricount.hpp"
#include "harness.hpp"

int main() {
  using namespace msp;
  using namespace msp::bench;

  const auto schemes = our_schemes();
  const auto entries = corpus();
  std::vector<std::string> case_names;
  std::vector<std::vector<double>> times(schemes.size());

  std::printf("# Figure 8: Triangle Counting, our 12 schemes\n");
  for (const auto& entry : entries) {
    const Graph g = entry.make();
    const auto input = tricount_prepare(g);
    case_names.push_back(entry.name);
    // One Engine per graph with L bound once; each scheme gets an untimed
    // warm-up, so the timed repetitions run the warm planned kernel.
    Engine engine;
    const BoundMatrix<IT, VT> l = engine.bind(input.l);
    std::int64_t expected = -1;
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      (void)triangle_count(input, schemes[s], engine, &l);
      double best = std::numeric_limits<double>::infinity();
      std::int64_t triangles = 0;
      for (int r = 0; r < reps(); ++r) {
        const auto result = triangle_count(input, schemes[s], engine, &l);
        best = std::min(best, result.spgemm_seconds);
        triangles = result.triangles;
      }
      if (expected < 0) expected = triangles;
      if (triangles != expected) {
        std::fprintf(stderr, "MISMATCH on %s: %s found %lld, expected %lld\n",
                     entry.name.c_str(),
                     std::string(scheme_name(schemes[s])).c_str(),
                     static_cast<long long>(triangles),
                     static_cast<long long>(expected));
        return 1;
      }
      times[s].push_back(best);
    }
    std::printf("graph %-14s nnz(L)=%-9zu triangles=%lld\n",
                entry.name.c_str(), input.l.nnz(),
                static_cast<long long>(expected));
  }

  std::printf("\n## per-graph Masked SpGEMM seconds (min of %d reps)\n",
              reps());
  print_times(case_names, names_of(schemes), times);
  std::printf("\n## performance profiles (fraction of cases within ratio of "
              "best)\n");
  print_profiles(names_of(schemes), times);
  return 0;
}
