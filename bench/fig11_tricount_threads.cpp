// Figure 11: Triangle Counting strong scaling — GFLOPS as the thread count
// grows, on a fixed R-MAT graph. The paper uses scale 20 on 32-core Haswell
// and 68-core KNL; the default here is scale 12 on up to all local cores
// (MSP_SCALE to change, MSP_THREADS_MAX to cap).
#include <cstdio>

#include "apps/tricount.hpp"
#include "harness.hpp"

int main() {
  using namespace msp;
  using namespace msp::bench;

  const int scale = static_cast<int>(env_long("MSP_SCALE", 12));
  const int max_threads_cap = static_cast<int>(
      env_long("MSP_THREADS_MAX", msp::max_threads()));
  const std::vector<Scheme> schemes = {Scheme::kMsa1P, Scheme::kHash1P,
                                       Scheme::kMca1P, Scheme::kInner1P,
                                       Scheme::kSsSaxpy};

  std::vector<int> thread_counts;
  for (int t = 1; t < max_threads_cap; t *= 2) thread_counts.push_back(t);
  thread_counts.push_back(max_threads_cap);

  const Graph g = rmat_graph<IT, VT>(scale, 16.0);
  const auto input = tricount_prepare(g);
  // One Engine with L bound once; each (threads, scheme) point gets an
  // untimed warm-up, so the timed repetitions run the warm planned kernel.
  Engine engine;
  const BoundMatrix<IT, VT> l = engine.bind(input.l);

  std::printf("# Figure 11: Triangle Counting strong scaling, R-MAT scale %d "
              "(edge factor 16), GFLOPS\n", scale);
  std::printf("%-9s", "threads");
  for (Scheme s : schemes) {
    std::printf(" %12s", std::string(scheme_name(s)).c_str());
  }
  std::printf("\n");
  for (int t : thread_counts) {
    set_threads(t);
    std::printf("%-9d", t);
    for (Scheme s : schemes) {
      (void)triangle_count(input, s, engine, &l);
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < reps(); ++r) {
        best = std::min(best,
                        triangle_count(input, s, engine, &l).spgemm_seconds);
      }
      std::printf(" %12.3f",
                  2.0 * static_cast<double>(input.flops) / best / 1e9);
    }
    std::printf("\n");
  }
  set_threads(max_threads_cap);
  return 0;
}
