// Plan/execute amortization study: repeated application runs with a
// persistent Engine (the facade over the plan cache) vs cold per-call
// execution on a fresh Engine per repetition (the `planless_s` column).
//
// The ROADMAP's north-star scenario is a service answering many masked
// multiplies over mostly-stable operands; its unit economics are visible
// here as the difference between the first repetition (plan misses: flops,
// bounds, symbolic, transpose all computed) and every later one (plan hits:
// symbolic skipped, setup near zero). Set MSP_SCALE=18 for the acceptance
// run on an R-MAT-18 input.
#include <cstdio>
#include <string>

#include "apps/bc.hpp"
#include "apps/ktruss.hpp"
#include "apps/tricount.hpp"
#include "harness.hpp"

namespace {

using namespace msp;
using namespace msp::bench;

struct Run {
  double total_seconds = 0.0;
  PlanUsageStats stats;
};

template <class Fn>
Run repeat(int repetitions, Fn&& fn) {
  Run run;
  for (int r = 0; r < repetitions; ++r) {
    Timer t;
    const PlanUsageStats s = fn();
    run.total_seconds += t.seconds();
    run.stats.symbolic_seconds += s.symbolic_seconds;
    run.stats.numeric_seconds += s.numeric_seconds;
    run.stats.plan_seconds += s.plan_seconds;
    run.stats.calls += s.calls;
    run.stats.plan_hits += s.plan_hits;
    run.stats.plan_misses += s.plan_misses;
    run.stats.symbolic_skips += s.symbolic_skips;
  }
  return run;
}

void report(const char* app, Scheme scheme, const Run& planless,
            const Run& planned) {
  std::printf(
      "%-10s %-8s %10.4f %10.4f %10.4f %10.4f %6zu/%zu %6zu\n", app,
      std::string(scheme_name(scheme)).c_str(), planless.total_seconds,
      planned.total_seconds, planned.stats.setup_seconds(),
      planned.stats.symbolic_seconds, planned.stats.plan_hits,
      planned.stats.calls, planned.stats.symbolic_skips);
}

}  // namespace

int main() {
  const int scale = static_cast<int>(env_long("MSP_SCALE", 10));
  const double ef = 8.0;
  const int repetitions = reps();
  const auto bc_batch = static_cast<IT>(env_long("MSP_BC_BATCH", 64));
  const std::vector<Scheme> schemes = {Scheme::kMsa1P, Scheme::kMsa2P,
                                       Scheme::kHash2P};

  const Graph g = rmat_graph<IT, VT>(scale, ef);
  std::printf("# Plan amortization on rmat%d-ef%.0f (%d reps)\n", scale, ef,
              repetitions);
  std::printf("%-10s %-8s %10s %10s %10s %10s %8s %6s\n", "app", "scheme",
              "planless_s", "planned_s", "setup_s", "symbolic_s", "hits",
              "skips");

  const auto tri_input = tricount_prepare(g);
  for (Scheme s : schemes) {
    const Run planless = repeat(repetitions, [&] {
      Engine fresh;
      return triangle_count(tri_input, s, fresh).plan_stats;
    });
    Engine engine;
    const BoundMatrix<IT, VT> l = engine.bind(tri_input.l);
    const Run planned = repeat(repetitions, [&] {
      return triangle_count(tri_input, s, engine, &l).plan_stats;
    });
    report("tricount", s, planless, planned);
  }

  for (Scheme s : schemes) {
    const Run planless = repeat(repetitions, [&] {
      Engine fresh;
      return ktruss(g, 5, s, fresh).plan_stats;
    });
    Engine engine;
    const Run planned = repeat(
        repetitions, [&] { return ktruss(g, 5, s, engine).plan_stats; });
    report("ktruss", s, planless, planned);
  }

  for (Scheme s : schemes) {
    const Run planless = repeat(repetitions, [&] {
      Engine fresh;
      return betweenness_centrality_batch(g, bc_batch, s, fresh).plan_stats;
    });
    Engine engine;
    const Run planned = repeat(repetitions, [&] {
      return betweenness_centrality_batch(g, bc_batch, s, engine).plan_stats;
    });
    report("bc", s, planless, planned);
  }
  return 0;
}
