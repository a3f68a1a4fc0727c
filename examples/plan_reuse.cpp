// Amortized repeated multiplies with the Engine facade and bound operands.
//
// A service answering many masked products over mostly-stable operands
// keeps one Engine alive and binds its stable operands once. The first
// call on a new (A, B, M) pattern builds an SpgemmPlan — per-row flops,
// output bounds, symbolic structure, B's transpose, the rows with nonzero
// flops; every later call on the same patterns reuses it, even when
// the stored *values* have changed in the meantime. The BoundMatrix
// handles additionally pin the operand fingerprints, so steady-state
// calls hash nothing at all (the `fingerprints` counter below stays put).
#include <cstdio>

#include "mspgemm.hpp"

int main() {
  using namespace msp;
  using VT = double;

  auto a = erdos_renyi<index_t, VT>(1 << 12, 16.0, /*seed=*/1);
  const auto b = erdos_renyi<index_t, VT>(1 << 12, 16.0, /*seed=*/2);
  const auto m = erdos_renyi<index_t, VT>(1 << 12, 8.0, /*seed=*/3);

  Engine engine;  // long-lived: owns the plan cache + thread scratch
  auto ab = engine.bind(a);  // fingerprinted once, here
  const auto bb = engine.bind(b);
  const auto mb = engine.bind(m);

  MaskedSpgemmStats stats;
  auto call = engine.multiply(ab, bb)
                  .mask(mb)
                  .scheme(Scheme::kMsa2P)  // 2P shows the symbolic skip best
                  .stats(&stats);

  for (int rep = 0; rep < 3; ++rep) {
    Timer t;
    const auto c = call.run();
    std::printf(
        "call %d: %.3f ms total | plan %s (%.3f ms setup), symbolic %s, "
        "nnz(C)=%zu\n",
        rep, t.millis(), stats.plan_cache_hit ? "hit " : "miss",
        stats.plan_seconds * 1e3,
        stats.symbolic_skipped ? "skipped" : "computed", c.nnz());
  }

  // Same pattern, new values: tell the handle, keep every cached artifact.
  // values_changed() is REQUIRED after in-place value mutation — it
  // invalidates the valued-mask zero bitmap and the cached transpose
  // values the Inner schemes read; skipping it would serve stale values.
  // The builder's handle copies share state with `ab`, so they see it.
  a.values[0] = 7.0;
  ab.values_changed();
  Timer t;
  const auto c = call.run();
  std::printf(
      "after value mutation: %.3f ms | plan %s, symbolic %s (new values "
      "flowed through)\n",
      t.millis(), stats.plan_cache_hit ? "hit " : "miss",
      stats.symbolic_skipped ? "skipped" : "computed");
  (void)c;

  const auto& cs = engine.cache_stats();
  std::printf(
      "cache: %zu hits, %zu misses, %zu fingerprints hashed, %.3f ms total "
      "planning\n",
      cs.plan_hits, cs.plan_misses, cs.fingerprints_computed,
      cs.plan_seconds * 1e3);
  return 0;
}
