// Tests for the plan/execute subsystem (core/plan.hpp,
// core/exec_context.hpp): plan-based execution must be bit-exact with the
// planless path for every Scheme × mask kind × mask semantics over the
// conformance corpora, including plan *reuse* (second call on unchanged
// patterns), mutated-values/same-pattern reuse, and cache invalidation
// when a pattern actually changes. Plus unit tests for the plan's active
// rows, pattern fingerprints, and the plan-aware applications.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "apps/bc.hpp"
#include "apps/ktruss.hpp"
#include "apps/tricount.hpp"
#include "conformance/conformance_support.hpp"
#include "core/engine.hpp"
#include "core/exec_context.hpp"
#include "core/plan.hpp"
#include "gen/erdos_renyi.hpp"
#include "test_support.hpp"

namespace {

using namespace msp;
using msp::conformance::Config;
using msp::conformance::all_configs;
using msp::conformance::corpus;
using msp::conformance::run_config;
using msp::testing::csr_equal;
using msp::testing::random_csr;

using SR = PlusTimes<double>;

// ---------------------------------------------------------------------------
// Plan-based execution is bit-exact with planless execution, including on
// reuse, for every configuration of the conformance sweep.
// ---------------------------------------------------------------------------

template <class IT>
void sweep_plan_vs_planless() {
  Engine engine;
  for (const auto& cse : corpus<IT>()) {
    for (const Config& cfg : all_configs()) {
      SCOPED_TRACE(cse.name + "/" + cfg.name());
      const auto expected =
          run_config<SR, IT, double>(cfg, cse.a, cse.b, cse.m);
      const auto first = engine.multiply_scheme<SR>(
          cfg.scheme, cse.a, cse.b, cse.m, cfg.kind, cfg.semantics);
      EXPECT_TRUE(csr_equal(expected, first));
      // Second call: the plan (and, for 2P schemes, the symbolic
      // structure) comes from the cache; results must not change.
      const auto reused = engine.multiply_scheme<SR>(
          cfg.scheme, cse.a, cse.b, cse.m, cfg.kind, cfg.semantics);
      EXPECT_TRUE(csr_equal(expected, reused));
    }
  }
  EXPECT_GT(engine.cache_stats().plan_hits, 0u);
}

TEST(PlanConformance, MatchesPlanlessOnFullCorpusInt32) {
  sweep_plan_vs_planless<int>();
}

TEST(PlanConformance, MatchesPlanlessOnFullCorpusInt64) {
  sweep_plan_vs_planless<std::int64_t>();
}

// ---------------------------------------------------------------------------
// Reuse semantics
// ---------------------------------------------------------------------------

TEST(PlanReuse, MutatedValuesSamePatternSeesFreshValues) {
  auto a = random_csr<int, double>(40, 40, 0.2, 101);
  auto b = random_csr<int, double>(40, 40, 0.2, 102);
  const auto m = random_csr<int, double>(40, 40, 0.3, 103);
  Engine engine;

  for (Scheme s : {Scheme::kMsa1P, Scheme::kMsa2P, Scheme::kHash2P,
                   Scheme::kInner1P, Scheme::kInner2P}) {
    SCOPED_TRACE(scheme_name(s));
    (void)engine.multiply_scheme<SR>(s, a, b, m);  // warm the plan cache

    // Mutate values only: the pattern (rowptr/colids) is untouched, so the
    // cached plan must be reused AND the new values must flow through —
    // notably through the plan's cached transpose for the Inner schemes.
    for (auto& v : a.values) v += 1.0;
    for (auto& v : b.values) v += 2.0;

    MaskedSpgemmStats stats;
    const auto planned = engine.multiply_scheme<SR>(
        s, a, b, m, MaskKind::kMask, MaskSemantics::kStructural, &stats);
    MaskedSpgemmOptions opt;
    ASSERT_TRUE(scheme_to_options(s, opt));
    const auto planless = masked_multiply<SR>(a, b, m, opt);
    EXPECT_TRUE(csr_equal(planless, planned));
    EXPECT_TRUE(stats.plan_cache_hit);
  }
}

TEST(PlanReuse, SecondCallSkipsSymbolicPhase) {
  const auto a = random_csr<int, double>(50, 50, 0.15, 111);
  const auto b = random_csr<int, double>(50, 50, 0.15, 112);
  const auto m = random_csr<int, double>(50, 50, 0.25, 113);
  ExecutionContext ctx;
  MaskedSpgemmOptions opt;
  opt.phase = MaskedPhase::kTwoPhase;

  MaskedSpgemmStats first;
  opt.stats = &first;
  (void)ctx.multiply<SR>(a, b, m, opt);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_FALSE(first.symbolic_skipped);

  MaskedSpgemmStats second;
  opt.stats = &second;
  (void)ctx.multiply<SR>(a, b, m, opt);
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_TRUE(second.symbolic_skipped);
  EXPECT_DOUBLE_EQ(second.symbolic_seconds, 0.0);
}

TEST(PlanReuse, OnePhaseRunSeedsTwoPhaseStructure) {
  const auto a = random_csr<int, double>(50, 50, 0.15, 121);
  const auto b = random_csr<int, double>(50, 50, 0.15, 122);
  const auto m = random_csr<int, double>(50, 50, 0.25, 123);
  ExecutionContext ctx;
  MaskedSpgemmOptions opt;

  // A one-phase run's compacted row pointers ARE the symbolic structure;
  // the plan adopts them, so the first-ever 2P call already skips
  // symbolic work.
  opt.phase = MaskedPhase::kOnePhase;
  const auto c1 = ctx.multiply<SR>(a, b, m, opt);

  MaskedSpgemmStats stats;
  opt.phase = MaskedPhase::kTwoPhase;
  opt.stats = &stats;
  const auto c2 = ctx.multiply<SR>(a, b, m, opt);
  EXPECT_TRUE(stats.symbolic_skipped);
  EXPECT_TRUE(csr_equal(c1, c2));
}

TEST(PlanReuse, CrossSchemeSharing) {
  const auto a = random_csr<int, double>(30, 30, 0.2, 131);
  const auto b = random_csr<int, double>(30, 30, 0.2, 132);
  const auto m = random_csr<int, double>(30, 30, 0.3, 133);
  Engine engine;
  // All algorithms share one plan per (patterns, kind, semantics) key.
  (void)engine.multiply_scheme<SR>(Scheme::kMsa1P, a, b, m);
  (void)engine.multiply_scheme<SR>(Scheme::kHash2P, a, b, m);
  (void)engine.multiply_scheme<SR>(Scheme::kHeap1P, a, b, m);
  EXPECT_EQ(engine.plan_count(), 1u);
  EXPECT_EQ(engine.cache_stats().plan_misses, 1u);
  EXPECT_EQ(engine.cache_stats().plan_hits, 2u);
}

// ---------------------------------------------------------------------------
// Cache invalidation
// ---------------------------------------------------------------------------

TEST(PlanInvalidation, PatternChangeMissesAndRecomputes) {
  const auto a = random_csr<int, double>(40, 40, 0.2, 141);
  const auto b = random_csr<int, double>(40, 40, 0.2, 142);
  auto m = random_csr<int, double>(40, 40, 0.3, 143);
  ASSERT_GT(m.nnz(), 0u);
  ExecutionContext ctx;

  (void)ctx.multiply<SR>(a, b, m, {});
  EXPECT_EQ(ctx.cache_stats().plan_misses, 1u);

  // Drop one stored entry: same shape, different pattern → new plan.
  const int victim_col = m.colids[0];
  const auto shrunk = select(
      m, [victim_col](int i, int j, const double&) {
        return !(i == 0 && j == victim_col);
      });
  ASSERT_EQ(shrunk.nnz(), m.nnz() - 1);
  MaskedSpgemmStats stats;
  MaskedSpgemmOptions opt;
  opt.stats = &stats;
  const auto planned = ctx.multiply<SR>(a, b, shrunk, opt);
  EXPECT_FALSE(stats.plan_cache_hit);
  EXPECT_EQ(ctx.cache_stats().plan_misses, 2u);
  EXPECT_TRUE(csr_equal(masked_multiply<SR>(a, b, shrunk), planned));
}

TEST(PlanInvalidation, ValuedSemanticsSeeValueZeroing) {
  const auto a = random_csr<int, double>(30, 30, 0.25, 151);
  const auto b = random_csr<int, double>(30, 30, 0.25, 152);
  auto m = random_csr<int, double>(30, 30, 0.4, 153);
  ASSERT_GT(m.nnz(), 0u);
  ExecutionContext ctx;
  MaskedSpgemmOptions opt;
  opt.mask_semantics = MaskSemantics::kValued;

  (void)ctx.multiply<SR>(a, b, m, opt);

  // Zero a stored mask value: the stored pattern is unchanged but the
  // *effective* pattern under valued semantics is not — the fingerprint
  // must catch it and the result must match planless execution.
  m.values[m.nnz() / 2] = 0.0;
  MaskedSpgemmStats stats;
  opt.stats = &stats;
  const auto planned = ctx.multiply<SR>(a, b, m, opt);
  opt.stats = nullptr;
  EXPECT_FALSE(stats.plan_cache_hit);
  EXPECT_TRUE(csr_equal(masked_multiply<SR>(a, b, m, opt), planned));

  // Under *structural* semantics the same mutation is invisible: hit.
  MaskedSpgemmOptions structural;
  (void)ctx.multiply<SR>(a, b, m, structural);
  MaskedSpgemmStats sstats;
  structural.stats = &sstats;
  m.values[0] = 0.0;
  (void)ctx.multiply<SR>(a, b, m, structural);
  EXPECT_TRUE(sstats.plan_cache_hit);
}

TEST(PlanInvalidation, FifoEvictionBoundsTheCache) {
  const auto a = random_csr<int, double>(20, 20, 0.2, 161);
  const auto b = random_csr<int, double>(20, 20, 0.2, 162);
  ExecutionContext ctx;
  const std::size_t n_masks = ExecutionContext::kMaxPlans + 3;
  std::vector<CsrMatrix<int, double>> masks;
  for (std::uint64_t seed = 0; seed < n_masks; ++seed) {
    masks.push_back(random_csr<int, double>(20, 20, 0.3, 170 + seed));
    (void)ctx.multiply<SR>(a, b, masks.back(), {});
  }
  ASSERT_EQ(n_masks, 67u);
  EXPECT_EQ(ctx.plan_count(), 64u);
  EXPECT_EQ(ctx.cache_stats().plan_misses, 67u);
  EXPECT_EQ(ctx.cache_stats().plan_evictions, 3u);
  // FIFO: the three oldest masks' plans are gone, the newest 64 held.
  const auto hit = [&](std::size_t q) {
    MaskedSpgemmStats st;
    MaskedSpgemmOptions opt;
    opt.stats = &st;
    (void)ctx.multiply<SR>(a, b, masks[q], opt);
    return st.plan_cache_hit;
  };
  EXPECT_TRUE(hit(66));
  EXPECT_TRUE(hit(3));   // a hit does not move a plan to the back
  EXPECT_FALSE(hit(0));  // rebuilt as the newest, evicting mask 3's plan
  EXPECT_FALSE(hit(3));
  EXPECT_EQ(ctx.plan_count(), 64u);
  EXPECT_EQ(ctx.cache_stats().plan_evictions, 5u);
}

// ---------------------------------------------------------------------------
// Active rows: the rows with nonzero flops the drivers schedule
// ---------------------------------------------------------------------------

/// n×n matrix whose row i holds the columns `cols(i)`, all values 1.
template <class ColsFn>
CsrMatrix<int, double> rows_matrix(int n, ColsFn cols) {
  CooMatrix<int, double> coo(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j : cols(i)) coo.push(i, j, 1.0);
  }
  return coo_to_csr(std::move(coo));
}

/// The rows with flops > 0, ascending, counted from scratch.
std::vector<int> nonzero_flops_rows(const std::vector<std::int64_t>& flops) {
  std::vector<int> out;
  for (std::size_t i = 0; i < flops.size(); ++i) {
    if (flops[i] > 0) out.push_back(static_cast<int>(i));
  }
  return out;
}

TEST(ActiveRows, AscendingAndEachNonzeroFlopsRowOnce) {
  const std::vector<std::int64_t> flops = {0,  5, 1000, 3, 0,  77, 2,
                                           19, 0, 1,    8, 64, 512};
  const auto shared = std::make_shared<const std::vector<std::int64_t>>(flops);
  const int n = static_cast<int>(flops.size());
  const auto a = random_csr<int, double>(n, n, 0.3, 1);
  SpgemmPlan<int, double, double> plan(a, a, a, MaskKind::kMask,
                                       MaskSemantics::kStructural, shared);
  const std::vector<int>& rows = plan.active_rows();
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  EXPECT_EQ(std::adjacent_find(rows.begin(), rows.end()), rows.end());
  EXPECT_EQ(rows, nonzero_flops_rows(flops));
  // Built once: a second call returns the same list.
  EXPECT_EQ(&plan.active_rows(), &rows);
}

TEST(ActiveRows, EmptyAndAllZeroFlops) {
  const CsrMatrix<int, double> empty(0, 0);
  SpgemmPlan<int, double, double> none(empty, empty, empty, MaskKind::kMask,
                                       MaskSemantics::kStructural);
  EXPECT_TRUE(none.active_rows().empty());
  const CsrMatrix<int, double> zero(3, 3);
  SpgemmPlan<int, double, double> zeros(zero, zero, zero, MaskKind::kMask,
                                        MaskSemantics::kStructural);
  EXPECT_EQ(zeros.flops(), (std::vector<std::int64_t>{0, 0, 0}));
  EXPECT_TRUE(zeros.active_rows().empty());
}

TEST(ActiveRows, PartialSyncListsRowTurnedNonzero) {
  // Row 700 of A is empty, so its flops are 0 and it is not listed; a
  // later structural edit gives it an entry. The partial refresh recounts
  // only its row block, and the rebuilt list must carry the row: a stale
  // list would silently leave row 700 of every later product empty.
  const int n = 1024;
  const int turned = 700;
  auto cols = [&](bool with_turned) {
    return [=](int i) {
      std::vector<int> c;
      if (i != turned || with_turned) c.push_back((i * 7 + 3) % n);
      if (i % 5 == 0 && i != turned) c.push_back((i + 11) % n);
      return c;
    };
  };
  const auto a0 = rows_matrix(n, cols(false));
  const auto b = rows_matrix(n, [](int i) { return std::vector<int>{i}; });
  const auto m = rows_matrix(n, cols(true));  // admits every product entry
  StructureDirtyLog<int> log(n);
  SpgemmPlan<int, double, double> plan(a0, b, m, MaskKind::kMask,
                                       MaskSemantics::kStructural);
  EXPECT_EQ(plan.sync(a0, b, m, /*fresh_plan=*/true, &log, nullptr, nullptr),
            0u);
  const std::vector<int> before = plan.active_rows();
  EXPECT_EQ(before, nonzero_flops_rows(plan.flops()));
  EXPECT_FALSE(std::binary_search(before.begin(), before.end(), turned));

  const auto a1 = rows_matrix(n, cols(true));
  const std::pair<int, int> turned_row{turned, turned + 1};
  log.record(std::span(&turned_row, 1));
  const std::size_t refreshed =
      plan.sync(a1, b, m, /*fresh_plan=*/false, &log, nullptr, nullptr);
  EXPECT_GT(refreshed, 0u);
  EXPECT_LT(refreshed, static_cast<std::size_t>(n));  // partial, not full
  const std::vector<int>& after = plan.active_rows();
  EXPECT_TRUE(std::binary_search(after.begin(), after.end(), turned));
  EXPECT_EQ(after, nonzero_flops_rows(row_flops(a1, b)));

  // The same edit through an Engine: the warm plan is refreshed in place
  // (a hit, not a rebuild) and its product carries row 700.
  Engine engine;
  CsrMatrix<int, double> a = a0;
  BoundMatrix<int, double> ha(a);
  ha.structure_changed(0, 1);  // switch to the identity key the edit keeps
  BoundMatrix<int, double> hb(b);
  MaskedSpgemmStats st;
  auto run = [&] {
    return engine.multiply_scheme<SR>(Scheme::kMsa1P, a, b, m, MaskKind::kMask,
                                      MaskSemantics::kStructural, &st, &ha,
                                      &hb);
  };
  (void)run();
  a = a1;
  ha.structure_changed(turned, turned + 1);
  const auto c = run();
  EXPECT_TRUE(st.plan_cache_hit);
  EXPECT_GT(st.plan_rows_refreshed, 0u);
  EXPECT_EQ(c.row_nnz(turned), 1);
  EXPECT_TRUE(csr_equal(masked_multiply<SR>(a1, b, m), c));
}

// ---------------------------------------------------------------------------
// Pattern fingerprints
// ---------------------------------------------------------------------------

TEST(PatternFingerprint, InsensitiveToValuesSensitiveToPattern) {
  auto m = random_csr<int, double>(30, 30, 0.3, 181);
  ASSERT_GT(m.nnz(), 1u);
  const auto base = pattern_fingerprint(m);
  auto mutated = m;
  for (auto& v : mutated.values) v *= 3.0;
  EXPECT_EQ(pattern_fingerprint(mutated), base);

  const auto shrunk =
      select(m, [](int, int j, const double&) { return j != 0; });
  if (shrunk.nnz() != m.nnz()) {
    EXPECT_NE(pattern_fingerprint(shrunk), base);
  }

  // Valued fingerprints additionally see value zeroing.
  const auto valued_base = pattern_fingerprint(m, /*include_value_zeros=*/true);
  auto zeroed = m;
  zeroed.values[0] = 0.0;
  EXPECT_NE(pattern_fingerprint(zeroed, true), valued_base);
  EXPECT_EQ(pattern_fingerprint(zeroed, false), base);
}

// ---------------------------------------------------------------------------
// Plan-aware applications. The planless reference is the same app run with
// the SS:SAXPY baseline, which executes without a plan.
// ---------------------------------------------------------------------------

TEST(PlanApps, KtrussMatchesPlanlessAndAmortizes) {
  const auto g =
      remove_diagonal(symmetrize(erdos_renyi<int, double>(120, 8.0, 191)));
  Engine ref;
  const auto planless = ktruss(g, 5, Scheme::kSsSaxpy, ref);
  for (Scheme s : {Scheme::kMsa1P, Scheme::kHash2P, Scheme::kInner2P}) {
    SCOPED_TRACE(scheme_name(s));
    Engine engine;
    const auto first = ktruss(g, 5, s, engine);
    EXPECT_TRUE(csr_equal(planless.truss, first.truss));
    EXPECT_EQ(planless.iterations, first.iterations);
    EXPECT_EQ(planless.flops, first.flops);
    // A repeated run over the same graph hits the cache on every iteration
    // and skips every symbolic pass (2P) from the adopted structures.
    const auto second = ktruss(g, 5, s, engine);
    EXPECT_TRUE(csr_equal(planless.truss, second.truss));
    EXPECT_EQ(second.plan_stats.plan_hits, second.plan_stats.calls);
    EXPECT_DOUBLE_EQ(second.plan_stats.symbolic_seconds, 0.0);
  }
}

TEST(PlanApps, TricountMatchesPlanless) {
  const auto g =
      remove_diagonal(symmetrize(erdos_renyi<int, double>(150, 10.0, 201)));
  const auto input = tricount_prepare(g);
  Engine ref;
  const auto planless = triangle_count(input, Scheme::kSsSaxpy, ref);
  for (Scheme s :
       {Scheme::kMsa1P, Scheme::kMca2P, Scheme::kInner1P, Scheme::kSsDot}) {
    SCOPED_TRACE(scheme_name(s));
    Engine engine;
    const auto r1 = triangle_count(input, s, engine);
    const auto r2 = triangle_count(input, s, engine);
    EXPECT_EQ(planless.triangles, r1.triangles);
    EXPECT_EQ(planless.triangles, r2.triangles);
  }
}

TEST(PlanApps, BetweennessCentralityMatchesPlanless) {
  const auto g =
      remove_diagonal(symmetrize(erdos_renyi<int, double>(100, 6.0, 211)));
  const std::vector<int> sources = {0, 3, 17, 42};
  Engine ref;
  const auto planless =
      betweenness_centrality(g, sources, Scheme::kSsSaxpy, ref);
  for (Scheme s : {Scheme::kMsa1P, Scheme::kHash2P}) {
    SCOPED_TRACE(scheme_name(s));
    Engine engine;
    const auto first = betweenness_centrality(g, sources, s, engine);
    const auto second = betweenness_centrality(g, sources, s, engine);
    ASSERT_EQ(planless.centrality.size(), first.centrality.size());
    for (std::size_t v = 0; v < planless.centrality.size(); ++v) {
      EXPECT_DOUBLE_EQ(planless.centrality[v], first.centrality[v]) << v;
      EXPECT_DOUBLE_EQ(planless.centrality[v], second.centrality[v]) << v;
    }
    EXPECT_EQ(planless.depth, first.depth);
    // BC's frontier patterns are deterministic → full reuse on the rerun.
    EXPECT_EQ(second.plan_stats.plan_hits, second.plan_stats.calls);
  }
}

}  // namespace
