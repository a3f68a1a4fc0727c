// Tests for the batched multi-mask API (Engine::multiply_batch and the
// app-level batch entries): the batch must be bit-identical to N sequential
// calls across Scheme × mask kind × mask semantics × {int, int64_t},
// including aliased and empty masks and mixed warm/cold plans, and must
// share A's and B's state across its masks through bound handles — the
// caller's or call-local ones. Plus regression tests for clear()/reset_stats() counter
// hygiene, the plan-cache fingerprint-collision cross-check, and the
// complement-row hash-table capacity clamp.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/bc.hpp"
#include "apps/tricount.hpp"
#include "conformance/conformance_support.hpp"
#include "core/engine.hpp"
#include "core/exec_context.hpp"
#include "core/tiled_engine.hpp"
#include "core/hash_accumulator.hpp"
#include "core/plan.hpp"
#include "gen/erdos_renyi.hpp"
#include "test_support.hpp"

namespace {

using namespace msp;
using msp::conformance::Config;
using msp::conformance::all_configs;
using msp::conformance::corpus;
using msp::conformance::run_config;
using msp::conformance::with_explicit_zeros;
using msp::testing::csr_equal;
using msp::testing::random_csr;
using msp::testing::run_fresh;

using SR = PlusTimes<double>;

// ---------------------------------------------------------------------------
// Batch vs sequential: bit-identical over the conformance sweep
// ---------------------------------------------------------------------------

/// The mask batch for a case: the case's own mask, an empty mask, an extra
/// random mask (with explicit zeros, so the valued leg is non-trivial), and
/// an alias of the first — the shapes of batch a service would send.
template <class IT>
std::vector<CsrMatrix<IT, double>> extra_masks(const CsrMatrix<IT, double>& m) {
  std::vector<CsrMatrix<IT, double>> extra;
  extra.emplace_back(m.nrows, m.ncols);  // empty
  extra.push_back(with_explicit_zeros(
      random_csr<IT, double>(m.nrows, m.ncols, 0.3, 977)));
  return extra;
}

template <class IT>
void sweep_batch_vs_sequential() {
  for (const auto& cse : corpus<IT>()) {
    const auto extra = extra_masks(cse.m);
    const std::vector<const CsrMatrix<IT, double>*> masks = {
        &cse.m, &extra[0], &extra[1], &cse.m};  // last aliases the first
    Engine engine;
    for (const Config& cfg : all_configs()) {
      SCOPED_TRACE(cse.name + "/" + cfg.name());
      const auto batch = engine.multiply_batch<SR>(
          cfg.scheme, cse.a, cse.b, masks, cfg.kind, cfg.semantics);
      ASSERT_EQ(batch.size(), masks.size());
      for (std::size_t q = 0; q < masks.size(); ++q) {
        const auto expected =
            run_config<SR, IT, double>(cfg, cse.a, cse.b, *masks[q]);
        EXPECT_TRUE(csr_equal(expected, batch[q])) << "mask " << q;
      }
      // Replay: plans and structures come from the cache now; results
      // must not change.
      const auto warm = engine.multiply_batch<SR>(
          cfg.scheme, cse.a, cse.b, masks, cfg.kind, cfg.semantics);
      for (std::size_t q = 0; q < masks.size(); ++q) {
        EXPECT_TRUE(csr_equal(batch[q], warm[q])) << "warm mask " << q;
      }
    }
  }
}

TEST(BatchConformance, MatchesSequentialOnFullCorpusInt32) {
  sweep_batch_vs_sequential<int>();
}

TEST(BatchConformance, MatchesSequentialOnFullCorpusInt64) {
  sweep_batch_vs_sequential<std::int64_t>();
}

TEST(BatchConformance, BitIdenticalToSequentialContextCalls) {
  // Larger, skewed instance: the batch (shared fingerprints, flops and
  // transpose) against N sequential context multiplies, entry by entry.
  const auto a = erdos_renyi<int, double>(300, 8.0, 331);
  const auto b = erdos_renyi<int, double>(300, 8.0, 332);
  std::vector<CsrMatrix<int, double>> mask_store;
  for (std::uint64_t s = 0; s < 8; ++s) {
    mask_store.push_back(
        random_csr<int, double>(300, 300, 0.02 + 0.04 * double(s), 400 + s));
  }
  std::vector<const CsrMatrix<int, double>*> masks;
  for (const auto& m : mask_store) masks.push_back(&m);

  for (Scheme s : {Scheme::kMsa1P, Scheme::kMsa2P, Scheme::kHash2P,
                   Scheme::kHeap1P, Scheme::kInner2P}) {
    SCOPED_TRACE(scheme_name(s));
    MaskedSpgemmOptions opt;
    ASSERT_TRUE(scheme_to_options(s, opt));
    Engine engine;
    const auto batch = engine.multiply_batch<SR>(s, a, b, masks);
    ExecutionContext seq_ctx;
    for (std::size_t q = 0; q < masks.size(); ++q) {
      const auto seq = seq_ctx.multiply<SR>(a, b, *masks[q], opt);
      EXPECT_TRUE(csr_equal(seq, batch[q])) << "mask " << q;
    }
    // One plan per distinct mask, all built by this batch.
    EXPECT_EQ(engine.cache_stats().plan_misses, masks.size());
    EXPECT_EQ(engine.cache_stats().plan_hits, 0u);
  }
}

// ---------------------------------------------------------------------------
// Batch semantics: aliasing, empty batches, warm/cold mixes, stats
// ---------------------------------------------------------------------------

TEST(MultiplyBatch, EmptyBatchAndNullMask) {
  const auto a = random_csr<int, double>(10, 10, 0.3, 501);
  Engine engine;
  const std::vector<const CsrMatrix<int, double>*> none;
  EXPECT_TRUE(engine.multiply_batch<SR>(Scheme::kMsa2P, a, a, none).empty());
  const std::vector<const CsrMatrix<int, double>*> bad = {nullptr};
  EXPECT_THROW((engine.multiply_batch<SR>(Scheme::kMsa2P, a, a, bad)),
               invalid_argument_error);
}

TEST(MultiplyBatch, BadLastMaskThrowsBeforeAnyPlanIsBuilt) {
  const auto a = random_csr<int, double>(20, 20, 0.2, 505);
  const auto m = random_csr<int, double>(20, 20, 0.3, 506);
  const auto wrong_shape = random_csr<int, double>(20, 19, 0.3, 507);
  const std::vector<const CsrMatrix<int, double>*> lasts = {nullptr,
                                                            &wrong_shape};
  Engine engine;
  for (const CsrMatrix<int, double>* last : lasts) {
    const std::vector<const CsrMatrix<int, double>*> masks = {&m, &m, last};
    EXPECT_THROW((engine.multiply_batch<SR>(Scheme::kMsa1P, a, a, masks)),
                 invalid_argument_error);
    // Every mask is validated up front: the good masks before the bad one
    // never reached the plan cache.
    EXPECT_EQ(engine.plan_count(), 0u);
    EXPECT_EQ(engine.cache_stats().plan_misses, 0u);
  }
}

TEST(MultiplyBatch, AliasedMasksShareOnePlan) {
  const auto a = random_csr<int, double>(40, 40, 0.2, 511);
  const auto b = random_csr<int, double>(40, 40, 0.2, 512);
  const auto m = random_csr<int, double>(40, 40, 0.3, 513);
  Engine engine;
  const std::vector<const CsrMatrix<int, double>*> masks = {&m, &m, &m};
  const auto outs = engine.multiply_batch<SR>(Scheme::kMsa2P, a, b, masks);
  ASSERT_EQ(outs.size(), 3u);
  const auto expected = masked_multiply<SR>(a, b, m);
  for (const auto& c : outs) EXPECT_TRUE(csr_equal(expected, c));
  // One plan serves all three aliases: one miss, two hits.
  EXPECT_EQ(engine.plan_count(), 1u);
  EXPECT_EQ(engine.cache_stats().plan_misses, 1u);
  EXPECT_EQ(engine.cache_stats().plan_hits, 2u);
}

TEST(MultiplyBatch, WarmBatchHitsPlansAndSkipsSymbolic) {
  const auto a = random_csr<int, double>(60, 60, 0.15, 521);
  const auto b = random_csr<int, double>(60, 60, 0.15, 522);
  const auto m1 = random_csr<int, double>(60, 60, 0.2, 523);
  const auto m2 = random_csr<int, double>(60, 60, 0.3, 524);
  Engine engine;
  const std::vector<const CsrMatrix<int, double>*> masks = {&m1, &m2};

  MaskedSpgemmStats first;
  const auto cold = engine.multiply_batch<SR>(
      Scheme::kMsa2P, a, b, masks, MaskKind::kMask,
      MaskSemantics::kStructural, &first);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_FALSE(first.symbolic_skipped);
  EXPECT_EQ(first.output_nnz, cold[0].nnz() + cold[1].nnz());

  MaskedSpgemmStats second;
  const auto warm = engine.multiply_batch<SR>(
      Scheme::kMsa2P, a, b, masks, MaskKind::kMask,
      MaskSemantics::kStructural, &second);
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_TRUE(second.symbolic_skipped);
  EXPECT_DOUBLE_EQ(second.symbolic_seconds, 0.0);
  EXPECT_EQ(engine.cache_stats().plan_misses, 2u);
  EXPECT_EQ(engine.cache_stats().plan_hits, 2u);
  for (std::size_t q = 0; q < masks.size(); ++q) {
    EXPECT_TRUE(csr_equal(cold[q], warm[q]));
  }
}

TEST(MultiplyBatch, MixedWarmColdBatch) {
  const auto a = random_csr<int, double>(50, 50, 0.2, 531);
  const auto b = random_csr<int, double>(50, 50, 0.2, 532);
  const auto warm_m = random_csr<int, double>(50, 50, 0.25, 533);
  const auto cold_m = random_csr<int, double>(50, 50, 0.25, 534);
  Engine engine;
  // Warm one mask through a single call; its plan (with adopted symbolic
  // structure) must be reused by the batch next to a cold plan.
  const auto warm_seq =
      engine.multiply_scheme<SR>(Scheme::kHash2P, a, b, warm_m);
  const std::vector<const CsrMatrix<int, double>*> masks = {&warm_m, &cold_m};
  MaskedSpgemmStats stats;
  const auto outs = engine.multiply_batch<SR>(
      Scheme::kHash2P, a, b, masks, MaskKind::kMask,
      MaskSemantics::kStructural, &stats);
  EXPECT_TRUE(csr_equal(warm_seq, outs[0]));
  EXPECT_TRUE(
      csr_equal(run_fresh<SR>(Scheme::kHash2P, a, b, cold_m), outs[1]));
  EXPECT_FALSE(stats.plan_cache_hit);  // the cold mask missed
  EXPECT_EQ(engine.cache_stats().plan_hits, 1u);
  EXPECT_EQ(engine.cache_stats().plan_misses, 2u);
}

TEST(MultiplyBatch, SharesFlopsAcrossColdPlans) {
  const auto a = random_csr<int, double>(40, 40, 0.2, 541);
  const auto b = random_csr<int, double>(40, 40, 0.2, 542);
  const auto m1 = random_csr<int, double>(40, 40, 0.3, 543);
  const auto m2 = random_csr<int, double>(40, 40, 0.3, 544);
  Engine engine;
  const std::vector<const CsrMatrix<int, double>*> masks = {&m1, &m2};
  (void)engine.multiply_batch<SR>(Scheme::kMsa1P, a, b, masks);
  auto& p1 = engine.context().plan_for<int, double, double>(
      a, b, m1, MaskKind::kMask, MaskSemantics::kStructural);
  auto& p2 = engine.context().plan_for<int, double, double>(
      a, b, m2, MaskKind::kMask, MaskSemantics::kStructural);
  // Both batch-built plans hold the *same* flops vector, not equal copies.
  EXPECT_EQ(p1.flops_ptr().get(), p2.flops_ptr().get());
}

TEST(MultiplyBatch, CallerHandlesAreUsedAndHashNothing) {
  const auto a = random_csr<int, double>(60, 60, 0.15, 556);
  const auto b = random_csr<int, double>(60, 60, 0.15, 557);
  const auto m1 = random_csr<int, double>(60, 60, 0.3, 558);
  const auto m2 = random_csr<int, double>(60, 60, 0.2, 559);
  const std::vector<const CsrMatrix<int, double>*> masks = {&m1, &m2};
  Engine engine;
  BoundMatrix<int, double> ah = engine.bind(a);
  const BoundMatrix<int, double> bh = engine.bind(b);
  // Identity-fingerprint mode: plans keyed through this handle differ from
  // the pattern-hash keys a call-local handle of A would produce.
  ah.structure_changed(0, 1);
  const auto bound = engine.multiply_batch<SR>(
      Scheme::kInner2P, a, b, masks, MaskKind::kMask,
      MaskSemantics::kStructural, nullptr, &ah, &bh);
  // Only the masks were hashed; B's transpose was built on B's handle.
  EXPECT_EQ(engine.cache_stats().fingerprints_computed, masks.size());
  EXPECT_TRUE(bh.csc_cache()->built);
  // The batch's plans are the handles' plans: a bound call hits them.
  MaskedSpgemmStats st;
  (void)engine.multiply_scheme<SR>(Scheme::kInner2P, a, b, m1,
                                   MaskKind::kMask,
                                   MaskSemantics::kStructural, &st, &ah,
                                   &bh);
  EXPECT_TRUE(st.plan_cache_hit);

  Engine raw;
  const auto unbound = raw.multiply_batch<SR>(Scheme::kInner2P, a, b, masks);
  ASSERT_EQ(bound.size(), unbound.size());
  for (std::size_t q = 0; q < masks.size(); ++q) {
    EXPECT_TRUE(csr_equal(unbound[q], bound[q])) << "mask " << q;
  }
}

TEST(MultiplyBatch, InnerBatchSeesInPlaceValueChangesOfB) {
  const auto a = random_csr<int, double>(60, 60, 0.15, 546);
  auto b = random_csr<int, double>(60, 60, 0.15, 547);
  const auto m1 = random_csr<int, double>(60, 60, 0.3, 548);
  const auto m2 = random_csr<int, double>(60, 60, 0.2, 549);
  const std::vector<const CsrMatrix<int, double>*> masks = {&m1, &m2};
  Engine engine;
  (void)engine.multiply_batch<SR>(Scheme::kInner2P, a, b, masks);
  // Same pattern, new values: the warm plans keep their transpose
  // structure, and the next batch's fresh B handle carries a new values
  // version, so the transpose values are gathered again.
  for (double& v : b.values) v = 2.0 * v + 1.0;
  const auto outs = engine.multiply_batch<SR>(Scheme::kInner2P, a, b, masks);
  EXPECT_EQ(engine.cache_stats().plan_hits, masks.size());
  for (std::size_t q = 0; q < masks.size(); ++q) {
    EXPECT_TRUE(csr_equal(run_fresh<SR>(Scheme::kInner2P, a, b, *masks[q]),
                          outs[q]))
        << "mask " << q;
  }
}

// ---------------------------------------------------------------------------
// Bugfix: clear() resets counters; reset_stats() keeps the caches
// ---------------------------------------------------------------------------

TEST(CacheHygiene, ClearResetsStatsAndPlans) {
  const auto a = random_csr<int, double>(30, 30, 0.2, 551);
  const auto m = random_csr<int, double>(30, 30, 0.3, 552);
  ExecutionContext ctx;
  (void)ctx.multiply<SR>(a, a, m);
  (void)ctx.multiply<SR>(a, a, m);
  ASSERT_GT(ctx.cache_stats().plan_hits + ctx.cache_stats().plan_misses, 0u);
  ASSERT_GT(ctx.cache_stats().plan_seconds, 0.0);

  ctx.clear();
  // A context reused across bench configurations must start from zero:
  // plans AND counters (hit/miss/plan_seconds used to leak here).
  EXPECT_EQ(ctx.plan_count(), 0u);
  EXPECT_EQ(ctx.cache_stats().plan_hits, 0u);
  EXPECT_EQ(ctx.cache_stats().plan_misses, 0u);
  EXPECT_EQ(ctx.cache_stats().plan_evictions, 0u);
  EXPECT_DOUBLE_EQ(ctx.cache_stats().plan_seconds, 0.0);
}

TEST(CacheHygiene, ClearAndResetStatsCoverTiledCounters) {
  // Regression pin: the tiled/prefetch counters added after the original
  // clear()/reset_stats() fix must reset with everything else — a context
  // reused across bench configurations would otherwise carry shard and
  // prefetch traffic from the previous one.
  const auto a = random_csr<int, double>(24, 24, 0.3, 571);
  const auto m = random_csr<int, double>(24, 24, 0.4, 572);
  TiledEngine tiled;
  (void)tiled.multiply<SR>(Scheme::kMsa2P, ShardedMatrix<int, double>(a, 3),
                           a, m);
  ASSERT_GT(tiled.cache_stats().tiled_calls, 0u);
  ASSERT_GT(tiled.cache_stats().tiled_shards, 0u);

  tiled.engine().reset_stats();
  EXPECT_EQ(tiled.cache_stats().tiled_calls, 0u);
  EXPECT_EQ(tiled.cache_stats().tiled_shards, 0u);
  EXPECT_EQ(tiled.cache_stats().shard_spills, 0u);
  EXPECT_EQ(tiled.cache_stats().shard_reloads, 0u);
  EXPECT_EQ(tiled.cache_stats().prefetch_hits, 0u);
  EXPECT_EQ(tiled.cache_stats().prefetch_wasted, 0u);
  EXPECT_EQ(tiled.cache_stats().plan_partial_refreshes, 0u);
  EXPECT_EQ(tiled.cache_stats().plan_rows_refreshed, 0u);

  (void)tiled.multiply<SR>(Scheme::kMsa2P, ShardedMatrix<int, double>(a, 3),
                           a, m);
  ASSERT_GT(tiled.cache_stats().tiled_calls, 0u);
  tiled.engine().clear();
  EXPECT_EQ(tiled.cache_stats().tiled_calls, 0u);
  EXPECT_EQ(tiled.cache_stats().tiled_shards, 0u);
}

TEST(CacheHygiene, TiledEngineClearDropsItsFlopsCache) {
  // The genuine stale state of the tiled layer: TiledEngine's per-shard
  // flops cache is keyed by split fingerprints and used to survive
  // Engine::clear() untouched.
  const auto a = random_csr<int, double>(24, 24, 0.3, 581);
  const auto m = random_csr<int, double>(24, 24, 0.4, 582);
  TiledEngine tiled;
  (void)tiled.multiply<SR>(Scheme::kMsa2P, ShardedMatrix<int, double>(a, 3),
                           a, m);
  ASSERT_GT(tiled.flops_cache_size(), 0u);
  ASSERT_GT(tiled.engine().context().plan_count(), 0u);

  tiled.clear();
  EXPECT_EQ(tiled.flops_cache_size(), 0u);
  EXPECT_EQ(tiled.engine().context().plan_count(), 0u);
  EXPECT_EQ(tiled.cache_stats().tiled_calls, 0u);

  // Still fully functional after the wipe.
  const auto c = tiled.multiply<SR>(
      Scheme::kMsa2P, ShardedMatrix<int, double>(a, 3), a, m);
  Engine mono;
  EXPECT_TRUE(csr_equal(mono.multiply_scheme<SR>(Scheme::kMsa2P, a, a, m), c));
}

TEST(CacheHygiene, ResetStatsKeepsPlansWarm) {
  const auto a = random_csr<int, double>(30, 30, 0.2, 561);
  const auto m = random_csr<int, double>(30, 30, 0.3, 562);
  ExecutionContext ctx;
  (void)ctx.multiply<SR>(a, a, m);
  ASSERT_EQ(ctx.plan_count(), 1u);

  ctx.reset_stats();
  EXPECT_EQ(ctx.cache_stats().plan_misses, 0u);
  EXPECT_DOUBLE_EQ(ctx.cache_stats().plan_seconds, 0.0);
  // Plans survived: the next call is a pure hit.
  MaskedSpgemmStats stats;
  MaskedSpgemmOptions opt;
  opt.stats = &stats;
  (void)ctx.multiply<SR>(a, a, m, opt);
  EXPECT_TRUE(stats.plan_cache_hit);
  EXPECT_EQ(ctx.cache_stats().plan_hits, 1u);
  EXPECT_EQ(ctx.cache_stats().plan_misses, 0u);
}

// ---------------------------------------------------------------------------
// Bugfix: fingerprint-collision / shape-mismatch cross-check
// ---------------------------------------------------------------------------

TEST(PlanMismatch, CollidingKeysAreDemotedToMisses) {
  ExecutionContext ctx;
  // Collapse every fingerprint: all operand sets now share one plan key,
  // simulating a 64-bit collision (or operands re-bound across shapes).
  ctx.set_fingerprint_transform_for_testing(
      +[](std::uint64_t) -> std::uint64_t { return 42; });

  const auto a1 = random_csr<int, double>(30, 30, 0.2, 571);
  const auto m1 = random_csr<int, double>(30, 30, 0.3, 572);
  const auto c1 = ctx.multiply<SR>(a1, a1, m1);
  EXPECT_TRUE(csr_equal(masked_multiply<SR>(a1, a1, m1), c1));
  EXPECT_EQ(ctx.cache_stats().plan_mismatches, 0u);

  // Different shape, same (forced) key: without the hit-path cross-check
  // this would execute the 30×30 plan against 20×25 operands.
  const auto a2 = random_csr<int, double>(20, 15, 0.3, 573);
  const auto b2 = random_csr<int, double>(15, 25, 0.3, 574);
  const auto m2 = random_csr<int, double>(20, 25, 0.3, 575);
  MaskedSpgemmStats stats;
  MaskedSpgemmOptions opt;
  opt.stats = &stats;
  const auto c2 = ctx.multiply<SR>(a2, b2, m2, opt);
  EXPECT_TRUE(csr_equal(masked_multiply<SR>(a2, b2, m2), c2));
  EXPECT_FALSE(stats.plan_cache_hit);
  EXPECT_EQ(ctx.cache_stats().plan_mismatches, 1u);

  // And back: the cache now holds the 20×25 plan under the same key.
  const auto c1_again = ctx.multiply<SR>(a1, a1, m1);
  EXPECT_TRUE(csr_equal(masked_multiply<SR>(a1, a1, m1), c1_again));
  EXPECT_EQ(ctx.cache_stats().plan_mismatches, 2u);
}

TEST(PlanMismatch, GenuineHitsStillHit) {
  ExecutionContext ctx;
  ctx.set_fingerprint_transform_for_testing(
      +[](std::uint64_t) -> std::uint64_t { return 7; });
  const auto a = random_csr<int, double>(25, 25, 0.2, 581);
  const auto m = random_csr<int, double>(25, 25, 0.3, 582);
  (void)ctx.multiply<SR>(a, a, m);
  MaskedSpgemmStats stats;
  MaskedSpgemmOptions opt;
  opt.stats = &stats;
  (void)ctx.multiply<SR>(a, a, m, opt);
  // Same shapes pass the cross-check, so the collision-keyed plan is
  // still a (correct) hit for pattern-identical operands.
  EXPECT_TRUE(stats.plan_cache_hit);
  EXPECT_EQ(ctx.cache_stats().plan_mismatches, 0u);
}

// ---------------------------------------------------------------------------
// Bugfix: complement-row hash table capacity clamp
// ---------------------------------------------------------------------------

TEST(HashComplement, TableCapacityClampedToNcols) {
  using Kernel = HashKernel<SR, int, double, double>;
  // Dense 8-column operands: row flops = 64, mask row nnz = 4. The
  // unclamped bound was 4 + min(8, 64) = 12 → a 64-slot table; distinct
  // keys can never exceed ncols = 8 → 32 slots suffice.
  const auto a = random_csr<int, double>(8, 8, 1.0, 591);
  const auto b = random_csr<int, double>(8, 8, 1.0, 592);
  const auto m = random_csr<int, double>(8, 8, 0.5, 593);

  Kernel::Scratch scratch;
  Kernel kernel(a, b, m, /*complemented=*/true, &scratch);
  std::vector<int> out_cols(8);
  std::vector<double> out_vals(8);
  for (int i = 0; i < 8; ++i) {
    const int cnt = kernel.numeric_row(i, out_cols.data(), out_vals.data());
    EXPECT_EQ(cnt, 8 - m.row_nnz(i)) << "row " << i;  // dense product
    EXPECT_LE(scratch.slots.size(), 32u) << "row " << i;
  }
  // And the clamped table still produces the exact complemented result.
  MaskedSpgemmOptions opt;
  opt.algorithm = MaskedAlgorithm::kHash;
  opt.mask_kind = MaskKind::kComplement;
  opt.phase = MaskedPhase::kTwoPhase;
  EXPECT_TRUE(csr_equal(
      baseline_saxpy<SR>(a, b, m, MaskKind::kComplement),
      masked_multiply<SR>(a, b, m, opt)));
}

// ---------------------------------------------------------------------------
// Shared valued-mask filter helper
// ---------------------------------------------------------------------------

TEST(DropExplicitZeros, MatchesSelectAndKeepsShape) {
  auto m = random_csr<int, double>(40, 30, 0.3, 601);
  for (std::size_t p = 0; p < m.values.size(); p += 3) m.values[p] = 0.0;
  const auto filtered = drop_explicit_zeros(m);
  const auto expected =
      select(m, [](int, int, const double& v) { return v != 0.0; });
  EXPECT_TRUE(csr_equal(expected, filtered));
  EXPECT_EQ(filtered.nrows, m.nrows);
  EXPECT_EQ(filtered.ncols, m.ncols);
  EXPECT_LT(filtered.nnz(), m.nnz());
}

// ---------------------------------------------------------------------------
// App-level batch paths
// ---------------------------------------------------------------------------

TEST(AppBatch, TriangleSupportBatchMatchesSequential) {
  const auto g =
      remove_diagonal(symmetrize(erdos_renyi<int, double>(120, 8.0, 611)));
  const auto input = tricount_prepare(g);
  std::vector<CsrMatrix<int, double>> mask_store;
  mask_store.push_back(input.l);  // full mask: the total triangle count
  mask_store.push_back(tril(random_csr<int, double>(
      input.l.nrows, input.l.ncols, 0.1, 612)));
  mask_store.emplace_back(input.l.nrows, input.l.ncols);  // empty
  std::vector<const CsrMatrix<int, double>*> masks;
  for (const auto& m : mask_store) masks.push_back(&m);

  for (Scheme s : {Scheme::kMsa1P, Scheme::kHash2P}) {
    SCOPED_TRACE(scheme_name(s));
    std::vector<std::int64_t> sequential;
    for (const CsrMatrix<int, double>* m : masks) {
      sequential.push_back(static_cast<std::int64_t>(reduce_sum(
          run_fresh<PlusPair<double>>(s, input.l, input.l, *m))));
    }
    Engine engine;
    const auto batched = triangle_support_batch(input, masks, s, engine);
    EXPECT_EQ(sequential, batched);
    EXPECT_EQ(batched[2], 0);
    EXPECT_EQ(engine.cache_stats().plan_misses, masks.size());
    EXPECT_EQ(engine.cache_stats().plan_hits, 0u);
    EXPECT_EQ(batched[0], triangle_count(input, s, engine).triangles);
  }
}

TEST(AppBatch, FrontierExpansionBatchMatchesSequential) {
  const auto adj =
      remove_diagonal(symmetrize(erdos_renyi<int, double>(100, 6.0, 621)));
  const auto frontier = random_csr<int, double>(8, 100, 0.05, 622);
  std::vector<CsrMatrix<int, double>> mask_store;
  for (std::uint64_t s = 0; s < 4; ++s) {
    mask_store.push_back(random_csr<int, double>(8, 100, 0.2, 630 + s));
  }
  std::vector<const CsrMatrix<int, double>*> masks;
  for (const auto& m : mask_store) masks.push_back(&m);

  for (Scheme s : {Scheme::kMsa2P, Scheme::kHash1P}) {
    SCOPED_TRACE(scheme_name(s));
    Engine engine;
    const auto batched =
        frontier_expansion_batch(frontier, adj, masks, s, engine);
    ASSERT_EQ(masks.size(), batched.size());
    for (std::size_t q = 0; q < masks.size(); ++q) {
      EXPECT_TRUE(csr_equal(run_fresh<SR>(s, frontier, adj, *masks[q],
                                          MaskKind::kComplement),
                            batched[q]))
          << "mask " << q;
    }
  }
  Engine engine;
  EXPECT_THROW(
      frontier_expansion_batch(frontier, adj, masks, Scheme::kMca1P, engine),
      invalid_argument_error);
}

}  // namespace
