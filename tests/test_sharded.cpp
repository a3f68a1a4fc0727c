// Randomized differential harness for the sharded / out-of-core subsystem
// (core/shard.hpp + core/tiled_engine.hpp), plus deterministic edge-case
// coverage.
//
// The fuzz tests draw N seeded trials, each picking a random
// (corpus case, scheme, mask kind, mask semantics, shard count K,
// resident-bytes budget, index width), and assert that the tiled result is
// bit-identical to BOTH independent references:
//
//   * `ExecutionContext::multiply` (the monolithic plan/execute path; the
//     Engine baseline path for the SS-style schemes), and
//   * the `core/baseline.hpp` SAXPY reference via the conformance suite's
//     `expected_result`.
//
// Every trial is reproducible: the failure message names the exact seed,
// and setting MSP_TEST_SEED=<seed> (optionally MSP_TEST_TRIALS=1) replays
// it — trial i always runs with seed base+i, so a replay with the printed
// seed as base re-executes the failing draw as trial 0. MSP_TEST_TRIALS
// scales the trial count up or down without recompiling.
//
// The mutation-sequence fuzzer hammers the BoundMatrix contract from PR 4:
// in-place value mutations (`values_changed()`) and pattern mutations
// (`rebind()`) on a bound B, interleaved with ShardStore spill/reload
// churn, across the Inner schemes whose cached CSC transpose is exactly
// the state the version gate protects.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "conformance/conformance_support.hpp"
#include "core/shard.hpp"
#include "core/tiled_engine.hpp"
#include "apps/bc.hpp"
#include "apps/tricount.hpp"
#include "gen/rng.hpp"
#include "test_support.hpp"

namespace {

using namespace msp;
using msp::testing::csr_equal;
using msp::testing::random_csr;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// Base seed of the randomized trials. Deterministic by default so CI runs
/// are reproducible; override with MSP_TEST_SEED to replay a failure.
std::uint64_t base_seed() { return env_u64("MSP_TEST_SEED", 20260731ULL); }

/// Trial count (MSP_TEST_TRIALS). With an explicit MSP_TEST_SEED the
/// default drops to 1: replay exactly the failing trial.
int trial_count(int fallback) {
  const bool seeded = std::getenv("MSP_TEST_SEED") != nullptr &&
                      *std::getenv("MSP_TEST_SEED") != '\0';
  return static_cast<int>(
      env_u64("MSP_TEST_TRIALS", seeded ? 1 : static_cast<std::uint64_t>(
                                               fallback)));
}

/// The scheme pool of the sweep: all 14 paper schemes plus kAuto.
std::vector<Scheme> scheme_pool() {
  auto v = all_schemes();
  v.push_back(Scheme::kAuto);
  return v;
}

/// One random (K, store) draw: no store at all, a zero budget (nothing
/// stays resident unpinned), or a budget uniform in [0, total_bytes] —
/// crossed with the tiled engine's prefetch pipeline on/off and the
/// store's mmap-vs-streamed reload path. Every cell of that grid must be
/// bit-identical to the monolithic references.
struct StoreDraw {
  bool use_store = false;
  std::size_t budget = 0;
  bool prefetch = true;     ///< TiledEngine::set_prefetch axis
  bool mmap_reload = true;  ///< ShardStore::Options::mmap_reload axis
  bool balanced = false;    ///< nnz-balanced vs even row-count split
};

StoreDraw draw_store(Xoshiro256& rng, std::size_t total_bytes) {
  StoreDraw d;
  switch (rng.next_below(3)) {
    case 0: break;
    case 1: d.use_store = true; break;
    default:
      d.use_store = true;
      d.budget = rng.next_below(total_bytes + 1);
      break;
  }
  d.prefetch = rng.next_below(2) == 1;
  d.mmap_reload = rng.next_below(2) == 1;
  d.balanced = rng.next_below(2) == 1;
  return d;
}

/// The monolithic plan/execute reference: ExecutionContext::multiply for
/// the twelve planful schemes (and kAuto's decomposition), the Engine
/// baseline path for SS:DOT / SS:SAXPY.
template <class IT>
CsrMatrix<IT, double> context_reference(Scheme scheme,
                                        const CsrMatrix<IT, double>& a,
                                        const CsrMatrix<IT, double>& b,
                                        const CsrMatrix<IT, double>& m,
                                        MaskKind kind, MaskSemantics sem) {
  MaskedSpgemmOptions opt;
  opt.mask_kind = kind;
  opt.mask_semantics = sem;
  if (scheme_to_options(scheme, opt)) {
    ExecutionContext ctx;
    return ctx.multiply<PlusTimes<double>>(a, b, m, opt);
  }
  Engine engine;
  return engine.multiply_scheme<PlusTimes<double>>(scheme, a, b, m, kind,
                                                   sem);
}

/// One differential trial at a fixed index width.
template <class IT>
void run_differential_trial(Xoshiro256& rng) {
  static const std::vector<conformance::Case<IT>> cases =
      conformance::corpus<IT>();
  static const std::vector<Scheme> schemes = scheme_pool();

  const auto& c = cases[rng.next_below(cases.size())];
  const Scheme scheme = schemes[rng.next_below(schemes.size())];
  const MaskKind kind =
      rng.next_below(2) == 1 && scheme_supports_complement(scheme)
          ? MaskKind::kComplement
          : MaskKind::kMask;
  const MaskSemantics sem = rng.next_below(2) == 1
                                ? MaskSemantics::kValued
                                : MaskSemantics::kStructural;
  const int k = static_cast<int>(
      1 + rng.next_below(static_cast<std::uint64_t>(c.a.nrows) + 3));

  SCOPED_TRACE(::testing::Message()
               << "case=" << c.name << " scheme=" << scheme_name(scheme)
               << " kind=" << (kind == MaskKind::kComplement ? "comp" : "mask")
               << " sem=" << (sem == MaskSemantics::kValued ? "valued" : "structural")
               << " K=" << k << " IT=" << sizeof(IT) * 8 << "bit");

  // Shard the operand and (aligned) mask, possibly under a spill budget.
  // Total payload bytes of the split, computed directly: K shard rowptrs
  // hold nrows + K entries in total, colids/values are partitioned.
  const std::size_t total =
      (static_cast<std::size_t>(c.a.nrows) + static_cast<std::size_t>(k)) *
          sizeof(IT) +
      c.a.colids.size() * sizeof(IT) + c.a.values.size() * sizeof(double);
  const StoreDraw sd = draw_store(rng, total);
  ShardStore::Options so;
  so.resident_budget = sd.budget;
  so.mmap_reload = sd.mmap_reload;
  ShardStore store(sd.use_store ? so : ShardStore::Options{});
  ShardStore* sp = sd.use_store ? &store : nullptr;
  const ShardedMatrix<IT, double> a_sh(
      c.a,
      sd.balanced ? ShardedMatrix<IT, double>::balanced_ranges(c.a, k)
                  : ShardedMatrix<IT, double>::even_ranges(c.a.nrows, k),
      sp);
  const ShardedMatrix<IT, double> m_sh(c.m, a_sh, sp);
  SCOPED_TRACE(::testing::Message()
               << "store=" << (sd.use_store ? "yes" : "no")
               << " budget=" << sd.budget << "/" << total << " bytes"
               << " prefetch=" << (sd.prefetch ? "on" : "off")
               << " reload=" << (sd.mmap_reload ? "mmap" : "stream")
               << " split=" << (sd.balanced ? "balanced" : "even"));

  TiledEngine tiled;
  tiled.set_prefetch(sd.prefetch);
  const CsrMatrix<IT, double> got =
      tiled.multiply<PlusTimes<double>>(scheme, a_sh, c.b, m_sh, kind, sem);

  const CsrMatrix<IT, double> expected_ctx =
      context_reference(scheme, c.a, c.b, c.m, kind, sem);
  const CsrMatrix<IT, double> expected_base =
      conformance::expected_result<PlusTimes<double>>(c.a, c.b, c.m, kind,
                                                      sem);
  ASSERT_TRUE(csr_equal(expected_ctx, got)) << "vs ExecutionContext::multiply";
  ASSERT_TRUE(csr_equal(expected_base, got)) << "vs core/baseline.hpp";

  // Warm repeat over the same shards: per-shard plan-cache hits plus any
  // reload traffic the budget causes must not change a single bit.
  const CsrMatrix<IT, double> again =
      tiled.multiply<PlusTimes<double>>(scheme, a_sh, c.b, m_sh, kind, sem);
  ASSERT_TRUE(csr_equal(expected_base, again)) << "warm repeat";
}

TEST(ShardedDifferential, RandomizedTrials) {
  const std::uint64_t base = base_seed();
  const int trials = trial_count(48);
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(t);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << t << " — replay with MSP_TEST_SEED=" << seed
                 << " MSP_TEST_TRIALS=1");
    Xoshiro256 rng(seed);
    if (rng.next_below(2) == 0) {
      run_differential_trial<int>(rng);
    } else {
      run_differential_trial<std::int64_t>(rng);
    }
  }
}

/// Mutation-sequence fuzzer: a bound B is mutated in place (values and
/// pattern) between tiled multiplies while the shard store churns its
/// shards to disk and back. Every step is checked against the independent
/// baseline oracle computed from the *current* operands — if the handle's
/// version gating ever served stale transpose values (the PR 4 hazard) or
/// a reloaded shard decayed, the step would differ.
template <class IT>
void run_mutation_trial(Xoshiro256& rng) {
  static const std::vector<conformance::Case<IT>> cases =
      conformance::corpus<IT>();
  const auto& c = cases[rng.next_below(cases.size())];
  const int k = static_cast<int>(
      1 + rng.next_below(static_cast<std::uint64_t>(c.a.nrows) + 2));

  // Inner-heavy pool: the cached-transpose path is the regression target.
  const std::vector<Scheme> schemes{Scheme::kInner1P, Scheme::kInner2P,
                                    Scheme::kInner2P, Scheme::kMsa2P};

  CsrMatrix<IT, double> b = c.b;  // mutated in place; address stays fixed
  ShardStore::Options so;
  so.resident_budget = 0;  // maximal churn: only pinned shards stay resident
  ShardStore store(so);
  const ShardedMatrix<IT, double> a_sh(c.a, k, &store);
  const ShardedMatrix<IT, double> m_sh(c.m, a_sh, &store);

  TiledEngine tiled;
  BoundMatrix<IT, double> bh = tiled.engine().bind(b);

  const int steps = 6;
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t salt = rng.next();
    switch (rng.next_below(4)) {
      case 0: {
        // In-place value mutation, pattern untouched → values_changed().
        for (auto& v : b.values) {
          if ((salt ^ static_cast<std::uint64_t>(&v - b.values.data())) % 3 ==
              0) {
            v = static_cast<double>((salt >> 7) % 10);
          }
        }
        bh.values_changed();
        break;
      }
      case 1: {
        // Pattern mutation: drop a pseudo-random subset of entries, then
        // rebind the same object (same address, new pattern).
        b = select(b, [salt](IT i, IT j, const double&) {
          return ((static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL) ^
                  (static_cast<std::uint64_t>(j) + salt)) %
                     4 !=
                 0;
        });
        bh.rebind(b);
        break;
      }
      case 2:
        store.spill_all();  // force every unpinned shard to disk
        break;
      default:
        break;  // no mutation this step — exercises the pure-hit path
    }

    const Scheme scheme = schemes[rng.next_below(schemes.size())];
    const MaskKind kind =
        rng.next_below(3) == 0 ? MaskKind::kComplement : MaskKind::kMask;
    SCOPED_TRACE(::testing::Message()
                 << "case=" << c.name << " step=" << step << " scheme="
                 << scheme_name(scheme) << " K=" << k << " kind="
                 << (kind == MaskKind::kComplement ? "comp" : "mask"));
    const CsrMatrix<IT, double> got = tiled.multiply<PlusTimes<double>>(
        scheme, a_sh, b, m_sh, kind, MaskSemantics::kStructural, nullptr,
        &bh);
    const CsrMatrix<IT, double> expected =
        baseline_saxpy<PlusTimes<double>>(c.a, b, c.m, kind);
    ASSERT_TRUE(csr_equal(expected, got));
  }
}

TEST(ShardedDifferential, BoundMatrixMutationSequences) {
  const std::uint64_t base = base_seed();
  const int trials = trial_count(16);
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(t);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << t << " — replay with MSP_TEST_SEED=" << seed
                 << " MSP_TEST_TRIALS=1");
    Xoshiro256 rng(seed);
    if (rng.next_below(2) == 0) {
      run_mutation_trial<int>(rng);
    } else {
      run_mutation_trial<std::int64_t>(rng);
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic edge cases
// ---------------------------------------------------------------------------

TEST(ShardedEdge, KGreaterThanRows) {
  const auto a = random_csr<int, double>(5, 7, 0.5, 101);
  const auto b = random_csr<int, double>(7, 6, 0.5, 102);
  const auto m = random_csr<int, double>(5, 6, 0.6, 103);
  const ShardedMatrix<int, double> a_sh(a, 9);
  ASSERT_EQ(a_sh.shards(), 9);  // trailing shards are empty row ranges
  const ShardedMatrix<int, double> m_sh(m, a_sh);
  TiledEngine tiled;
  const auto got =
      tiled.multiply<PlusTimes<double>>(Scheme::kHash2P, a_sh, b, m_sh);
  const auto expected = baseline_saxpy<PlusTimes<double>>(a, b, m);
  EXPECT_TRUE(csr_equal(expected, got));
}

TEST(ShardedEdge, EmptyOperandAndEmptyShards) {
  // Entirely empty operand: every shard (including zero-row ones) must
  // produce an empty, well-formed block.
  const CsrMatrix<int, double> a(8, 8);
  const CsrMatrix<int, double> b(8, 8);
  const auto m = random_csr<int, double>(8, 8, 0.5, 202);
  const ShardedMatrix<int, double> a_sh(a, 11);
  const ShardedMatrix<int, double> m_sh(m, a_sh);
  TiledEngine tiled;
  for (Scheme s : {Scheme::kMsa1P, Scheme::kInner2P, Scheme::kSsSaxpy}) {
    const auto got = tiled.multiply<PlusTimes<double>>(s, a_sh, b, m_sh);
    EXPECT_TRUE(csr_equal(baseline_saxpy<PlusTimes<double>>(a, b, m), got))
        << scheme_name(s);
    EXPECT_EQ(got.nnz(), 0u);
  }
}

TEST(ShardedEdge, MaskShardAllEmptyUnderRegularMask) {
  // A shard whose mask rows are all empty must yield an all-empty result
  // block under kMask (and a dense-ish one under complement).
  const auto a = random_csr<int, double>(8, 8, 0.6, 301);
  const auto b = random_csr<int, double>(8, 8, 0.6, 302);
  const auto full = random_csr<int, double>(8, 8, 0.7, 303);
  const auto m = select(full, [](int i, int, const double&) { return i >= 4; });
  const ShardedMatrix<int, double> a_sh(a, 2);  // rows [0,4) and [4,8)
  const ShardedMatrix<int, double> m_sh(m, a_sh);
  {
    const auto lease = m_sh.lease(0);
    ASSERT_EQ(lease->nnz(), 0u);  // the whole first mask shard is empty
  }
  TiledEngine tiled;
  for (MaskKind kind : {MaskKind::kMask, MaskKind::kComplement}) {
    const auto got =
        tiled.multiply<PlusTimes<double>>(Scheme::kMsa2P, a_sh, b, m_sh, kind);
    EXPECT_TRUE(
        csr_equal(baseline_saxpy<PlusTimes<double>>(a, b, m, kind), got));
    if (kind == MaskKind::kMask) {
      for (int i = 0; i < 4; ++i) EXPECT_EQ(got.row_nnz(i), 0);
    }
  }
}

TEST(ShardedEdge, ShardStoreRoundTrip) {
  const auto a = random_csr<int, double>(16, 12, 0.4, 404);
  ShardStore store;  // unlimited budget: spills only when forced
  const ShardedMatrix<int, double> sh(a, 4, &store);

  // Snapshot every shard's payload, fingerprint, and size while resident.
  std::vector<CsrMatrix<int, double>> saved;
  std::vector<std::uint64_t> fps;
  std::vector<std::size_t> bytes;
  for (int s = 0; s < sh.shards(); ++s) {
    saved.push_back(*sh.lease(s));
    fps.push_back(sh.fingerprint(s));
    bytes.push_back(sh.bytes(s));
  }

  store.spill_all();
  for (int s = 0; s < sh.shards(); ++s) EXPECT_FALSE(sh.resident(s));
  EXPECT_EQ(store.resident_bytes(), 0u);
  EXPECT_EQ(store.stats().spills, 4u);
  std::size_t files = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(store.scratch_dir())) {
    files += e.path().extension() == ".bin" ? 1 : 0;
  }
  EXPECT_EQ(files, 4u);

  // Reload: bytes, fingerprint, and every stored bit must survive.
  for (int s = 0; s < sh.shards(); ++s) {
    const auto lease = sh.lease(s);
    EXPECT_TRUE(csr_equal(saved[static_cast<std::size_t>(s)], *lease));
    EXPECT_EQ(pattern_fingerprint(*lease, false), fps[static_cast<std::size_t>(s)]);
    EXPECT_EQ(sh.bytes(s), bytes[static_cast<std::size_t>(s)]);
    EXPECT_TRUE(sh.resident(s));
  }
  EXPECT_EQ(store.stats().reloads, 4u);

  // A second spill reuses the existing files (payloads are immutable):
  // eviction count grows, and reloading still restores identical bytes.
  store.spill_all();
  EXPECT_EQ(store.stats().spills, 8u);
  const auto lease = sh.lease(2);
  EXPECT_TRUE(csr_equal(saved[2], *lease));
}

TEST(ShardedEdge, PinnedShardsAreNeverEvicted) {
  const auto a = random_csr<int, double>(12, 12, 0.5, 505);
  ShardStore::Options so;
  so.resident_budget = 0;  // nothing survives unpinned
  ShardStore store(so);
  const ShardedMatrix<int, double> sh(a, 3, &store);
  const auto l0 = sh.lease(0);
  EXPECT_TRUE(sh.resident(0));
  {
    const auto l1 = sh.lease(1);  // pressure from the second pin…
    EXPECT_TRUE(sh.resident(0));  // …must not evict the still-leased shard
    EXPECT_TRUE(sh.resident(1));
  }
  EXPECT_FALSE(sh.resident(1));  // unpinned → spilled under budget 0
  EXPECT_TRUE(sh.resident(0));   // the live lease still pins shard 0
}

TEST(ShardedEdge, CacheStatsShardCounters) {
  const auto a = random_csr<int, double>(10, 10, 0.5, 606);
  const auto m = random_csr<int, double>(10, 10, 0.5, 607);
  ShardStore::Options so;
  so.resident_budget = 0;
  ShardStore store(so);
  const ShardedMatrix<int, double> a_sh(a, 4, &store);
  const ShardedMatrix<int, double> m_sh(m, a_sh, &store);
  TiledEngine tiled;
  (void)tiled.multiply<PlusTimes<double>>(Scheme::kMsa1P, a_sh, a, m_sh);
  (void)tiled.multiply<PlusTimes<double>>(Scheme::kMsa1P, a_sh, a, m_sh);
  const auto& stats = tiled.cache_stats();
  EXPECT_EQ(stats.tiled_calls, 2u);
  EXPECT_EQ(stats.tiled_shards, 8u);
  EXPECT_GT(stats.shard_reloads, 0u);  // budget 0 forces per-call reloads
  EXPECT_GT(stats.shard_spills, 0u);
}

TEST(ShardedEdge, MmapAndStreamedReloadsAreBitIdentical) {
  // The same split, spilled and reloaded through both local backends, must
  // produce identical payloads, fingerprints, and tiled products.
  const auto a = random_csr<int, double>(24, 24, 0.4, 701);
  const auto b = random_csr<int, double>(24, 24, 0.4, 702);
  const auto m = random_csr<int, double>(24, 24, 0.5, 703);
  CsrMatrix<int, double> results[2];
  for (const bool mmap_reload : {false, true}) {
    ShardStore::Options so;
    so.resident_budget = 0;  // every lease is a cold reload
    so.mmap_reload = mmap_reload;
    ShardStore store(so);
    const ShardedMatrix<int, double> a_sh(a, 4, &store);
    const ShardedMatrix<int, double> m_sh(m, a_sh, &store);
    store.spill_all();
    for (int s = 0; s < a_sh.shards(); ++s) {
      const auto held = a_sh.lease(s);
      EXPECT_TRUE(csr_equal(slice_rows(a, a_sh.row_begin(s), a_sh.row_end(s)),
                            held.matrix()))
          << (mmap_reload ? "mmap" : "streamed") << " reload, shard " << s;
    }
    TiledEngine tiled;
    results[mmap_reload ? 1 : 0] =
        tiled.multiply<PlusTimes<double>>(Scheme::kMsa1P, a_sh, b, m_sh);
  }
  ASSERT_TRUE(csr_equal(results[0], results[1]));
  ASSERT_TRUE(csr_equal(baseline_saxpy<PlusTimes<double>>(a, b, m),
                        results[1]));
}

TEST(ShardedEdge, BalancedRangesEqualizeSkewedPayloads) {
  // A hub-heavy matrix: row 0 is dense, the rest are sparse — the even
  // row-count split piles most of the payload into shard 0. The balanced
  // split must cut by nnz prefix instead, and still stitch bit-identically.
  const auto a = select(random_csr<int, double>(64, 64, 0.9, 901),
                        [](int i, int j, const double&) {
                          return i < 2 || (i + j) % 16 == 0;
                        });
  const auto b = random_csr<int, double>(64, 64, 0.3, 902);
  const auto m = random_csr<int, double>(64, 64, 0.4, 903);
  const int k = 4;

  const auto ranges = ShardedMatrix<int, double>::balanced_ranges(a, k);
  ASSERT_EQ(ranges.size(), static_cast<std::size_t>(k) + 1);
  ASSERT_EQ(ranges.front(), 0);
  ASSERT_EQ(ranges.back(), a.nrows);
  for (int s = 0; s < k; ++s) ASSERT_LE(ranges[s], ranges[s + 1]);

  // The balanced split's heaviest shard must carry strictly less of the
  // payload than the even split's (which holds the whole hub block).
  auto max_nnz = [&](const std::vector<int>& r) {
    std::size_t worst = 0;
    for (int s = 0; s < k; ++s) {
      worst = std::max(worst,
                       static_cast<std::size_t>(a.rowptr[r[s + 1]] -
                                                a.rowptr[r[s]]));
    }
    return worst;
  };
  EXPECT_LT(max_nnz(ranges),
            max_nnz(ShardedMatrix<int, double>::even_ranges(a.nrows, k)));

  const ShardedMatrix<int, double> a_sh(a, ranges);
  const ShardedMatrix<int, double> m_sh(m, a_sh);
  TiledEngine tiled;
  const auto got =
      tiled.multiply<PlusTimes<double>>(Scheme::kMsa2P, a_sh, b, m_sh);
  EXPECT_TRUE(csr_equal(baseline_saxpy<PlusTimes<double>>(a, b, m), got));

  // Degenerate corners: more shards than nonzero rows (trailing cuts all
  // land on nrows), an empty matrix, and K = 1.
  const auto wide = ShardedMatrix<int, double>::balanced_ranges(a, 200);
  ASSERT_EQ(wide.size(), 201u);
  EXPECT_EQ(wide.back(), a.nrows);
  using Sharded = ShardedMatrix<int, double>;
  const CsrMatrix<int, double> empty(6, 6);
  const auto er = Sharded::balanced_ranges(empty, 3);
  EXPECT_EQ(er, (std::vector<int>{0, 0, 0, 6}));
  EXPECT_EQ(Sharded::balanced_ranges(a, 1), (std::vector<int>{0, a.nrows}));
  EXPECT_THROW((void)Sharded::balanced_ranges(a, 0), invalid_argument_error);
}

TEST(ShardedEdge, PrefetchPipelineIsBitIdenticalAndCounted) {
  // Same operands, prefetch pipeline off vs on. With a budget that affords
  // one shard beyond the pinned working set, the engine's k+1 prefetches
  // must convert into hits — and never change a bit of the product.
  const auto a = random_csr<int, double>(32, 32, 0.4, 711);
  const auto b = random_csr<int, double>(32, 32, 0.4, 712);
  const auto m = random_csr<int, double>(32, 32, 0.5, 713);
  const auto expected = baseline_saxpy<PlusTimes<double>>(a, b, m);

  for (const bool prefetch : {false, true}) {
    ShardStore store;  // unlimited budget: prefetched payloads stay put
    const ShardedMatrix<int, double> a_sh(a, 4, &store);
    const ShardedMatrix<int, double> m_sh(m, a_sh, &store);
    store.spill_all();  // cold start: every shard begins on the backend
    TiledEngine tiled;
    tiled.set_prefetch(prefetch);
    const auto got =
        tiled.multiply<PlusTimes<double>>(Scheme::kMsa1P, a_sh, b, m_sh);
    ASSERT_TRUE(csr_equal(expected, got))
        << "prefetch=" << (prefetch ? "on" : "off");
    store.wait_prefetches();
    const auto& st = store.stats();
    if (prefetch) {
      // Shards 1..3 of both A and M are prefetchable behind shard 0.
      EXPECT_GT(st.prefetches.load(), 0u);
      EXPECT_GT(st.prefetch_hits.load(), 0u);
      EXPECT_EQ(tiled.cache_stats().prefetch_hits, st.prefetch_hits.load());
    } else {
      EXPECT_EQ(st.prefetches.load(), 0u);
      EXPECT_EQ(tiled.cache_stats().prefetch_hits, 0u);
    }
  }
}

/// Spilled store entries behind an aligned operand/mask pair; a shard
/// that serves as both counts once.
std::size_t spilled_entries(const ShardedMatrix<int, double>& a,
                            const ShardedMatrix<int, double>& m) {
  std::size_t n = 0;
  for (int s = 0; s < a.shards(); ++s) {
    n += a.resident(s) ? 0 : 1;
    if (&m != &a) n += m.resident(s) ? 0 : 1;
  }
  return n;
}

TEST(ShardedOrder, WarmCallReloadsOnlyWhatWasSpilled) {
  // A store half the size of the shards: an index-order sweep over an
  // LRU store keeps nothing across calls and reloads every shard. With
  // resident shards visited first, LRU only displaces shards the call has
  // finished, so a warm call must reload exactly the entries spilled when
  // it began. Two shapes: L as operand and mask at once (the tricount
  // product), and a separate mask split along L's shards.
  const auto l = random_csr<int, double>(96, 96, 0.15, 811);
  const auto m = random_csr<int, double>(96, 96, 0.2, 812);
  const int k = 8;
  for (const bool shared : {true, false}) {
    SCOPED_TRACE(shared ? "L as operand and mask" : "separate mask");
    const auto& mask = shared ? l : m;
    Engine mono;
    const auto expected =
        mono.multiply_scheme<PlusTimes<double>>(Scheme::kMsa2P, l, l, mask);
    ShardStore::Options so;
    {
      const ShardedMatrix<int, double> probe(l, k);
      so.resident_budget =
          (probe.total_bytes() +
           (shared ? 0 : ShardedMatrix<int, double>(m, probe).total_bytes())) /
          2;
    }
    ShardStore store(so);
    const ShardedMatrix<int, double> l_sh(l, k, &store);
    std::unique_ptr<ShardedMatrix<int, double>> m_own;
    if (!shared) {
      m_own = std::make_unique<ShardedMatrix<int, double>>(m, l_sh, &store);
    }
    const ShardedMatrix<int, double>& m_sh = shared ? l_sh : *m_own;
    const std::size_t entries = static_cast<std::size_t>(shared ? k : 2 * k);
    TiledEngine tiled;
    tiled.set_prefetch(false);
    (void)tiled.multiply<PlusTimes<double>>(Scheme::kMsa2P, l_sh, l, m_sh);
    for (int call = 0; call < 3; ++call) {
      SCOPED_TRACE("warm call " + std::to_string(call));
      const std::size_t spilled = spilled_entries(l_sh, m_sh);
      ASSERT_GT(spilled, 0u);
      const std::size_t reloads0 = store.stats().reloads;
      const auto got =
          tiled.multiply<PlusTimes<double>>(Scheme::kMsa2P, l_sh, l, m_sh);
      EXPECT_TRUE(csr_equal(expected, got));
      EXPECT_EQ(store.stats().reloads - reloads0, spilled);
      EXPECT_LT(spilled, entries);
    }
  }
}

TEST(ShardedOrder, PrefetchedRepeatCallsStayBitIdentical) {
  // The tricount shape of the out-of-core benchmark: L is operand, B and
  // mask at once, its shards in a store half its size, prefetch on. The
  // resident shards run first while the first spilled one is prefetched,
  // so every reload of a call is a prefetch hit — no call starts with a
  // synchronous reload.
  const auto l = random_csr<int, double>(128, 128, 0.12, 821);
  const int k = 8;
  Engine mono;
  MaskedSpgemmStats mono_stats;
  const auto expected = mono.multiply_scheme<PlusTimes<double>>(
      Scheme::kAuto, l, l, l, MaskKind::kMask, MaskSemantics::kStructural,
      &mono_stats);

  ShardStore::Options so;
  so.resident_budget = ShardedMatrix<int, double>(l, k).total_bytes() / 2;
  ShardStore store(so);
  const ShardedMatrix<int, double> l_sh(
      l, ShardedMatrix<int, double>::balanced_ranges(l, k), &store);
  TiledEngine tiled;
  for (int call = 0; call < 5; ++call) {
    SCOPED_TRACE("call " + std::to_string(call));
    const std::size_t reloads0 = store.stats().reloads;
    const std::size_t hits0 = store.stats().prefetch_hits;
    MaskedSpgemmStats st;
    const auto got = tiled.multiply<PlusTimes<double>>(
        Scheme::kAuto, l_sh, l, l_sh, MaskKind::kMask,
        MaskSemantics::kStructural, &st);
    EXPECT_TRUE(csr_equal(expected, got));
    EXPECT_EQ(st.total_flops, mono_stats.total_flops);
    EXPECT_EQ(st.output_nnz, mono_stats.output_nnz);
    const std::size_t reloads = store.stats().reloads - reloads0;
    EXPECT_GT(reloads, 0u);
    EXPECT_LT(reloads, static_cast<std::size_t>(k));
    EXPECT_EQ(store.stats().prefetch_hits - hits0, reloads);
  }
  EXPECT_EQ(store.stats().prefetch_wasted.load(), 0u);
}

TEST(ShardedEdge, ShortLivedShardsReleaseTheirStoreEntries) {
  // The per-expansion bc pattern: a long-lived store fed by short-lived
  // sharded matrices. Dead splits must release their resident accounting
  // and delete their spill files — and a lease outliving the sharded
  // matrix must keep its entry alive until the lease drops.
  ShardStore store;
  const auto a = random_csr<int, double>(16, 16, 0.5, 811);
  for (int round = 0; round < 3; ++round) {
    const ShardedMatrix<int, double> sh(a, 4, &store);
    store.spill_all();
    (void)sh.lease(1);  // reload one shard, then let the split die
  }
  EXPECT_EQ(store.resident_bytes(), 0u);
  std::size_t files = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(store.scratch_dir())) {
    files += e.path().extension() == ".bin" ? 1 : 0;
  }
  EXPECT_EQ(files, 0u);  // every dead split's spill files were removed

  auto sh = std::make_unique<ShardedMatrix<int, double>>(a, 2, &store);
  auto lease = sh->lease(0);
  const std::size_t pinned = store.resident_bytes();
  sh.reset();  // the lease must keep the entry registered and resident
  EXPECT_EQ(store.resident_bytes(), pinned);
  EXPECT_EQ(lease->nrows, 8);
  lease = ShardLease<int, double>(std::move(lease));  // move keeps the pin
  EXPECT_EQ(store.resident_bytes(), pinned);
  {
    const ShardLease<int, double> last = std::move(lease);
    EXPECT_EQ(last->nrows, 8);
  }
  EXPECT_EQ(store.resident_bytes(), 0u);  // last lease gone → unregistered
}

TEST(ShardedEdge, TwoStoresOnOneScratchBaseDoNotCollide) {
  // Caller-provided base directory shared by two stores: each store works
  // in its own unique subdirectory, so identically numbered shard files
  // cannot overwrite each other.
  const auto base = std::filesystem::temp_directory_path() /
                    "mspgemm-shard-collision-test";
  std::filesystem::create_directories(base);
  const auto a = random_csr<int, double>(12, 12, 0.6, 821);
  const auto b = random_csr<int, double>(12, 12, 0.6, 822);
  {
    ShardStore::Options opt;
    opt.scratch_dir = base;
    ShardStore sa(opt);
    ShardStore sb(opt);
    EXPECT_NE(sa.scratch_dir(), sb.scratch_dir());
    const ShardedMatrix<int, double> ash(a, 3, &sa);
    const ShardedMatrix<int, double> bsh(b, 3, &sb);
    sa.spill_all();
    sb.spill_all();  // entry 0 of both stores is on disk — must not clash
    EXPECT_TRUE(csr_equal(slice_rows(a, 0, 4), *ash.lease(0)));
    EXPECT_TRUE(csr_equal(slice_rows(b, 0, 4), *bsh.lease(0)));
  }
  std::filesystem::remove_all(base);
}

TEST(ShardedEdge, MisalignedShardsAndForeignHandleThrow) {
  const auto a = random_csr<int, double>(8, 8, 0.5, 708);
  const auto m = random_csr<int, double>(8, 8, 0.5, 709);
  const ShardedMatrix<int, double> a_sh(a, 2);
  const ShardedMatrix<int, double> m_bad(m, 3);  // different ranges
  TiledEngine tiled;
  EXPECT_THROW((void)tiled.multiply<PlusTimes<double>>(Scheme::kMsa1P, a_sh,
                                                       a, m_bad),
               invalid_argument_error);
  const ShardedMatrix<int, double> m_sh(m, a_sh);
  const auto other = random_csr<int, double>(8, 8, 0.5, 710);
  const BoundMatrix<int, double> wrong(other);  // bound to a different B
  EXPECT_THROW((void)tiled.multiply<PlusTimes<double>>(
                   Scheme::kMsa1P, a_sh, a, m_sh, MaskKind::kMask,
                   MaskSemantics::kStructural, nullptr, &wrong),
               invalid_argument_error);
}

TEST(ShardedApps, TricountAndBcMatchMonolithic) {
  const auto g = rmat_graph<int, double>(6, 6.0);
  const auto input = tricount_prepare(g);
  Engine mono;
  const auto r_mono = triangle_count(input, Scheme::kMsa2P, mono);
  ShardStore::Options so;
  so.resident_budget = input.l.nnz() * sizeof(double) / 2;
  ShardStore store(so);
  TiledEngine tiled;
  const auto r_tiled =
      triangle_count_sharded(input, Scheme::kMsa2P, tiled, 4, &store);
  EXPECT_EQ(r_mono.triangles, r_tiled.triangles);
  EXPECT_GE(tiled.cache_stats().tiled_calls, 1u);

  const std::vector<int> sources{0, 1, 2, 3, 4, 5, 6, 7};
  Engine bc_engine;
  const auto bc_mono =
      betweenness_centrality(g, sources, Scheme::kMsa2P, bc_engine);
  TiledEngine bc_tiled;
  const auto bc_shard =
      betweenness_centrality_sharded(g, sources, Scheme::kMsa2P, bc_tiled, 3);
  EXPECT_EQ(bc_mono.depth, bc_shard.depth);
  EXPECT_EQ(bc_mono.centrality, bc_shard.centrality);
}

// ---------------------------------------------------------------------------
// Streaming split: ShardedMatrix::from_generator
// ---------------------------------------------------------------------------

TEST(ShardedStreaming, GeneratorSplitMatchesSlicedSplit) {
  const auto a = random_csr<int, double>(64, 48, 0.2, 710);
  const auto ranges = ShardedMatrix<int, double>::even_ranges(64, 5);
  int calls = 0;
  const auto sh = ShardedMatrix<int, double>::from_generator(
      64, 48, ranges, [&](int s, int lo, int hi) {
        EXPECT_EQ(lo, ranges[static_cast<std::size_t>(s)]);
        EXPECT_EQ(hi, ranges[static_cast<std::size_t>(s) + 1]);
        ++calls;
        return slice_rows(a, lo, hi);
      });
  EXPECT_EQ(calls, 5);
  const ShardedMatrix<int, double> ref(a, ranges);
  ASSERT_EQ(sh.shards(), ref.shards());
  for (int s = 0; s < sh.shards(); ++s) {
    EXPECT_EQ(sh.fingerprint(s), ref.fingerprint(s));
    EXPECT_TRUE(csr_equal(*ref.lease(s), *sh.lease(s)));
  }
}

TEST(ShardedStreaming, GeneratorShapeMismatchThrows) {
  using Sharded = ShardedMatrix<int, double>;
  const auto a = random_csr<int, double>(16, 16, 0.3, 720);
  EXPECT_THROW((void)Sharded::from_generator(
                   16, 16, Sharded::even_ranges(16, 2),
                   [&](int, int, int) { return slice_rows(a, 0, 3); }),
               invalid_argument_error);
}

TEST(ShardedStreaming, IngestResidencyStaysWithinBudgetPlusOneBlock) {
  // The streaming-ingest guarantee: with a store whose budget is one
  // shard, registering each generated block before producing the next
  // keeps the unpinned resident set at the budget throughout — the full
  // matrix is never in memory. Observed at every generator call (resident
  // bytes of all *registered* blocks) and after the build.
  const auto a = random_csr<int, double>(96, 96, 0.25, 730);
  const int k = 6;
  const auto ranges = ShardedMatrix<int, double>::balanced_ranges(a, k);
  std::size_t max_block = 0;
  for (int s = 0; s < k; ++s) {
    const auto block = slice_rows(a, ranges[static_cast<std::size_t>(s)],
                                  ranges[static_cast<std::size_t>(s) + 1]);
    max_block = std::max(max_block, block.rowptr.size() * sizeof(int) +
                                        block.colids.size() * sizeof(int) +
                                        block.values.size() * sizeof(double));
  }
  ShardStore::Options so;
  so.resident_budget = max_block;  // room for roughly one shard
  ShardStore store(so);
  std::size_t peak_registered = 0;
  const auto sh = ShardedMatrix<int, double>::from_generator(
      a.nrows, a.ncols, ranges,
      [&](int, int lo, int hi) {
        peak_registered = std::max(peak_registered, store.resident_bytes());
        return slice_rows(a, lo, hi);
      },
      &store);
  peak_registered = std::max(peak_registered, store.resident_bytes());
  EXPECT_LE(peak_registered, so.resident_budget);
  EXPECT_GT(store.stats().spills.load(), 0u);

  // And the streamed shards still compute the right answer.
  const auto b = random_csr<int, double>(96, 96, 0.1, 731);
  const auto m = random_csr<int, double>(96, 96, 0.15, 732);
  TiledEngine tiled;
  const auto got = tiled.multiply<PlusTimes<double>>(Scheme::kMsa2P, sh, b, m);
  Engine mono;
  const auto want =
      mono.multiply_scheme<PlusTimes<double>>(Scheme::kMsa2P, a, b, m);
  EXPECT_TRUE(csr_equal(want, got));
}

}  // namespace
