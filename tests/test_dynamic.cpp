// Streaming graph updates (ctest label: dynamic; the sanitizer/TSan CI
// sweeps include it alongside fuzz/storage).
//
// The house rule under test: after ANY sequence of apply/query operations, a query through the incremental machinery — DeltaMatrix +
// BoundMatrix::structure_changed + partial plan refresh (monolithic), or
// DeltaMatrix + ShardedMatrix::refresh_rows (tiled) — must be bit-identical
// to rebuilding everything from scratch on the merged matrix.
//
// Layers:
//  * DeltaMatrix unit tests — last-wins batches, mutation receipts,
//    epoching, a live matrix whose address survives every batch;
//  * Engine/TiledEngine integration — partial plan refresh really skips
//    untouched row blocks (plan_rows_refreshed / symbolic_skipped proof),
//    the result splice recomputes exactly the rows stamped since the cached
//    result, matches a fresh full product for every planful scheme and
//    leaves the plan cache alone, per-shard invalidation re-fingerprints
//    only overlapping shards;
//  * randomized differential fuzzers — seeded interleaved
//    insert/delete/query streams against a std::map model, across
//    scheme families × mask kinds × semantics × {int, int64_t} ×
//    monolithic/sharded execution;
//  * a concurrent updater-vs-snapshot-readers stress for the TSan job
//    (`ctest -L 'fuzz|storage|dynamic'` under -DMSPGEMM_TSAN=ON).
//
// Seeding follows the suite convention: deterministic by default,
// MSP_TEST_SEED replays a failure, MSP_TEST_TRIALS scales the trial count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/tiled_engine.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rng.hpp"
#include "matrix/convert.hpp"
#include "matrix/coo.hpp"
#include "matrix/delta.hpp"
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

std::uint64_t base_seed() { return env_u64("MSP_TEST_SEED", 20260808ULL); }

int trial_count(int fallback) {
  const bool seeded = std::getenv("MSP_TEST_SEED") != nullptr &&
                      *std::getenv("MSP_TEST_SEED") != '\0';
  return static_cast<int>(
      env_u64("MSP_TEST_TRIALS", seeded ? 1 : static_cast<std::uint64_t>(
                                               fallback)));
}

// ---------------------------------------------------------------------------
// DeltaMatrix
// ---------------------------------------------------------------------------

CsrMatrix<int, double> tiny_base() {
  // 4x4: row 0 = {0:1, 2:2}, row 1 = {}, row 2 = {1:3}, row 3 = {3:4}
  CooMatrix<int, double> coo(4, 4);
  coo.push(0, 0, 1.0);
  coo.push(0, 2, 2.0);
  coo.push(2, 1, 3.0);
  coo.push(3, 3, 4.0);
  return coo_to_csr(std::move(coo));
}

TEST(DeltaMatrixTest, BatchReceiptsAndLastWins) {
  DeltaMatrix<int, double> dm(tiny_base());
  const std::vector<EdgeUpdate<int, double>> edits{
      {0, 1, 5.0, false},   // insert
      {0, 0, 9.0, false},   // assign over existing
      {2, 1, 0.0, true},    // remove existing
      {3, 2, 1.0, true},    // remove absent: no-op
      {1, 3, 6.0, false},   // insert, then overwritten below (last wins)
      {1, 3, 7.0, false},
  };
  const auto res = dm.apply_updates(edits);
  EXPECT_EQ(res.inserted, 2u);
  EXPECT_EQ(res.assigned, 1u);
  EXPECT_EQ(res.removed, 1u);
  EXPECT_EQ(res.row_begin, 0);
  EXPECT_EQ(res.row_end, 4);
  EXPECT_EQ(res.epoch, 1u);
  EXPECT_FALSE(res.compacted);
  EXPECT_EQ(dm.epoch(), 1u);
  ASSERT_EQ(res.touched_ranges.size(), 1u);
  EXPECT_EQ(res.touched_ranges[0], (std::pair<int, int>{0, 4}));

  CooMatrix<int, double> want(4, 4);
  want.push(0, 0, 9.0);
  want.push(0, 1, 5.0);
  want.push(0, 2, 2.0);
  want.push(1, 3, 7.0);
  want.push(3, 3, 4.0);
  EXPECT_TRUE(csr_equal(coo_to_csr(std::move(want)), dm.matrix()));
}

TEST(DeltaMatrixTest, OutOfRangeCoordinateThrows) {
  DeltaMatrix<int, double> dm(tiny_base());
  EXPECT_THROW(dm.apply_updates(std::vector<EdgeUpdate<int, double>>{
                   {4, 0, 1.0, false}}),
               invalid_argument_error);
  EXPECT_THROW(dm.apply_updates(std::vector<EdgeUpdate<int, double>>{
                   {0, -1, 1.0, false}}),
               invalid_argument_error);
}

TEST(DeltaMatrixTest, MatrixAddressStableAcrossUpdates) {
  // Each batch rebuilds the live CSR in the previous batch's arrays and
  // swaps them in: the object, which bound handles point at, stays put.
  DeltaMatrix<int, double> dm(tiny_base());
  const CsrMatrix<int, double>* addr = &dm.matrix();
  dm.apply_updates(std::vector<EdgeUpdate<int, double>>{{0, 3, 1.0, false}});
  dm.apply_updates(std::vector<EdgeUpdate<int, double>>{{0, 0, 1.0, true},
                                                        {2, 2, 5.0, false}});
  dm.apply_updates(std::vector<EdgeUpdate<int, double>>{{1, 0, 6.0, false}});
  EXPECT_EQ(addr, &dm.matrix());
  CooMatrix<int, double> want(4, 4);
  want.push(0, 2, 2.0);
  want.push(0, 3, 1.0);
  want.push(1, 0, 6.0);
  want.push(2, 1, 3.0);
  want.push(2, 2, 5.0);
  want.push(3, 3, 4.0);
  EXPECT_TRUE(csr_equal(coo_to_csr(std::move(want)), dm.matrix()));
}

// ---------------------------------------------------------------------------
// Engine::update — monolithic incremental path
// ---------------------------------------------------------------------------

TEST(EngineUpdateTest, MismatchedHandleThrows) {
  DeltaMatrix<int, double> dm(tiny_base());
  const auto other = tiny_base();
  Engine eng;
  BoundMatrix<int, double> wrong(other);
  EXPECT_THROW(eng.update(dm, wrong,
                          std::span<const EdgeUpdate<int, double>>{}),
               invalid_argument_error);
}

TEST(EngineUpdateTest, UntouchedRowBlocksSkipSymbolic) {
  using SR = PlusTimes<double>;
  const int n = 2048;  // 8 dirty-tracking blocks of kPlanDirtyBlockRows=256
  const auto base = random_csr<int, double>(n, n, 8.0 / n, base_seed());
  const auto b = random_csr<int, double>(n, n, 8.0 / n, base_seed() + 1);
  const auto m = random_csr<int, double>(n, n, 16.0 / n, base_seed() + 2);

  DeltaMatrix<int, double> dm(base);
  Engine eng;
  BoundMatrix<int, double> ah(dm.matrix());
  BoundMatrix<int, double> bh(b);

  // First update before any query: the handle switches to its identity
  // fingerprint here, so the plan built by the warm-up query below is
  // already keyed by it. No mask handle: with all three operands bound
  // the engine would answer from the result splice instead (covered by
  // ResultSpliceRecomputesOnlyDirtyRows below); A+B handles exercise the
  // plan-layer partial refresh this test is about.
  eng.update(dm, ah, std::span<const EdgeUpdate<int, double>>(
                         std::vector<EdgeUpdate<int, double>>{
                             {0, 1, 1.0, false}}));

  MaskedSpgemmStats st;
  const auto c0 = eng.multiply_scheme<SR>(Scheme::kMsa2P, dm.matrix(), b, m,
                                          MaskKind::kMask,
                                          MaskSemantics::kStructural, &st,
                                          &ah, &bh, nullptr);
  EXPECT_FALSE(st.plan_cache_hit);

  // Small update confined to the first block; the next query must hit the
  // cached plan, refresh only that block's rows, and skip its symbolic
  // phase outright.
  eng.update(dm, ah, std::span<const EdgeUpdate<int, double>>(
                         std::vector<EdgeUpdate<int, double>>{
                             {3, 5, 2.0, false}, {7, 2, 0.0, true}}));
  const auto c1 = eng.multiply_scheme<SR>(Scheme::kMsa2P, dm.matrix(), b, m,
                                          MaskKind::kMask,
                                          MaskSemantics::kStructural, &st,
                                          &ah, &bh, nullptr);
  EXPECT_TRUE(st.plan_cache_hit);
  EXPECT_TRUE(st.symbolic_skipped);
  EXPECT_GT(st.plan_rows_refreshed, 0u);
  EXPECT_LE(st.plan_rows_refreshed, 512u);  // ≤ two 256-row blocks
  EXPECT_GE(eng.cache_stats().plan_partial_refreshes, 1u);
  EXPECT_GE(eng.cache_stats().plan_rows_refreshed, st.plan_rows_refreshed);

  // And the incremental answer is the rebuilt-from-scratch answer.
  Engine fresh;
  const auto want = fresh.multiply_scheme<SR>(Scheme::kMsa2P, dm.matrix(), b,
                                              m, MaskKind::kMask);
  EXPECT_TRUE(csr_equal(want, c1));
  (void)c0;
}

TEST(EngineUpdateTest, ResultSpliceRecomputesOnlyDirtyRows) {
  using SR = PlusTimes<double>;
  const int n = 2048;
  const auto base = random_csr<int, double>(n, n, 8.0 / n, base_seed() + 5);
  const auto b = random_csr<int, double>(n, n, 8.0 / n, base_seed() + 6);
  const auto m = random_csr<int, double>(n, n, 16.0 / n, base_seed() + 7);

  DeltaMatrix<int, double> dm(base);
  Engine eng;
  BoundMatrix<int, double> ah(dm.matrix());
  BoundMatrix<int, double> bh(b);
  BoundMatrix<int, double> mh(m);

  // Warm-up: identity fingerprint first, then the query that seeds the
  // result cache (all three handles bound → splice-eligible).
  eng.update(dm, ah, std::span<const EdgeUpdate<int, double>>(
                         std::vector<EdgeUpdate<int, double>>{
                             {0, 1, 1.0, false}}));
  (void)eng.multiply_scheme<SR>(Scheme::kMsa2P, dm.matrix(), b, m,
                                MaskKind::kMask, MaskSemantics::kStructural,
                                nullptr, &ah, &bh, &mh);
  EXPECT_EQ(eng.result_cache_size(), 1u);

  // A small scattered update: the next query must answer from the splice —
  // recompute only the dirty runs, reuse every other cached row.
  eng.update(dm, ah, std::span<const EdgeUpdate<int, double>>(
                         std::vector<EdgeUpdate<int, double>>{
                             {3, 5, 2.0, false}, {1900, 2, 3.0, false}}));
  MaskedSpgemmStats st;
  const auto c1 = eng.multiply_scheme<SR>(Scheme::kMsa2P, dm.matrix(), b, m,
                                          MaskKind::kMask,
                                          MaskSemantics::kStructural, &st,
                                          &ah, &bh, &mh);
  EXPECT_TRUE(st.plan_cache_hit);
  EXPECT_TRUE(st.symbolic_skipped);
  EXPECT_GT(st.plan_rows_refreshed, 0u);
  EXPECT_LT(st.plan_rows_refreshed, static_cast<std::size_t>(n) / 2);
  EXPECT_GE(eng.cache_stats().result_splices, 1u);
  EXPECT_EQ(eng.cache_stats().result_rows_recomputed, st.plan_rows_refreshed);
  // The spliced call reports its own kernel work: the row pass, the
  // assembly, the flops of the recomputed rows and the returned nnz.
  EXPECT_GT(st.numeric_seconds, 0.0);
  EXPECT_GT(st.assemble_seconds, 0.0);
  EXPECT_GT(st.total_flops, 0);
  EXPECT_LT(st.total_flops, total_flops(dm.matrix(), b));
  EXPECT_GT(st.output_nnz, 0u);
  EXPECT_EQ(st.output_nnz, c1.nnz());

  Engine fresh;
  const auto want = fresh.multiply_scheme<SR>(Scheme::kMsa2P, dm.matrix(), b,
                                              m, MaskKind::kMask);
  EXPECT_TRUE(csr_equal(want, c1));

  // No updates in between → the cached result is returned outright.
  MaskedSpgemmStats st2;
  const auto c2 = eng.multiply_scheme<SR>(Scheme::kMsa2P, dm.matrix(), b, m,
                                          MaskKind::kMask,
                                          MaskSemantics::kStructural, &st2,
                                          &ah, &bh, &mh);
  EXPECT_TRUE(st2.plan_cache_hit);
  EXPECT_TRUE(csr_equal(c1, c2));
  EXPECT_GE(eng.cache_stats().result_splices, 2u);

  // Mutating B invalidates the cached result: the full path runs again
  // (values_version mismatch), and stays bit-identical.
  bh.values_changed();
  MaskedSpgemmStats st3;
  const auto c3 = eng.multiply_scheme<SR>(Scheme::kMsa2P, dm.matrix(), b, m,
                                          MaskKind::kMask,
                                          MaskSemantics::kStructural, &st3,
                                          &ah, &bh, &mh);
  EXPECT_TRUE(csr_equal(c1, c3));  // values unchanged in place, only marked
  eng.clear();
  EXPECT_EQ(eng.result_cache_size(), 0u);
}

TEST(EngineUpdateTest, SplicesLeavePlanCacheAlone) {
  using SR = PlusTimes<double>;
  const int n = 1024;
  const auto base = random_csr<int, double>(n, n, 8.0 / n, base_seed() + 8);
  const auto b = random_csr<int, double>(n, n, 8.0 / n, base_seed() + 9);
  const auto m = random_csr<int, double>(n, n, 16.0 / n, base_seed() + 10);

  DeltaMatrix<int, double> dm(base);
  Engine eng;
  BoundMatrix<int, double> ah(dm.matrix());
  BoundMatrix<int, double> bh(b);
  BoundMatrix<int, double> mh(m);
  auto query = [&](MaskedSpgemmStats* st) {
    return eng.multiply_scheme<SR>(Scheme::kMsa2P, dm.matrix(), b, m,
                                   MaskKind::kMask,
                                   MaskSemantics::kStructural, st, &ah, &bh,
                                   &mh);
  };
  eng.update(dm, ah, std::span<const EdgeUpdate<int, double>>(
                         std::vector<EdgeUpdate<int, double>>{
                             {0, 1, 1.0, false}}));
  (void)query(nullptr);  // the one full product: builds the plan
  const auto before = eng.cache_stats();
  const std::size_t plans_before = eng.plan_count();

  // More splices than the plan cache holds: none of them may plan,
  // fingerprint or evict anything.
  const int splices = static_cast<int>(ExecutionContext::kMaxPlans) + 6;
  for (int s = 0; s < splices; ++s) {
    const int row = (s * 37) % n;
    eng.update(dm, ah, std::span<const EdgeUpdate<int, double>>(
                           std::vector<EdgeUpdate<int, double>>{
                               {row, (s * 11) % n, 1.0 + s, false}}));
    (void)query(nullptr);
  }
  const auto after = eng.cache_stats();
  EXPECT_EQ(after.result_splices - before.result_splices,
            static_cast<std::size_t>(splices));
  EXPECT_EQ(eng.plan_count(), plans_before);
  EXPECT_EQ(after.plan_misses, before.plan_misses);
  EXPECT_EQ(after.plan_evictions, before.plan_evictions);
  EXPECT_EQ(after.fingerprints_computed, before.fingerprints_computed);

  // An update dirtying more than half of A's rows takes the full path:
  // the plan built before the splices is still cached, so this is a hit
  // with a partial refresh, not a miss.
  std::vector<EdgeUpdate<int, double>> wide;
  for (int row = 0; row + 1 < n; row += 3) {  // two rows in every three
    wide.push_back({row, row, 2.0, false});
    wide.push_back({row + 1, row, 2.0, false});
  }
  eng.update(dm, ah, std::span<const EdgeUpdate<int, double>>(wide));
  MaskedSpgemmStats st;
  const auto got = query(&st);
  EXPECT_TRUE(st.plan_cache_hit);
  EXPECT_GT(st.plan_rows_refreshed, 0u);
  EXPECT_EQ(eng.cache_stats().plan_misses, before.plan_misses);
  EXPECT_EQ(eng.cache_stats().plan_partial_refreshes,
            before.plan_partial_refreshes + 1);
  EXPECT_EQ(eng.cache_stats().result_splices, after.result_splices);

  Engine fresh;
  EXPECT_TRUE(csr_equal(fresh.multiply_scheme<SR>(Scheme::kMsa2P,
                                                  dm.matrix(), b, m,
                                                  MaskKind::kMask),
                        got));
}

// ---------------------------------------------------------------------------
// Exact dirty rows: per-row stamps, no coalescing, no fold
// ---------------------------------------------------------------------------

/// Flops of the listed rows of A·B: what a splice over exactly those rows
/// reports as its total_flops.
std::int64_t rows_flops(const CsrMatrix<int, double>& a,
                        const CsrMatrix<int, double>& b,
                        const std::vector<int>& rows) {
  std::int64_t f = 0;
  for (const int i : rows) {
    for (int p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      f += b.row_nnz(a.colids[p]);
    }
  }
  return f;
}

/// A bound A over a DeltaMatrix, bound B and M, and one warm result in the
/// engine's splice cache.
struct SpliceFixture {
  static constexpr int n = 16384;
  CsrMatrix<int, double> b = erdos_renyi<int, double>(n, 4.0, base_seed() + 40);
  CsrMatrix<int, double> m = erdos_renyi<int, double>(n, 8.0, base_seed() + 41);
  DeltaMatrix<int, double> dm{
      erdos_renyi<int, double>(n, 4.0, base_seed() + 42, 2.0)};
  Engine eng;
  BoundMatrix<int, double> ah{dm.matrix()};
  BoundMatrix<int, double> bh{b};
  BoundMatrix<int, double> mh{m};

  SpliceFixture() {
    update({{0, 1, 1.0, false}});  // identity fingerprint before the plan
    (void)query(nullptr);
  }
  void update(const std::vector<EdgeUpdate<int, double>>& edits) {
    (void)eng.update(dm, ah, std::span<const EdgeUpdate<int, double>>(edits));
  }
  CsrMatrix<int, double> query(MaskedSpgemmStats* st) {
    return eng.multiply_scheme<PlusTimes<double>>(
        Scheme::kMsa2P, dm.matrix(), b, m, MaskKind::kMask,
        MaskSemantics::kStructural, st, &ah, &bh, &mh);
  }
  [[nodiscard]] bool matches_fresh(const CsrMatrix<int, double>& got) const {
    Engine fresh;
    return csr_equal(fresh.multiply_scheme<PlusTimes<double>>(
                         Scheme::kMsa2P, dm.matrix(), b, m, MaskKind::kMask),
                     got);
  }
};

TEST(EngineUpdateTest, ScatteredBatchSplicesExactlyItsTouchedRows) {
  SpliceFixture fx;
  // Rows 0, 300, ..., 14700: 50 runs, each alone in its row block, two
  // edits on every fifth row. The splice recomputes those 50 rows and none
  // of the clean rows between them.
  std::vector<EdgeUpdate<int, double>> edits;
  std::vector<int> touched;
  for (int k = 0; k < 50; ++k) {
    const int row = 300 * k;
    touched.push_back(row);
    edits.push_back({row, (7 * k + 3) % SpliceFixture::n, 2.0, false});
    if (k % 5 == 0) edits.push_back({row, (11 * k + 5) % SpliceFixture::n,
                                     3.0, false});
  }
  fx.update(edits);
  const auto before = fx.eng.cache_stats();
  MaskedSpgemmStats st;
  const auto got = fx.query(&st);
  const auto after = fx.eng.cache_stats();
  EXPECT_EQ(after.result_splices, before.result_splices + 1);
  EXPECT_EQ(after.result_rows_recomputed - before.result_rows_recomputed,
            touched.size());
  EXPECT_EQ(st.plan_rows_refreshed, touched.size());
  EXPECT_EQ(st.total_flops, rows_flops(fx.dm.matrix(), fx.b, touched));
  EXPECT_TRUE(fx.matches_fresh(got));
}

TEST(EngineUpdateTest, ManyBatchesSpliceExactlyTheUnionOfTheirRows) {
  SpliceFixture fx;
  // 100 one-row batches between two queries, over 60 distinct rows 270
  // apart: the splice recomputes exactly the union, however many batches
  // came in between.
  std::vector<int> touched;
  for (int k = 0; k < 100; ++k) {
    const int row = 270 * (k % 60) + 1;
    if (k < 60) touched.push_back(row);
    fx.update({{row, (13 * k + 1) % SpliceFixture::n, 1.0 + k, false}});
  }
  std::sort(touched.begin(), touched.end());
  const auto before = fx.eng.cache_stats();
  MaskedSpgemmStats st;
  const auto got = fx.query(&st);
  const auto after = fx.eng.cache_stats();
  EXPECT_EQ(after.result_splices, before.result_splices + 1);
  EXPECT_EQ(after.result_rows_recomputed - before.result_rows_recomputed,
            touched.size());
  EXPECT_EQ(st.total_flops, rows_flops(fx.dm.matrix(), fx.b, touched));
  EXPECT_TRUE(fx.matches_fresh(got));
}

TEST(EngineUpdateTest, ScatteredBatchesRefreshOnlyTheirPlanBlocks) {
  using SR = PlusTimes<double>;
  const int n = 16384;  // 64 blocks of kPlanDirtyBlockRows
  const auto b = erdos_renyi<int, double>(n, 4.0, base_seed() + 43);
  const auto m = erdos_renyi<int, double>(n, 8.0, base_seed() + 44);
  DeltaMatrix<int, double> dm(
      erdos_renyi<int, double>(n, 4.0, base_seed() + 45, 2.0));
  Engine eng;
  BoundMatrix<int, double> ah(dm.matrix());
  BoundMatrix<int, double> bh(b);
  // No mask handle: the query runs the plan path, not the result splice.
  auto query = [&](MaskedSpgemmStats* st) {
    return eng.multiply_scheme<SR>(Scheme::kMsa2P, dm.matrix(), b, m,
                                   MaskKind::kMask, MaskSemantics::kStructural,
                                   st, &ah, &bh, nullptr);
  };
  auto update = [&](const std::vector<EdgeUpdate<int, double>>& edits) {
    (void)eng.update(dm, ah, std::span<const EdgeUpdate<int, double>>(edits));
  };
  update({{0, 1, 1.0, false}});
  (void)query(nullptr);

  // Two scattered batches, 300 rows apart within each: 40 and 30 runs in
  // distinct blocks, some blocks shared between the batches.
  std::vector<int> blocks;
  for (int batch = 0; batch < 2; ++batch) {
    std::vector<EdgeUpdate<int, double>> edits;
    const int runs = batch == 0 ? 40 : 30;
    for (int k = 0; k < runs; ++k) {
      const int row = 300 * k + 100 * batch;
      blocks.push_back(row / kPlanDirtyBlockRows);
      edits.push_back({row, (5 * k + batch) % n, 1.0, false});
    }
    update(edits);
  }
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());

  MaskedSpgemmStats st;
  const auto got = query(&st);
  EXPECT_TRUE(st.plan_cache_hit);
  EXPECT_TRUE(st.symbolic_skipped);
  EXPECT_EQ(st.plan_rows_refreshed,
            blocks.size() * static_cast<std::size_t>(kPlanDirtyBlockRows));
  Engine fresh;
  EXPECT_TRUE(csr_equal(fresh.multiply_scheme<SR>(Scheme::kMsa2P, dm.matrix(),
                                                  b, m, MaskKind::kMask),
                        got));
}

TEST(EngineUpdateTest, ValuesChangedAfterStructureChangedRefiltersValuedPlans) {
  using SR = PlusTimes<double>;
  const int n = 1024;
  const auto a = random_csr<int, double>(n, n, 8.0 / n, base_seed() + 46);
  const auto b = random_csr<int, double>(n, n, 8.0 / n, base_seed() + 47);
  auto m = random_csr<int, double>(n, n, 16.0 / n, base_seed() + 48);
  BoundMatrix<int, double> mh(m);
  mh.structure_changed(0, 1);  // identity mode: stable valued fingerprint
  Engine eng;
  auto query = [&](MaskedSpgemmStats* st) {
    return eng.multiply_scheme<SR>(Scheme::kMsa1P, a, b, m, MaskKind::kMask,
                                   MaskSemantics::kValued, st, nullptr,
                                   nullptr, &mh);
  };
  (void)query(nullptr);

  // Zero stored values in three distant rows, in place: the pattern stays,
  // the valued mask shrinks. values_changed stamps every row, so the
  // cached plan refilters its mask and refreshes all of its rows.
  for (const int row : {5, 600, 1000}) {
    for (int p = m.rowptr[row]; p < m.rowptr[row + 1]; ++p) m.values[p] = 0.0;
  }
  mh.values_changed();
  MaskedSpgemmStats st;
  const auto got = query(&st);
  EXPECT_TRUE(st.plan_cache_hit);
  EXPECT_EQ(st.plan_rows_refreshed, static_cast<std::size_t>(n));
  Engine fresh;
  EXPECT_TRUE(csr_equal(fresh.multiply_scheme<SR>(Scheme::kMsa1P, a, b, m,
                                                  MaskKind::kMask,
                                                  MaskSemantics::kValued),
                        got));
}

/// Every planful scheme × mask kind × semantics: a splice after a small
/// windowed update is bit-identical to a fresh Engine's full product.
template <class IT>
void check_splice_conformance() {
  using VT = double;
  using SR = PlusTimes<VT>;
  const IT n = 192;
  const auto base = random_csr<IT, VT>(n, n, 0.05, base_seed() + 20);
  const auto b = random_csr<IT, VT>(n, n, 0.05, base_seed() + 21);
  auto m = random_csr<IT, VT>(n, n, 0.12, base_seed() + 22);
  Xoshiro256 rng(base_seed() + 23);
  for (auto& v : m.values) {
    if (rng.next_double() < 0.2) v = VT{};  // valued semantics differ
  }
  for (Scheme scheme : our_schemes()) {
    for (MaskKind kind : {MaskKind::kMask, MaskKind::kComplement}) {
      if (!scheme_supports_complement(scheme) &&
          kind == MaskKind::kComplement) {
        continue;
      }
      for (MaskSemantics sem :
           {MaskSemantics::kStructural, MaskSemantics::kValued}) {
        SCOPED_TRACE(std::string(scheme_name(scheme)) +
                     (kind == MaskKind::kMask ? " mask" : " complement") +
                     (sem == MaskSemantics::kValued ? " valued"
                                                    : " structural"));
        DeltaMatrix<IT, VT> dm(base);
        Engine eng;
        BoundMatrix<IT, VT> ah(dm.matrix());
        BoundMatrix<IT, VT> bh(b);
        BoundMatrix<IT, VT> mh(m);
        eng.update(dm, ah, std::span<const EdgeUpdate<IT, VT>>(
                               std::vector<EdgeUpdate<IT, VT>>{
                                   {0, 1, 1.0, false}}));
        (void)eng.multiply_scheme<SR>(scheme, dm.matrix(), b, m, kind, sem,
                                      nullptr, &ah, &bh, &mh);
        for (int round = 0; round < 2; ++round) {
          const IT w0 = static_cast<IT>(
              rng.next_below(static_cast<std::uint64_t>(n - n / 8)));
          std::vector<EdgeUpdate<IT, VT>> edits;
          for (int e = 0; e < 6; ++e) {
            EdgeUpdate<IT, VT> u;
            u.row = w0 + static_cast<IT>(rng.next_below(n / 8));
            u.col = static_cast<IT>(
                rng.next_below(static_cast<std::uint64_t>(n)));
            u.remove = e % 3 == 2;
            u.value = static_cast<VT>(1 + rng.next_below(9));
            edits.push_back(u);
          }
          eng.update(dm, ah, std::span<const EdgeUpdate<IT, VT>>(edits));
          const std::size_t splices = eng.cache_stats().result_splices;
          const auto got = eng.multiply_scheme<SR>(
              scheme, dm.matrix(), b, m, kind, sem, nullptr, &ah, &bh, &mh);
          EXPECT_EQ(eng.cache_stats().result_splices, splices + 1);
          Engine fresh;
          const auto want =
              fresh.multiply_scheme<SR>(scheme, dm.matrix(), b, m, kind, sem);
          ASSERT_TRUE(csr_equal(want, got)) << "round " << round;
        }
      }
    }
  }
}

TEST(EngineUpdateTest, SpliceMatchesFullProductForEveryScheme) {
  check_splice_conformance<int>();
}

TEST(EngineUpdateTest, SpliceMatchesFullProductForEverySchemeInt64) {
  check_splice_conformance<std::int64_t>();
}

// ---------------------------------------------------------------------------
// TiledEngine::update — per-shard invalidation
// ---------------------------------------------------------------------------

TEST(TiledUpdateTest, RefreshesOnlyOverlappingShards) {
  using SR = PlusPair<double>;
  const int n = 256;
  const auto base = random_csr<int, double>(n, n, 0.05, base_seed() + 10);
  const auto b = random_csr<int, double>(n, n, 0.05, base_seed() + 11);
  const auto m = random_csr<int, double>(n, n, 0.08, base_seed() + 12);

  DeltaMatrix<int, double> dm(base);
  ShardedMatrix<int, double> ash(dm.matrix(), 4);
  const ShardedMatrix<int, double> msh(m, ash);
  std::vector<std::uint64_t> fp0;
  for (int s = 0; s < ash.shards(); ++s) fp0.push_back(ash.fingerprint(s));

  TiledEngine tiled;
  const auto c0 = tiled.multiply<SR>(Scheme::kMsa2P, ash, b, msh);

  // Rows 70..72 live in shard 1 of the even 4-way split of 256 rows.
  const auto res = tiled.update(
      dm, ash,
      std::span<const EdgeUpdate<int, double>>(
          std::vector<EdgeUpdate<int, double>>{{70, 3, 1.0, false},
                                               {72, 9, 2.0, false}}));
  EXPECT_EQ(res.row_begin, 70);
  EXPECT_EQ(res.row_end, 73);
  EXPECT_EQ(ash.fingerprint(0), fp0[0]);
  EXPECT_NE(ash.fingerprint(1), fp0[1]);
  EXPECT_EQ(ash.fingerprint(2), fp0[2]);
  EXPECT_EQ(ash.fingerprint(3), fp0[3]);
  EXPECT_TRUE(csr_equal(dm.matrix(),
                        stitch_row_blocks(
                            std::vector<CsrMatrix<int, double>>{
                                *ash.lease(0), *ash.lease(1), *ash.lease(2),
                                *ash.lease(3)},
                            n)));

  const auto c1 = tiled.multiply<SR>(Scheme::kMsa2P, ash, b, msh);
  Engine fresh;
  const auto want = fresh.multiply_scheme<SR>(Scheme::kMsa2P, dm.matrix(), b,
                                              m, MaskKind::kMask);
  EXPECT_TRUE(csr_equal(want, c1));
  (void)c0;
}

// A bound B updated in place keeps its identity fingerprint, so the tiled
// engine must hand B's dirty log to the plan layer (a hit on a shard plan
// refreshes it) and key its shard flops by B's log position (a new mask
// builds its shard plan from current flops, not from those counted before
// the update).
TEST(TiledUpdateTest, BoundBUpdatedInPlaceRefreshesShardPlansAndFlops) {
  using SR = PlusTimes<double>;
  const int n = 64;
  // A is the identity; B is the identity without its row 0, which the
  // second update fills.
  CooMatrix<int, double> a_coo(n, n);
  CooMatrix<int, double> b_coo(n, n);
  for (int i = 0; i < n; ++i) {
    a_coo.push(i, i, 1.0);
    if (i > 0) b_coo.push(i, i, 1.0);
  }
  const auto a = coo_to_csr(std::move(a_coo));
  const auto b_base = coo_to_csr(std::move(b_coo));
  CooMatrix<int, double> m1_coo(n, n);
  CooMatrix<int, double> m2_coo(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      m1_coo.push(i, j, 1.0);
      if (i != 1 || j != 1) m2_coo.push(i, j, 1.0);  // differs in shard 0
    }
  }
  const auto m1 = coo_to_csr(std::move(m1_coo));
  const auto m2 = coo_to_csr(std::move(m2_coo));
  std::vector<EdgeUpdate<int, double>> fill_row0;
  for (int j = 0; j < n; ++j) fill_row0.push_back({0, j, 2.0, false});
  const std::vector<EdgeUpdate<int, double>> touch_row5 = {{5, 7, 3.0, false}};

  const ShardedMatrix<int, double> ash(a, 4);
  for (const Scheme scheme : {Scheme::kMsa1P, Scheme::kMsa2P, Scheme::kHash1P,
                              Scheme::kHash2P}) {
    SCOPED_TRACE(scheme_name(scheme));
    DeltaMatrix<int, double> dmb(b_base);
    TiledEngine tiled;
    BoundMatrix<int, double> bh = tiled.engine().bind(dmb.matrix());
    const auto query = [&](const CsrMatrix<int, double>& m) {
      const auto got = tiled.multiply<SR>(scheme, ash, dmb.matrix(), m,
                                          MaskKind::kMask,
                                          MaskSemantics::kStructural, nullptr,
                                          &bh);
      Engine fresh;
      const CsrMatrix<int, double> b_now = dmb.matrix();
      return std::pair{got, fresh.multiply_scheme<SR>(scheme, a, b_now, m)};
    };
    (void)tiled.engine().update(
        dmb, bh, std::span<const EdgeUpdate<int, double>>(touch_row5));
    const auto [c0, want0] = query(m1);
    EXPECT_TRUE(csr_equal(want0, c0));
    (void)tiled.engine().update(
        dmb, bh, std::span<const EdgeUpdate<int, double>>(fill_row0));
    const auto [c1, want1] = query(m1);  // shard plan hits
    EXPECT_EQ(want1.nnz(), static_cast<std::size_t>(2 * n));
    EXPECT_TRUE(csr_equal(want1, c1));
    const auto [c2, want2] = query(m2);  // shard 0 plan misses
    EXPECT_EQ(want2.nnz(), static_cast<std::size_t>(2 * n - 1));
    EXPECT_TRUE(csr_equal(want2, c2));
  }
}

TEST(TiledUpdateTest, RefreshRowsRejectsShapeChange) {
  const auto a = random_csr<int, double>(32, 32, 0.1, base_seed() + 20);
  const auto wrong = random_csr<int, double>(16, 32, 0.1, base_seed() + 21);
  ShardedMatrix<int, double> sh(a, 2);
  EXPECT_THROW(sh.refresh_rows(wrong, 0, 4), invalid_argument_error);
}

// ---------------------------------------------------------------------------
// Randomized differential fuzzers
// ---------------------------------------------------------------------------

template <class IT, class VT>
CsrMatrix<IT, VT> model_to_csr(const std::map<std::pair<IT, IT>, VT>& model,
                               IT n) {
  CooMatrix<IT, VT> coo(n, n);
  for (const auto& [coord, v] : model) coo.push(coord.first, coord.second, v);
  return coo_to_csr(std::move(coo));
}

/// `count` random edits of an n×n matrix, their rows drawn from
/// [row0, row0 + rows) (all rows by default).
template <class IT, class VT>
std::vector<EdgeUpdate<IT, VT>> random_edits(Xoshiro256& rng, IT n,
                                             std::size_t count, IT row0 = 0,
                                             IT rows = 0) {
  if (rows == 0) rows = n;
  std::vector<EdgeUpdate<IT, VT>> edits;
  edits.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    EdgeUpdate<IT, VT> e;
    e.row = row0 + static_cast<IT>(
                       rng.next_below(static_cast<std::uint64_t>(rows)));
    e.col = static_cast<IT>(rng.next_below(static_cast<std::uint64_t>(n)));
    e.remove = rng.next_double() < 0.35;
    e.value = static_cast<VT>(1 + rng.next_below(9));
    edits.push_back(e);
  }
  return edits;
}

template <class IT, class VT>
void apply_to_model(std::map<std::pair<IT, IT>, VT>& model,
                    const std::vector<EdgeUpdate<IT, VT>>& edits) {
  // Sequential application == last-wins batch semantics.
  for (const auto& e : edits) {
    if (e.remove) {
      model.erase({e.row, e.col});
    } else {
      model[{e.row, e.col}] = e.value;
    }
  }
}

struct FuzzConfig {
  Scheme scheme;
  MaskKind kind;
  MaskSemantics semantics;
};

FuzzConfig random_config(Xoshiro256& rng) {
  // Any of the 14 schemes or kAuto; each trial draws one configuration so
  // the stream interleavings get the coverage.
  std::vector<Scheme> schemes = all_schemes();
  schemes.push_back(Scheme::kAuto);
  FuzzConfig cfg;
  cfg.scheme = schemes[rng.next_below(schemes.size())];
  cfg.kind = rng.next_double() < 0.3 && scheme_supports_complement(cfg.scheme)
                 ? MaskKind::kComplement
                 : MaskKind::kMask;
  cfg.semantics = rng.next_double() < 0.3 ? MaskSemantics::kValued
                                          : MaskSemantics::kStructural;
  return cfg;
}

/// One monolithic trial: an interleaved stream of update batches,
/// values-changed notices on A, and queries, each query checked bit-identical against a
/// from-scratch rebuild (fresh engine, no handles, model-rebuilt CSR).
template <class IT>
void run_monolithic_trial(std::uint64_t seed) {
  using VT = double;
  using SR = PlusTimes<VT>;
  SCOPED_TRACE("monolithic trial seed " + std::to_string(seed) +
               " (replay: MSP_TEST_SEED=" + std::to_string(seed) +
               " MSP_TEST_TRIALS=1)");
  Xoshiro256 rng(seed);
  const IT n = static_cast<IT>(32 + rng.next_below(65));
  const auto base =
      random_csr<IT, VT>(n, n, 0.06, rng.next_below(1u << 30));
  const auto b = random_csr<IT, VT>(n, n, 0.06, rng.next_below(1u << 30));
  // ~15% explicit zeros in the mask so valued semantics differ.
  auto m = random_csr<IT, VT>(n, n, 0.10, rng.next_below(1u << 30));
  for (auto& v : m.values) {
    if (rng.next_double() < 0.15) v = VT{};
  }

  std::map<std::pair<IT, IT>, VT> model;
  for (IT i = 0; i < n; ++i) {
    for (IT p = base.rowptr[i]; p < base.rowptr[i + 1]; ++p) {
      model[{i, base.colids[p]}] = base.values[p];
    }
  }

  // This draw once picked a compaction threshold; it stays so every seed
  // replays the stream it always did.
  (void)rng.next_double();
  DeltaMatrix<IT, VT> dm(base);
  Engine eng;
  BoundMatrix<IT, VT> ah(dm.matrix());
  BoundMatrix<IT, VT> bh(b);
  BoundMatrix<IT, VT> mh(m);
  const FuzzConfig cfg = random_config(rng);

  const int steps = 10;
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const double dice = rng.next_double();
    if (dice < 0.45) {
      // Half the batches are small windowed bursts (≤ n/8 rows), which
      // the next query answers from the result splice; the rest span the
      // matrix and usually take the full-product fallback.
      const bool burst = rng.next_double() < 0.5;
      const IT rows = burst ? std::max<IT>(1, n / 8) : n;
      const auto row0 = static_cast<IT>(
          rng.next_below(static_cast<std::uint64_t>(n - rows + 1)));
      const std::size_t count =
          1 + rng.next_below(static_cast<std::uint64_t>(rows));
      const auto edits = random_edits<IT, VT>(rng, n, count, row0, rows);
      const auto res = eng.update(
          dm, ah, std::span<const EdgeUpdate<IT, VT>>(edits));
      apply_to_model(model, edits);
      EXPECT_EQ(dm.nnz(), model.size());
      ASSERT_TRUE(csr_equal(model_to_csr(model, n), dm.matrix()));
      (void)res;
    } else if (dice < 0.55) {
      // A values-only notice: in identity mode it stamps every row of A,
      // so the next query refreshes the whole plan and skips the splice.
      ah.values_changed();
    } else {
      MaskedSpgemmStats st;
      const auto got = eng.multiply_scheme<SR>(
          cfg.scheme, dm.matrix(), b, m, cfg.kind, cfg.semantics, &st, &ah,
          &bh, &mh);
      Engine fresh;
      const auto want = fresh.multiply_scheme<SR>(
          cfg.scheme, model_to_csr(model, n), b, m, cfg.kind, cfg.semantics);
      ASSERT_TRUE(csr_equal(want, got))
          << scheme_name(cfg.scheme) << " kind="
          << (cfg.kind == MaskKind::kMask ? "mask" : "complement")
          << " semantics="
          << (cfg.semantics == MaskSemantics::kStructural ? "structural"
                                                          : "valued");
    }
  }
}

/// One sharded trial: same stream shape, A updates routed through
/// TiledEngine::update (per-shard invalidation), B — a DeltaMatrix behind a
/// bound handle — updated in place through Engine::update, queries through
/// the tiled multiply against a monolithic from-scratch rebuild.
template <class IT>
void run_sharded_trial(std::uint64_t seed) {
  using VT = double;
  using SR = PlusTimes<VT>;
  SCOPED_TRACE("sharded trial seed " + std::to_string(seed) +
               " (replay: MSP_TEST_SEED=" + std::to_string(seed) +
               " MSP_TEST_TRIALS=1)");
  Xoshiro256 rng(seed);
  const IT n = static_cast<IT>(32 + rng.next_below(65));
  const int shards = 2 + static_cast<int>(rng.next_below(4));
  const auto base =
      random_csr<IT, VT>(n, n, 0.06, rng.next_below(1u << 30));
  const auto b_base =
      random_csr<IT, VT>(n, n, 0.06, rng.next_below(1u << 30));
  const auto m = random_csr<IT, VT>(n, n, 0.10, rng.next_below(1u << 30));

  std::map<std::pair<IT, IT>, VT> model;
  std::map<std::pair<IT, IT>, VT> b_model;
  for (IT i = 0; i < n; ++i) {
    for (IT p = base.rowptr[i]; p < base.rowptr[i + 1]; ++p) {
      model[{i, base.colids[p]}] = base.values[p];
    }
    for (IT p = b_base.rowptr[i]; p < b_base.rowptr[i + 1]; ++p) {
      b_model[{i, b_base.colids[p]}] = b_base.values[p];
    }
  }

  // These draws once picked compaction thresholds; they stay so every
  // seed replays the stream it always did.
  (void)rng.next_double();
  (void)rng.next_double();
  DeltaMatrix<IT, VT> dm(base);
  DeltaMatrix<IT, VT> dmb(b_base);
  ShardedMatrix<IT, VT> ash(dm.matrix(), shards);
  const ShardedMatrix<IT, VT> msh(m, ash);
  TiledEngine tiled;
  BoundMatrix<IT, VT> bh = tiled.engine().bind(dmb.matrix());
  FuzzConfig cfg = random_config(rng);

  const int steps = 10;
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const double dice = rng.next_double();
    if (dice < 0.6) {
      const auto edits = random_edits<IT, VT>(
          rng, n, 1 + rng.next_below(static_cast<std::uint64_t>(n)));
      if (dice < 0.3) {
        tiled.update(dm, ash, std::span<const EdgeUpdate<IT, VT>>(edits));
        apply_to_model(model, edits);
        ASSERT_TRUE(csr_equal(model_to_csr(model, n), dm.matrix()));
      } else {
        (void)tiled.engine().update(
            dmb, bh, std::span<const EdgeUpdate<IT, VT>>(edits));
        apply_to_model(b_model, edits);
        ASSERT_TRUE(csr_equal(model_to_csr(b_model, n), dmb.matrix()));
      }
    } else {
      MaskedSpgemmStats st;
      const auto got =
          tiled.multiply<SR>(cfg.scheme, ash, dmb.matrix(), msh, cfg.kind,
                             cfg.semantics, &st, &bh);
      Engine fresh;
      const auto want = fresh.multiply_scheme<SR>(
          cfg.scheme, model_to_csr(model, n), model_to_csr(b_model, n), m,
          cfg.kind, cfg.semantics);
      ASSERT_TRUE(csr_equal(want, got)) << scheme_name(cfg.scheme);
    }
  }
}

TEST(DynamicFuzzTest, MonolithicUpdateStreamMatchesRebuild) {
  const int trials = trial_count(12);
  for (int i = 0; i < trials; ++i) {
    run_monolithic_trial<int>(base_seed() + static_cast<std::uint64_t>(i));
  }
}

TEST(DynamicFuzzTest, MonolithicUpdateStreamMatchesRebuildInt64) {
  const int trials = trial_count(4);
  for (int i = 0; i < trials; ++i) {
    run_monolithic_trial<std::int64_t>(base_seed() + 500 +
                                       static_cast<std::uint64_t>(i));
  }
}

TEST(DynamicFuzzTest, ShardedUpdateStreamMatchesRebuild) {
  const int trials = trial_count(8);
  for (int i = 0; i < trials; ++i) {
    run_sharded_trial<int>(base_seed() + 1000 +
                           static_cast<std::uint64_t>(i));
  }
}

TEST(DynamicFuzzTest, ShardedUpdateStreamMatchesRebuildInt64) {
  const int trials = trial_count(3);
  for (int i = 0; i < trials; ++i) {
    run_sharded_trial<std::int64_t>(base_seed() + 1500 +
                                    static_cast<std::uint64_t>(i));
  }
}

// ---------------------------------------------------------------------------
// Concurrency: one updater, snapshot-taking readers (TSan target)
// ---------------------------------------------------------------------------

TEST(DynamicFuzzTest, ConcurrentSnapshotReadersSeeConsistentEpochs) {
  using IT = int;
  using VT = double;
  using SR = PlusTimes<VT>;
  const IT n = 64;
  const auto base = random_csr<IT, VT>(n, n, 0.06, base_seed() + 2000);
  const auto b = random_csr<IT, VT>(n, n, 0.06, base_seed() + 2001);
  const auto m = random_csr<IT, VT>(n, n, 0.10, base_seed() + 2002);

  DeltaMatrix<IT, VT> dm(base);
  std::atomic<bool> stop{false};

  const int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      Engine eng;
      while (!stop.load(std::memory_order_acquire)) {
        // A snapshot is an epoch-consistent merged matrix: structurally
        // valid, and stable while this reader multiplies it.
        const auto snap = dm.snapshot();
        EXPECT_TRUE(snap->check_structure());
        const auto c = eng.multiply_scheme<SR>(Scheme::kMsa1P, *snap, b, m,
                                               MaskKind::kMask);
        EXPECT_TRUE(c.check_structure());
        EXPECT_LE(c.nnz(), m.nnz());
      }
    });
  }

  Xoshiro256 rng(base_seed() + 2500);
  std::uint64_t last_epoch = dm.epoch();
  for (int batch = 0; batch < 40; ++batch) {
    const auto edits = random_edits<IT, VT>(rng, n, 1 + rng.next_below(24));
    const auto res =
        dm.apply_updates(std::span<const EdgeUpdate<IT, VT>>(edits));
    EXPECT_GE(res.epoch, last_epoch);  // epochs advance monotonically
    last_epoch = res.epoch;
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(dm.matrix().check_structure());
  EXPECT_EQ(dm.epoch(), last_epoch);
}

}  // namespace
