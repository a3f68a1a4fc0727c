// Seeded-corruption coverage for the checked-build invariant layer
// (core/invariants.hpp). Each test corrupts one structure on purpose —
// through public seams that bypass the structures' own MSP_ASSERTs — and
// asserts the validator raises msp::invariant_error naming exactly the
// violated invariant. The suite ends with a no-false-positives pass: the
// conformance corpus and the dynamic/sharded lifecycles run with every
// boundary check live (this TU compiles with MSPGEMM_CHECKED forced on —
// see tests/CMakeLists.txt) and must stay green and bit-exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "conformance/conformance_support.hpp"
#include "core/engine.hpp"
#include "core/invariants.hpp"
#include "core/shard.hpp"
#include "core/tiled_engine.hpp"
#include "matrix/delta.hpp"
#include "test_support.hpp"

namespace msp {
namespace {

using msp::testing::csr_equal;
using msp::testing::random_csr;

static_assert(MSP_CHECKED_BUILD,
              "test_invariants must compile with MSPGEMM_CHECKED=1 (see "
              "tests/CMakeLists.txt) so the boundary checks are live");

/// Assert `stmt` throws invariant_error naming `expected_invariant`.
#define EXPECT_INVARIANT(stmt, expected_invariant)                         \
  do {                                                                     \
    try {                                                                  \
      (void)(stmt);                                                        \
      FAIL() << "expected invariant_error(" << (expected_invariant)        \
             << "), nothing thrown";                                       \
    } catch (const invariant_error& e) {                                   \
      EXPECT_EQ(e.invariant(), (expected_invariant)) << e.what();          \
      EXPECT_FALSE(e.site().empty()) << "site must name the boundary";     \
    }                                                                      \
  } while (0)

CsrMatrix<> small_csr() {
  // 4x4, two entries in row 0 so in-row ordering can be corrupted.
  return CsrMatrix<>(4, 4, {0, 2, 3, 4, 5}, {0, 2, 1, 3, 0},
                     {1.0, 2.0, 3.0, 4.0, 5.0});
}

// ---------------------------------------------------------------------------
// CSR well-formedness
// ---------------------------------------------------------------------------

TEST(InvariantsCsr, UnsortedRowIsNamed) {
  CsrMatrix<> x = small_csr();
  std::swap(x.colids[0], x.colids[1]);  // row 0: {2, 0} — out of order
  EXPECT_INVARIANT(invariants::check_csr(x, "test"), "csr.colids_sorted");
}

TEST(InvariantsCsr, NnzAccountingIsNamed) {
  CsrMatrix<> x = small_csr();
  x.rowptr.back() = 4;  // claims 4 entries, arrays hold 5
  EXPECT_INVARIANT(invariants::check_csr(x, "test"), "csr.nnz_accounting");
}

TEST(InvariantsCsr, OutOfBoundsColumnIsNamed) {
  CsrMatrix<> x = small_csr();
  x.colids[3] = 7;  // ncols is 4
  EXPECT_INVARIANT(invariants::check_csr(x, "test"), "csr.colids_in_bounds");
}

TEST(InvariantsCsr, NonMonotoneRowptrIsNamed) {
  CsrMatrix<> x = small_csr();
  x.rowptr[2] = 1;  // row 1 would have negative length
  EXPECT_INVARIANT(invariants::check_csr(x, "test"), "csr.rowptr_monotone");
}

TEST(InvariantsCsr, WellFormedPasses) {
  EXPECT_NO_THROW(invariants::check_csr(small_csr(), "test"));
  EXPECT_NO_THROW(
      invariants::check_csr(random_csr<int, double>(40, 30, 0.2, 7), "test"));
}

// ---------------------------------------------------------------------------
// Structure dirty log
// ---------------------------------------------------------------------------

using LogRange = StructureDirtyLog<index_t>::Range;

TEST(InvariantsDirtyLog, StaleEpochBeyondLogEpochIsNamed) {
  const std::vector<LogRange> entries{{5, 0, 2}};
  EXPECT_INVARIANT(invariants::check_dirty_log_ranges(entries, 3, "test"),
                   "dirty_log.epoch_bound");
}

TEST(InvariantsDirtyLog, NonMonotoneEpochIsNamed) {
  const std::vector<LogRange> entries{{3, 0, 2}, {2, 1, 4}};
  EXPECT_INVARIANT(invariants::check_dirty_log_ranges(entries, 5, "test"),
                   "dirty_log.epoch_monotone");
}

TEST(InvariantsDirtyLog, EmptyRangeIsNamed) {
  const std::vector<LogRange> entries{{1, 3, 3}};
  EXPECT_INVARIANT(invariants::check_dirty_log_ranges(entries, 1, "test"),
                   "dirty_log.range_nonempty");
}

TEST(InvariantsDirtyLog, LiveLogStaysCleanAcrossTheFold) {
  // record() self-checks at every call in this TU; drive it far past the
  // 64-entry cap so the oldest-half fold runs repeatedly.
  StructureDirtyLog<index_t> log;
  for (int i = 0; i < 500; ++i) {
    log.record(static_cast<index_t>(i % 97), static_cast<index_t>(i % 97 + 2));
  }
  EXPECT_NO_THROW(log.check_invariants("test"));
  // Collapsed entries stay a covering superset: a cursor from epoch 0 must
  // see every row ever recorded.
  index_t lo = std::numeric_limits<index_t>::max(), hi = 0;
  for (const auto& r : log.ranges_since(0)) {
    lo = std::min(lo, r.begin);
    hi = std::max(hi, r.end);
  }
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 98);
}

// ---------------------------------------------------------------------------
// Coalesce coverage
// ---------------------------------------------------------------------------

TEST(InvariantsCoalesce, DroppedRunIsNamed) {
  using P = std::pair<index_t, index_t>;
  const std::vector<P> runs{{0, 4}, {1000, 1004}};
  const std::vector<P> out{{0, 4}};  // lost the second run
  EXPECT_INVARIANT(invariants::check_coalesce(runs, out, 32, "test"),
                   "coalesce.coverage");
}

TEST(InvariantsCoalesce, OverlappingOutputIsNamed) {
  using P = std::pair<index_t, index_t>;
  const std::vector<P> runs{{0, 4}, {1000, 1004}};
  const std::vector<P> out{{0, 1001}, {1000, 1004}};
  EXPECT_INVARIANT(invariants::check_coalesce(runs, out, 32, "test"),
                   "coalesce.sorted_disjoint");
}

TEST(InvariantsCoalesce, CapOverflowIsNamed) {
  using P = std::pair<index_t, index_t>;
  const std::vector<P> runs{{0, 1}, {1000, 1001}, {2000, 2001}};
  EXPECT_INVARIANT(invariants::check_coalesce(runs, runs, 2, "test"),
                   "coalesce.max_ranges");
}

TEST(InvariantsCoalesce, RealCoalesceOutputPasses) {
  // coalesce_dirty_ranges self-checks its output in this TU; sweep a mix
  // of dense, scattered, and cap-straining inputs.
  std::vector<std::pair<index_t, index_t>> runs;
  for (index_t i = 0; i < 200; ++i) {
    runs.emplace_back(i * 700, i * 700 + 3);
  }
  const auto out = coalesce_dirty_ranges<index_t>(runs, 16);
  EXPECT_LE(out.size(), 16u);
  EXPECT_NO_THROW(invariants::check_coalesce(runs, out, 16, "test"));
}

// ---------------------------------------------------------------------------
// Plan consistency
// ---------------------------------------------------------------------------

TEST(InvariantsPlan, FlopsLengthMismatchIsNamed) {
  const auto a = random_csr<int, double>(16, 16, 0.3, 1);
  const auto b = random_csr<int, double>(16, 16, 0.3, 2);
  const auto m = random_csr<int, double>(16, 16, 0.3, 3);
  SpgemmPlan<int, double, double> plan(a, b, m, MaskKind::kMask,
                                       MaskSemantics::kStructural);
  // Execute against an A with a different row count: the captured flops
  // vector no longer describes it.
  const auto a_other = random_csr<int, double>(24, 16, 0.3, 4);
  EXPECT_INVARIANT(plan.check_invariants(a_other, b, m, "test"),
                   "plan.flops_length");
}

TEST(InvariantsPlan, MaskShapeMismatchIsNamed) {
  const auto a = random_csr<int, double>(16, 16, 0.3, 1);
  const auto b = random_csr<int, double>(16, 16, 0.3, 2);
  const auto m = random_csr<int, double>(16, 16, 0.3, 3);
  SpgemmPlan<int, double, double> plan(a, b, m, MaskKind::kMask,
                                       MaskSemantics::kStructural);
  const auto m_other = random_csr<int, double>(16, 12, 0.3, 4);
  EXPECT_INVARIANT(plan.check_invariants(a, b, m_other, "test"),
                   "plan.mask_shape");
}

TEST(InvariantsPlan, CorruptSymbolicRowptrIsNamed) {
  const auto a = random_csr<int, double>(16, 16, 0.3, 1);
  const auto b = random_csr<int, double>(16, 16, 0.3, 2);
  const auto m = random_csr<int, double>(16, 16, 0.3, 3);
  SpgemmPlan<int, double, double> plan(a, b, m, MaskKind::kMask,
                                       MaskSemantics::kStructural);
  // structure_sink() is the drivers' export seam; fill it with a
  // non-monotone rowptr as a buggy symbolic pass would.
  std::vector<int>& rowptr = *plan.structure_sink();
  rowptr.assign(17, 0);
  rowptr[5] = 4;
  rowptr[6] = 2;
  EXPECT_INVARIANT(plan.check_invariants(a, b, m, "test"),
                   "plan.symbolic_rowptr_monotone");

  rowptr.assign(9, 0);  // wrong length for 16 output rows
  EXPECT_INVARIANT(plan.check_invariants(a, b, m, "test"),
                   "plan.symbolic_rowptr_size");
}

TEST(InvariantsPlan, FreshPlanPasses) {
  const auto a = random_csr<int, double>(16, 16, 0.3, 1);
  const auto b = random_csr<int, double>(16, 16, 0.3, 2);
  const auto m = random_csr<int, double>(16, 16, 0.3, 3);
  SpgemmPlan<int, double, double> plan(a, b, m, MaskKind::kMask,
                                       MaskSemantics::kStructural);
  EXPECT_NO_THROW(plan.check_invariants(a, b, m, "test"));
  plan.ensure_bounds(m);
  plan.ensure_b_csc(b);
  EXPECT_NO_THROW(plan.check_invariants(a, b, m, "test"));
}

// ---------------------------------------------------------------------------
// DeltaMatrix overlay consistency
// ---------------------------------------------------------------------------

TEST(InvariantsDelta, CorruptedMaterializedRowIsNamed) {
  // Threshold > 1 keeps the overlay from auto-compacting (1 pending row
  // out of 4 already crosses the 0.25 default on a matrix this small).
  DeltaMatrix<> dm(small_csr(), 10.0);
  const std::vector<EdgeUpdate<>> edits{{1, 2, 9.0, false}};
  dm.apply_updates(std::span<const EdgeUpdate<>>(edits));
  ASSERT_GT(dm.pending_rows(), 0u);
  // Corrupt the materialized view behind the overlay's back: row 0 holds
  // two sorted entries; swapping them breaks CSR ordering.
  auto& current = const_cast<CsrMatrix<>&>(dm.matrix());
  std::swap(current.colids[0], current.colids[1]);
  EXPECT_INVARIANT(dm.check_invariants("test"), "csr.colids_sorted");
}

TEST(InvariantsDelta, MergedRowDivergenceIsNamed) {
  DeltaMatrix<> dm(small_csr(), 10.0);  // keep the overlay row live
  const std::vector<EdgeUpdate<>> edits{{1, 2, 9.0, false}};
  dm.apply_updates(std::span<const EdgeUpdate<>>(edits));
  ASSERT_GT(dm.pending_rows(), 0u);
  // Overlay stores row 1's merged contents; skew the materialized value so
  // the two views of the same row disagree (structure stays well-formed).
  auto& current = const_cast<CsrMatrix<>&>(dm.matrix());
  current.values[static_cast<std::size_t>(current.rowptr[1])] += 1.0;
  EXPECT_INVARIANT(dm.check_invariants("test"), "delta.merged_row_agreement");
}

TEST(InvariantsDelta, UpdateStreamStaysClean) {
  // apply_updates self-checks at every batch in this TU: mixed inserts,
  // assigns, deletes, and a forced compact must all pass.
  DeltaMatrix<> dm(random_csr<index_t, double>(64, 64, 0.1, 11), 0.05);
  std::vector<EdgeUpdate<>> edits;
  for (int batch = 0; batch < 12; ++batch) {
    edits.clear();
    for (int k = 0; k < 40; ++k) {
      const auto row = static_cast<index_t>((batch * 37 + k * 13) % 64);
      const auto col = static_cast<index_t>((batch * 17 + k * 29) % 64);
      edits.push_back({row, col, 1.0 + k, k % 5 == 0});
    }
    EXPECT_NO_THROW(
        dm.apply_updates(std::span<const EdgeUpdate<>>(edits)));
  }
  dm.compact();
  EXPECT_NO_THROW(dm.check_invariants("test"));
}

// ---------------------------------------------------------------------------
// ShardStore accounting
// ---------------------------------------------------------------------------

TEST(InvariantsShardStore, ResidentBytesDriftIsNamed) {
  ShardStore store;
  const auto a = random_csr<index_t, double>(64, 64, 0.2, 5);
  ShardedMatrix<index_t, double> sm(a, 4, &store);
  EXPECT_NO_THROW(store.check_invariants("test"));
  store.adjust_resident_bytes_for_testing(64);  // leak 64 phantom bytes
  EXPECT_INVARIANT(store.check_invariants("test"),
                   "shard_store.resident_bytes_accounting");
  store.adjust_resident_bytes_for_testing(-64);
  EXPECT_NO_THROW(store.check_invariants("test"));
}

TEST(InvariantsShardStore, LifecycleUnderBudgetStaysClean) {
  // Every pin/add/spill/prefetch boundary self-checks in this TU. A tight
  // budget forces real spills and reloads; payloads must round-trip
  // bit-identically.
  ShardStore::Options opt;
  opt.resident_budget = 0;  // only pinned shards stay resident
  ShardStore store(opt);
  const auto a = random_csr<index_t, double>(128, 96, 0.15, 9);
  ShardedMatrix<index_t, double> sm(a, 4, &store);
  store.spill_all();
  for (int round = 0; round < 2; ++round) {
    for (int s = 0; s < sm.shards(); ++s) {
      sm.prefetch(s);
      const auto lease = sm.lease(s);
      const CsrMatrix<index_t, double> expect =
          slice_rows(a, sm.row_begin(s), sm.row_end(s));
      EXPECT_TRUE(csr_equal(expect, lease.matrix())) << "shard " << s;
    }
  }
  store.wait_prefetches();
  EXPECT_NO_THROW(store.check_invariants("test"));
  EXPECT_GT(store.stats().spills.load(), 0u);
  EXPECT_GT(store.stats().reloads.load(), 0u);
}

// ---------------------------------------------------------------------------
// Result-splice cache shape agreement
// ---------------------------------------------------------------------------

TEST(InvariantsSplice, ShapeMismatchIsNamed) {
  const auto prev = random_csr<int, double>(16, 16, 0.3, 1);
  EXPECT_INVARIANT(invariants::check_splice(prev, 16, 12, "test"),
                   "engine.splice_shape");
  EXPECT_INVARIANT(invariants::check_splice(prev, 20, 16, "test"),
                   "engine.splice_shape");
  EXPECT_NO_THROW(invariants::check_splice(prev, 16, 16, "test"));
}

TEST(InvariantsSplice, IncrementalUpdateQueryStreamStaysClean) {
  // Live splice path with the boundary checks armed: interleave updates
  // and queries through the Engine facade and pin every answer to a
  // from-scratch rebuild.
  using SR = PlusTimes<double>;
  DeltaMatrix<> dm(random_csr<index_t, double>(96, 96, 0.08, 21));
  const auto b = random_csr<index_t, double>(96, 96, 0.08, 22);
  const auto m = random_csr<index_t, double>(96, 96, 0.12, 23);
  Engine eng;
  auto a_handle = eng.bind(dm.matrix());
  const auto b_handle = eng.bind(b);
  const auto m_handle = eng.bind(m);
  for (int batch = 0; batch < 6; ++batch) {
    std::vector<EdgeUpdate<>> edits;
    for (int k = 0; k < 10; ++k) {
      edits.push_back({static_cast<index_t>((batch * 31 + k * 7) % 96),
                       static_cast<index_t>((batch * 11 + k * 3) % 96),
                       2.0 + k, k % 4 == 0});
    }
    eng.update(dm, a_handle, std::span<const EdgeUpdate<>>(edits));
    const auto got = eng.multiply(a_handle, b_handle)
                         .mask(m_handle)
                         .semiring<PlusTimes>()
                         .scheme(Scheme::kHash2P)
                         .run();
    const auto expect =
        baseline_saxpy<SR>(dm.matrix(), b, m, MaskKind::kMask);
    EXPECT_TRUE(csr_equal(expect, got)) << "batch " << batch;
  }
}

// ---------------------------------------------------------------------------
// Stale-handle fingerprint freshness
// ---------------------------------------------------------------------------

TEST(InvariantsHints, StaleHandleFingerprintIsNamed) {
  auto a = small_csr();
  const auto b = random_csr<index_t, double>(4, 4, 0.5, 32);
  const auto m = random_csr<index_t, double>(4, 4, 0.6, 33);
  Engine eng;
  auto a_handle = eng.bind(a);
  // The documented BoundMatrix hazard: mutate the bound matrix's pattern
  // without values_changed/structure_changed/rebind. The handle's cached
  // fingerprint now describes a pattern the operand no longer has. Row 0
  // is {0, 2}; moving the first entry to column 1 keeps the CSR perfectly
  // well-formed — only the pattern hash can catch the staleness.
  a.colids[0] = 1;
  EXPECT_INVARIANT(eng.multiply(a_handle, b)
                       .mask(m)
                       .semiring<PlusTimes>()
                       .scheme(Scheme::kHash2P)
                       .run(),
                   "exec.hint_fingerprint_fresh");
  // rebind() is the documented fix: the handle re-hashes the new pattern.
  a_handle.rebind(a);
  EXPECT_NO_THROW(eng.multiply(a_handle, b)
                      .mask(m)
                      .semiring<PlusTimes>()
                      .scheme(Scheme::kHash2P)
                      .run());
}

// ---------------------------------------------------------------------------
// No false positives: conformance corpus with every check live
// ---------------------------------------------------------------------------

TEST(InvariantsNoFalsePositives, ConformanceCorpusAllConfigs) {
  using SR = PlusTimes<double>;
  Engine eng;
  for (const auto& cse : conformance::corpus<index_t>()) {
    for (const auto& cfg : conformance::all_configs()) {
      const auto expect = conformance::expected_result<SR>(
          cse.a, cse.b, cse.m, cfg.kind, cfg.semantics);
      const auto got = eng.multiply(cse.a, cse.b)
                           .mask(cse.m)
                           .semiring<PlusTimes>()
                           .scheme(cfg.scheme)
                           .mask_kind(cfg.kind)
                           .semantics(cfg.semantics)
                           .run();
      EXPECT_TRUE(csr_equal(expect, got)) << cse.name << " / " << cfg.name();
    }
  }
}

TEST(InvariantsNoFalsePositives, TiledEngineMatchesMonolithic) {
  using SR = PlusTimes<double>;
  const auto a = random_csr<index_t, double>(120, 100, 0.12, 41);
  const auto b = random_csr<index_t, double>(100, 90, 0.12, 42);
  const auto m = random_csr<index_t, double>(120, 90, 0.2, 43);
  ShardStore::Options opt;
  opt.resident_budget = 1 << 12;  // force spill traffic mid-multiply
  ShardStore store(opt);
  ShardedMatrix<index_t, double> sa(a, 4, &store);
  ShardedMatrix<index_t, double> smask(m, sa, &store);
  TiledEngine tiled;
  const auto got = tiled.multiply<SR>(Scheme::kHash2P, sa, b, smask);
  const auto expect = baseline_saxpy<SR>(a, b, m, MaskKind::kMask);
  EXPECT_TRUE(csr_equal(expect, got));
}

}  // namespace
}  // namespace msp
