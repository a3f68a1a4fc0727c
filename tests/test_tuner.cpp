// Tests for the calibrated auto-tuning component (core/tuner.hpp): profile
// JSON round-trip and validation, machine-fingerprint gating, the
// decide_auto route/phase model, online crossover refinement, and — the
// load-bearing invariant — that a tuned Engine's kAuto is bit-identical to
// the untuned heuristic and to every static scheme, whatever (possibly
// adversarial) profile is injected, across mask kinds, mask semantics, and
// index types.
//
// The env-var pickup test relies on tuner::env_profile() being latched on
// first use; under gtest_discover_tests every case runs in its own process,
// so the latch is fresh there.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "apps/tricount.hpp"
#include "core/engine.hpp"
#include "core/tiled_engine.hpp"
#include "core/tuner.hpp"
#include "gen/rmat.hpp"
#include "test_support.hpp"

namespace {

using namespace msp;
using msp::testing::csr_equal;
using msp::testing::random_csr;

/// A synthetic profile whose measured cells all declare `algo` the
/// cheapest kernel by a wide margin, so decide_auto must route every
/// binned row to it (subject to its own validity guards).
tuner::TuneProfile force_algo_profile(RowAlgo algo, double crossover = 1.0) {
  tuner::TuneProfile p;
  p.machine = tuner::MachineFingerprint::current();
  p.quick = true;
  p.phase_crossover = crossover;
  p.density_ratios = {0.125, 8.0};
  p.grid.resize(p.density_ratios.size());
  for (auto& row : p.grid) {
    for (int b = 1; b <= 13; ++b) {
      tuner::TuneCell& c = row[static_cast<std::size_t>(b)];
      c.msa_ns = algo == RowAlgo::kMsa ? 1.0 : 100.0;
      c.hash_ns = algo == RowAlgo::kHash ? 1.0 : 100.0;
      c.heap_ns = algo == RowAlgo::kHeap ? 1.0 : 100.0;
    }
  }
  return p;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(EnvProfile, PickedUpByEngineOnFirstUse) {
  const std::string path = temp_path("msp_env_profile.json");
  tuner::save_profile(force_algo_profile(RowAlgo::kHash), path);
  ASSERT_EQ(setenv(tuner::kTuneProfileEnvVar, path.c_str(), 1), 0);
  const tuner::TuneProfile* p = tuner::env_profile();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->machine.canonical(),
            tuner::MachineFingerprint::current().canonical());
  // An Engine with no explicit profile resolves kAuto through the env
  // profile — and stays bit-identical to the heuristic.
  const auto a = random_csr<int, double>(50, 40, 0.10, 11);
  const auto b = random_csr<int, double>(40, 45, 0.10, 12);
  const auto m = random_csr<int, double>(50, 45, 0.15, 13);
  Engine env_engine;
  Engine plain;
  plain.untuned();
  EXPECT_TRUE(csr_equal(
      plain.multiply_scheme<PlusTimes<double>>(Scheme::kAuto, a, b, m),
      env_engine.multiply_scheme<PlusTimes<double>>(Scheme::kAuto, a, b, m)));
  unsetenv(tuner::kTuneProfileEnvVar);
}

TEST(TuneProfile, RoundTripPreservesEverything) {
  const tuner::TuneProfile p = force_algo_profile(RowAlgo::kMsa, 1.75);
  const std::string path = temp_path("msp_roundtrip.json");
  tuner::save_profile(p, path);
  const tuner::TuneProfile q = tuner::load_profile(path);
  EXPECT_EQ(q.schema, tuner::kTuneProfileSchema);
  EXPECT_EQ(q.machine.canonical(), p.machine.canonical());
  EXPECT_EQ(q.quick, p.quick);
  EXPECT_EQ(q.density_ratios, p.density_ratios);
  EXPECT_EQ(q.phase_crossover, p.phase_crossover);
  ASSERT_EQ(q.grid.size(), p.grid.size());
  for (std::size_t d = 0; d < p.grid.size(); ++d) {
    for (std::size_t b = 0; b < p.grid[d].size(); ++b) {
      EXPECT_EQ(q.grid[d][b].msa_ns, p.grid[d][b].msa_ns);
      EXPECT_EQ(q.grid[d][b].hash_ns, p.grid[d][b].hash_ns);
      EXPECT_EQ(q.grid[d][b].heap_ns, p.grid[d][b].heap_ns);
    }
  }
}

TEST(TuneProfile, FingerprintMismatchRejected) {
  tuner::TuneProfile p = force_algo_profile(RowAlgo::kHash);
  p.machine.arch = "vax780";
  const std::string path = temp_path("msp_foreign.json");
  tuner::save_profile(p, path);
  EXPECT_THROW((void)tuner::load_profile(path), tuner::tune_profile_error);
  // Explicitly opting out of the fingerprint gate still loads it.
  const tuner::TuneProfile q =
      tuner::load_profile(path, /*require_machine_match=*/false);
  EXPECT_EQ(q.machine.arch, "vax780");
}

TEST(TuneProfile, MalformedProfilesRejected) {
  EXPECT_THROW((void)tuner::profile_from_json("not json"),
               tuner::tune_profile_error);
  EXPECT_THROW((void)tuner::profile_from_json("{}"),
               tuner::tune_profile_error);
  EXPECT_THROW((void)tuner::profile_from_json(
                   R"({"schema": "some-other-schema-v9"})"),
               tuner::tune_profile_error);
  // Structurally valid JSON, semantically invalid contents.
  tuner::TuneProfile p = force_algo_profile(RowAlgo::kMsa);
  p.phase_crossover = -2.0;
  EXPECT_THROW((void)tuner::profile_from_json(tuner::to_json(p)),
               tuner::tune_profile_error);
  p = force_algo_profile(RowAlgo::kMsa);
  p.density_ratios = {8.0, 0.125};  // not ascending
  EXPECT_THROW((void)tuner::profile_from_json(tuner::to_json(p)),
               tuner::tune_profile_error);
  EXPECT_THROW((void)tuner::load_profile(temp_path("msp_nonexistent.json")),
               tuner::tune_profile_error);
}

TEST(DecideAuto, RouteTableFollowsMeasuredCosts) {
  FlopsHistogram hist;
  hist.rows[3] = 100;
  hist.flops[3] = 100 * 6;
  hist.total_rows = 100;
  hist.total_flops = 600;

  for (RowAlgo algo : {RowAlgo::kMsa, RowAlgo::kHash, RowAlgo::kHeap}) {
    const auto dec =
        tuner::decide_auto(force_algo_profile(algo), hist, /*mask_nnz=*/300,
                           /*nrows=*/100, /*ncols=*/100, MaskKind::kMask,
                           /*crossover=*/1.0);
    EXPECT_TRUE(dec.tuned);
    EXPECT_EQ(dec.table.route[3], algo);
  }
  // Validity guards override measured costs: Heap cannot serve a
  // complemented mask, and MSA's dense arrays are gated on ncols.
  const auto comp = tuner::decide_auto(
      force_algo_profile(RowAlgo::kHeap), hist, 300, 100, 100,
      MaskKind::kComplement, 1.0);
  EXPECT_NE(comp.table.route[3], RowAlgo::kHeap);
  const auto wide = tuner::decide_auto(
      force_algo_profile(RowAlgo::kMsa), hist, 300, 100,
      /*ncols=*/tuner::kMsaMaxCols + 1, MaskKind::kMask, 1.0);
  EXPECT_NE(wide.table.route[3], RowAlgo::kMsa);
}

TEST(DecideAuto, CrossoverPicksPhase) {
  FlopsHistogram hist;
  hist.rows[5] = 10;
  hist.flops[5] = 200;
  hist.total_rows = 10;
  hist.total_flops = 200;
  const tuner::TuneProfile p = force_algo_profile(RowAlgo::kHash);
  const auto one = tuner::decide_auto(p, hist, /*mask_nnz=*/100, 10, 100,
                                      MaskKind::kMask, /*crossover=*/1e6);
  EXPECT_EQ(one.options.phase, MaskedPhase::kOnePhase);
  const auto two = tuner::decide_auto(p, hist, 100, 10, 100, MaskKind::kMask,
                                      /*crossover=*/1e-6);
  EXPECT_EQ(two.options.phase, MaskedPhase::kTwoPhase);
  // AutoDecision::use_table wires the options to the decision's own table.
  auto dec = tuner::decide_auto(p, hist, 100, 10, 100, MaskKind::kMask, 1.0);
  EXPECT_EQ(dec.use_table().route_table, &dec.table);
}

TEST(TunedSelector, OnlineRefinementNudgesAndClamps) {
  tuner::TunedSelector sel(force_algo_profile(RowAlgo::kHash, 2.0));
  EXPECT_TRUE(sel.refining());
  EXPECT_EQ(sel.crossover(), 2.0);

  // A loose one-phase bound argues for less one-phase: crossover shrinks,
  // but never below 1/8 of the calibrated value.
  MaskedSpgemmStats loose;
  loose.assemble_seconds = 1.0;
  loose.bound_nnz = 1000;
  loose.output_nnz = 10;  // tightness 0.01
  for (int r = 0; r < 100; ++r) sel.observe(loose);
  EXPECT_GE(sel.crossover(), 2.0 / 8.0);
  EXPECT_LT(sel.crossover(), 2.0);

  // A symbolic-dominated two-phase run argues for more one-phase: grows,
  // clamped at 8x.
  MaskedSpgemmStats sym;
  sym.symbolic_seconds = 2.0;
  sym.numeric_seconds = 1.0;
  for (int r = 0; r < 100; ++r) sel.observe(sym);
  EXPECT_LE(sel.crossover(), 2.0 * 8.0);
  EXPECT_GT(sel.crossover(), 2.0);

  // Refinement off: observations are ignored.
  tuner::TunedSelector frozen(force_algo_profile(RowAlgo::kHash, 2.0),
                              /*online_refine=*/false);
  frozen.observe(loose);
  EXPECT_EQ(frozen.crossover(), 2.0);
}

/// The acceptance invariant: whatever profile kAuto is tuned with — each
/// kernel forced in turn, each phase forced via extreme crossovers — the
/// result is bit-identical to the untuned heuristic and to static
/// schemes, for every mask kind and semantics.
template <class IT>
void expect_tuned_auto_bit_identical() {
  const auto a = random_csr<IT, double>(60, 50, 0.08, 101);
  const auto b = random_csr<IT, double>(50, 40, 0.12, 102);
  auto m = random_csr<IT, double>(60, 40, 0.20, 103);
  // Give the valued semantics something to disagree about: zero out a
  // third of the mask values so structural and valued masks differ.
  for (std::size_t p = 0; p < m.values.size(); p += 3) m.values[p] = 0.0;

  const std::vector<tuner::TuneProfile> profiles = {
      force_algo_profile(RowAlgo::kMsa),
      force_algo_profile(RowAlgo::kHash),
      force_algo_profile(RowAlgo::kHeap),
      force_algo_profile(RowAlgo::kHash, 1e6),   // force one-phase
      force_algo_profile(RowAlgo::kHash, 1e-6),  // force two-phase
  };

  for (MaskKind kind : {MaskKind::kMask, MaskKind::kComplement}) {
    for (MaskSemantics sem :
         {MaskSemantics::kStructural, MaskSemantics::kValued}) {
      Engine heuristic;
      heuristic.untuned();
      const auto expected = heuristic.multiply_scheme<PlusTimes<double>>(
          Scheme::kAuto, a, b, m, kind, sem);
      // Static references: kAuto may legally resolve to any of these.
      for (Scheme s : {Scheme::kMsa2P, Scheme::kHash2P}) {
        Engine engine;
        EXPECT_TRUE(csr_equal(expected,
                              engine.multiply_scheme<PlusTimes<double>>(
                                  s, a, b, m, kind, sem)))
            << "static " << scheme_name(s);
      }
      for (std::size_t i = 0; i < profiles.size(); ++i) {
        Engine tuned;
        tuned.tuned(profiles[i]);
        EXPECT_TRUE(csr_equal(expected,
                              tuned.multiply_scheme<PlusTimes<double>>(
                                  Scheme::kAuto, a, b, m, kind, sem)))
            << "profile " << i << " kind " << static_cast<int>(kind)
            << " sem " << static_cast<int>(sem);
        // Repeat through the same engine: online refinement may have
        // moved the crossover; results must not move with it.
        EXPECT_TRUE(csr_equal(expected,
                              tuned.multiply_scheme<PlusTimes<double>>(
                                  Scheme::kAuto, a, b, m, kind, sem)))
            << "profile " << i << " (refined repeat)";
      }
    }
  }
}

TEST(EngineTuned, KAutoBitIdenticalInt) {
  expect_tuned_auto_bit_identical<int>();
}

TEST(EngineTuned, KAutoBitIdenticalInt64) {
  expect_tuned_auto_bit_identical<std::int64_t>();
}

TEST(EngineTuned, BuilderAndBatchPathsBitIdentical) {
  const auto a = random_csr<int, double>(48, 48, 0.10, 201);
  const auto b = random_csr<int, double>(48, 48, 0.10, 202);
  const auto m1 = random_csr<int, double>(48, 48, 0.15, 203);
  const auto m2 = random_csr<int, double>(48, 48, 0.05, 204);
  const tuner::TuneProfile profile = force_algo_profile(RowAlgo::kHash);

  Engine plain;
  plain.untuned();
  const auto expected1 = plain.multiply_scheme<PlusTimes<double>>(
      Scheme::kAuto, a, b, m1);
  const auto expected2 = plain.multiply_scheme<PlusTimes<double>>(
      Scheme::kAuto, a, b, m2);

  // Fluent builder through a tuned engine.
  Engine engine;
  engine.tuned(profile);
  const auto built =
      engine.multiply(a, b).mask(m1).scheme(Scheme::kAuto).run();
  EXPECT_TRUE(csr_equal(expected1, built));

  // Batched path through a tuned engine: kAuto resolves per mask, exactly
  // as sequential calls on another tuned engine do.
  Engine tuned;
  tuned.tuned(profile);
  const std::vector<const CsrMatrix<int, double>*> masks = {&m1, &m2};
  const auto batch =
      tuned.multiply_batch<PlusTimes<double>>(Scheme::kAuto, a, b, masks);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(csr_equal(expected1, batch[0]));
  EXPECT_TRUE(csr_equal(expected2, batch[1]));
  Engine seq;
  seq.tuned(profile);
  for (const CsrMatrix<int, double>* m : masks) {
    (void)seq.multiply_scheme<PlusTimes<double>>(Scheme::kAuto, a, b, *m);
  }
  EXPECT_EQ(tuned.plan_count(), seq.plan_count());
  EXPECT_EQ(tuned.cache_stats().plan_misses, seq.cache_stats().plan_misses);

  // untuned() really reverts: same engine, selector dropped.
  tuned.untuned();
  EXPECT_EQ(tuned.tuned_selector(), nullptr);
  EXPECT_TRUE(csr_equal(expected1,
                        tuned.multiply_scheme<PlusTimes<double>>(
                            Scheme::kAuto, a, b, m1)));
}

// The tiled path resolves kAuto through the same resolver as the
// monolithic Engine, so under the committed profile a warm call takes the
// warm-plan exact-phase upgrade on both: two-phase over the cached output
// structure, so no one-phase bound and no assemble pass.
TEST(EngineTuned, WarmTiledKAutoTakesExactPhaseLikeMonolithic) {
  const tuner::TuneProfile profile = tuner::load_profile(
      MSP_TUNE_PROFILE_PATH, /*require_machine_match=*/false);
  const auto l = tricount_prepare(rmat_graph<int, double>(10, 8.0)).l;
  const ShardedMatrix<int, double> lsh(l, 4);
  using SR = PlusPair<double>;

  Engine mono;
  mono.tuned(profile);
  TiledEngine tiled;
  tiled.engine().tuned(profile);
  MaskedSpgemmStats mono_cold, mono_warm, tiled_cold, tiled_warm;
  const auto mono_c0 = mono.multiply_scheme<SR>(
      Scheme::kAuto, l, l, l, MaskKind::kMask, MaskSemantics::kStructural,
      &mono_cold);
  const auto mono_c1 = mono.multiply_scheme<SR>(
      Scheme::kAuto, l, l, l, MaskKind::kMask, MaskSemantics::kStructural,
      &mono_warm);
  const auto tiled_c0 = tiled.multiply<SR>(
      Scheme::kAuto, lsh, l, lsh, MaskKind::kMask, MaskSemantics::kStructural,
      &tiled_cold);
  const auto tiled_c1 = tiled.multiply<SR>(
      Scheme::kAuto, lsh, l, lsh, MaskKind::kMask, MaskSemantics::kStructural,
      &tiled_warm);

  // The cold calls pick one-phase (a sparse mask against many flops)...
  EXPECT_GT(mono_cold.bound_nnz, 0u);
  EXPECT_GT(tiled_cold.bound_nnz, 0u);
  // ...and the warm calls upgrade to exact two-phase on both paths.
  EXPECT_EQ(mono_warm.assemble_seconds, 0.0);
  EXPECT_EQ(mono_warm.bound_nnz, 0u);
  EXPECT_EQ(tiled_warm.assemble_seconds, 0.0);
  EXPECT_EQ(tiled_warm.bound_nnz, 0u);
  EXPECT_TRUE(csr_equal(mono_c0, mono_c1));
  EXPECT_TRUE(csr_equal(mono_c0, tiled_c0));
  EXPECT_TRUE(csr_equal(mono_c0, tiled_c1));
}

TEST(FlopsHistogram, BinsAndTotalsAreConsistent) {
  const std::vector<std::int64_t> row_flops = {0, 1, 2, 3, 8, 1023, 1024};
  const FlopsHistogram h = build_flops_histogram(row_flops);
  EXPECT_EQ(h.total_rows, 7);
  EXPECT_EQ(h.total_flops, 0 + 1 + 2 + 3 + 8 + 1023 + 1024);
  EXPECT_EQ(h.rows[flops_bin(0)], 1);   // bin 0: zero-flop rows
  EXPECT_EQ(h.rows[flops_bin(1)], 1);   // bin 1
  EXPECT_EQ(h.rows[flops_bin(2)], 2);   // 2 and 3 share bin 2
  EXPECT_EQ(h.rows[flops_bin(8)], 1);
  EXPECT_EQ(h.rows[flops_bin(1023)], 1);
  EXPECT_EQ(h.rows[flops_bin(1024)], 1);
  EXPECT_NE(flops_bin(1023), flops_bin(1024));
  // Degenerate and huge inputs stay in range.
  EXPECT_EQ(flops_bin(-5), 0);
  EXPECT_LT(flops_bin(std::numeric_limits<std::int64_t>::max()),
            kFlopsBins);
}

}  // namespace
