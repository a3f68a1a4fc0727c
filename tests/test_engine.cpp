// Tests for the msp::Engine facade (core/engine.hpp), its BoundMatrix
// operand handles (core/bound_matrix.hpp), and the runtime Scheme registry
// additions (core/scheme.hpp):
//
//  * conformance: the fluent builder and multiply_dyn are bit-identical to
//    the planless masked_multiply path over the conformance corpus × every
//    scheme × both mask kinds × both mask semantics, for both index
//    widths — with raw operands and with bound handles;
//  * BoundMatrix reuse: value mutation flows through (transpose refresh,
//    valued-semantics zero-bitmap refresh after values_changed), pattern
//    rebind changes the fingerprint, steady-state calls hash nothing;
//  * typed errors: complemented MCA is rejected with an
//    unsupported_scheme_error naming the scheme, on every Engine entry;
//  * Scheme::kAuto resolves to a correct configuration on both mask kinds.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "conformance/conformance_support.hpp"
#include "core/engine.hpp"
#include "matrix/ops.hpp"
#include "test_support.hpp"

namespace msp {
namespace {

using msp::testing::csr_equal;
using msp::testing::random_csr;
using msp::testing::run_fresh;

// ---------------------------------------------------------------------------
// Conformance: builder and dyn path vs planless masked_multiply
// ---------------------------------------------------------------------------

template <class IT>
void sweep_engine_against_context(bool bind_operands) {
  using VT = double;
  using SR = PlusTimes<VT>;
  for (const auto& cse : conformance::corpus<IT>()) {
    for (const auto& cfg : conformance::all_configs()) {
      // Reference: the planless path (no cache state at all).
      const CsrMatrix<IT, VT> expected =
          conformance::run_config<SR>(cfg, cse.a, cse.b, cse.m);

      Engine engine;
      CsrMatrix<IT, VT> actual;
      if (bind_operands) {
        const auto a = engine.bind(cse.a);
        const auto b = engine.bind(cse.b);
        const auto m = engine.bind(cse.m);
        actual = engine.multiply(a, b)
                     .mask(m)
                     .template semiring<SR>()
                     .scheme(cfg.scheme)
                     .mask_kind(cfg.kind)
                     .semantics(cfg.semantics)
                     .run();
      } else {
        actual = engine.multiply(cse.a, cse.b)
                     .mask(cse.m)
                     .template semiring<SR>()
                     .scheme(cfg.scheme)
                     .mask_kind(cfg.kind)
                     .semantics(cfg.semantics)
                     .run();
      }
      EXPECT_TRUE(csr_equal(expected, actual))
          << cse.name << " / " << cfg.name()
          << (bind_operands ? " (bound)" : " (raw)");

      // The dyn path must agree too (PlusTimes is the default id).
      DynConfig dyn;
      dyn.scheme = cfg.scheme;
      dyn.mask_kind = cfg.kind;
      dyn.mask_semantics = cfg.semantics;
      dyn.index_width = index_width_of<IT>();
      const CsrMatrix<IT, VT> dyn_out =
          engine.multiply_dyn(cse.a, cse.b, cse.m, dyn);
      EXPECT_TRUE(csr_equal(expected, dyn_out))
          << cse.name << " / " << cfg.name() << " (dyn)";
    }
  }
}

TEST(EngineConformance, BuilderAndDynMatchContextInt32Raw) {
  sweep_engine_against_context<int>(false);
}

TEST(EngineConformance, BuilderAndDynMatchContextInt32Bound) {
  sweep_engine_against_context<int>(true);
}

TEST(EngineConformance, BuilderAndDynMatchContextInt64Raw) {
  sweep_engine_against_context<std::int64_t>(false);
}

TEST(EngineConformance, BuilderAndDynMatchContextInt64Bound) {
  sweep_engine_against_context<std::int64_t>(true);
}

TEST(EngineConformance, NonDefaultSemiringsThroughBuilderAndDyn) {
  using IT = int;
  using VT = double;
  const auto a = random_csr<IT, VT>(24, 24, 0.25, 1);
  const auto b = random_csr<IT, VT>(24, 24, 0.25, 2);
  const auto m = random_csr<IT, VT>(24, 24, 0.35, 3);
  Engine engine;
  // plus-pair via template-template .semiring<PlusPair>() and via dyn id.
  const auto expected = run_fresh<PlusPair<VT>>(Scheme::kHash2P, a, b, m);
  const auto built = engine.multiply(a, b)
                         .mask(m)
                         .semiring<PlusPair>()
                         .scheme(Scheme::kHash2P)
                         .run();
  EXPECT_TRUE(csr_equal(expected, built));
  DynConfig dyn;
  dyn.semiring = SemiringId::kPlusPair;
  dyn.scheme = Scheme::kHash2P;
  EXPECT_TRUE(csr_equal(expected, engine.multiply_dyn(a, b, m, dyn)));

  // A custom semiring type through the fully-typed .semiring<S>().
  const auto minplus_expected =
      run_fresh<MinPlus<VT>>(Scheme::kMsa1P, a, b, m);
  const auto minplus_built = engine.multiply(a, b)
                                 .mask(m)
                                 .semiring<MinPlus<VT>>()
                                 .scheme(Scheme::kMsa1P)
                                 .run();
  EXPECT_TRUE(csr_equal(minplus_expected, minplus_built));
}

TEST(EngineConformance, BatchMatchesSequential) {
  using IT = int;
  using VT = double;
  const auto a = random_csr<IT, VT>(32, 32, 0.2, 7);
  std::vector<CsrMatrix<IT, VT>> mask_store;
  for (int q = 0; q < 4; ++q) {
    mask_store.push_back(random_csr<IT, VT>(32, 32, 0.1 + 0.1 * q, 10 + q));
  }
  std::vector<const CsrMatrix<IT, VT>*> masks;
  for (const auto& m : mask_store) masks.push_back(&m);
  for (Scheme s : {Scheme::kMsa1P, Scheme::kInner2P, Scheme::kSsSaxpy}) {
    Engine engine;
    const auto batch = engine.multiply_batch<PlusTimes<VT>>(s, a, a, masks);
    ASSERT_EQ(batch.size(), masks.size());
    // A is bound once for the whole batch: the context hashes only the
    // masks (the planless baseline hashes nothing).
    EXPECT_EQ(engine.cache_stats().fingerprints_computed,
              s == Scheme::kSsSaxpy ? 0u : masks.size())
        << scheme_name(s);
    Engine seq;
    for (std::size_t q = 0; q < masks.size(); ++q) {
      const auto one =
          seq.multiply(a, a).mask(*masks[q]).scheme(s).run();
      EXPECT_TRUE(csr_equal(one, batch[q])) << scheme_name(s) << " q=" << q;
    }
  }
}

// ---------------------------------------------------------------------------
// Scheme::kAuto
// ---------------------------------------------------------------------------

TEST(EngineAuto, AutoResolvesAndMatchesBaselineBothKinds) {
  using IT = int;
  using VT = double;
  const auto a = random_csr<IT, VT>(28, 28, 0.2, 21);
  const auto b = random_csr<IT, VT>(28, 28, 0.2, 22);
  const auto m = random_csr<IT, VT>(28, 28, 0.3, 23);
  Engine engine;
  for (MaskKind kind : {MaskKind::kMask, MaskKind::kComplement}) {
    const auto expected = baseline_saxpy<PlusTimes<VT>>(a, b, m, kind);
    const auto actual = engine.multiply(a, b)
                            .mask(m)
                            .mask_kind(kind)
                            .scheme(Scheme::kAuto)
                            .run();
    EXPECT_TRUE(csr_equal(expected, actual));
  }
}

TEST(EngineAuto, HeuristicPicksPhaseByDensityAndKind) {
  // Sparse mask, plenty of flops → tight bound → one-phase.
  const auto tight = auto_scheme_options(/*total_flops=*/1000,
                                         /*mask_nnz=*/100, MaskKind::kMask,
                                         /*nrows=*/100, /*ncols=*/100);
  EXPECT_EQ(tight.phase, MaskedPhase::kOnePhase);
  EXPECT_EQ(tight.algorithm, MaskedAlgorithm::kAdaptive);
  // Mask admits more positions than there are flops → loose bound → 2P.
  const auto loose = auto_scheme_options(/*total_flops=*/50,
                                         /*mask_nnz=*/1000, MaskKind::kMask,
                                         /*nrows=*/100, /*ncols=*/100);
  EXPECT_EQ(loose.phase, MaskedPhase::kTwoPhase);
  // Complemented masks admit nrows·ncols − nnz(M) positions: a near-full
  // mask leaves a tiny complement → tight bound → one-phase...
  const auto comp_tight = auto_scheme_options(
      /*total_flops=*/1000, /*mask_nnz=*/9990, MaskKind::kComplement,
      /*nrows=*/100, /*ncols=*/100);
  EXPECT_EQ(comp_tight.phase, MaskedPhase::kOnePhase);
  // ...while a sparse mask's complement is nearly dense → loose → 2P.
  const auto comp_loose = auto_scheme_options(
      /*total_flops=*/1000, /*mask_nnz=*/2, MaskKind::kComplement,
      /*nrows=*/100, /*ncols=*/100);
  EXPECT_EQ(comp_loose.phase, MaskedPhase::kTwoPhase);
}

TEST(EngineAuto, AutoIsExcludedFromRegistryLists) {
  for (Scheme s : all_schemes()) EXPECT_NE(s, Scheme::kAuto);
  EXPECT_EQ(scheme_name(Scheme::kAuto), "Auto");
  Scheme parsed = Scheme::kMsa1P;
  EXPECT_TRUE(scheme_from_name("Auto", parsed));
  EXPECT_EQ(parsed, Scheme::kAuto);
  EXPECT_FALSE(scheme_from_name("NoSuchScheme", parsed));
}

// ---------------------------------------------------------------------------
// Typed unsupported-scheme errors (satellite regression)
// ---------------------------------------------------------------------------

TEST(EngineErrors, ComplementedMcaThrowsTypedErrorEverywhere) {
  using IT = int;
  using VT = double;
  const auto a = random_csr<IT, VT>(12, 12, 0.3, 31);
  const auto m = random_csr<IT, VT>(12, 12, 0.3, 32);
  Engine engine;
  for (Scheme s : {Scheme::kMca1P, Scheme::kMca2P}) {
    // Builder.
    try {
      (void)engine.multiply(a, a).mask(m).scheme(s).complement().run();
      FAIL() << "builder accepted complemented " << scheme_name(s);
    } catch (const unsupported_scheme_error& e) {
      EXPECT_EQ(e.scheme(), s);
      EXPECT_NE(std::string(e.what()).find(scheme_name(s)),
                std::string::npos)
          << "message must name the scheme: " << e.what();
    }
    // Dyn path.
    DynConfig dyn;
    dyn.scheme = s;
    dyn.mask_kind = MaskKind::kComplement;
    EXPECT_THROW((void)engine.multiply_dyn(a, a, m, dyn),
                 unsupported_scheme_error);
    // Batch path: rejected before any plan is built.
    const std::size_t plans_before = engine.plan_count();
    const std::vector<const CsrMatrix<IT, VT>*> masks = {&m};
    EXPECT_THROW((void)engine.multiply_batch<PlusTimes<VT>>(
                     s, a, a, masks, MaskKind::kComplement),
                 unsupported_scheme_error);
    EXPECT_EQ(engine.plan_count(), plans_before);
    // The typed error is still an invalid_argument_error for old callers.
    EXPECT_THROW((void)engine.multiply(a, a).mask(m).scheme(s).complement()
                     .run(),
                 invalid_argument_error);
  }
  // Regular-mask MCA still works.
  EXPECT_NO_THROW(
      (void)engine.multiply(a, a).mask(m).scheme(Scheme::kMca1P).run());
}

TEST(EngineErrors, DynIndexWidthMismatchThrows) {
  using VT = double;
  const auto a32 = random_csr<int, VT>(8, 8, 0.4, 41);
  Engine engine;
  DynConfig dyn;
  dyn.index_width = IndexWidth::k64;
  EXPECT_THROW((void)engine.multiply_dyn(a32, a32, a32, dyn),
               invalid_argument_error);
  dyn.index_width = IndexWidth::k32;
  EXPECT_NO_THROW((void)engine.multiply_dyn(a32, a32, a32, dyn));
  const auto a64 = random_csr<std::int64_t, VT>(8, 8, 0.4, 42);
  dyn.index_width = IndexWidth::k64;
  EXPECT_NO_THROW((void)engine.multiply_dyn(a64, a64, a64, dyn));
}

// ---------------------------------------------------------------------------
// BoundMatrix reuse
// ---------------------------------------------------------------------------

TEST(BoundMatrix, SteadyStateCallsHashNothing) {
  using IT = int;
  using VT = double;
  const auto a = random_csr<IT, VT>(40, 40, 0.2, 51);
  const auto b = random_csr<IT, VT>(40, 40, 0.2, 52);
  const auto m = random_csr<IT, VT>(40, 40, 0.3, 53);
  Engine engine;
  const auto ab = engine.bind(a);
  const auto bb = engine.bind(b);
  const auto mb = engine.bind(m);
  auto call = engine.multiply(ab, bb).mask(mb).scheme(Scheme::kMsa2P);
  (void)call.run();  // builds the plan (no hashes even here)
  engine.reset_stats();
  for (int rep = 0; rep < 3; ++rep) (void)call.run();
  EXPECT_EQ(engine.cache_stats().fingerprints_computed, 0u);
  EXPECT_EQ(engine.cache_stats().plan_hits, 3u);
  EXPECT_EQ(engine.cache_stats().plan_misses, 0u);

  // The raw path pays per-call hashes for the same multiplies.
  engine.reset_stats();
  (void)engine.multiply(a, b).mask(m).scheme(Scheme::kMsa2P).run();
  EXPECT_EQ(engine.cache_stats().fingerprints_computed, 3u);
  EXPECT_EQ(engine.cache_stats().plan_hits, 1u);  // same plan key as bound
}

TEST(BoundMatrix, ValueMutationFlowsThroughTransposeRefresh) {
  using IT = int;
  using VT = double;
  auto b = random_csr<IT, VT>(30, 30, 0.25, 61);
  const auto a = random_csr<IT, VT>(30, 30, 0.25, 62);
  const auto m = random_csr<IT, VT>(30, 30, 0.35, 63);
  Engine engine;
  auto bb = engine.bind(b);
  auto call =
      engine.multiply(a, bb).mask(m).scheme(Scheme::kInner2P);
  const auto before = call.run();
  ASSERT_GT(b.nnz(), 0u);
  // Mutate B's values in place (pattern unchanged): the Inner scheme's
  // cached transpose must re-gather the *current* values on the next run.
  for (auto& v : b.values) v += 1.0;
  bb.values_changed();
  const auto after = call.run();
  const auto expected = run_fresh<PlusTimes<VT>>(Scheme::kInner2P, a, b, m);
  EXPECT_TRUE(csr_equal(expected, after));
  // And the mutation genuinely changed something.
  EXPECT_FALSE(before.values == after.values && before.nnz() > 0);
}

TEST(BoundMatrix, ValuedMaskZeroBitmapRefreshAfterValuesChanged) {
  using IT = int;
  using VT = double;
  const auto a = random_csr<IT, VT>(24, 24, 0.3, 71);
  auto m = random_csr<IT, VT>(24, 24, 0.4, 72);
  ASSERT_GT(m.nnz(), 4u);
  Engine engine;
  auto mb = engine.bind(m);
  auto call = engine.multiply(a, a)
                  .mask(mb)
                  .scheme(Scheme::kHash1P)
                  .valued();
  const auto before = call.run();
  EXPECT_TRUE(csr_equal(
      run_fresh<PlusTimes<VT>>(Scheme::kHash1P, a, a,
                               drop_explicit_zeros(m)),
      before));
  // Zero out some stored mask values: under valued semantics those
  // positions stop admitting output. values_changed() invalidates the
  // cached zero-bitmap fingerprint, so the engine sees a new valued mask.
  for (std::size_t p = 0; p < m.values.size(); p += 2) m.values[p] = 0.0;
  mb.values_changed();
  const auto after = call.run();
  EXPECT_TRUE(csr_equal(
      run_fresh<PlusTimes<VT>>(Scheme::kHash1P, a, a,
                               drop_explicit_zeros(m)),
      after));
}

TEST(BoundMatrix, RebindChangesFingerprintAndServesNewPattern) {
  using IT = int;
  using VT = double;
  const auto a = random_csr<IT, VT>(20, 20, 0.3, 81);
  const auto m1 = random_csr<IT, VT>(20, 20, 0.3, 82);
  const auto m2 = random_csr<IT, VT>(20, 20, 0.5, 83);
  Engine engine;
  auto mb = engine.bind(m1);
  const std::uint64_t fp1 = mb.fingerprint();
  const auto c1 =
      engine.multiply(a, a).mask(mb).scheme(Scheme::kMsa1P).run();
  EXPECT_TRUE(csr_equal(run_fresh<PlusTimes<VT>>(Scheme::kMsa1P, a, a, m1),
                        c1));
  mb.rebind(m2);
  EXPECT_NE(mb.fingerprint(), fp1);
  const auto c2 =
      engine.multiply(a, a).mask(mb).scheme(Scheme::kMsa1P).run();
  EXPECT_TRUE(csr_equal(run_fresh<PlusTimes<VT>>(Scheme::kMsa1P, a, a, m2),
                        c2));
  // Distinct fingerprints → distinct plan keys → no mismatch demotions.
  EXPECT_EQ(engine.cache_stats().plan_mismatches, 0u);
}

TEST(BoundMatrix, FlopsCacheSharedIntoPlans) {
  using IT = int;
  using VT = double;
  const auto a = random_csr<IT, VT>(26, 26, 0.25, 91);
  const auto b = random_csr<IT, VT>(26, 26, 0.25, 92);
  Engine engine;
  const auto ab = engine.bind(a);
  const auto bb = engine.bind(b);
  const auto flops1 = ab.flops_with(b, bb.fingerprint());
  const auto flops2 = ab.flops_with(b, bb.fingerprint());
  EXPECT_EQ(flops1.get(), flops2.get());  // cached, not recounted
  EXPECT_EQ(*flops1, row_flops(a, b));
  // A plan built through the engine shares the handle's vector.
  const auto m = random_csr<IT, VT>(26, 26, 0.3, 93);
  (void)engine.multiply(ab, bb).mask(m).scheme(Scheme::kMsa1P).run();
  auto& plan = engine.context().plan_for<IT, VT, VT>(
      a, b, m, MaskKind::kMask, MaskSemantics::kStructural);
  EXPECT_EQ(plan.flops_ptr().get(), flops1.get());
}

}  // namespace
}  // namespace msp
