// Property-based tests: structural invariants of Masked SpGEMM that must
// hold for every scheme on randomly generated inputs, independent of the
// dense oracle (paper §2, §4, §6).
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "core/engine.hpp"
#include "core/spgemm.hpp"
#include "gen/erdos_renyi.hpp"
#include "matrix/ops.hpp"
#include "semiring/semiring.hpp"
#include "test_support.hpp"

namespace msp {
namespace {

using IT = int;
using VT = double;
using SR = PlusTimes<VT>;
using msp::testing::csr_equal;
using msp::testing::random_csr;
using msp::testing::run_fresh;

std::set<std::pair<IT, IT>> pattern_of(const CsrMatrix<IT, VT>& a) {
  std::set<std::pair<IT, IT>> s;
  for (IT i = 0; i < a.nrows; ++i) {
    for (IT p = a.rowptr[i]; p < a.rowptr[i + 1]; ++p) {
      s.emplace(i, a.colids[p]);
    }
  }
  return s;
}

struct PropertyCase {
  IT n;
  double density;
  double mask_density;
  std::uint64_t seed;
};

class MaskedSpgemmProperties
    : public ::testing::TestWithParam<PropertyCase> {};

/// pattern(C) ⊆ pattern(M) for a regular mask; disjoint for a complement.
TEST_P(MaskedSpgemmProperties, OutputPatternRespectsMask) {
  const auto& c = GetParam();
  const auto a = random_csr<IT, VT>(c.n, c.n, c.density, c.seed);
  const auto b = random_csr<IT, VT>(c.n, c.n, c.density, c.seed + 1);
  const auto m = random_csr<IT, VT>(c.n, c.n, c.mask_density, c.seed + 2);
  const auto mask_pattern = pattern_of(m);
  for (Scheme s : all_schemes()) {
    const auto out = run_fresh<SR>(s, a, b, m, MaskKind::kMask);
    for (const auto& coord : pattern_of(out)) {
      EXPECT_TRUE(mask_pattern.count(coord))
          << scheme_name(s) << ": output entry outside mask";
    }
    if (!scheme_supports_complement(s)) continue;
    const auto outc = run_fresh<SR>(s, a, b, m, MaskKind::kComplement);
    for (const auto& coord : pattern_of(outc)) {
      EXPECT_FALSE(mask_pattern.count(coord))
          << scheme_name(s) << ": complemented output entry inside mask";
    }
  }
}

/// Masked and complement-masked outputs partition the plain product:
/// C_mask ∪ C_compl == A·B (as patterns and values).
TEST_P(MaskedSpgemmProperties, MaskAndComplementPartitionPlainProduct) {
  const auto& c = GetParam();
  const auto a = random_csr<IT, VT>(c.n, c.n, c.density, c.seed + 10);
  const auto b = random_csr<IT, VT>(c.n, c.n, c.density, c.seed + 11);
  const auto m = random_csr<IT, VT>(c.n, c.n, c.mask_density, c.seed + 12);
  const auto plain = multiply<SR>(a, b);
  for (Scheme s : all_schemes()) {
    if (!scheme_supports_complement(s)) continue;
    const auto masked = run_fresh<SR>(s, a, b, m, MaskKind::kMask);
    const auto compl_masked =
        run_fresh<SR>(s, a, b, m, MaskKind::kComplement);
    const auto merged = ewise_add(masked, compl_masked);
    EXPECT_TRUE(csr_equal(plain, merged)) << scheme_name(s);
  }
}

/// All schemes agree with each other bit-exactly on integer-valued data.
TEST_P(MaskedSpgemmProperties, AllSchemesAgreePairwise) {
  const auto& c = GetParam();
  const auto a = random_csr<IT, VT>(c.n, c.n, c.density, c.seed + 20);
  const auto b = random_csr<IT, VT>(c.n, c.n, c.density, c.seed + 21);
  const auto m = random_csr<IT, VT>(c.n, c.n, c.mask_density, c.seed + 22);
  const auto schemes = all_schemes();
  const auto reference = run_fresh<SR>(schemes.front(), a, b, m);
  for (std::size_t i = 1; i < schemes.size(); ++i) {
    EXPECT_TRUE(csr_equal(reference, run_fresh<SR>(schemes[i], a, b, m)))
        << scheme_name(schemes[i]) << " disagrees with "
        << scheme_name(schemes.front());
  }
}

/// The symbolic phase's row counts equal the numeric output's row sizes:
/// 1P and 2P must produce identical matrices.
TEST_P(MaskedSpgemmProperties, OneAndTwoPhaseIdentical) {
  const auto& c = GetParam();
  const auto a = random_csr<IT, VT>(c.n, c.n, c.density, c.seed + 30);
  const auto b = random_csr<IT, VT>(c.n, c.n, c.density, c.seed + 31);
  const auto m = random_csr<IT, VT>(c.n, c.n, c.mask_density, c.seed + 32);
  const std::vector<std::pair<Scheme, Scheme>> pairs = {
      {Scheme::kMsa1P, Scheme::kMsa2P},
      {Scheme::kHash1P, Scheme::kHash2P},
      {Scheme::kMca1P, Scheme::kMca2P},
      {Scheme::kHeap1P, Scheme::kHeap2P},
      {Scheme::kHeapDot1P, Scheme::kHeapDot2P},
      {Scheme::kInner1P, Scheme::kInner2P},
  };
  for (const auto& [one, two] : pairs) {
    EXPECT_TRUE(csr_equal(run_fresh<SR>(one, a, b, m),
                          run_fresh<SR>(two, a, b, m)))
        << scheme_name(one) << " vs " << scheme_name(two);
    if (!scheme_supports_complement(one)) continue;
    EXPECT_TRUE(
        csr_equal(run_fresh<SR>(one, a, b, m, MaskKind::kComplement),
                  run_fresh<SR>(two, a, b, m, MaskKind::kComplement)))
        << scheme_name(one) << " vs " << scheme_name(two) << " (complement)";
  }
}

/// Output rows are sorted and duplicate-free — required by every consumer.
TEST_P(MaskedSpgemmProperties, OutputRowsSortedAndUnique) {
  const auto& c = GetParam();
  const auto a = random_csr<IT, VT>(c.n, c.n, c.density, c.seed + 40);
  const auto b = random_csr<IT, VT>(c.n, c.n, c.density, c.seed + 41);
  const auto m = random_csr<IT, VT>(c.n, c.n, c.mask_density, c.seed + 42);
  for (Scheme s : all_schemes()) {
    for (MaskKind kind : {MaskKind::kMask, MaskKind::kComplement}) {
      if (kind == MaskKind::kComplement && !scheme_supports_complement(s)) {
        continue;
      }
      const auto out = run_fresh<SR>(s, a, b, m, kind);
      EXPECT_TRUE(out.check_structure()) << scheme_name(s);
    }
  }
}

/// Masking with a full (all-ones) mask equals the plain product; masking
/// with an empty mask yields an empty matrix (and vice versa, complemented).
TEST_P(MaskedSpgemmProperties, FullAndEmptyMaskDegenerateCorrectly) {
  const auto& c = GetParam();
  const auto a = random_csr<IT, VT>(c.n, c.n, c.density, c.seed + 50);
  const auto b = random_csr<IT, VT>(c.n, c.n, c.density, c.seed + 51);
  CooMatrix<IT, VT> full_coo(c.n, c.n);
  for (IT i = 0; i < c.n; ++i) {
    for (IT j = 0; j < c.n; ++j) full_coo.push(i, j, 1.0);
  }
  const auto full = coo_to_csr(std::move(full_coo));
  const CsrMatrix<IT, VT> empty(c.n, c.n);
  const auto plain = multiply<SR>(a, b);
  for (Scheme s : all_schemes()) {
    EXPECT_TRUE(csr_equal(plain, run_fresh<SR>(s, a, b, full)))
        << scheme_name(s) << " with full mask";
    EXPECT_EQ(run_fresh<SR>(s, a, b, empty).nnz(), 0u)
        << scheme_name(s) << " with empty mask";
    if (!scheme_supports_complement(s)) continue;
    EXPECT_EQ(run_fresh<SR>(s, a, b, full, MaskKind::kComplement).nnz(), 0u)
        << scheme_name(s) << " with complemented full mask";
    EXPECT_TRUE(csr_equal(
        plain, run_fresh<SR>(s, a, b, empty, MaskKind::kComplement)))
        << scheme_name(s) << " with complemented empty mask";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MaskedSpgemmProperties,
    ::testing::Values(PropertyCase{24, 0.15, 0.15, 1},
                      PropertyCase{40, 0.05, 0.30, 2},
                      PropertyCase{40, 0.30, 0.05, 3},
                      PropertyCase{64, 0.10, 0.10, 4},
                      PropertyCase{17, 0.50, 0.50, 5}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      const auto& c = info.param;
      return "n" + std::to_string(c.n) + "_d" +
             std::to_string(static_cast<int>(c.density * 100)) + "_md" +
             std::to_string(static_cast<int>(c.mask_density * 100)) + "_s" +
             std::to_string(c.seed);
    });

/// Larger-scale agreement test on generator output (ER graphs), checking
/// the parallel path with realistically sized rows.
TEST(MaskedSpgemmScale, SchemesAgreeOnErdosRenyi) {
  const IT n = 1 << 10;
  const auto a = erdos_renyi<IT, VT>(n, 12.0, 101);
  const auto m = erdos_renyi<IT, VT>(n, 24.0, 103);
  const auto reference = run_fresh<SR>(Scheme::kMsa1P, a, a, m);
  for (Scheme s : all_schemes()) {
    EXPECT_TRUE(csr_equal(reference, run_fresh<SR>(s, a, a, m)))
        << scheme_name(s);
  }
}

TEST(MaskedSpgemmScale, ComplementSchemesAgreeOnErdosRenyi) {
  const IT n = 1 << 9;
  const auto a = erdos_renyi<IT, VT>(n, 8.0, 201);
  const auto m = erdos_renyi<IT, VT>(n, 16.0, 203);
  const auto reference =
      run_fresh<SR>(Scheme::kMsa1P, a, a, m, MaskKind::kComplement);
  for (Scheme s : all_schemes()) {
    if (!scheme_supports_complement(s)) continue;
    EXPECT_TRUE(csr_equal(
        reference, run_fresh<SR>(s, a, a, m, MaskKind::kComplement)))
        << scheme_name(s);
  }
}

}  // namespace
}  // namespace msp
