// Correctness of every Masked SpGEMM scheme against the dense reference
// oracle, across a parameterized sweep of shapes, densities, mask densities,
// mask kinds, and seeds — the core validation of the reproduction.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/engine.hpp"
#include "matrix/dense.hpp"
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

struct Case {
  Scheme scheme;
  MaskKind kind;
  IT m, k, n;          // A is m×k, B is k×n, M is m×n
  double density;      // of A and B
  double mask_density; // of M
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string name{scheme_name(c.scheme)};
  for (char& ch : name) {
    if (ch == '-' || ch == ':') ch = '_';
  }
  name += c.kind == MaskKind::kComplement ? "_compl" : "_mask";
  name += "_" + std::to_string(c.m) + "x" + std::to_string(c.k) + "x" +
          std::to_string(c.n);
  name += "_d" + std::to_string(static_cast<int>(c.density * 100));
  name += "_md" + std::to_string(static_cast<int>(c.mask_density * 100));
  name += "_s" + std::to_string(c.seed);
  return name;
}

class MaskedSpgemmOracle : public ::testing::TestWithParam<Case> {};

TEST_P(MaskedSpgemmOracle, MatchesDenseReference) {
  const Case& c = GetParam();
  const auto a = random_csr<IT, VT>(c.m, c.k, c.density, c.seed);
  const auto b = random_csr<IT, VT>(c.k, c.n, c.density, c.seed + 1);
  const auto mask = random_csr<IT, VT>(c.m, c.n, c.mask_density, c.seed + 2);
  const auto expected = reference_masked_multiply<SR>(
      a, b, mask, c.kind == MaskKind::kComplement);
  const auto actual = run_fresh<SR>(c.scheme, a, b, mask, c.kind);
  EXPECT_TRUE(csr_equal(expected, actual));
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  const std::vector<std::tuple<IT, IT, IT>> shapes = {
      {16, 16, 16}, {32, 16, 24}, {7, 31, 13}, {64, 64, 64}, {1, 50, 50},
      {50, 1, 50}};
  const std::vector<std::pair<double, double>> densities = {
      {0.1, 0.1},   // comparable input/mask density
      {0.3, 0.05},  // dense inputs, sparse mask (Inner's regime)
      {0.05, 0.4},  // sparse inputs, dense mask (Heap's regime)
      {0.0, 0.2},   // empty inputs
      {0.2, 0.0},   // empty mask
      {0.9, 0.9},   // near-dense everything
  };
  for (Scheme s : all_schemes()) {
    for (MaskKind kind : {MaskKind::kMask, MaskKind::kComplement}) {
      if (kind == MaskKind::kComplement && !scheme_supports_complement(s)) {
        continue;
      }
      for (const auto& [m, k, n] : shapes) {
        for (const auto& [d, md] : densities) {
          cases.push_back({s, kind, m, k, n, d, md, 42});
        }
      }
    }
  }
  // Extra seeds on one representative shape to vary the random structure.
  for (Scheme s : all_schemes()) {
    for (std::uint64_t seed : {7ULL, 1234ULL, 99999ULL}) {
      cases.push_back({s, MaskKind::kMask, 40, 40, 40, 0.15, 0.15, seed});
      if (scheme_supports_complement(s)) {
        cases.push_back({s, MaskKind::kComplement, 40, 40, 40, 0.15, 0.15,
                         seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, MaskedSpgemmOracle,
                         ::testing::ValuesIn(make_cases()), case_name);

// ---------------------------------------------------------------------
// Targeted edge cases beyond the parameterized sweep.

TEST(MaskedSpgemm, DimensionMismatchThrows) {
  const auto a = random_csr<IT, VT>(4, 5, 0.5, 1);
  const auto b = random_csr<IT, VT>(6, 4, 0.5, 2);  // inner dim mismatch
  const auto m = random_csr<IT, VT>(4, 4, 0.5, 3);
  EXPECT_THROW(masked_multiply<SR>(a, b, m), invalid_argument_error);
}

TEST(MaskedSpgemm, MaskShapeMismatchThrows) {
  const auto a = random_csr<IT, VT>(4, 5, 0.5, 1);
  const auto b = random_csr<IT, VT>(5, 4, 0.5, 2);
  const auto m = random_csr<IT, VT>(3, 4, 0.5, 3);  // wrong rows
  EXPECT_THROW(masked_multiply<SR>(a, b, m), invalid_argument_error);
}

TEST(MaskedSpgemm, McaRejectsComplementedMask) {
  const auto a = random_csr<IT, VT>(4, 4, 0.5, 1);
  const auto m = random_csr<IT, VT>(4, 4, 0.5, 2);
  MaskedSpgemmOptions opt;
  opt.algorithm = MaskedAlgorithm::kMca;
  opt.mask_kind = MaskKind::kComplement;
  EXPECT_THROW(masked_multiply<SR>(a, a, m, opt), invalid_argument_error);
}

TEST(MaskedSpgemm, AliasedOperandsMEqualsAEqualsB) {
  // The triangle-counting pattern: C = L ⊙ (L·L) with all three the same
  // object. Every scheme must tolerate aliasing.
  const auto l = random_csr<IT, VT>(30, 30, 0.2, 5);
  const auto expected = reference_masked_multiply<SR>(l, l, l, false);
  for (Scheme s : all_schemes()) {
    const auto actual = run_fresh<SR>(s, l, l, l, MaskKind::kMask);
    EXPECT_TRUE(csr_equal(expected, actual)) << scheme_name(s);
  }
}

TEST(MaskedSpgemm, EmptyMatrices) {
  const CsrMatrix<IT, VT> a(0, 0);
  const CsrMatrix<IT, VT> m(0, 0);
  for (Scheme s : all_schemes()) {
    const auto c = run_fresh<SR>(s, a, a, m, MaskKind::kMask);
    EXPECT_EQ(c.nnz(), 0u) << scheme_name(s);
    EXPECT_EQ(c.nrows, 0) << scheme_name(s);
  }
}

TEST(MaskedSpgemm, MaskDenserThanProduct) {
  // Mask admits positions the product never generates: they must be absent
  // from the output (paper Fig. 1: "mask may contain entries for which the
  // multiplication does not produce an output").
  CooMatrix<IT, VT> acoo(3, 3);
  acoo.push(0, 0, 2.0);
  const auto a = coo_to_csr(std::move(acoo));
  CooMatrix<IT, VT> mcoo(3, 3);
  for (IT i = 0; i < 3; ++i) {
    for (IT j = 0; j < 3; ++j) mcoo.push(i, j, 1.0);
  }
  const auto mask = coo_to_csr(std::move(mcoo));
  for (Scheme s : all_schemes()) {
    const auto c = run_fresh<SR>(s, a, a, mask, MaskKind::kMask);
    ASSERT_EQ(c.nnz(), 1u) << scheme_name(s);
    EXPECT_EQ(c.colids[0], 0) << scheme_name(s);
    EXPECT_DOUBLE_EQ(c.values[0], 4.0) << scheme_name(s);
  }
}

TEST(MaskedSpgemm, OtherSemirings) {
  const auto a = random_csr<IT, VT>(24, 24, 0.2, 11);
  const auto b = random_csr<IT, VT>(24, 24, 0.2, 12);
  const auto mask = random_csr<IT, VT>(24, 24, 0.3, 13);
  {
    using Pair = PlusPair<VT>;
    const auto expected = reference_masked_multiply<Pair>(a, b, mask, false);
    for (Scheme s : all_schemes()) {
      EXPECT_TRUE(csr_equal(expected, run_fresh<Pair>(s, a, b, mask)))
          << scheme_name(s) << " on plus-pair";
    }
  }
  {
    using MP = MinPlus<VT>;
    const auto expected = reference_masked_multiply<MP>(a, b, mask, false);
    for (Scheme s : all_schemes()) {
      EXPECT_TRUE(csr_equal(expected, run_fresh<MP>(s, a, b, mask)))
          << scheme_name(s) << " on min-plus";
    }
  }
}

TEST(MaskedSpgemm, InnerBothPhasesMatchReference) {
  // Planless Inner transposes B inside masked_multiply and runs through
  // the same kernel switch and phase runners as every other algorithm; the
  // one-phase bounds only size the buffers, so both phases and both mask
  // kinds match the reference.
  const auto a = random_csr<IT, VT>(20, 30, 0.2, 21);
  const auto b = random_csr<IT, VT>(30, 25, 0.2, 22);
  const auto mask = random_csr<IT, VT>(20, 25, 0.3, 23);
  for (MaskKind kind : {MaskKind::kMask, MaskKind::kComplement}) {
    const auto expected = reference_masked_multiply<SR>(
        a, b, mask, kind == MaskKind::kComplement);
    for (MaskedPhase phase :
         {MaskedPhase::kOnePhase, MaskedPhase::kTwoPhase}) {
      MaskedSpgemmOptions opt;
      opt.algorithm = MaskedAlgorithm::kInner;
      opt.phase = phase;
      opt.mask_kind = kind;
      EXPECT_TRUE(csr_equal(expected, masked_multiply<SR>(a, b, mask, opt)));
    }
  }
}

TEST(MaskedSpgemm, RectangularBatchShape) {
  // The betweenness-centrality shape: a short, wide frontier times a square
  // adjacency matrix, with a complemented wide mask.
  const auto f = random_csr<IT, VT>(4, 64, 0.1, 31);
  const auto adj = random_csr<IT, VT>(64, 64, 0.08, 32);
  const auto visited = random_csr<IT, VT>(4, 64, 0.2, 33);
  const auto expected =
      reference_masked_multiply<SR>(f, adj, visited, true);
  for (Scheme s : all_schemes()) {
    if (!scheme_supports_complement(s)) continue;
    const auto actual =
        run_fresh<SR>(s, f, adj, visited, MaskKind::kComplement);
    EXPECT_TRUE(csr_equal(expected, actual)) << scheme_name(s);
  }
}

}  // namespace
}  // namespace msp
