// Conformance edge-case pack (ISSUE 1 satellite): degenerate shapes and
// adversarial masks swept across every execution configuration. Covers 0x0
// and 1x1 matrices, a mask whose stored values are all explicit zeros, a
// mask strictly denser than the product, and argument aliasing
// (masked_multiply(a, a, a)).
#include <gtest/gtest.h>

#include "conformance_support.hpp"
#include "test_support.hpp"

namespace msp {
namespace {

using SR = PlusTimes<double>;
using msp::conformance::Config;
using msp::conformance::all_configs;
using msp::conformance::expected_result;
using msp::conformance::run_config;
using msp::testing::csr_equal;
using msp::testing::run_fresh;

void sweep_all_configs(const CsrMatrix<int, double>& a,
                       const CsrMatrix<int, double>& b,
                       const CsrMatrix<int, double>& m, const char* label) {
  for (const Config& cfg : all_configs()) {
    const auto expected =
        expected_result<SR>(a, b, m, cfg.kind, cfg.semantics);
    const auto actual = run_config<SR>(cfg, a, b, m);
    EXPECT_TRUE(csr_equal(expected, actual)) << cfg.name() << " on " << label;
  }
}

TEST(ConformanceEdge, ZeroByZero) {
  const CsrMatrix<int, double> z(0, 0);
  sweep_all_configs(z, z, z, "0x0");
}

TEST(ConformanceEdge, OneByOne) {
  const CsrMatrix<int, double> one(1, 1, {0, 1}, {0}, {2.5});
  const CsrMatrix<int, double> empty1(1, 1);
  sweep_all_configs(one, one, one, "1x1 full");
  sweep_all_configs(one, one, empty1, "1x1 empty mask");
  sweep_all_configs(empty1, empty1, one, "1x1 empty operands");
}

TEST(ConformanceEdge, AllZeroValuedMask) {
  // Every stored mask value is an explicit zero: structural semantics keep
  // all positions, valued semantics admit none.
  const auto a = msp::testing::random_csr<int, double>(14, 14, 0.35, 81);
  const auto b = msp::testing::random_csr<int, double>(14, 14, 0.35, 82);
  auto m = msp::testing::random_csr<int, double>(14, 14, 0.5, 83);
  for (auto& v : m.values) v = 0.0;
  sweep_all_configs(a, b, m, "all-zero mask");

  // Directly pin the two interpretations' divergence.
  MaskedSpgemmOptions valued;
  valued.mask_semantics = MaskSemantics::kValued;
  EXPECT_EQ(masked_multiply<SR>(a, b, m, valued).nnz(), 0u);
  MaskedSpgemmOptions structural;
  const auto kept = masked_multiply<SR>(a, b, m, structural);
  EXPECT_TRUE(csr_equal(reference_masked_multiply<SR>(a, b, m, false), kept));
}

TEST(ConformanceEdge, MaskDenserThanProduct) {
  // Sparse operands under a fully dense mask: the mask admits far more
  // positions than the product populates, so the one-phase nnz(M) bound is
  // maximally loose and the compaction path is fully exercised.
  const auto a = msp::testing::random_csr<int, double>(12, 12, 0.1, 91);
  const auto b = msp::testing::random_csr<int, double>(12, 12, 0.1, 92);
  const auto m = msp::testing::random_csr<int, double>(12, 12, 1.0, 93);
  sweep_all_configs(a, b, m, "dense mask over sparse product");
}

TEST(ConformanceEdge, MaskAliasesInputs) {
  // masked_multiply(a, a, a): the mask and both operands are the same
  // object. Kernels must not be confused by aliased storage.
  const auto a = msp::testing::random_csr<int, double>(16, 16, 0.3, 101);
  sweep_all_configs(a, a, a, "self-aliased");

  const auto expected = reference_masked_multiply<SR>(a, a, a, false);
  for (Scheme s : all_schemes()) {
    EXPECT_TRUE(csr_equal(expected, run_fresh<SR>(s, a, a, a)))
        << scheme_name(s);
  }
}

TEST(ConformanceEdge, EmptyRowsAndColumns) {
  // A matrix whose first and last rows/cols are entirely empty, multiplied
  // in a rectangular chain; exercises rowptr handling at the boundaries.
  CsrMatrix<int, double> a(5, 7);
  a.colids = {1, 3, 2};
  a.values = {1.0, 2.0, 3.0};
  a.rowptr = {0, 0, 2, 2, 3, 3};
  ASSERT_TRUE(a.check_structure());
  const auto b = msp::testing::random_csr<int, double>(7, 4, 0.4, 111);
  const auto m = msp::testing::random_csr<int, double>(5, 4, 0.6, 112);
  sweep_all_configs(a, b, m, "empty boundary rows");
}

}  // namespace
}  // namespace msp
