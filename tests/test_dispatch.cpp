// Tests for the scheme registry (core/scheme.hpp): name round trips,
// option decomposition, complement capability flags, and the SS-style
// baselines (core/baseline.hpp).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/baseline.hpp"
#include "core/scheme.hpp"
#include "matrix/dense.hpp"
#include "test_support.hpp"

namespace msp {
namespace {

using IT = int;
using VT = double;
using SR = PlusTimes<VT>;
using msp::testing::csr_equal;
using msp::testing::random_csr;

TEST(Dispatch, SchemeNamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (Scheme s : all_schemes()) {
    const std::string name{scheme_name(s)};
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(names.size(), 14u);  // the paper's 14 evaluated schemes
}

TEST(Dispatch, OurSchemesAreTwelve) {
  EXPECT_EQ(our_schemes().size(), 12u);
  for (Scheme s : our_schemes()) {
    EXPECT_NE(s, Scheme::kSsDot);
    EXPECT_NE(s, Scheme::kSsSaxpy);
  }
}

TEST(Dispatch, SchemeToOptionsDecomposesPhases) {
  MaskedSpgemmOptions opt;
  EXPECT_TRUE(scheme_to_options(Scheme::kMsa1P, opt));
  EXPECT_EQ(opt.algorithm, MaskedAlgorithm::kMsa);
  EXPECT_EQ(opt.phase, MaskedPhase::kOnePhase);
  EXPECT_TRUE(scheme_to_options(Scheme::kHeapDot2P, opt));
  EXPECT_EQ(opt.algorithm, MaskedAlgorithm::kHeapDot);
  EXPECT_EQ(opt.phase, MaskedPhase::kTwoPhase);
  EXPECT_FALSE(scheme_to_options(Scheme::kSsDot, opt));
  EXPECT_FALSE(scheme_to_options(Scheme::kSsSaxpy, opt));
}

TEST(Dispatch, ComplementSupportFlags) {
  EXPECT_FALSE(scheme_supports_complement(Scheme::kMca1P));
  EXPECT_FALSE(scheme_supports_complement(Scheme::kMca2P));
  for (Scheme s : all_schemes()) {
    if (s == Scheme::kMca1P || s == Scheme::kMca2P) continue;
    EXPECT_TRUE(scheme_supports_complement(s)) << scheme_name(s);
  }
}

TEST(Dispatch, AlgorithmNamesCoverEnum) {
  for (MaskedAlgorithm algo :
       {MaskedAlgorithm::kMsa, MaskedAlgorithm::kHash, MaskedAlgorithm::kMca,
        MaskedAlgorithm::kHeap, MaskedAlgorithm::kHeapDot,
        MaskedAlgorithm::kInner, MaskedAlgorithm::kAdaptive}) {
    EXPECT_STRNE(algorithm_name(algo), "?");
  }
}

TEST(Dispatch, BaselinesMatchOracleBothMaskKinds) {
  const auto a = random_csr<IT, VT>(20, 20, 0.25, 6);
  const auto b = random_csr<IT, VT>(20, 20, 0.25, 7);
  const auto m = random_csr<IT, VT>(20, 20, 0.35, 8);
  for (bool complemented : {false, true}) {
    const auto kind = complemented ? MaskKind::kComplement : MaskKind::kMask;
    const auto expected =
        reference_masked_multiply<SR>(a, b, m, complemented);
    EXPECT_TRUE(csr_equal(expected, baseline_dot<SR>(a, b, m, kind)));
    EXPECT_TRUE(csr_equal(expected, baseline_saxpy<SR>(a, b, m, kind)));
  }
}

}  // namespace
}  // namespace msp
