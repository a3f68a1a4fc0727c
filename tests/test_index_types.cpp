// Template instantiation coverage: the whole pipeline with 64-bit indices
// and with float/integer value types — matrices beyond 2^31 nonzeros and
// exact integer semirings are supported configurations, so the templates
// must compile and agree with the default instantiation.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/tricount.hpp"
#include "core/engine.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/structured.hpp"
#include "matrix/dense.hpp"
#include "matrix/ops.hpp"
#include "test_support.hpp"

namespace msp {
namespace {

using msp::testing::run_fresh;

template <class IT, class VT>
CsrMatrix<IT, VT> small_random(IT n, double degree, std::uint64_t seed) {
  return erdos_renyi<IT, VT>(n, degree, seed);
}

template <class IT, class VT>
void run_pipeline() {
  using SR = PlusTimes<VT>;
  const IT n = 64;
  const auto a = small_random<IT, VT>(n, 6.0, 1);
  const auto b = small_random<IT, VT>(n, 6.0, 2);
  const auto m = small_random<IT, VT>(n, 10.0, 3);
  const auto expected = reference_masked_multiply<SR>(a, b, m, false);
  for (Scheme s : all_schemes()) {
    const auto c = run_fresh<SR>(s, a, b, m);
    EXPECT_EQ(c, expected) << scheme_name(s);
  }
  const auto expected_c = reference_masked_multiply<SR>(a, b, m, true);
  for (Scheme s : all_schemes()) {
    if (!scheme_supports_complement(s)) continue;
    EXPECT_EQ(run_fresh<SR>(s, a, b, m, MaskKind::kComplement), expected_c)
        << scheme_name(s);
  }
}

TEST(IndexTypes, Int64Indices) { run_pipeline<std::int64_t, double>(); }
TEST(IndexTypes, Int32Short) { run_pipeline<std::int32_t, float>(); }
TEST(IndexTypes, IntegerValues) { run_pipeline<int, std::int64_t>(); }

TEST(IndexTypes, TricountWithInt64) {
  const auto k8 = complete_graph<std::int64_t, double>(8);
  Engine engine;
  EXPECT_EQ(triangle_count(k8, Scheme::kMsa1P, engine).triangles,
            56);  // C(8,3)
  EXPECT_EQ(triangle_count(k8, Scheme::kHash2P, engine).triangles, 56);
}

TEST(IndexTypes, OpsWithInt64) {
  const auto a = small_random<std::int64_t, double>(32, 4.0, 7);
  const auto t = transpose(a);
  EXPECT_EQ(transpose(t), a);
  const auto s = symmetrize(a);
  EXPECT_EQ(s, transpose(s));
  EXPECT_GE(reduce_sum(s), 0.0);
}

TEST(IndexTypes, AdaptiveWithInt64) {
  using SR = PlusTimes<double>;
  const auto a = small_random<std::int64_t, double>(48, 5.0, 9);
  const auto m = small_random<std::int64_t, double>(48, 8.0, 10);
  MaskedSpgemmOptions opt;
  opt.algorithm = MaskedAlgorithm::kAdaptive;
  const auto expected = reference_masked_multiply<SR>(a, a, m, false);
  EXPECT_EQ(masked_multiply<SR>(a, a, m, opt), expected);
}

}  // namespace
}  // namespace msp
