// The triangle-counting formulation family (Davis HPEC'18, paper ref [15]):
// all four masked-SpGEMM formulations must agree with each other, with the
// default pipeline, and with closed forms — across schemes.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "apps/tricount.hpp"
#include "gen/rmat.hpp"
#include "gen/structured.hpp"
#include "matrix/dense.hpp"
#include "matrix/ops.hpp"
#include "test_support.hpp"

namespace msp {
namespace {

using IT = int;
using VT = double;

const std::vector<TricountVariant> kVariants = {
    TricountVariant::kBurkhardt, TricountVariant::kCohen,
    TricountVariant::kSandiaLL, TricountVariant::kSandiaUU};

TEST(TricountVariants, AgreeOnCompleteGraph) {
  Engine engine;
  const auto k7 = complete_graph<IT, VT>(7);
  for (TricountVariant v : kVariants) {
    EXPECT_EQ(triangle_count_variant(k7, v, Scheme::kMsa1P, engine).triangles,
              35)  // C(7,3)
        << tricount_variant_name(v);
  }
}

TEST(TricountVariants, AgreeOnRmat) {
  Engine engine;
  const auto g = rmat_graph<IT, VT>(9, 8.0);
  const auto expected = triangle_count(g, Scheme::kMsa1P, engine).triangles;
  for (TricountVariant v : kVariants) {
    for (Scheme s : {Scheme::kMsa1P, Scheme::kHash2P, Scheme::kHeap1P,
                     Scheme::kInner1P, Scheme::kSsSaxpy}) {
      EXPECT_EQ(triangle_count_variant(g, v, s, engine).triangles, expected)
          << tricount_variant_name(v) << " / " << scheme_name(s);
    }
  }
}

TEST(TricountVariants, AgreeOnRandomGraphs) {
  Engine engine;
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    const auto g = remove_diagonal(
        symmetrize(msp::testing::random_csr<IT, VT>(50, 50, 0.12, seed)));
    const auto expected = triangle_count(g, Scheme::kMsa1P, engine).triangles;
    for (TricountVariant v : kVariants) {
      EXPECT_EQ(
          triangle_count_variant(g, v, Scheme::kMsa1P, engine).triangles,
          expected)
          << tricount_variant_name(v) << " seed " << seed;
    }
  }
}

TEST(TricountVariants, ZeroOnTriangleFree) {
  Engine engine;
  const auto g = petersen_graph<IT, VT>();
  for (TricountVariant v : kVariants) {
    EXPECT_EQ(triangle_count_variant(g, v, Scheme::kMsa1P, engine).triangles,
              0)
        << tricount_variant_name(v);
  }
}

TEST(TricountVariants, FlopCountsDifferButArePositive) {
  // Burkhardt uses the full adjacency on both sides, so it must cost more
  // flops than the triangular formulations on any graph with triangles.
  const auto g = rmat_graph<IT, VT>(9, 8.0);
  Engine engine;
  const auto burkhardt = triangle_count_variant(
      g, TricountVariant::kBurkhardt, Scheme::kMsa1P, engine);
  const auto sandia = triangle_count_variant(g, TricountVariant::kSandiaLL,
                                             Scheme::kMsa1P, engine);
  EXPECT_GT(burkhardt.flops, sandia.flops);
  EXPECT_GT(sandia.flops, 0);
}

TEST(TricountVariants, NamesAreDistinct) {
  std::set<std::string> names;
  for (TricountVariant v : kVariants) {
    EXPECT_TRUE(names.insert(tricount_variant_name(v)).second);
  }
}

// ---------------------------------------------------------------------
// New substrate ops used by the variants and elsewhere.

TEST(IdentityMatrix, Basic) {
  const auto id = identity_matrix<IT, VT>(5);
  EXPECT_EQ(id.nnz(), 5u);
  for (IT i = 0; i < 5; ++i) {
    EXPECT_EQ(id.row_nnz(i), 1);
    EXPECT_EQ(id.row_cols(i)[0], i);
  }
  EXPECT_THROW((identity_matrix<IT, VT>(-1)), invalid_argument_error);
}

TEST(ExtractSubmatrix, InteriorBlock) {
  const auto a = msp::testing::random_csr<IT, VT>(10, 12, 0.4, 21);
  const auto sub = extract_submatrix(a, 2, 7, 3, 11);
  EXPECT_EQ(sub.nrows, 5);
  EXPECT_EQ(sub.ncols, 8);
  const auto da = to_dense(a);
  const auto ds = to_dense(sub);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_EQ(ds.has(i, j), da.has(i + 2, j + 3));
      if (ds.has(i, j)) {
        EXPECT_DOUBLE_EQ(ds.at(i, j), da.at(i + 2, j + 3));
      }
    }
  }
}

TEST(ExtractSubmatrix, FullRangeIsIdentity) {
  const auto a = msp::testing::random_csr<IT, VT>(6, 7, 0.4, 22);
  EXPECT_TRUE(msp::testing::csr_equal(
      a, extract_submatrix(a, 0, a.nrows, 0, a.ncols)));
}

TEST(ExtractSubmatrix, OutOfRangeThrows) {
  const auto a = msp::testing::random_csr<IT, VT>(4, 4, 0.5, 23);
  EXPECT_THROW(extract_submatrix(a, 0, 5, 0, 4), invalid_argument_error);
  EXPECT_THROW(extract_submatrix(a, 2, 1, 0, 4), invalid_argument_error);
  EXPECT_THROW(extract_submatrix(a, 0, 4, -1, 2), invalid_argument_error);
}

TEST(ExtractDiagonal, MatchesDense) {
  const auto a = msp::testing::random_csr<IT, VT>(9, 9, 0.5, 24);
  const auto diag = extract_diagonal(a);
  const auto da = to_dense(a);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_DOUBLE_EQ(diag[i], da.has(i, i) ? da.at(i, i) : 0.0);
  }
}

TEST(ExtractDiagonal, RectangularUsesMinDimension) {
  const auto a = msp::testing::random_csr<IT, VT>(4, 9, 0.5, 25);
  EXPECT_EQ(extract_diagonal(a).size(), 4u);
}

}  // namespace
}  // namespace msp
