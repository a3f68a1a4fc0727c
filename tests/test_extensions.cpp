// Tests for the extension modules: the adaptive hybrid kernel (paper §9
// future work), the sparse-vector container, and the multi-source BFS
// application.
#include <gtest/gtest.h>

#include <queue>

#include "apps/bfs.hpp"
#include "gen/rmat.hpp"
#include "gen/structured.hpp"
#include "matrix/dense.hpp"
#include "matrix/sparse_vector.hpp"
#include "test_support.hpp"

namespace msp {
namespace {

using IT = int;
using VT = double;
using SR = PlusTimes<VT>;
using msp::testing::csr_equal;
using msp::testing::random_csr;

// ---------------------------------------------------------------------
// Adaptive hybrid kernel

class AdaptiveOracle
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(AdaptiveOracle, MatchesDenseReference) {
  const auto [density, mask_density, seed] = GetParam();
  const auto a = random_csr<IT, VT>(48, 48, density, seed);
  const auto b = random_csr<IT, VT>(48, 48, density, seed + 1);
  const auto m = random_csr<IT, VT>(48, 48, mask_density, seed + 2);
  for (MaskKind kind : {MaskKind::kMask, MaskKind::kComplement}) {
    const auto expected = reference_masked_multiply<SR>(
        a, b, m, kind == MaskKind::kComplement);
    for (MaskedPhase phase :
         {MaskedPhase::kOnePhase, MaskedPhase::kTwoPhase}) {
      MaskedSpgemmOptions opt;
      opt.algorithm = MaskedAlgorithm::kAdaptive;
      opt.phase = phase;
      opt.mask_kind = kind;
      EXPECT_TRUE(csr_equal(expected, masked_multiply<SR>(a, b, m, opt)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DensityGrid, AdaptiveOracle,
    ::testing::Combine(::testing::Values(0.02, 0.15, 0.5),
                       ::testing::Values(0.02, 0.15, 0.5),
                       ::testing::Values(1, 2)));

TEST(Adaptive, MixedDensityRowsAgreeWithMsa) {
  // Rows alternate between nearly-empty (heap territory) and dense (MSA /
  // Hash territory), so the router must mix kernels within one multiply.
  const IT n = 256;
  CooMatrix<IT, VT> a(n, n);
  Xoshiro256 rng(9);
  for (IT i = 0; i < n; ++i) {
    const IT row_nnz = (i % 4 == 0) ? 32 : 1;
    for (IT k = 0; k < row_nnz; ++k) {
      a.push(i, static_cast<IT>(rng.next_below(static_cast<std::uint64_t>(n))),
             1.0 + static_cast<VT>(rng.next_below(4)));
    }
  }
  const auto am =
      coo_to_csr(std::move(a), [](const VT& x, const VT&) { return x; });
  const auto mask = remove_diagonal(
      symmetrize(random_csr<IT, VT>(n, n, 0.2, 10)));
  MaskedSpgemmOptions adaptive;
  adaptive.algorithm = MaskedAlgorithm::kAdaptive;
  MaskedSpgemmOptions msa;
  msa.algorithm = MaskedAlgorithm::kMsa;
  EXPECT_TRUE(csr_equal(masked_multiply<SR>(am, am, mask, msa),
                        masked_multiply<SR>(am, am, mask, adaptive)));
}

TEST(Adaptive, PolicyRoutesAllRowsToHeapOrHash) {
  // Degenerate policies must still be correct: force-all-heap via a huge
  // factor and force-all-hash via msa_max_ncols = 0.
  const auto a = random_csr<IT, VT>(32, 32, 0.2, 21);
  const auto m = random_csr<IT, VT>(32, 32, 0.3, 22);
  const auto expected = reference_masked_multiply<SR>(a, a, m, false);
  using Kernel = AdaptiveKernel<SR, IT, VT, VT>;
  for (Kernel::Policy policy :
       {Kernel::Policy{1 << 20, 1 << 20}, Kernel::Policy{0, 0}}) {
    Kernel kernel(a, a, m, false, policy);
    CsrMatrix<IT, VT> out(32, 32);
    std::vector<IT> cols(32);
    std::vector<VT> vals(32);
    for (IT i = 0; i < 32; ++i) {
      const IT cnt = kernel.numeric_row(i, cols.data(), vals.data());
      for (IT p = 0; p < cnt; ++p) {
        out.colids.push_back(cols[p]);
        out.values.push_back(vals[p]);
      }
      out.rowptr[i + 1] = static_cast<IT>(out.colids.size());
    }
    EXPECT_TRUE(csr_equal(expected, out));
  }
}

// ---------------------------------------------------------------------
// Sparse vectors

TEST(SparseVector, CanonicalizeSortsAndCombines) {
  SparseVector<IT, VT> v(10);
  v.push(5, 1.0);
  v.push(2, 2.0);
  v.push(5, 3.0);
  EXPECT_FALSE(v.is_canonical());
  v.canonicalize();
  EXPECT_TRUE(v.is_canonical());
  ASSERT_EQ(v.nnz(), 2u);
  EXPECT_EQ(v.indices[0], 2);
  EXPECT_DOUBLE_EQ(v.values[1], 4.0);
}

TEST(SparseVector, RoundTripThroughRowMatrix) {
  const auto m = random_csr<IT, VT>(3, 12, 0.4, 61);
  for (IT i = 0; i < 3; ++i) {
    const auto v = row_as_vector(m, i);
    const auto back = vector_as_row_matrix(v);
    EXPECT_EQ(back.ncols, m.ncols);
    EXPECT_EQ(back.row_nnz(0), m.row_nnz(i));
  }
}

// ---------------------------------------------------------------------
// Multi-source BFS

std::vector<IT> bfs_reference(const CsrMatrix<IT, VT>& adj, IT src) {
  std::vector<IT> dist(static_cast<std::size_t>(adj.nrows), IT{-1});
  std::queue<IT> q;
  dist[static_cast<std::size_t>(src)] = 0;
  q.push(src);
  while (!q.empty()) {
    const IT v = q.front();
    q.pop();
    for (IT p = adj.rowptr[v]; p < adj.rowptr[v + 1]; ++p) {
      const IT w = adj.colids[p];
      if (dist[static_cast<std::size_t>(w)] < 0) {
        dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(v)] + 1;
        q.push(w);
      }
    }
  }
  return dist;
}

TEST(Bfs, MatchesSerialReferenceOnRmat) {
  Engine engine;
  const auto g = rmat_graph<IT, VT>(7, 8.0);
  const std::vector<IT> sources = {0, 5, 100};
  for (Scheme s : {Scheme::kMsa1P, Scheme::kHash2P, Scheme::kSsSaxpy}) {
    const auto r = multi_source_bfs(g, sources, s, engine);
    for (std::size_t si = 0; si < sources.size(); ++si) {
      const auto expected = bfs_reference(g, sources[si]);
      EXPECT_EQ(r.levels[si], expected) << "source " << sources[si];
    }
  }
}

TEST(Bfs, DisconnectedVerticesStayUnreached) {
  Engine engine;
  CooMatrix<IT, VT> coo(5, 5);
  coo.push(0, 1, 1.0);
  coo.push(1, 0, 1.0);
  const auto g = coo_to_csr(std::move(coo));
  const auto r =
      multi_source_bfs(g, std::vector<IT>{0}, Scheme::kMsa1P, engine);
  EXPECT_EQ(r.levels[0], (std::vector<IT>{0, 1, -1, -1, -1}));
}

TEST(Bfs, PathGraphLevels) {
  Engine engine;
  const auto g = path_graph<IT, VT>(6);
  const auto r =
      multi_source_bfs(g, std::vector<IT>{0, 3}, Scheme::kHash1P, engine);
  EXPECT_EQ(r.levels[0], (std::vector<IT>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(r.levels[1], (std::vector<IT>{3, 2, 1, 0, 1, 2}));
  EXPECT_EQ(r.depth, 5);
}

TEST(Bfs, McaRejected) {
  Engine engine;
  const auto g = path_graph<IT, VT>(4);
  EXPECT_THROW(multi_source_bfs(g, std::vector<IT>{0}, Scheme::kMca1P, engine),
               invalid_argument_error);
}

TEST(Bfs, SourceOutOfRangeThrows) {
  Engine engine;
  const auto g = path_graph<IT, VT>(4);
  EXPECT_THROW(multi_source_bfs(g, std::vector<IT>{4}, Scheme::kMsa1P, engine),
               invalid_argument_error);
}

}  // namespace
}  // namespace msp
