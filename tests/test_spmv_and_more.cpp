// Tests for masked SpMV (push and pull), direction-optimized BFS,
// clustering coefficients, and the phase-statistics instrumentation.
#include <gtest/gtest.h>

#include <queue>

#include "apps/bfs_direction_optimized.hpp"
#include "apps/clustering.hpp"
#include "apps/tricount.hpp"
#include "core/masked_spmv.hpp"
#include "gen/rmat.hpp"
#include "gen/structured.hpp"
#include "matrix/dense.hpp"
#include "test_support.hpp"

namespace msp {
namespace {

using IT = int;
using VT = double;
using SR = PlusTimes<VT>;
using msp::testing::random_csr;

SparseVector<IT, VT> reference_masked_spmv(const SparseVector<IT, VT>& x,
                                           const CsrMatrix<IT, VT>& a,
                                           const SparseVector<IT, VT>& m,
                                           bool complemented) {
  // Dense reference: y_j = Σ_k x_k A(k,j) where the mask admits j.
  std::vector<VT> acc(static_cast<std::size_t>(a.ncols), VT{0});
  std::vector<char> any(static_cast<std::size_t>(a.ncols), 0);
  for (std::size_t p = 0; p < x.nnz(); ++p) {
    const IT k = x.indices[p];
    for (IT q = a.rowptr[k]; q < a.rowptr[k + 1]; ++q) {
      acc[static_cast<std::size_t>(a.colids[q])] +=
          x.values[p] * a.values[q];
      any[static_cast<std::size_t>(a.colids[q])] = 1;
    }
  }
  std::vector<char> allowed(static_cast<std::size_t>(a.ncols),
                            complemented ? 1 : 0);
  for (IT j : m.indices) {
    allowed[static_cast<std::size_t>(j)] = complemented ? 0 : 1;
  }
  SparseVector<IT, VT> y(a.ncols);
  for (IT j = 0; j < a.ncols; ++j) {
    if (allowed[static_cast<std::size_t>(j)] &&
        any[static_cast<std::size_t>(j)]) {
      y.push(j, acc[static_cast<std::size_t>(j)]);
    }
  }
  return y;
}

class MaskedSpmv : public ::testing::TestWithParam<
                       std::tuple<double, double, bool, int>> {};

TEST_P(MaskedSpmv, PushAndPullMatchReference) {
  const auto [density, mask_density, complemented, seed] = GetParam();
  const IT n = 48;
  const auto a = random_csr<IT, VT>(n, n, density, seed);
  const auto a_csc = csr_to_csc(a);
  const auto x_mat = random_csr<IT, VT>(1, n, 0.3, seed + 7);
  const auto m_mat = random_csr<IT, VT>(1, n, mask_density, seed + 8);
  const auto x = row_as_vector(x_mat, 0);
  const auto m = row_as_vector(m_mat, 0);
  const auto expected = reference_masked_spmv(x, a, m, complemented);
  const auto push = masked_spmv_push<SR>(x, a, m, complemented);
  const auto pull = masked_spmv_pull<SR>(x, a_csc, m, complemented);
  EXPECT_EQ(push, expected);
  EXPECT_EQ(pull, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MaskedSpmv,
    ::testing::Combine(::testing::Values(0.05, 0.2, 0.6),
                       ::testing::Values(0.05, 0.3, 0.8),
                       ::testing::Bool(), ::testing::Values(1, 2)));

TEST(MaskedSpmvEdge, DimensionMismatchThrows) {
  const auto a = random_csr<IT, VT>(5, 6, 0.3, 3);
  const auto a_csc = csr_to_csc(a);
  SparseVector<IT, VT> x(5), m(6), bad_x(4), bad_m(5);
  EXPECT_NO_THROW((masked_spmv_push<SR>(x, a, m)));
  EXPECT_THROW((masked_spmv_push<SR>(bad_x, a, m)), invalid_argument_error);
  EXPECT_THROW((masked_spmv_push<SR>(x, a, bad_m)), invalid_argument_error);
  EXPECT_THROW((masked_spmv_pull<SR>(bad_x, a_csc, m)),
               invalid_argument_error);
  EXPECT_THROW((masked_spmv_pull<SR>(x, a_csc, bad_m)),
               invalid_argument_error);
}

TEST(MaskedSpmvEdge, EmptyVectorGivesEmptyResult) {
  const auto a = random_csr<IT, VT>(6, 6, 0.4, 4);
  SparseVector<IT, VT> x(6), m(6);
  m.push(2, 1.0);
  EXPECT_EQ(masked_spmv_push<SR>(x, a, m).nnz(), 0u);
  EXPECT_EQ(masked_spmv_pull<SR>(x, csr_to_csc(a), m).nnz(), 0u);
}

// ---------------------------------------------------------------------
// Direction-optimized BFS

std::vector<IT> bfs_levels_reference(const CsrMatrix<IT, VT>& adj, IT src) {
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
        dist[static_cast<std::size_t>(w)] =
            dist[static_cast<std::size_t>(v)] + 1;
        q.push(w);
      }
    }
  }
  return dist;
}

TEST(DirectionOptimizedBfs, MatchesReferenceOnRmat) {
  const auto g = rmat_graph<IT, VT>(9, 16.0);
  for (IT src : {0, 17, 300}) {
    const auto r = bfs_direction_optimized(g, src);
    EXPECT_EQ(r.level, bfs_levels_reference(g, src)) << "source " << src;
  }
}

TEST(DirectionOptimizedBfs, UsesBothDirectionsOnDenseGraph) {
  // R-MAT with edge factor 16 saturates quickly: the middle levels should
  // flip to pull, the first level(s) stay push.
  const auto g = rmat_graph<IT, VT>(10, 16.0);
  const auto r = bfs_direction_optimized(g, IT{0});
  EXPECT_GT(r.push_steps, 0);
  EXPECT_GT(r.pull_steps, 0);
}

TEST(DirectionOptimizedBfs, PathGraphStaysPush) {
  // A path's frontier is always one vertex: pull never pays off.
  const auto g = path_graph<IT, VT>(64);
  const auto r = bfs_direction_optimized(g, IT{0});
  EXPECT_EQ(r.pull_steps, 0);
  for (IT i = 0; i < 64; ++i) EXPECT_EQ(r.level[i], i);
}

TEST(DirectionOptimizedBfs, ForcedPullMatchesReference) {
  // A huge alpha switches to pull as soon as the frontier grows; beta = 0
  // disables switching back. Exercises the pull path end to end.
  const auto g = rmat_graph<IT, VT>(8, 8.0);
  const auto r = bfs_direction_optimized(g, IT{0}, 1e18, 0.0);
  EXPECT_EQ(r.level, bfs_levels_reference(g, IT{0}));
  EXPECT_GT(r.pull_steps, 0);
  EXPECT_LE(r.push_steps, 1);  // only the first (non-growing) level pushes
}

TEST(DirectionOptimizedBfs, InvalidInputThrows) {
  const auto g = path_graph<IT, VT>(4);
  EXPECT_THROW(bfs_direction_optimized(g, IT{9}), invalid_argument_error);
  const auto rect = random_csr<IT, VT>(3, 4, 0.5, 5);
  EXPECT_THROW(bfs_direction_optimized(rect, IT{0}), invalid_argument_error);
}

// ---------------------------------------------------------------------
// Clustering coefficients

TEST(Clustering, CompleteGraphIsFullyClustered) {
  Engine engine;
  const auto k6 = complete_graph<IT, VT>(6);
  const auto r = clustering_coefficients(k6, Scheme::kMsa1P, engine);
  for (IT i = 0; i < 6; ++i) {
    EXPECT_EQ(r.triangles_per_vertex[i], 10);  // C(5,2)
    EXPECT_DOUBLE_EQ(r.local_coefficient[i], 1.0);
  }
  EXPECT_DOUBLE_EQ(r.average_coefficient, 1.0);
}

TEST(Clustering, TriangleFreeGraphIsZero) {
  Engine engine;
  const auto g = grid_graph<IT, VT>(5, 5);
  const auto r = clustering_coefficients(g, Scheme::kMsa1P, engine);
  for (auto t : r.triangles_per_vertex) EXPECT_EQ(t, 0);
  EXPECT_DOUBLE_EQ(r.average_coefficient, 0.0);
}

TEST(Clustering, BarbellBridgeVertices) {
  Engine engine;
  // In barbell(4): block vertices not on the bridge have coefficient 1;
  // bridge endpoints see their K4 triangles (3) out of C(4,2)=6 wedges.
  const auto b = barbell_graph<IT, VT>(4);
  const auto r = clustering_coefficients(b, Scheme::kMsa1P, engine);
  EXPECT_EQ(r.triangles_per_vertex[0], 3);  // inside K4 only
  EXPECT_DOUBLE_EQ(r.local_coefficient[0], 1.0);
  EXPECT_EQ(r.triangles_per_vertex[3], 3);  // bridge endpoint, degree 4
  EXPECT_DOUBLE_EQ(r.local_coefficient[3], 0.5);
}

TEST(Clustering, TotalsMatchTriangleCount) {
  Engine engine;
  const auto g = rmat_graph<IT, VT>(8, 8.0);
  const auto r = clustering_coefficients(g, Scheme::kHash1P, engine);
  std::int64_t total = 0;
  for (auto t : r.triangles_per_vertex) total += t;
  // Σ_v tri(v) = 3 · (number of triangles).
  const auto tc = triangle_count(g, Scheme::kMsa1P, engine);
  EXPECT_EQ(total, 3 * tc.triangles);
}

// ---------------------------------------------------------------------
// Phase statistics instrumentation

TEST(Stats, OnePhaseFillsBoundAndTimings) {
  const auto a = random_csr<IT, VT>(64, 64, 0.2, 11);
  const auto m = random_csr<IT, VT>(64, 64, 0.3, 12);
  MaskedSpgemmStats stats;
  MaskedSpgemmOptions opt;
  opt.stats = &stats;
  const auto c = masked_multiply<SR>(a, a, m, opt);
  EXPECT_EQ(stats.output_nnz, c.nnz());
  EXPECT_EQ(stats.bound_nnz, m.nnz());  // 1P bound = nnz(M)
  EXPECT_GE(stats.numeric_seconds, 0.0);
  EXPECT_GE(stats.assemble_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.symbolic_seconds, 0.0);  // no symbolic phase in 1P
  EXPECT_LE(stats.bound_tightness(), 1.0);
  EXPECT_GE(stats.bound_tightness(), 0.0);
}

TEST(Stats, TwoPhaseFillsSymbolic) {
  const auto a = random_csr<IT, VT>(64, 64, 0.2, 13);
  const auto m = random_csr<IT, VT>(64, 64, 0.3, 14);
  MaskedSpgemmStats stats;
  MaskedSpgemmOptions opt;
  opt.phase = MaskedPhase::kTwoPhase;
  opt.algorithm = MaskedAlgorithm::kHash;
  opt.stats = &stats;
  const auto c = masked_multiply<SR>(a, a, m, opt);
  EXPECT_EQ(stats.output_nnz, c.nnz());
  EXPECT_EQ(stats.bound_nnz, 0u);  // exact counts, no bound
  EXPECT_GE(stats.symbolic_seconds, 0.0);
  EXPECT_GE(stats.numeric_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.bound_tightness(), 1.0);
}

TEST(Stats, BoundTightnessReflectsSparseProduct) {
  // Empty A: output is empty but the mask bound is large -> tightness 0.
  const CsrMatrix<IT, VT> a(32, 32);
  const auto m = random_csr<IT, VT>(32, 32, 0.5, 15);
  MaskedSpgemmStats stats;
  MaskedSpgemmOptions opt;
  opt.stats = &stats;
  (void)masked_multiply<SR>(a, a, m, opt);
  EXPECT_EQ(stats.output_nnz, 0u);
  EXPECT_EQ(stats.bound_nnz, m.nnz());
  EXPECT_DOUBLE_EQ(stats.bound_tightness(), 0.0);
}

}  // namespace
}  // namespace msp
