// Application-level tests: triangle counting, k-truss, and betweenness
// centrality against closed-form answers on structured graphs and a
// brute-force Brandes reference on random graphs.
#include <gtest/gtest.h>

#include <cmath>
#include <queue>
#include <vector>

#include "apps/bc.hpp"
#include "apps/ktruss.hpp"
#include "apps/tricount.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "gen/structured.hpp"
#include "matrix/ops.hpp"
#include "test_support.hpp"

namespace msp {
namespace {

using IT = int;
using VT = double;

/// Schemes exercised by the app tests (all 14, complement-capable subset
/// where required).
std::vector<Scheme> tc_schemes() { return all_schemes(); }

std::vector<Scheme> bc_schemes() {
  std::vector<Scheme> out;
  for (Scheme s : all_schemes()) {
    if (scheme_supports_complement(s)) out.push_back(s);
  }
  return out;
}

/// O(n·m) brute-force triangle counter (sum over edges of common
/// neighbours, divided by 6 for orientation and rotation).
std::int64_t brute_force_triangles(const CsrMatrix<IT, VT>& adj) {
  std::int64_t total = 0;
  for (IT i = 0; i < adj.nrows; ++i) {
    for (IT p = adj.rowptr[i]; p < adj.rowptr[i + 1]; ++p) {
      const IT j = adj.colids[p];
      // count common neighbours of i and j
      IT pa = adj.rowptr[i], pb = adj.rowptr[j];
      const IT ea = adj.rowptr[i + 1], eb = adj.rowptr[j + 1];
      while (pa < ea && pb < eb) {
        if (adj.colids[pa] < adj.colids[pb]) {
          ++pa;
        } else if (adj.colids[pa] > adj.colids[pb]) {
          ++pb;
        } else {
          ++total;
          ++pa;
          ++pb;
        }
      }
    }
  }
  return total / 6;
}

TEST(Tricount, CompleteGraphs) {
  Engine engine;
  for (IT n : {3, 4, 5, 8, 12}) {
    const auto kn = complete_graph<IT, VT>(n);
    const std::int64_t expected =
        static_cast<std::int64_t>(n) * (n - 1) * (n - 2) / 6;  // C(n,3)
    for (Scheme s : tc_schemes()) {
      EXPECT_EQ(triangle_count(kn, s, engine).triangles, expected)
          << "K" << n << " with " << scheme_name(s);
    }
  }
}

TEST(Tricount, TriangleFreeGraphs) {
  Engine engine;
  const std::vector<CsrMatrix<IT, VT>> graphs = {
      cycle_graph<IT, VT>(10), path_graph<IT, VT>(12), star_graph<IT, VT>(9),
      grid_graph<IT, VT>(5, 6), petersen_graph<IT, VT>()};
  for (const auto& g : graphs) {
    for (Scheme s : {Scheme::kMsa1P, Scheme::kHash2P, Scheme::kInner1P,
                     Scheme::kSsSaxpy}) {
      EXPECT_EQ(triangle_count(g, s, engine).triangles, 0) << scheme_name(s);
    }
  }
}

TEST(Tricount, BarbellGraph) {
  Engine engine;
  // Two K5 blocks: 2 * C(5,3) = 20 triangles; the bridge adds none.
  const auto b = barbell_graph<IT, VT>(5);
  EXPECT_EQ(triangle_count(b, Scheme::kMsa1P, engine).triangles, 20);
}

TEST(Tricount, MatchesBruteForceOnRandomGraphs) {
  Engine engine;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto g = remove_diagonal(
        symmetrize(msp::testing::random_csr<IT, VT>(60, 60, 0.1, seed)));
    const std::int64_t expected = brute_force_triangles(g);
    for (Scheme s : tc_schemes()) {
      EXPECT_EQ(triangle_count(g, s, engine).triangles, expected)
          << scheme_name(s) << " seed " << seed;
    }
  }
}

TEST(Tricount, MatchesBruteForceOnRmat) {
  Engine engine;
  const auto g = rmat_graph<IT, VT>(8, 8.0);
  const std::int64_t expected = brute_force_triangles(g);
  for (Scheme s : {Scheme::kMsa1P, Scheme::kHash1P, Scheme::kMca1P,
                   Scheme::kHeap1P, Scheme::kInner2P}) {
    EXPECT_EQ(triangle_count(g, s, engine).triangles, expected)
        << scheme_name(s);
  }
}

TEST(Tricount, ReportsTimingAndFlops) {
  Engine engine;
  const auto g = rmat_graph<IT, VT>(7, 8.0);
  const auto r = triangle_count(g, Scheme::kMsa1P, engine);
  EXPECT_GE(r.spgemm_seconds, 0.0);
  EXPECT_GT(r.flops, 0);
}

// ---------------------------------------------------------------------
// k-truss

TEST(Ktruss, CompleteGraphIsItsOwnTruss) {
  Engine engine;
  const auto k6 = complete_graph<IT, VT>(6);
  // K6: every edge supported by 4 triangles, so it is a k-truss for k <= 6.
  for (int k : {3, 4, 5, 6}) {
    const auto r = ktruss(k6, k, Scheme::kMsa1P, engine);
    EXPECT_EQ(r.truss.nnz(), k6.nnz()) << "k=" << k;
  }
  // k = 7 needs support 5 > 4: everything is pruned.
  EXPECT_EQ(ktruss(k6, 7, Scheme::kMsa1P, engine).truss.nnz(), 0u);
}

TEST(Ktruss, TriangleFreeGraphVanishesAtK3) {
  Engine engine;
  const auto g = grid_graph<IT, VT>(4, 5);
  const auto r = ktruss(g, 3, Scheme::kMsa1P, engine);
  EXPECT_EQ(r.truss.nnz(), 0u);
}

TEST(Ktruss, BarbellBridgeIsPruned) {
  Engine engine;
  // Each K5 survives as a 5-truss; the bridge edge is in no triangle and
  // must be pruned immediately.
  const auto b = barbell_graph<IT, VT>(5);
  const auto r = ktruss(b, 5, Scheme::kMsa1P, engine);
  EXPECT_EQ(r.truss.nnz(), 2u * 20u);  // two K5 blocks, 20 nnz each
  for (IT i = 0; i < r.truss.nrows; ++i) {
    for (IT p = r.truss.rowptr[i]; p < r.truss.rowptr[i + 1]; ++p) {
      // No edge crosses the two blocks {0..4} and {5..9}.
      EXPECT_EQ(i < 5, r.truss.colids[p] < 5);
    }
  }
}

TEST(Ktruss, CascadingPrune) {
  Engine engine;
  // A triangle strip: pruning weak edges cascades. Build K4 plus a pendant
  // triangle sharing one vertex; for k=4 only the K4 survives.
  CooMatrix<IT, VT> coo(6, 6);
  auto edge = [&coo](IT u, IT v) {
    coo.push(u, v, 1.0);
    coo.push(v, u, 1.0);
  };
  for (IT i = 0; i < 4; ++i) {
    for (IT j = static_cast<IT>(i + 1); j < 4; ++j) edge(i, j);
  }
  edge(3, 4);
  edge(3, 5);
  edge(4, 5);
  const auto g = coo_to_csr(std::move(coo));
  const auto r = ktruss(g, 4, Scheme::kMsa1P, engine);
  EXPECT_EQ(r.truss.nnz(), 12u);  // the K4 only (6 undirected edges)
}

TEST(Ktruss, AllSchemesAgree) {
  Engine engine;
  const auto g = rmat_graph<IT, VT>(7, 10.0);
  const auto reference = ktruss(g, 5, Scheme::kMsa1P, engine);
  for (Scheme s : tc_schemes()) {
    const auto r = ktruss(g, 5, s, engine);
    EXPECT_EQ(r.truss, reference.truss) << scheme_name(s);
    EXPECT_EQ(r.iterations, reference.iterations) << scheme_name(s);
  }
}

TEST(Ktruss, InvalidKThrows) {
  Engine engine;
  const auto g = complete_graph<IT, VT>(4);
  EXPECT_THROW(ktruss(g, 2, Scheme::kMsa1P, engine), invalid_argument_error);
}

TEST(Ktruss, TrussIsStableUnderRecomputation) {
  Engine engine;
  // Applying k-truss to its own output must be a fixpoint in 1 iteration.
  const auto g = rmat_graph<IT, VT>(7, 8.0);
  const auto r1 = ktruss(g, 5, Scheme::kMsa1P, engine);
  if (r1.truss.nnz() == 0) GTEST_SKIP() << "truss empty at this scale";
  const auto r2 = ktruss(r1.truss, 5, Scheme::kMsa1P, engine);
  EXPECT_EQ(r2.truss, r1.truss);
  EXPECT_EQ(r2.iterations, 1);
}

// ---------------------------------------------------------------------
// Betweenness centrality

/// Classic serial Brandes (exact), all sources in `sources`.
std::vector<double> brandes_reference(const CsrMatrix<IT, VT>& adj,
                                      const std::vector<IT>& sources) {
  const IT n = adj.nrows;
  std::vector<double> bc(n, 0.0);
  for (IT s : sources) {
    std::vector<std::vector<IT>> pred(n);
    std::vector<double> sigma(n, 0.0);
    std::vector<int> dist(n, -1);
    std::vector<IT> order;
    sigma[s] = 1.0;
    dist[s] = 0;
    std::queue<IT> q;
    q.push(s);
    while (!q.empty()) {
      const IT v = q.front();
      q.pop();
      order.push_back(v);
      for (IT p = adj.rowptr[v]; p < adj.rowptr[v + 1]; ++p) {
        const IT w = adj.colids[p];
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          q.push(w);
        }
        if (dist[w] == dist[v] + 1) {
          sigma[w] += sigma[v];
          pred[w].push_back(v);
        }
      }
    }
    std::vector<double> delta(n, 0.0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const IT w = *it;
      for (IT v : pred[w]) {
        delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
      }
      if (w != s) bc[w] += delta[w];
    }
  }
  return bc;
}

void expect_bc_matches(const CsrMatrix<IT, VT>& adj,
                       const std::vector<IT>& sources, Scheme scheme) {
  const auto expected = brandes_reference(adj, sources);
  Engine engine;
  const auto result = betweenness_centrality(adj, sources, scheme, engine);
  ASSERT_EQ(result.centrality.size(), expected.size());
  for (std::size_t v = 0; v < expected.size(); ++v) {
    EXPECT_NEAR(result.centrality[v], expected[v], 1e-9)
        << "vertex " << v << " scheme " << scheme_name(scheme);
  }
}

TEST(Bc, PathGraphClosedForm) {
  Engine engine;
  // On P_n, interior vertex i lies on all s<i<t pairs: bc(i) = 2*i*(n-1-i).
  const IT n = 7;
  const auto g = path_graph<IT, VT>(n);
  std::vector<IT> sources(n);
  std::iota(sources.begin(), sources.end(), 0);
  const auto r = betweenness_centrality(g, sources, Scheme::kMsa1P, engine);
  for (IT i = 0; i < n; ++i) {
    const double expected = 2.0 * i * (n - 1 - i);
    EXPECT_NEAR(r.centrality[i], expected, 1e-9) << "vertex " << i;
  }
}

TEST(Bc, StarGraphHubDominates) {
  Engine engine;
  // Hub of S_n lies on every leaf-to-leaf shortest path:
  // bc(hub) = (n-1)(n-2) counting both directions; leaves are 0.
  const IT n = 9;
  const auto g = star_graph<IT, VT>(n);
  std::vector<IT> sources(n);
  std::iota(sources.begin(), sources.end(), 0);
  const auto r = betweenness_centrality(g, sources, Scheme::kMsa1P, engine);
  EXPECT_NEAR(r.centrality[0], static_cast<double>((n - 1) * (n - 2)), 1e-9);
  for (IT i = 1; i < n; ++i) EXPECT_NEAR(r.centrality[i], 0.0, 1e-9);
}

TEST(Bc, MatchesBrandesOnRandomGraph) {
  const auto g = remove_diagonal(
      symmetrize(msp::testing::random_csr<IT, VT>(40, 40, 0.08, 77)));
  std::vector<IT> sources(g.nrows);
  std::iota(sources.begin(), sources.end(), 0);
  for (Scheme s : bc_schemes()) {
    expect_bc_matches(g, sources, s);
  }
}

TEST(Bc, MatchesBrandesOnRmatSubsetOfSources) {
  const auto g = rmat_graph<IT, VT>(7, 6.0);
  const std::vector<IT> sources = {0, 3, 17, 64, 100};
  for (Scheme s : {Scheme::kMsa1P, Scheme::kHash1P, Scheme::kHeap2P,
                   Scheme::kSsSaxpy}) {
    expect_bc_matches(g, sources, s);
  }
}

TEST(Bc, DisconnectedGraphHandled) {
  // Two disjoint paths: centrality accumulates within components only.
  CooMatrix<IT, VT> coo(6, 6);
  auto edge = [&coo](IT u, IT v) {
    coo.push(u, v, 1.0);
    coo.push(v, u, 1.0);
  };
  edge(0, 1);
  edge(1, 2);
  edge(3, 4);
  edge(4, 5);
  const auto g = coo_to_csr(std::move(coo));
  std::vector<IT> sources(6);
  std::iota(sources.begin(), sources.end(), 0);
  expect_bc_matches(g, sources, Scheme::kMsa1P);
}

TEST(Bc, McaRejected) {
  Engine engine;
  const auto g = path_graph<IT, VT>(4);
  EXPECT_THROW(betweenness_centrality(g, {0}, Scheme::kMca1P, engine),
               invalid_argument_error);
}

TEST(Bc, SourceOutOfRangeThrows) {
  Engine engine;
  const auto g = path_graph<IT, VT>(4);
  EXPECT_THROW(betweenness_centrality(g, {9}, Scheme::kMsa1P, engine),
               invalid_argument_error);
  EXPECT_THROW(betweenness_centrality(g, {-1}, Scheme::kMsa1P, engine),
               invalid_argument_error);
}

TEST(Bc, EmptyBatch) {
  Engine engine;
  const auto g = path_graph<IT, VT>(4);
  const auto r =
      betweenness_centrality(g, std::vector<IT>{}, Scheme::kMsa1P, engine);
  for (double v : r.centrality) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Bc, BatchHelperUsesFirstVertices) {
  Engine engine;
  const auto g = rmat_graph<IT, VT>(6, 6.0);
  const auto r1 =
      betweenness_centrality_batch(g, IT{8}, Scheme::kMsa1P, engine);
  std::vector<IT> sources(8);
  std::iota(sources.begin(), sources.end(), 0);
  const auto r2 = betweenness_centrality(g, sources, Scheme::kMsa1P, engine);
  for (std::size_t v = 0; v < r1.centrality.size(); ++v) {
    EXPECT_DOUBLE_EQ(r1.centrality[v], r2.centrality[v]);
  }
}

TEST(Bc, ReportsStageTimings) {
  Engine engine;
  const auto g = rmat_graph<IT, VT>(6, 6.0);
  const auto r =
      betweenness_centrality_batch(g, IT{16}, Scheme::kHash1P, engine);
  EXPECT_GE(r.forward_seconds, 0.0);
  EXPECT_GE(r.backward_seconds, 0.0);
  EXPECT_NEAR(r.spgemm_seconds, r.forward_seconds + r.backward_seconds,
              1e-12);
  EXPECT_GT(r.depth, 0);
}

}  // namespace
}  // namespace msp
