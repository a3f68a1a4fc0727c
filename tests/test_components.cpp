// Connected components against a union-find reference on structured and
// random graphs.
#include <gtest/gtest.h>

#include <numeric>

#include "apps/components.hpp"
#include "gen/rmat.hpp"
#include "gen/structured.hpp"
#include "matrix/ops.hpp"
#include "test_support.hpp"

namespace msp {
namespace {

using IT = int;
using VT = double;

/// Union-find reference labeling (label = min vertex id in component).
std::vector<IT> union_find_labels(const CsrMatrix<IT, VT>& adj) {
  std::vector<IT> parent(static_cast<std::size_t>(adj.nrows));
  std::iota(parent.begin(), parent.end(), IT{0});
  std::function<IT(IT)> find = [&](IT x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  for (IT i = 0; i < adj.nrows; ++i) {
    for (IT p = adj.rowptr[i]; p < adj.rowptr[i + 1]; ++p) {
      const IT a = find(i);
      const IT b = find(adj.colids[p]);
      if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] =
          std::min(a, b);
    }
  }
  std::vector<IT> label(static_cast<std::size_t>(adj.nrows));
  for (IT i = 0; i < adj.nrows; ++i) {
    label[static_cast<std::size_t>(i)] = find(i);
  }
  // Normalize to min-id per component (find roots are already min because
  // unions always point the larger root at the smaller).
  return label;
}

TEST(Components, SingleComponentGraphs) {
  for (const auto& g :
       {complete_graph<IT, VT>(8), cycle_graph<IT, VT>(12),
        path_graph<IT, VT>(15), star_graph<IT, VT>(9),
        grid_graph<IT, VT>(4, 7), petersen_graph<IT, VT>()}) {
    const auto r = connected_components(g);
    EXPECT_EQ(count_components(r), 1);
    for (IT l : r.label) EXPECT_EQ(l, 0);
  }
}

TEST(Components, DisjointUnion) {
  // Two paths and two isolated vertices: 4 components.
  CooMatrix<IT, VT> coo(10, 10);
  auto edge = [&coo](IT u, IT v) {
    coo.push(u, v, 1.0);
    coo.push(v, u, 1.0);
  };
  edge(0, 1);
  edge(1, 2);
  edge(4, 5);
  edge(5, 6);
  const auto g = coo_to_csr(std::move(coo));
  const auto r = connected_components(g);
  EXPECT_EQ(count_components(r), 6);  // {0,1,2} {3} {4,5,6} {7} {8} {9}
  EXPECT_EQ(r.label[2], 0);
  EXPECT_EQ(r.label[6], 4);
  EXPECT_EQ(r.label[3], 3);
}

TEST(Components, MatchesUnionFindOnRandomGraphs) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    const auto g = remove_diagonal(
        symmetrize(msp::testing::random_csr<IT, VT>(80, 80, 0.02, seed)));
    const auto r = connected_components(g);
    EXPECT_EQ(r.label, union_find_labels(g)) << "seed " << seed;
  }
}

TEST(Components, MatchesUnionFindOnRmat) {
  const auto g = rmat_graph<IT, VT>(9, 4.0);  // sparse: many components
  const auto r = connected_components(g);
  EXPECT_EQ(r.label, union_find_labels(g));
  EXPECT_GT(count_components(r), 1);
}

TEST(Components, EmptyAndTrivial) {
  const CsrMatrix<IT, VT> empty(0, 0);
  EXPECT_EQ(count_components(connected_components(empty)), 0);
  const CsrMatrix<IT, VT> isolated(5, 5);
  const auto r = connected_components(isolated);
  EXPECT_EQ(count_components(r), 5);
}

TEST(Components, RectangularThrows) {
  const auto a = msp::testing::random_csr<IT, VT>(3, 4, 0.5, 1);
  EXPECT_THROW(connected_components(a), invalid_argument_error);
}

TEST(Components, IterationsBoundedByDiameter) {
  // A path of n vertices has diameter n-1; label propagation needs about
  // that many rounds — the bound must hold (+1 for the no-change round).
  const auto g = path_graph<IT, VT>(40);
  const auto r = connected_components(g);
  EXPECT_LE(r.iterations, 41);
  EXPECT_EQ(count_components(r), 1);
}

TEST(Components, SpmvPropagationMatchesScalarPropagation) {
  const auto g = remove_diagonal(
      symmetrize(msp::testing::random_csr<IT, VT>(60, 60, 0.05, 101)));
  const auto scalar = connected_components(g);
  const auto via_spmv = connected_components_spmv(g);
  EXPECT_EQ(scalar.label, via_spmv.label);
  EXPECT_EQ(count_components(scalar), count_components(via_spmv));
}

TEST(MinSecondSemiring, Behaviour) {
  using SR = MinSecond<double>;
  EXPECT_DOUBLE_EQ(SR::add(3.0, 5.0), 3.0);
  EXPECT_DOUBLE_EQ(SR::multiply(99.0, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(SR::add(SR::add_identity(), 7.0), 7.0);
}

}  // namespace
}  // namespace msp
