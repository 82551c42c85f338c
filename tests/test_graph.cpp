#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "graph/builder.hpp"
#include "util/rng.hpp"

namespace bpm::graph {
namespace {

TEST(Builder, BuildsBothCsrDirections) {
  // 2 rows, 3 cols: edges (0,0) (0,2) (1,1).
  const std::vector<Edge> edges{{0, 0}, {0, 2}, {1, 1}};
  const BipartiteGraph g = build_from_edges(2, 3, edges);
  EXPECT_EQ(g.num_rows(), 2);
  EXPECT_EQ(g.num_cols(), 3);
  EXPECT_EQ(g.num_edges(), 3);

  ASSERT_EQ(g.row_neighbors(0).size(), 2u);
  EXPECT_EQ(g.row_neighbors(0)[0], 0);
  EXPECT_EQ(g.row_neighbors(0)[1], 2);
  ASSERT_EQ(g.col_neighbors(1).size(), 1u);
  EXPECT_EQ(g.col_neighbors(1)[0], 1);
  EXPECT_EQ(g.col_neighbors(2)[0], 0);
}

TEST(Builder, RemovesDuplicateEdges) {
  const std::vector<Edge> edges{{0, 0}, {0, 0}, {0, 0}, {1, 1}};
  const BipartiteGraph g = build_from_edges(2, 2, edges);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(Builder, SortsAdjacency) {
  const std::vector<Edge> edges{{0, 3}, {0, 1}, {0, 2}, {0, 0}};
  const BipartiteGraph g = build_from_edges(1, 4, edges);
  const auto nbrs = g.row_neighbors(0);
  for (std::size_t i = 1; i < nbrs.size(); ++i) EXPECT_LT(nbrs[i - 1], nbrs[i]);
}

TEST(Builder, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(build_from_edges(2, 2, std::vector<Edge>{{2, 0}}),
               std::invalid_argument);
  EXPECT_THROW(build_from_edges(2, 2, std::vector<Edge>{{0, -1}}),
               std::invalid_argument);
  // One bad endpoint anywhere in the list rejects the whole list.
  EXPECT_THROW(
      build_from_edges(2, 2, std::vector<Edge>{{0, 0}, {1, 1}, {0, 2}}),
      std::invalid_argument);
  // Any edge into an empty side is out of range.
  EXPECT_THROW(build_from_edges(4, 0, std::vector<Edge>{{0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(build_from_edges(-1, 2, std::vector<Edge>{}),
               std::invalid_argument);
}

TEST(Builder, EmptyGraphIsFine) {
  const BipartiteGraph g = build_from_edges(0, 0, std::vector<Edge>{});
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.psi_infinity(), 0);
  const BipartiteGraph rows_only = build_from_edges(4, 0, std::vector<Edge>{});
  EXPECT_EQ(rows_only.row_ptr(), (std::vector<offset_t>{0, 0, 0, 0, 0}));
  EXPECT_EQ(rows_only.col_ptr(), std::vector<offset_t>{0});
}

TEST(Builder, IsolatedVerticesKeepEmptyAdjacency) {
  const BipartiteGraph g = build_from_edges(3, 3, std::vector<Edge>{{1, 1}});
  EXPECT_TRUE(g.row_neighbors(0).empty());
  EXPECT_TRUE(g.row_neighbors(2).empty());
  EXPECT_EQ(g.row_neighbors(1).size(), 1u);
}

/// Naive reference for `build_from_edges`: comparison-sort the edge list,
/// drop duplicates, then read each CSR direction straight off a sorted
/// copy.
struct NaiveCsr {
  std::vector<offset_t> row_ptr, col_ptr;
  std::vector<index_t> row_adj, col_adj;
};

NaiveCsr naive_build(index_t rows, index_t cols, std::vector<Edge> edges) {
  const auto by_row = [](const Edge& a, const Edge& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  };
  std::sort(edges.begin(), edges.end(), by_row);
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  NaiveCsr out;
  out.row_ptr.assign(static_cast<std::size_t>(rows) + 1, 0);
  out.col_ptr.assign(static_cast<std::size_t>(cols) + 1, 0);
  for (const Edge& e : edges) {
    ++out.row_ptr[static_cast<std::size_t>(e.row) + 1];
    ++out.col_ptr[static_cast<std::size_t>(e.col) + 1];
    out.row_adj.push_back(e.col);
  }
  for (std::size_t i = 1; i < out.row_ptr.size(); ++i)
    out.row_ptr[i] += out.row_ptr[i - 1];
  for (std::size_t i = 1; i < out.col_ptr.size(); ++i)
    out.col_ptr[i] += out.col_ptr[i - 1];
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.col != b.col ? a.col < b.col : a.row < b.row;
  });
  for (const Edge& e : edges) out.col_adj.push_back(e.row);
  return out;
}

TEST(Builder, MatchesNaiveSortUniqueReference) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    // Small sides make duplicates common; a side may be empty (then no
    // edge can exist), and some trials have no edges at all.
    const auto rows = static_cast<index_t>(rng.below(trial % 7 == 0 ? 3 : 40));
    const auto cols = static_cast<index_t>(rng.below(trial % 5 == 0 ? 3 : 40));
    const std::size_t n = rows == 0 || cols == 0 ? 0 : rng.below(200);
    std::vector<Edge> edges;
    for (std::size_t e = 0; e < n; ++e)
      edges.push_back({static_cast<index_t>(rng.below(
                           static_cast<std::uint64_t>(rows))),
                       static_cast<index_t>(rng.below(
                           static_cast<std::uint64_t>(cols)))});
    const BipartiteGraph g = build_from_edges(rows, cols, edges);
    const NaiveCsr want = naive_build(rows, cols, edges);
    EXPECT_EQ(g.row_ptr(), want.row_ptr) << "trial " << trial;
    EXPECT_EQ(g.row_adj(), want.row_adj) << "trial " << trial;
    EXPECT_EQ(g.col_ptr(), want.col_ptr) << "trial " << trial;
    EXPECT_EQ(g.col_adj(), want.col_adj) << "trial " << trial;
  }
}

TEST(Graph, HasEdge) {
  const BipartiteGraph g =
      build_from_edges(2, 2, std::vector<Edge>{{0, 1}, {1, 0}});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_FALSE(g.has_edge(-1, 0));
  EXPECT_FALSE(g.has_edge(0, 5));
}

TEST(Graph, PsiInfinityIsMPlusN) {
  const BipartiteGraph g = build_from_edges(3, 5, std::vector<Edge>{{0, 0}});
  EXPECT_EQ(g.psi_infinity(), 8);
}

TEST(Graph, DegreeAccessors) {
  const BipartiteGraph g =
      build_from_edges(2, 2, std::vector<Edge>{{0, 0}, {0, 1}, {1, 1}});
  EXPECT_EQ(g.row_degree(0), 2);
  EXPECT_EQ(g.row_degree(1), 1);
  EXPECT_EQ(g.col_degree(0), 1);
  EXPECT_EQ(g.col_degree(1), 2);
}

TEST(Graph, ValidateRejectsInconsistentCsr) {
  // Mismatched edge counts between the two directions.
  EXPECT_THROW(BipartiteGraph(1, 1, {0, 1}, {0}, {0, 0}, {}),
               std::invalid_argument);
}

TEST(Graph, DescribeMentionsShape) {
  const BipartiteGraph g = build_from_edges(2, 3, std::vector<Edge>{{0, 0}});
  const std::string d = g.describe();
  EXPECT_NE(d.find("2 rows"), std::string::npos);
  EXPECT_NE(d.find("3 cols"), std::string::npos);
}

TEST(Permute, PreservesShapeAndDegreeMultiset) {
  const std::vector<Edge> edges{{0, 0}, {0, 1}, {1, 1}, {2, 2}, {2, 0}};
  const BipartiteGraph g = build_from_edges(3, 3, edges);
  const BipartiteGraph p = permute_vertices(g, 99);
  EXPECT_EQ(p.num_rows(), g.num_rows());
  EXPECT_EQ(p.num_cols(), g.num_cols());
  EXPECT_EQ(p.num_edges(), g.num_edges());

  auto degree_multiset = [](const BipartiteGraph& x) {
    std::vector<index_t> d;
    for (index_t u = 0; u < x.num_rows(); ++u) d.push_back(x.row_degree(u));
    std::sort(d.begin(), d.end());
    return d;
  };
  EXPECT_EQ(degree_multiset(g), degree_multiset(p));
}

TEST(Permute, DeterministicPerSeed) {
  const std::vector<Edge> edges{{0, 0}, {1, 1}, {2, 2}, {0, 2}};
  const BipartiteGraph g = build_from_edges(3, 3, edges);
  const BipartiteGraph a = permute_vertices(g, 7);
  const BipartiteGraph b = permute_vertices(g, 7);
  EXPECT_EQ(a.row_adj(), b.row_adj());
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
}

}  // namespace
}  // namespace bpm::graph
