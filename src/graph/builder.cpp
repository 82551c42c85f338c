#include "graph/builder.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace bpm::graph {

BipartiteGraph build_from_edges(index_t num_rows, index_t num_cols,
                                std::span<const Edge> edges) {
  if (num_rows < 0 || num_cols < 0)
    throw std::invalid_argument("build_from_edges: negative dimension");
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(num_rows) + 1, 0);
  std::vector<offset_t> col_ptr(static_cast<std::size_t>(num_cols) + 1, 0);
  for (const Edge& e : edges) {
    if (e.row < 0 || e.row >= num_rows || e.col < 0 || e.col >= num_cols)
      throw std::invalid_argument(
          "build_from_edges: edge endpoint out of range");
    ++row_ptr[static_cast<std::size_t>(e.row)];
    ++col_ptr[static_cast<std::size_t>(e.col)];
  }
  // Counts become bucket start offsets; the last slot holds the total.
  const auto scan = [](std::vector<offset_t>& ptr) {
    std::exclusive_scan(ptr.begin(), ptr.end(), ptr.begin(), offset_t{0});
  };
  scan(row_ptr);
  scan(col_ptr);
  std::vector<offset_t> cursor;

  // Two stable counting passes, by column and then by row: every row's
  // slice of `row_adj` comes out sorted by column, duplicates adjacent.
  std::vector<index_t> by_col(edges.size());
  cursor.assign(col_ptr.begin(), col_ptr.end() - 1);
  for (const Edge& e : edges) by_col[cursor[e.col]++] = e.row;
  std::vector<index_t> row_adj(edges.size());
  cursor.assign(row_ptr.begin(), row_ptr.end() - 1);
  for (index_t v = 0; v < num_cols; ++v)
    for (offset_t k = col_ptr[v]; k < col_ptr[v + 1]; ++k)
      row_adj[cursor[by_col[k]]++] = v;
  by_col = {};

  // Drop duplicates in place and count the surviving column degrees.
  std::fill(col_ptr.begin(), col_ptr.end(), 0);
  offset_t kept = 0;
  for (index_t u = 0; u < num_rows; ++u) {
    const offset_t begin = row_ptr[u];
    const offset_t end = row_ptr[u + 1];
    row_ptr[u] = kept;
    for (offset_t k = begin; k < end; ++k) {
      if (k > begin && row_adj[k] == row_adj[k - 1]) continue;
      ++col_ptr[row_adj[k]];
      row_adj[kept++] = row_adj[k];
    }
  }
  row_ptr[num_rows] = kept;
  row_adj.resize(static_cast<std::size_t>(kept));
  row_adj.shrink_to_fit();

  // Column CSR scattered in (row, column) order: every column's rows come
  // out sorted.
  scan(col_ptr);
  std::vector<index_t> col_adj(row_adj.size());
  cursor.assign(col_ptr.begin(), col_ptr.end() - 1);
  for (index_t u = 0; u < num_rows; ++u)
    for (offset_t k = row_ptr[u]; k < row_ptr[u + 1]; ++k)
      col_adj[cursor[row_adj[k]]++] = u;

  return BipartiteGraph(num_rows, num_cols, std::move(row_ptr),
                        std::move(row_adj), std::move(col_ptr),
                        std::move(col_adj));
}

BipartiteGraph build_from_edges(
    index_t num_rows, index_t num_cols,
    const std::vector<std::pair<index_t, index_t>>& edges) {
  std::vector<Edge> es;
  es.reserve(edges.size());
  for (auto [u, v] : edges) es.push_back({u, v});
  return build_from_edges(num_rows, num_cols, es);
}

BipartiteGraph permute_vertices(const BipartiteGraph& g, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<index_t> row_perm(static_cast<std::size_t>(g.num_rows()));
  std::vector<index_t> col_perm(static_cast<std::size_t>(g.num_cols()));
  std::iota(row_perm.begin(), row_perm.end(), 0);
  std::iota(col_perm.begin(), col_perm.end(), 0);
  std::shuffle(row_perm.begin(), row_perm.end(), rng);
  std::shuffle(col_perm.begin(), col_perm.end(), rng);

  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (index_t u = 0; u < g.num_rows(); ++u)
    for (index_t v : g.row_neighbors(u))
      edges.push_back({row_perm[static_cast<std::size_t>(u)],
                       col_perm[static_cast<std::size_t>(v)]});
  return build_from_edges(g.num_rows(), g.num_cols(), edges);
}

}  // namespace bpm::graph
