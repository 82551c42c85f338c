#include "matching/verify.hpp"

#include <queue>
#include <utility>
#include <vector>

#include "matching/hopcroft_karp.hpp"
#include "matching/seq_pr.hpp"

namespace bpm::matching {

bool is_maximum(const BipartiteGraph& g, const Matching& m) {
  // BFS over alternating paths: start from every unmatched column, cross
  // any edge column→row, and return row→column only along matched edges.
  // Reaching an unmatched row exhibits an augmenting path.
  std::vector<char> row_seen(static_cast<std::size_t>(g.num_rows()), 0);
  std::vector<char> col_seen(static_cast<std::size_t>(g.num_cols()), 0);
  std::queue<index_t> frontier;  // column vertices
  for (index_t v = 0; v < g.num_cols(); ++v) {
    if (m.col_match[static_cast<std::size_t>(v)] < 0) {
      col_seen[static_cast<std::size_t>(v)] = 1;
      frontier.push(v);
    }
  }
  while (!frontier.empty()) {
    const index_t v = frontier.front();
    frontier.pop();
    for (index_t u : g.col_neighbors(v)) {
      if (row_seen[static_cast<std::size_t>(u)]) continue;
      row_seen[static_cast<std::size_t>(u)] = 1;
      const index_t w = m.row_match[static_cast<std::size_t>(u)];
      if (w == kUnmatched) return false;  // augmenting path found
      if (!col_seen[static_cast<std::size_t>(w)]) {
        col_seen[static_cast<std::size_t>(w)] = 1;
        frontier.push(w);
      }
    }
  }
  return true;
}

index_t reference_maximum_cardinality(const BipartiteGraph& g) {
  // Deliberately simple: repeated BFS, one augmentation per search.
  // O(V·E) worst case, fine for test-sized graphs.
  const auto nrows = static_cast<std::size_t>(g.num_rows());
  const auto ncols = static_cast<std::size_t>(g.num_cols());
  std::vector<index_t> row_match(nrows, kUnmatched);
  std::vector<index_t> col_match(ncols, kUnmatched);
  std::vector<index_t> parent_row(nrows);  // column we arrived from
  std::vector<char> col_visited(ncols);
  index_t cardinality = 0;

  for (index_t start = 0; start < g.num_cols(); ++start) {
    if (col_match[static_cast<std::size_t>(start)] != kUnmatched) continue;
    std::fill(col_visited.begin(), col_visited.end(), 0);
    std::fill(parent_row.begin(), parent_row.end(), kUnmatched);
    std::queue<index_t> frontier;
    frontier.push(start);
    col_visited[static_cast<std::size_t>(start)] = 1;
    index_t end_row = kUnmatched;
    while (!frontier.empty() && end_row == kUnmatched) {
      const index_t v = frontier.front();
      frontier.pop();
      for (index_t u : g.col_neighbors(v)) {
        if (parent_row[static_cast<std::size_t>(u)] != kUnmatched) continue;
        parent_row[static_cast<std::size_t>(u)] = v;
        const index_t w = row_match[static_cast<std::size_t>(u)];
        if (w == kUnmatched) {
          end_row = u;
          break;
        }
        if (!col_visited[static_cast<std::size_t>(w)]) {
          col_visited[static_cast<std::size_t>(w)] = 1;
          frontier.push(w);
        }
      }
    }
    if (end_row == kUnmatched) continue;
    // Flip the path backwards to the start column.
    index_t u = end_row;
    while (true) {
      const index_t v = parent_row[static_cast<std::size_t>(u)];
      const index_t prev_u = col_match[static_cast<std::size_t>(v)];
      row_match[static_cast<std::size_t>(u)] = v;
      col_match[static_cast<std::size_t>(v)] = u;
      if (prev_u == kUnmatched) break;
      u = prev_u;
    }
    ++cardinality;
  }
  return cardinality;
}

index_t certified_maximum_cardinality(const BipartiteGraph& g,
                                      Matching init) {
  return hopcroft_karp(g, seq_push_relabel(g, std::move(init))).cardinality();
}

index_t deficiency(const BipartiteGraph& g, const Matching& m) {
  return reference_maximum_cardinality(g) - m.cardinality();
}

}  // namespace bpm::matching
