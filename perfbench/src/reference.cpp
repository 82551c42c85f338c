#include "reference.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace perfbench {

using bpm::graph::BipartiteGraph;
using bpm::graph::index_t;

std::int64_t reference_cardinality(const BipartiteGraph& g) {
  const index_t rows = g.num_rows();
  const index_t cols = g.num_cols();
  const auto& ptr = g.col_ptr();
  const auto& adj = g.col_adj();
  std::vector<index_t> row_mate(static_cast<std::size_t>(rows), -1);
  std::vector<index_t> col_mate(static_cast<std::size_t>(cols), -1);
  std::int64_t size = 0;

  for (index_t v = 0; v < cols; ++v) {
    for (auto e = ptr[v]; e < ptr[v + 1]; ++e) {
      const index_t u = adj[e];
      if (row_mate[u] < 0) {
        row_mate[u] = v;
        col_mate[v] = u;
        ++size;
        break;
      }
    }
  }

  constexpr index_t kInf = std::numeric_limits<index_t>::max();
  std::vector<index_t> dist(static_cast<std::size_t>(cols));
  std::vector<index_t> queue(static_cast<std::size_t>(cols));
  std::vector<std::int64_t> next_edge(static_cast<std::size_t>(cols));
  std::vector<index_t> stack;
  while (true) {
    // BFS layers over columns: free columns at 0, a matched column one
    // layer past the column whose edge reaches its row.
    std::size_t head = 0, tail = 0;
    for (index_t v = 0; v < cols; ++v) {
      if (col_mate[v] < 0) {
        dist[v] = 0;
        queue[tail++] = v;
      } else {
        dist[v] = kInf;
      }
    }
    index_t free_layer = kInf;
    while (head < tail) {
      const index_t v = queue[head++];
      if (dist[v] >= free_layer) continue;
      for (auto e = ptr[v]; e < ptr[v + 1]; ++e) {
        const index_t w = row_mate[adj[e]];
        if (w < 0) {
          free_layer = std::min(free_layer, dist[v] + 1);
        } else if (dist[w] == kInf) {
          dist[w] = dist[v] + 1;
          queue[tail++] = w;
        }
      }
    }
    if (free_layer == kInf) break;

    // Vertex-disjoint shortest augmenting paths by iterative DFS.
    for (index_t v = 0; v < cols; ++v) next_edge[v] = ptr[v];
    std::int64_t augmented = 0;
    for (index_t root = 0; root < cols; ++root) {
      if (col_mate[root] >= 0 || dist[root] != 0) continue;
      stack.assign(1, root);
      while (!stack.empty()) {
        const index_t v = stack.back();
        bool advanced = false;
        while (next_edge[v] < ptr[v + 1]) {
          const index_t u = adj[next_edge[v]];
          const index_t w = row_mate[u];
          if (w < 0 && dist[v] + 1 == free_layer) {
            // Augment along the stack: each column takes the row its
            // current edge points at.
            for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
              const index_t c = *it;
              const index_t r = adj[next_edge[c]];
              col_mate[c] = r;
              row_mate[r] = c;
              dist[c] = kInf;  // vertex-disjoint within the phase
            }
            ++augmented;
            stack.clear();
            advanced = true;
            break;
          }
          if (w >= 0 && dist[w] == dist[v] + 1) {
            stack.push_back(w);
            advanced = true;
            break;
          }
          ++next_edge[v];
        }
        if (!advanced) {
          dist[v] = kInf;  // dead end for the rest of this phase
          stack.pop_back();
          if (!stack.empty()) ++next_edge[stack.back()];
        }
      }
    }
    if (augmented == 0) break;
    size += augmented;
  }
  return size;
}

std::string check_matching(const BipartiteGraph& g,
                           const bpm::matching::Matching& m,
                           std::int64_t reference) {
  if (m.row_match.size() != static_cast<std::size_t>(g.num_rows()) ||
      m.col_match.size() != static_cast<std::size_t>(g.num_cols()))
    return "matching arrays do not fit the graph";
  std::int64_t pairs = 0;
  for (index_t v = 0; v < g.num_cols(); ++v) {
    const index_t u = m.col_match[v];
    if (u < 0) continue;
    if (u >= g.num_rows())
      return "column " + std::to_string(v) + " matched to a missing row";
    if (m.row_match[u] != v)
      return "column " + std::to_string(v) + " and row " + std::to_string(u) +
             " disagree";
    const auto nbrs = g.col_neighbors(v);
    if (std::find(nbrs.begin(), nbrs.end(), u) == nbrs.end())
      return "pair (" + std::to_string(u) + ", " + std::to_string(v) +
             ") is not an edge";
    ++pairs;
  }
  std::int64_t row_pairs = 0;
  for (index_t u = 0; u < g.num_rows(); ++u) {
    const index_t v = m.row_match[u];
    if (v < 0) continue;
    if (v >= g.num_cols() || m.col_match[v] != u)
      return "row " + std::to_string(u) + " matched one-sidedly";
    ++row_pairs;
  }
  if (row_pairs != pairs) return "row and column sides count differently";
  if (pairs != reference)
    return "cardinality " + std::to_string(pairs) + " differs from reference " +
           std::to_string(reference);
  return {};
}

}  // namespace perfbench
