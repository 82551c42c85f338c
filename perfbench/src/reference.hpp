// The benchmark's own ground truth: a Hopcroft–Karp maximum matching
// written here, independently of the library's solvers and verifier, plus
// the check every reported matching is held to.
#pragma once

#include <cstdint>
#include <string>

#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace perfbench {

/// Maximum matching cardinality of `g` by Hopcroft–Karp (greedy start,
/// BFS layering from free columns, iterative DFS so long augmenting paths
/// on high-diameter meshes cannot overflow the stack).
[[nodiscard]] std::int64_t reference_cardinality(
    const bpm::graph::BipartiteGraph& g);

/// Empty when `m` is a valid matching of `g` with exactly `reference`
/// pairs; otherwise what is wrong with it.  Valid means every matched pair
/// is an edge, the row and column sides agree, and no vertex is used
/// twice.
[[nodiscard]] std::string check_matching(const bpm::graph::BipartiteGraph& g,
                                         const bpm::matching::Matching& m,
                                         std::int64_t reference);

}  // namespace perfbench
