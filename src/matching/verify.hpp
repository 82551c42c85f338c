#pragma once

#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bpm::matching {

/// Independent maximality certificate, used by every algorithm test.
///
/// By Berge's theorem (the paper's Theorem 1), M is maximum iff no
/// M-augmenting path exists.  `is_maximum` runs one BFS over alternating
/// paths from all unmatched columns; if it reaches an unmatched row, M is
/// not maximum.  O(m + n + |E|) — cheap enough to run after every
/// experiment, and entirely separate from the algorithms under test.
[[nodiscard]] bool is_maximum(const BipartiteGraph& g, const Matching& m);

/// Cardinality of a maximum matching, computed by an internal
/// Hopcroft–Karp-style reference (repeated disjoint augmentation).  Used
/// by tests as ground truth; intentionally written independently from
/// `matching/hopcroft_karp.cpp` (simple BFS+single augment, no phases) so
/// the reference and the production code cannot share a bug.
[[nodiscard]] index_t reference_maximum_cardinality(const BipartiteGraph& g);

/// Cardinality of a maximum matching for production ground truth (pipeline
/// admission, service `gen`/`load`, bench harnesses): `seq_push_relabel`
/// from `init`, then `hopcroft_karp` warm-started from that matching.  HK
/// stops only when no augmenting path exists — the Berge certificate — so
/// the result is exact even if push-relabel returned a short matching;
/// when the warm start is already maximum, HK costs one O(m + n) phase.
/// `init` must be valid for `g`.
[[nodiscard]] index_t certified_maximum_cardinality(const BipartiteGraph& g,
                                                    Matching init);

/// Deficiency of M: max-cardinality minus |M| (paper Theorem 2 counts this
/// many vertex-disjoint augmenting paths).
[[nodiscard]] index_t deficiency(const BipartiteGraph& g, const Matching& m);

}  // namespace bpm::matching
