#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/instances.hpp"

namespace bpm::graph {
namespace {

using namespace bpm::graph::gen;

TEST(Generators, RandomUniformShapeAndDeterminism) {
  const BipartiteGraph a = random_uniform(100, 120, 500, 7);
  const BipartiteGraph b = random_uniform(100, 120, 500, 7);
  EXPECT_EQ(a.num_rows(), 100);
  EXPECT_EQ(a.num_cols(), 120);
  EXPECT_LE(a.num_edges(), 500);       // duplicates removed
  EXPECT_GT(a.num_edges(), 400);       // but only a few collide
  EXPECT_EQ(a.row_adj(), b.row_adj());  // deterministic per seed
  const BipartiteGraph c = random_uniform(100, 120, 500, 8);
  EXPECT_NE(a.row_adj(), c.row_adj());
}

TEST(Generators, RandomUniformRejectsImpossibleEdgeCount) {
  EXPECT_THROW(random_uniform(2, 2, 5, 1), std::invalid_argument);
  EXPECT_THROW(random_uniform(0, 2, 0, 1), std::invalid_argument);
}

TEST(Generators, PlantedPerfectAlwaysHasPerfectMatching) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const BipartiteGraph g = planted_perfect(50, 2.0, seed);
    EXPECT_EQ(g.num_rows(), 50);
    EXPECT_EQ(g.num_cols(), 50);
    // Every row has at least its planted partner.
    for (index_t u = 0; u < g.num_rows(); ++u)
      EXPECT_GE(g.row_degree(u), 1) << "row " << u;
  }
}

TEST(Generators, RejectsOverflowingImpliedEdgeCounts) {
  // Degrees whose edge count cannot fit offset_t must throw — the cast
  // of an out-of-range double to an integer is UB, not a big number.
  EXPECT_THROW(planted_perfect(1000, 1e18, 1), std::invalid_argument);
  EXPECT_THROW(planted_perfect(10, 1e300, 1), std::invalid_argument);
  EXPECT_THROW(chung_lu(1000, 1000, 1e17, 2.5, 1), std::invalid_argument);
  EXPECT_THROW(rmat(10, 1e17, 1), std::invalid_argument);
  EXPECT_THROW(skewed_hubs(1000, 1000, 1, 0.5, 1e17, 1),
               std::invalid_argument);
  EXPECT_THROW(huge_bipartite(1000, 1000, 1e300, 0.0, 0, 1),
               std::invalid_argument);
}

TEST(Generators, RmatShapeAndSkew) {
  const BipartiteGraph g = rmat(10, 8.0, 3);
  EXPECT_EQ(g.num_rows(), 1024);
  EXPECT_EQ(g.num_cols(), 1024);
  EXPECT_GT(g.num_edges(), 4000);
  // R-MAT with a=0.57 concentrates edges at low ids: the first quarter of
  // rows must hold well over a quarter of the edges.
  offset_t first_quarter = 0;
  for (index_t u = 0; u < 256; ++u) first_quarter += g.row_degree(u);
  EXPECT_GT(static_cast<double>(first_quarter),
            0.4 * static_cast<double>(g.num_edges()));
}

TEST(Generators, RmatRejectsBadParameters) {
  EXPECT_THROW(rmat(0, 8.0, 1), std::invalid_argument);
  EXPECT_THROW(rmat(10, -1.0, 1), std::invalid_argument);
  EXPECT_THROW(rmat(10, 8.0, 1, 0.5, 0.5, 0.2), std::invalid_argument);
}

TEST(Generators, ChungLuProducesSkewedDegrees) {
  const BipartiteGraph g = chung_lu(2000, 2000, 8.0, 2.3, 11);
  EXPECT_EQ(g.num_rows(), 2000);
  index_t max_deg = 0;
  index_t isolated = 0;
  for (index_t u = 0; u < g.num_rows(); ++u) {
    max_deg = std::max(max_deg, g.row_degree(u));
    if (g.row_degree(u) == 0) ++isolated;
  }
  // Power-law: hubs far above the mean, and isolated vertices exist.
  EXPECT_GT(max_deg, 40);
  EXPECT_GT(isolated, 0);
}

TEST(Generators, SkewedHubsIsDeterministicPerSeed) {
  const BipartiteGraph a = skewed_hubs(900, 1000, 6, 0.3, 3.0, 7);
  const BipartiteGraph b = skewed_hubs(900, 1000, 6, 0.3, 3.0, 7);
  EXPECT_EQ(a.num_rows(), 900);
  EXPECT_EQ(a.num_cols(), 1000);
  EXPECT_EQ(a.row_adj(), b.row_adj());
  EXPECT_EQ(a.col_adj(), b.col_adj());
  const BipartiteGraph c = skewed_hubs(900, 1000, 6, 0.3, 3.0, 8);
  EXPECT_NE(a.row_adj(), c.row_adj());
  a.validate();
}

TEST(Generators, SkewedHubsDegreeDistribution) {
  constexpr index_t kRows = 1500, kCols = 1600, kHubs = 8;
  constexpr double kHubFraction = 0.25, kBackground = 3.0;
  const BipartiteGraph g =
      skewed_hubs(kRows, kCols, kHubs, kHubFraction, kBackground, 11);
  std::vector<index_t> degrees(static_cast<std::size_t>(g.num_cols()));
  for (index_t v = 0; v < g.num_cols(); ++v)
    degrees[static_cast<std::size_t>(v)] = g.col_degree(v);
  std::sort(degrees.begin(), degrees.end(), std::greater<>());
  // Exactly the hubs sit far above everything else: the top kHubs degrees
  // are near the hub target (duplicates shave a little off), while the
  // rest of the columns stay at background scale.
  const auto target = static_cast<index_t>(kHubFraction * kRows);
  for (index_t h = 0; h < kHubs; ++h) {
    EXPECT_GT(degrees[static_cast<std::size_t>(h)], target / 2) << "hub " << h;
    EXPECT_LE(degrees[static_cast<std::size_t>(h)], target) << "hub " << h;
  }
  EXPECT_LT(degrees[kHubs], 30);  // background columns: ~3 + hub spill
  // Hubs are scattered by the id permutation, not parked at low ids.
  index_t low_id_hubs = 0;
  for (index_t v = 0; v < kHubs; ++v)
    if (g.col_degree(v) > target / 2) ++low_id_hubs;
  EXPECT_LT(low_id_hubs, kHubs);
}

TEST(Generators, HugeBipartiteStreamedCsrIsValidAndDeterministic) {
  const BipartiteGraph a = huge_bipartite(900, 1000, 4.0, 0.2, 100, 5);
  const BipartiteGraph b = huge_bipartite(900, 1000, 4.0, 0.2, 100, 5);
  EXPECT_EQ(a.num_rows(), 900);
  EXPECT_EQ(a.num_cols(), 1000);
  EXPECT_EQ(a.col_adj(), b.col_adj());
  EXPECT_EQ(a.row_adj(), b.row_adj());
  a.validate();  // sorted, deduplicated, both CSR directions consistent
  EXPECT_NE(a.col_adj(), huge_bipartite(900, 1000, 4.0, 0.2, 100, 6).col_adj());
  // Hubs land every hub_every columns at ~hub_fraction * rows neighbours;
  // background columns stay near avg_degree.
  const auto hub_target = static_cast<index_t>(0.2 * 900);
  for (index_t v = 0; v < a.num_cols(); v += 100) {
    EXPECT_GT(a.col_degree(v), hub_target / 2) << "hub " << v;
    EXPECT_LE(a.col_degree(v), hub_target + 4) << "hub " << v;
  }
  EXPECT_LT(a.col_degree(1), 10);
  // The two CSR directions describe the same edge set.
  EXPECT_EQ(a.num_edges(), static_cast<graph::offset_t>(a.row_adj().size()));
}

TEST(Generators, HugeBipartiteNoHubsAndRejectsBadParameters) {
  const BipartiteGraph flat = huge_bipartite(500, 600, 5.0, 0.0, 0, 3);
  flat.validate();
  index_t max_deg = 0;
  for (index_t v = 0; v < flat.num_cols(); ++v)
    max_deg = std::max(max_deg, flat.col_degree(v));
  EXPECT_LE(max_deg, 5);
  EXPECT_THROW(huge_bipartite(0, 10, 1.0, 0.0, 0, 1), std::invalid_argument);
  EXPECT_THROW(huge_bipartite(10, 10, -1.0, 0.0, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(huge_bipartite(10, 10, 1.0, 1.5, 2, 1), std::invalid_argument);
  EXPECT_THROW(huge_bipartite(10, 10, 1.0, 0.5, -1, 1),
               std::invalid_argument);
}

TEST(Generators, SkewedHubsRejectsBadParameters) {
  EXPECT_THROW(skewed_hubs(0, 10, 1, 0.5, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(skewed_hubs(10, 10, 11, 0.5, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(skewed_hubs(10, 10, 1, 0.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(skewed_hubs(10, 10, 1, 1.5, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(skewed_hubs(10, 10, 1, 0.5, -1.0, 1), std::invalid_argument);
}

TEST(Generators, RoadNetworkIsSymmetricAndSparse) {
  const BipartiteGraph g = road_network(20, 20, 0.9, 5);
  EXPECT_EQ(g.num_rows(), 400);
  // Adjacency-matrix symmetry: (i,j) present iff (j,i) present.
  for (index_t u = 0; u < g.num_rows(); ++u)
    for (index_t v : g.row_neighbors(u)) EXPECT_TRUE(g.has_edge(v, u));
  // Lattice degree bound (4 mesh + rare shortcuts).
  for (index_t u = 0; u < g.num_rows(); ++u) EXPECT_LE(g.row_degree(u), 8);
}

TEST(Generators, DelaunayMeshDegreeNearSix) {
  const BipartiteGraph g = delaunay_mesh(30, 30, 5);
  EXPECT_EQ(g.num_rows(), 900);
  const double avg = static_cast<double>(g.num_edges()) /
                     static_cast<double>(g.num_rows());
  EXPECT_GT(avg, 4.5);
  EXPECT_LT(avg, 7.5);
  for (index_t u = 0; u < g.num_rows(); ++u)
    for (index_t v : g.row_neighbors(u)) EXPECT_TRUE(g.has_edge(v, u));
}

TEST(Generators, TraceMeshIsThinAndSymmetric) {
  const BipartiteGraph g = trace_mesh(200, 4, 0.05, 5);
  EXPECT_EQ(g.num_rows(), 800);
  for (index_t u = 0; u < g.num_rows(); ++u)
    for (index_t v : g.row_neighbors(u)) EXPECT_TRUE(g.has_edge(v, u));
}

TEST(Generators, CopaperContainsCliques) {
  const BipartiteGraph g = copaper(500, 50, 8.0, 5);
  EXPECT_EQ(g.num_rows(), 500);
  EXPECT_GT(g.num_edges(), 0);
  for (index_t u = 0; u < g.num_rows(); ++u)
    for (index_t v : g.row_neighbors(u)) EXPECT_TRUE(g.has_edge(v, u));
}

TEST(Generators, CompleteBipartite) {
  const BipartiteGraph g = complete_bipartite(3, 4);
  EXPECT_EQ(g.num_edges(), 12);
  for (index_t u = 0; u < 3; ++u) EXPECT_EQ(g.row_degree(u), 4);
}

TEST(Generators, EmptyGraph) {
  const BipartiteGraph g = empty_graph(5, 7);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.num_rows(), 5);
  EXPECT_EQ(g.num_cols(), 7);
}

TEST(Generators, StarShape) {
  const BipartiteGraph g = star(6);
  EXPECT_EQ(g.num_rows(), 1);
  EXPECT_EQ(g.num_cols(), 6);
  EXPECT_EQ(g.row_degree(0), 6);
}

TEST(Generators, ChainShape) {
  const BipartiteGraph g = chain(5);
  EXPECT_EQ(g.num_rows(), 5);
  EXPECT_EQ(g.num_cols(), 5);
  EXPECT_EQ(g.num_edges(), 9);
  // Endpoints have degree 1, middle vertices degree 2.
  EXPECT_EQ(g.col_degree(4), 1);
  EXPECT_EQ(g.row_degree(0), 1);
  EXPECT_EQ(g.row_degree(2), 2);
}

// ------------------------------------------------------------ instances ----

TEST(Instances, RegistryHas28EntriesInTableOrder) {
  const auto& all = paper_instances();
  ASSERT_EQ(all.size(), 28u);
  EXPECT_EQ(all.front().name, "amazon0505");
  EXPECT_EQ(all.back().name, "hugebubbles-00000");
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(all[i].id, static_cast<int>(i) + 1);
  // Table I is ordered by increasing #rows.
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LE(all[i - 1].paper.rows, all[i].paper.rows);
}

TEST(Instances, PaperNumbersMatchKnownGeomeans) {
  // Bottom row of Table I: geometric means 0.70 / 0.92 / 1.99 / 2.15.
  const auto& all = paper_instances();
  double lg_gpr = 0, lg_hkdw = 0, lg_pdbfs = 0, lg_pr = 0;
  for (const auto& inst : all) {
    lg_gpr += std::log(inst.paper.g_pr_s);
    lg_hkdw += std::log(inst.paper.g_hkdw_s);
    lg_pdbfs += std::log(inst.paper.p_dbfs_s);
    lg_pr += std::log(inst.paper.pr_s);
  }
  const double n = 28.0;
  EXPECT_NEAR(std::exp(lg_gpr / n), 0.70, 0.02);
  EXPECT_NEAR(std::exp(lg_hkdw / n), 0.92, 0.02);
  EXPECT_NEAR(std::exp(lg_pdbfs / n), 1.99, 0.02);
  EXPECT_NEAR(std::exp(lg_pr / n), 2.15, 0.02);
}

TEST(Instances, BuildProducesNonTrivialGraphs) {
  for (const auto& inst : select_instances(9)) {  // ids 1, 10, 19, 28
    const BipartiteGraph g = inst.build(0.002, 1);
    EXPECT_GE(g.num_rows(), 1024) << inst.name;
    EXPECT_GT(g.num_edges(), 0) << inst.name;
  }
}

TEST(Instances, BuildIsDeterministic) {
  const auto& inst = paper_instances()[0];
  const BipartiteGraph a = inst.build(0.002, 42);
  const BipartiteGraph b = inst.build(0.002, 42);
  EXPECT_EQ(a.row_adj(), b.row_adj());
}

TEST(Instances, BuildRejectsNonPositiveScale) {
  EXPECT_THROW(paper_instances()[0].build(0.0, 1), std::invalid_argument);
}

TEST(Instances, StrideSelection) {
  EXPECT_EQ(select_instances(1).size(), 28u);
  EXPECT_EQ(select_instances(2).size(), 14u);
  EXPECT_EQ(select_instances(28).size(), 1u);
  EXPECT_THROW(select_instances(0), std::invalid_argument);
}

TEST(Instances, ClassNamesResolve) {
  for (const auto& inst : paper_instances())
    EXPECT_STRNE(to_string(inst.cls), "unknown") << inst.name;
}

// ---------------------------------------------------- golden fingerprints ----
//
// Every generator kind and all 28 Table I analogues pinned by edge count
// and `structural_fingerprint` (dimensions + both CSR arrays): a change to
// the builder or a generator that alters any graph — an edge, an order, a
// tie — fails here, so speed work on graph construction must stay
// bit-identical.

struct GoldenGraph {
  const char* name;
  std::function<BipartiteGraph()> build;
  offset_t edges;
  std::uint64_t fingerprint;
};

TEST(GoldenFingerprints, EveryGeneratorKind) {
  const std::vector<GoldenGraph> golden{
      {"random_uniform", [] { return random_uniform(300, 250, 2000, 11); },
       1964, 0xbd1b6641827c3892ull},
      {"planted_perfect", [] { return planted_perfect(300, 3.0, 12); },
       1190, 0xaf1d96f389493e80ull},
      {"rmat", [] { return rmat(9, 6.0, 13); },
       2512, 0x9b896ffbb60957faull},
      {"chung_lu", [] { return chung_lu(400, 350, 5.0, 2.3, 14); },
       1593, 0x0457ca49e9236b50ull},
      {"skewed_hubs", [] { return skewed_hubs(300, 400, 3, 0.3, 2.0, 15); },
       1026, 0x70560d23201eac8bull},
      {"skewed_hubs_block",
       [] { return skewed_hubs(300, 400, 3, 0.3, 2.0, 15, /*scatter=*/false); },
       1026, 0x316ccf31376f5fa2ull},
      {"road_network", [] { return road_network(20, 15, 0.7, 16); },
       794, 0xd9e20314663ec2dbull},
      {"delaunay_mesh", [] { return delaunay_mesh(18, 17, 17); },
       1698, 0x1738115fc54d7219ull},
      {"trace_mesh", [] { return trace_mesh(60, 4, 0.1, 18); },
       908, 0x6e460f9b5ebf121full},
      {"copaper", [] { return copaper(300, 40, 8.0, 19); },
       2214, 0xb335cbe614cd12d1ull},
      {"huge_bipartite",
       [] { return huge_bipartite(500, 400, 4.0, 0.1, 50, 20); },
       1969, 0x6ec177e848168988ull},
      {"complete_bipartite", [] { return complete_bipartite(7, 9); },
       63, 0x0f7e43d83587d655ull},
      {"empty_graph", [] { return empty_graph(5, 3); },
       0, 0xdf9be70f7e885d6bull},
      {"star", [] { return star(6); },
       6, 0xfb1567560ee0e815ull},
      {"chain", [] { return chain(9); },
       17, 0xae20dc3f1064ad06ull},
      {"permute_vertices",
       [] { return permute_vertices(chung_lu(400, 350, 5.0, 2.3, 14), 21); },
       1593, 0x8d577fb9880abb91ull},
  };
  for (const GoldenGraph& want : golden) {
    const BipartiteGraph g = want.build();
    EXPECT_EQ(g.num_edges(), want.edges) << want.name;
    EXPECT_EQ(structural_fingerprint(g), want.fingerprint) << want.name;
  }
}

TEST(GoldenFingerprints, TableOneAnaloguesAtSmallScale) {
  struct Pin {
    const char* name;
    offset_t edges;
    std::uint64_t fingerprint;
  };
  const Pin pins[] = {
      {"amazon0505", 8074, 0x90d2929819375913ull},
      {"coPapersDBLP", 32338, 0x9a02b8c2fbbcce07ull},
      {"amazon-2008", 10024, 0xc557abdc33d1f1b6ull},
      {"flickr", 18878, 0xd5698505eb5e7182ull},
      {"eu-2005", 25238, 0xeb58f9f0be11d3efull},
      {"delaunay_n20", 11792, 0xb8ccb3bde79bb6a4ull},
      {"kron_g500-logn20", 57104, 0x279b50e577ce9e16ull},
      {"roadNet-PA", 7504, 0xb9854de08e797c0full},
      {"in-2004", 24486, 0xac8727a29aa37c0bull},
      {"roadNet-TX", 9606, 0xd1316aab6fb5c706ull},
      {"Hamrle3", 11025, 0xa30946fb81fd2ce9ull},
      {"as-Skitter", 21819, 0xaad9640b6661cdb1ull},
      {"GL7d19", 74449, 0xdcd3717dcf39c898ull},
      {"roadNet-CA", 13698, 0x4d8834c755514f51ull},
      {"delaunay_n21", 24066, 0xadbda1fcc8370a20ull},
      {"kron_g500-logn21", 124819, 0xdbab070bc77e8fceull},
      {"wikipedia-20070206", 88449, 0xae8fcace9e862033ull},
      {"patents", 29737, 0x9908d821a12762fbull},
      {"com-livejournal", 68482, 0x0e6ae4976005fa3bull},
      {"hugetrace-00000", 48730, 0x0141ac5792e11b4full},
      {"soc-LiveJournal1", 135602, 0x981d58f1028ea2f7ull},
      {"ljournal-2008", 155343, 0x48fcf4c5e4e8fbe1ull},
      {"italy_osm", 27432, 0xe5789e41a1a30b13ull},
      {"delaunay_n23", 98816, 0xf34a4724924b24e1ull},
      {"wb-edu", 90604, 0xe09d346664e7c3e6ull},
      {"hugetrace-00020", 174676, 0x660598b61d2ec103ull},
      {"delaunay_n24", 199472, 0x1e0475604cff17d6ull},
      {"hugebubbles-00000", 176278, 0x7857e7c2119c4901ull},
  };
  const auto& all = paper_instances();
  ASSERT_EQ(std::size(pins), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i].name, pins[i].name);
    const BipartiteGraph g = all[i].build(0.002, 42);
    EXPECT_EQ(g.num_edges(), pins[i].edges) << pins[i].name;
    EXPECT_EQ(structural_fingerprint(g), pins[i].fingerprint) << pins[i].name;
  }
}

}  // namespace
}  // namespace bpm::graph
