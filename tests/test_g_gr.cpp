#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/g_gr.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/instances.hpp"
#include "matching/greedy.hpp"
#include "matching/matching.hpp"

namespace bpm::gpu {
namespace {

using device::Device;
using device::ExecMode;
using graph::BipartiteGraph;
using graph::index_t;
namespace gen = graph::gen;

DeviceState make_state(const BipartiteGraph& g, const matching::Matching& m) {
  DeviceState st(g.num_rows(), g.num_cols());
  st.mu_row.assign_from(m.row_match);
  st.mu_col.assign_from(m.col_match);
  return st;
}

/// Host reference: exact alternating-path distances via the sequential BFS
/// of Algorithm 2.
void reference_distances(const BipartiteGraph& g, const matching::Matching& m,
                         std::vector<index_t>& psi_row,
                         std::vector<index_t>& psi_col) {
  const index_t inf = g.psi_infinity();
  psi_row.assign(static_cast<std::size_t>(g.num_rows()), inf);
  psi_col.assign(static_cast<std::size_t>(g.num_cols()), inf);
  std::vector<index_t> queue;
  for (index_t u = 0; u < g.num_rows(); ++u) {
    if (m.row_match[static_cast<std::size_t>(u)] == matching::kUnmatched) {
      psi_row[static_cast<std::size_t>(u)] = 0;
      queue.push_back(u);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const index_t u = queue[head];
    for (index_t v : g.row_neighbors(u)) {
      if (psi_col[static_cast<std::size_t>(v)] != inf) continue;
      psi_col[static_cast<std::size_t>(v)] =
          psi_row[static_cast<std::size_t>(u)] + 1;
      const index_t w = m.col_match[static_cast<std::size_t>(v)];
      if (w >= 0 && psi_row[static_cast<std::size_t>(w)] == inf) {
        psi_row[static_cast<std::size_t>(w)] =
            psi_row[static_cast<std::size_t>(u)] + 2;
        queue.push_back(w);
      }
    }
  }
}

/// The devices every G-GR test runs on: the sim in both execution modes
/// (the paper's full-row grid), and the host backend's level queue with
/// four workers fanned out on every level (`host_grain = 1`, so columns
/// are claimed concurrently) and with one worker (exclusive claims).
enum class GrDevice { kSimSequential, kSimConcurrent, kHostParallel, kHostOne };

Device device_for(GrDevice kind) {
  switch (kind) {
    case GrDevice::kSimSequential:
      return Device({.backend = device::Backend::kSim,
                     .mode = ExecMode::kSequential});
    case GrDevice::kSimConcurrent:
      return Device({.backend = device::Backend::kSim,
                     .mode = ExecMode::kConcurrent,
                     .num_threads = 4});
    case GrDevice::kHostParallel:
      return Device(std::make_shared<device::HostParallelEngine>(
          device::EngineDescriptor{
              .mode = ExecMode::kConcurrent, .threads = 4, .host_grain = 1}));
    case GrDevice::kHostOne:
      return Device(std::make_shared<device::HostParallelEngine>(1));
  }
  return Device();
}

class GGrModes : public ::testing::TestWithParam<GrDevice> {
 protected:
  Device make_device() { return device_for(GetParam()); }

  void expect_exact_distances(const BipartiteGraph& g,
                              const matching::Matching& m) {
    Device dev = make_device();
    DeviceState st = make_state(g, m);
    const GrResult r = g_gr(dev, g, st);
    std::vector<index_t> want_row, want_col;
    reference_distances(g, m, want_row, want_col);
    EXPECT_EQ(st.psi_row.to_host(), want_row);
    EXPECT_EQ(st.psi_col.to_host(), want_col);
    // maxLevel covers the deepest populated level.
    index_t deepest = 0;
    std::int64_t reached = 0;
    for (index_t d : want_row) {
      if (d == g.psi_infinity()) continue;
      deepest = std::max(deepest, d);
      ++reached;
    }
    EXPECT_GE(r.max_level, deepest);
    if (dev.backend() == device::Backend::kHost) {
      // Duplicate-free level queues: every reached row queued exactly once.
      EXPECT_LE(r.queued_rows, g.num_rows());
      EXPECT_EQ(r.queued_rows, reached);
    } else {
      EXPECT_EQ(r.queued_rows, 0);
    }
  }
};

TEST_P(GGrModes, EmptyMatchingChainGivesBfsDistances) {
  const BipartiteGraph g = gen::chain(8);
  expect_exact_distances(g, matching::Matching(g));
}

TEST_P(GGrModes, GreedyMatchingChain) {
  const BipartiteGraph g = gen::chain(8);
  expect_exact_distances(g, matching::cheap_matching(g));
}

TEST_P(GGrModes, RandomGraphsManySeeds) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const BipartiteGraph g = gen::random_uniform(80, 90, 300, seed);
    expect_exact_distances(g, matching::Matching(g));
    expect_exact_distances(g, matching::cheap_matching(g));
  }
}

TEST_P(GGrModes, PowerLawWithUnreachableVertices) {
  const BipartiteGraph g = gen::chung_lu(200, 200, 3.0, 2.4, 3);
  expect_exact_distances(g, matching::cheap_matching(g));
}

TEST_P(GGrModes, PerfectMatchingLeavesAllUnreachable) {
  // With a perfect matching there is no unmatched row: every vertex must
  // be labeled m+n.
  const BipartiteGraph g = gen::complete_bipartite(5, 5);
  matching::Matching m(g);
  for (index_t i = 0; i < 5; ++i) m.match(i, i);
  Device dev = make_device();
  DeviceState st = make_state(g, m);
  (void)g_gr(dev, g, st);
  for (index_t d : st.psi_row.to_host()) EXPECT_EQ(d, g.psi_infinity());
  for (index_t d : st.psi_col.to_host()) EXPECT_EQ(d, g.psi_infinity());
}

TEST_P(GGrModes, StaleColumnEntriesDoNotPropagate) {
  // The paper's G-GR-KRNL only follows µ(v) when µ(µ(v)) = v.  Plant a
  // stale column entry and check the BFS ignores it.
  const BipartiteGraph g = gen::chain(3);
  matching::Matching m(g);
  m.match(1, 1);
  Device dev = make_device();
  DeviceState st = make_state(g, m);
  st.mu_col.store(2, 1);  // stale: column 2 claims row 1, row 1 disagrees
  const GrResult r = g_gr(dev, g, st);
  (void)r;
  // Column 2's label must come from the BFS (via row 2), not from the
  // stale matched edge.
  std::vector<index_t> want_row, want_col;
  reference_distances(g, m, want_row, want_col);
  EXPECT_EQ(st.psi_row.to_host(), want_row);
  EXPECT_EQ(st.psi_col.to_host(), want_col);
}

TEST_P(GGrModes, LevelKernelCountMatchesDepth) {
  // A chain of k links needs ~k BFS levels — one launch each.
  const BipartiteGraph g = gen::chain(32);
  matching::Matching m(g);
  for (index_t i = 1; i < 32; ++i) m.match(i, i - 1);  // only r0, c31 free
  Device dev = make_device();
  DeviceState st = make_state(g, m);
  const GrResult r = g_gr(dev, g, st);
  EXPECT_GE(r.level_kernels, 30);
  EXPECT_EQ(r.max_level, 2 * r.level_kernels);
}

TEST_P(GGrModes, HighDiameterInstanceAnalogues) {
  // Delaunay and road analogues run tens to hundreds of BFS levels, which
  // is where the host's level queue replaces a per-level scan of all rows.
  for (const char* name : {"delaunay_n20", "roadNet-PA", "hugetrace-00000"}) {
    const auto& all = graph::paper_instances();
    const auto it = std::find_if(all.begin(), all.end(), [&](const auto& i) {
      return i.name == name;
    });
    ASSERT_NE(it, all.end()) << name;
    const BipartiteGraph g = it->build(1.0 / 512.0, 3);
    expect_exact_distances(g, matching::Matching(g));
    expect_exact_distances(g, matching::cheap_matching(g));
  }
}

TEST_P(GGrModes, LongChain) {
  const BipartiteGraph g = gen::chain(3000);
  matching::Matching m(g);
  for (index_t i = 1; i < 3000; ++i) m.match(i, i - 1);  // only r0 free
  expect_exact_distances(g, m);
  expect_exact_distances(g, matching::Matching(g));
}

INSTANTIATE_TEST_SUITE_P(AllDevices, GGrModes,
                         ::testing::Values(GrDevice::kSimSequential,
                                           GrDevice::kSimConcurrent,
                                           GrDevice::kHostParallel,
                                           GrDevice::kHostOne),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case GrDevice::kSimSequential:
                               return "SimSequential";
                             case GrDevice::kSimConcurrent:
                               return "SimConcurrent";
                             case GrDevice::kHostParallel:
                               return "HostParallel";
                             case GrDevice::kHostOne:
                               return "HostOneWorker";
                           }
                           return "Unknown";
                         });

TEST(GGrSim, ModeledTimeAndLaunchesArePinned) {
  // The sim keeps the paper's Alg. 5 grid: one launch per level over all
  // rows, charged by the C2050 model.  The figures are the row-scan
  // kernel's; if they move, the modeled reproduction moved with them.
  const BipartiteGraph g = gen::trace_mesh(400, 3, 0.05, 4);
  const matching::Matching m = matching::cheap_matching(g);
  for (const GrDevice kind :
       {GrDevice::kSimSequential, GrDevice::kSimConcurrent}) {
    Device dev = device_for(kind);
    DeviceState st = make_state(g, m);
    const GrResult r = g_gr(dev, g, st);
    EXPECT_EQ(dev.launches(), 35u);
    EXPECT_DOUBLE_EQ(dev.modeled_ms(), 0.33753439999999996);
    EXPECT_EQ(r.level_kernels, 33);
    EXPECT_EQ(r.max_level, 66);
  }
}

}  // namespace
}  // namespace bpm::gpu
