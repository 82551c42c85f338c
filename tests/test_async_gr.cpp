// Tests for the stream-overlapped global relabeling (the paper's Section V
// future work, implemented as GprOptions::concurrent_global_relabel and
// gpu::AsyncGlobalRelabel).

#include <gtest/gtest.h>

#include <memory>

#include "core/g_gr.hpp"
#include "core/g_pr.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"

namespace bpm::gpu {
namespace {

using device::Device;
using device::ExecMode;
using graph::BipartiteGraph;
using graph::index_t;
namespace gen = graph::gen;

// ------------------------------------------------- AsyncGlobalRelabel ----

/// Stepwise-equals-synchronous runs on the sim's full-row grid and on the
/// host backend's level queue, fanned out to four workers on every level
/// (`host_grain = 1`) and on one worker.
enum class StepDevice { kSim, kHostParallel, kHostOne };

class AsyncStepwise : public ::testing::TestWithParam<StepDevice> {
 protected:
  Device make_device() const {
    switch (GetParam()) {
      case StepDevice::kSim:
        return Device({.backend = device::Backend::kSim,
                       .mode = ExecMode::kSequential});
      case StepDevice::kHostParallel:
        return Device(std::make_shared<device::HostParallelEngine>(
            device::EngineDescriptor{.mode = ExecMode::kConcurrent,
                                     .threads = 4,
                                     .host_grain = 1}));
      case StepDevice::kHostOne:
        return Device(std::make_shared<device::HostParallelEngine>(1));
    }
    return Device();
  }

  void expect_stepwise_matches_sync(const BipartiteGraph& g,
                                    const matching::Matching& m) {
    Device dev = make_device();

    DeviceState sync_st(g.num_rows(), g.num_cols());
    sync_st.mu_row.assign_from(m.row_match);
    sync_st.mu_col.assign_from(m.col_match);
    const GrResult sync = g_gr(dev, g, sync_st);

    DeviceState async_st(g.num_rows(), g.num_cols());
    async_st.mu_row.assign_from(m.row_match);
    async_st.mu_col.assign_from(m.col_match);
    AsyncGlobalRelabel async(g.num_rows(), g.num_cols());
    async.start(dev, g, async_st);
    EXPECT_TRUE(async.running());
    int steps = 0;
    while (!async.step(dev, g)) ++steps;
    EXPECT_FALSE(async.running());
    async.apply(dev, g, async_st);

    // When nothing pushes in between, the shadow relabel must equal the
    // synchronous one exactly.
    EXPECT_EQ(async_st.psi_row.to_host(), sync_st.psi_row.to_host());
    EXPECT_EQ(async_st.psi_col.to_host(), sync_st.psi_col.to_host());
    EXPECT_EQ(async.max_level(), sync.max_level);
    EXPECT_EQ(steps + 1, sync.level_kernels);
  }
};

TEST_P(AsyncStepwise, StepwiseBfsMatchesSynchronousGGr) {
  const BipartiteGraph g = gen::random_uniform(60, 60, 200, 3);
  expect_stepwise_matches_sync(g, matching::cheap_matching(g));
}

TEST_P(AsyncStepwise, StepwiseDeepBfsMatchesSynchronousGGr) {
  const BipartiteGraph g = gen::trace_mesh(200, 3, 0.02, 9);
  expect_stepwise_matches_sync(g, matching::cheap_matching(g));
  expect_stepwise_matches_sync(g, matching::Matching(g));
}

TEST_P(AsyncStepwise, RestartsAfterAFinishedRelabel) {
  // The level queue is a member: a second start() must not see the first
  // BFS's leftovers.
  const BipartiteGraph g = gen::chung_lu(200, 200, 3.0, 2.4, 3);
  const matching::Matching m = matching::cheap_matching(g);
  Device dev = make_device();
  DeviceState st(g.num_rows(), g.num_cols());
  AsyncGlobalRelabel async(g.num_rows(), g.num_cols());
  async.start(dev, g, st);  // empty matching
  while (!async.step(dev, g)) {
  }
  st.mu_row.assign_from(m.row_match);
  st.mu_col.assign_from(m.col_match);
  async.start(dev, g, st);
  while (!async.step(dev, g)) {
  }
  async.apply(dev, g, st);
  DeviceState sync_st(g.num_rows(), g.num_cols());
  sync_st.mu_row.assign_from(m.row_match);
  sync_st.mu_col.assign_from(m.col_match);
  (void)g_gr(dev, g, sync_st);
  EXPECT_EQ(st.psi_row.to_host(), sync_st.psi_row.to_host());
  EXPECT_EQ(st.psi_col.to_host(), sync_st.psi_col.to_host());
}

INSTANTIATE_TEST_SUITE_P(Devices, AsyncStepwise,
                         ::testing::Values(StepDevice::kSim,
                                           StepDevice::kHostParallel,
                                           StepDevice::kHostOne),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case StepDevice::kSim:
                               return "Sim";
                             case StepDevice::kHostParallel:
                               return "HostParallel";
                             case StepDevice::kHostOne:
                               return "HostOneWorker";
                           }
                           return "Unknown";
                         });

TEST(AsyncGlobalRelabel, SnapshotIsolatesConcurrentMatchingChanges) {
  // Mutating µ after start() must not affect the in-flight BFS.
  const BipartiteGraph g = gen::chain(6);
  DeviceState st(g.num_rows(), g.num_cols());
  Device dev({.mode = ExecMode::kSequential});
  AsyncGlobalRelabel async(g.num_rows(), g.num_cols());
  async.start(dev, g, st);
  // Vandalise the live matching mid-flight (simulates racing pushes).
  st.mu_row.fill(0);
  st.mu_col.fill(0);
  while (!async.step(dev, g)) {
  }
  async.apply(dev, g, st);
  // With the (empty) snapshot matching, every row is a source: ψ(u) = 0,
  // ψ(v) = 1 — regardless of the vandalism.
  for (index_t u = 0; u < g.num_rows(); ++u)
    EXPECT_EQ(st.psi_row.load(static_cast<std::size_t>(u)), 0);
  for (index_t v = 0; v < g.num_cols(); ++v)
    EXPECT_EQ(st.psi_col.load(static_cast<std::size_t>(v)), 1);
}

// ----------------------------------------------------- G-PR integration ----

struct AsyncConfig {
  GprVariant variant;
  ExecMode mode;
};

class AsyncGprSweep : public ::testing::TestWithParam<AsyncConfig> {
 protected:
  void check(const BipartiteGraph& g) {
    const index_t want = matching::reference_maximum_cardinality(g);
    Device dev({.mode = GetParam().mode, .num_threads = 4});
    GprOptions opt;
    opt.variant = GetParam().variant;
    opt.concurrent_global_relabel = true;
    opt.shrink_threshold = 8;
    const GprResult r = g_pr(dev, g, matching::cheap_matching(g), opt);
    ASSERT_TRUE(r.matching.is_valid(g)) << r.matching.first_violation(g);
    EXPECT_EQ(r.matching.cardinality(), want);
    EXPECT_TRUE(matching::is_maximum(g, r.matching));
  }
};

TEST_P(AsyncGprSweep, RandomSparse) {
  for (std::uint64_t seed = 0; seed < 6; ++seed)
    check(gen::random_uniform(70, 70, 220, seed));
}

TEST_P(AsyncGprSweep, PowerLaw) { check(gen::chung_lu(250, 250, 3.0, 2.3, 5)); }

TEST_P(AsyncGprSweep, Chains) {
  check(gen::chain(64));
  check(gen::chain(150));
}

TEST_P(AsyncGprSweep, TraceStripDeepBfs) {
  check(gen::trace_mesh(90, 3, 0.05, 4));
}

TEST_P(AsyncGprSweep, Kron) { check(gen::rmat(7, 5.0, 11)); }

INSTANTIATE_TEST_SUITE_P(
    Configs, AsyncGprSweep,
    ::testing::Values(AsyncConfig{GprVariant::kFirst, ExecMode::kSequential},
                      AsyncConfig{GprVariant::kFirst, ExecMode::kConcurrent},
                      AsyncConfig{GprVariant::kShrink, ExecMode::kSequential},
                      AsyncConfig{GprVariant::kShrink, ExecMode::kConcurrent}),
    [](const auto& param_info) {
      std::string name =
          param_info.param.variant == GprVariant::kFirst ? "First" : "Shr";
      name += param_info.param.mode == ExecMode::kSequential ? "_Seq" : "_Conc";
      return name;
    });

TEST(AsyncGpr, CountsConcurrentRelabels) {
  // An instance that needs several relabels: deep trace strip, empty init.
  const BipartiteGraph g = gen::trace_mesh(200, 3, 0.02, 9);
  Device dev({.mode = ExecMode::kSequential});
  GprOptions opt;
  opt.concurrent_global_relabel = true;
  opt.k = 0.3;
  const GprResult r = g_pr(dev, g, matching::Matching(g), opt);
  EXPECT_EQ(r.matching.cardinality(),
            matching::reference_maximum_cardinality(g));
  // The initial relabel is synchronous; later relabel points start
  // overlapped attempts first.
  EXPECT_GE(r.stats.global_relabels, 1);
  EXPECT_GT(r.stats.concurrent_relabels, 0);
  // Every overlapped start either applied or was discarded as dirty.
  EXPECT_LE(r.stats.async_discarded, r.stats.concurrent_relabels);
  // Applied relabels = initial sync + applied async + dirty-fallback syncs.
  const std::int64_t applied_async =
      r.stats.concurrent_relabels - r.stats.async_discarded;
  EXPECT_LE(applied_async, r.stats.global_relabels - 1);
}

TEST(AsyncGpr, SyncModeReportsNoConcurrentRelabels) {
  const BipartiteGraph g = gen::random_uniform(100, 100, 300, 2);
  Device dev({.mode = ExecMode::kSequential});
  const GprResult r = g_pr(dev, g, matching::Matching(g));
  EXPECT_EQ(r.stats.concurrent_relabels, 0);
}

}  // namespace
}  // namespace bpm::gpu
