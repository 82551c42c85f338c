// serve::EngineGroup (src/serve/engine_group.hpp): least-loaded routing
// (idle pick, the lifetime-dispatch and index tie-breaks), the
// preferred-engine override a sharded dispatch uses, the engine load
// gauge behind them (device::Engine::add_load/remove_load/load), and the
// failure/shutdown-while-busy edge cases (retired engines stop receiving,
// outstanding leases keep their engine alive), and the worker count a
// default-threaded pool gives each engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "serve/engine_group.hpp"

namespace bpm::serve {
namespace {

TEST(EngineGroup, EngineLoadGaugeTracksLeases) {
  EngineGroup group({.engines = 1});
  const auto& engine = group.engine(0);
  EXPECT_DOUBLE_EQ(engine->load(), 0.0);
  {
    const EngineGroup::Lease a = group.acquire(8.0);
    const EngineGroup::Lease b = group.acquire(4.0);
    EXPECT_DOUBLE_EQ(engine->load(), 12.0);
    EXPECT_EQ(a.index(), 0u);
  }
  EXPECT_DOUBLE_EQ(engine->load(), 0.0);  // released with the leases

  // A zero (or negative) work estimate still charges a unit, so holding
  // a lease is never invisible to the least-loaded pick.
  const EngineGroup::Lease c = group.acquire(0.0);
  EXPECT_DOUBLE_EQ(engine->load(), 1.0);
}

TEST(EngineGroup, IdleTiesGoToFewestDispatchesThenLowestIndex) {
  EngineGroup group({.engines = 4});
  // 12 dispatches released at once, with wildly different work
  // estimates: every pick sees an idle pool, so the (dispatches, index)
  // tie-break deals the engines in index order, 3 each.
  for (int i = 0; i < 12; ++i)
    EXPECT_EQ(group.acquire(static_cast<double>(1 + i * 100)).index(),
              static_cast<unsigned>(i % 4));
  for (const EngineGroupEngineStats& s : group.stats())
    EXPECT_EQ(s.dispatches, 3u) << "engine " << s.index;
}

TEST(EngineGroup, LeastLoadedPicksTheIdleEngine) {
  EngineGroup group({.engines = 3});
  EngineGroup::Lease a = group.acquire(10.0);
  EngineGroup::Lease b = group.acquire(10.0);
  EngineGroup::Lease c = group.acquire(10.0);
  // A cold pool fans out: three held leases land on three engines.
  const std::set<unsigned> spread = {a.index(), b.index(), c.index()};
  EXPECT_EQ(spread.size(), 3u);

  // Release one: the next dispatch must land on the now-idle engine.
  const unsigned freed = b.index();
  b.release();
  EXPECT_FALSE(b);
  const EngineGroup::Lease d = group.acquire(10.0);
  EXPECT_EQ(d.index(), freed);
}

TEST(EngineGroup, PreferredEngineOverridesTheLeastLoadedPick) {
  EngineGroup group({.engines = 3});
  // Engine 0 is the busiest in the pool — but a sharded dispatch pins its
  // coordinator on shard 0's engine anyway.
  const EngineGroup::Lease busy = group.acquire(100.0);
  ASSERT_EQ(busy.index(), 0u);
  const EngineGroup::Lease pinned = group.acquire(5.0, 0);
  EXPECT_EQ(pinned.index(), 0u);
  EXPECT_DOUBLE_EQ(group.engine(0)->load(), 105.0);
  // Retired or out-of-range preferences fall back to the least-loaded
  // pick among the live engines.
  group.retire(0);
  const EngineGroup::Lease fallback = group.acquire(5.0, 0);
  EXPECT_EQ(fallback.index(), 1u);
  const EngineGroup::Lease bogus = group.acquire(5.0, 99);
  EXPECT_EQ(bogus.index(), 2u);
}

TEST(EngineGroup, RetiredEngineFallsBackToLiveEngines) {
  EngineGroup group({.engines = 3});
  group.retire(1);
  EXPECT_TRUE(group.retired(1));
  group.retire(1);  // idempotent
  EXPECT_FALSE(group.retired(0));
  // The retired engine is idle and has the fewest dispatches — the best
  // least-loaded candidate — yet never receives one.
  for (int i = 0; i < 6; ++i) EXPECT_NE(group.acquire(1.0).index(), 1u);
  const auto stats = group.stats();
  EXPECT_TRUE(stats[1].retired);
  EXPECT_EQ(stats[0].dispatches, 3u);
  EXPECT_EQ(stats[1].dispatches, 0u);
  EXPECT_EQ(stats[2].dispatches, 3u);

  // Every engine retired: acquire still succeeds (a draining service
  // must make progress), falling back over the retired pool.
  group.retire(0);
  group.retire(2);
  const EngineGroup::Lease last = group.acquire(1.0);
  EXPECT_TRUE(last);
}

TEST(EngineGroup, LiveEnginesSkipRetiredUntilNoneRemain) {
  EngineGroup group({.engines = 3});
  EXPECT_EQ(group.live_engines().size(), 3u);
  group.retire(1);
  const auto live = group.live_engines();
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0], group.engine(0));
  EXPECT_EQ(live[1], group.engine(2));
  group.retire(0);
  group.retire(2);
  // All retired: the fleet falls back to the full pool (never-fail rule).
  EXPECT_EQ(group.live_engines().size(), 3u);
}

TEST(EngineGroup, DefaultThreadsShareTheHardwareOverThePool) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // One engine keeps "every hardware thread".
  EXPECT_EQ(EngineGroup({.engines = 1}).engine(0)->num_workers(), hw);
  // Several split them instead of each taking all of them.
  EngineGroup shared({.engines = 3});
  for (unsigned e = 0; e < shared.size(); ++e)
    EXPECT_EQ(shared.engine(e)->num_workers(), std::max(1u, hw / 3))
        << "engine " << e;
  // An explicit count is per engine, as given.
  EngineGroup pinned({.engines = 3, .device_threads = 2});
  for (unsigned e = 0; e < pinned.size(); ++e)
    EXPECT_EQ(pinned.engine(e)->num_workers(), 2u) << "engine " << e;
  // Explicit descriptors are built as described.
  EngineGroup mixed({.descriptors = {{.threads = 1}, {.threads = 2}}});
  EXPECT_EQ(mixed.engine(0)->num_workers(), 1u);
  EXPECT_EQ(mixed.engine(1)->num_workers(), 2u);
}

TEST(EngineGroup, ShutdownWhileBusyKeepsLeasedEnginesAlive) {
  EngineGroup::Lease survivor;
  {
    EngineGroup group({.engines = 2});
    survivor = group.acquire(3.0);
    group.retire(survivor.index());  // "failure" with the lease still out
  }  // the whole group is gone; the lease holds the engine shared_ptr
  ASSERT_TRUE(survivor);
  device::Device stream(survivor.engine());
  std::atomic<int> hits{0};
  stream.launch(8, [&](std::int64_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 8);
  EXPECT_DOUBLE_EQ(survivor.engine()->load(), 3.0);
  survivor.release();
  EXPECT_FALSE(survivor);
}

TEST(EngineGroup, ConcurrentAcquiresBalanceAndNeverLeakLoad) {
  // The TSan-facing case: many threads acquire/release against one group;
  // afterwards all load is released and the dispatch counters add up.
  EngineGroup group({.engines = 3});
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&group, t] {
      for (int i = 0; i < 25; ++i) {
        // Every fifth dispatch pins engine 0, like a sharded one.
        const EngineGroup::Lease lease =
            group.acquire(2.0, (t * 25 + i) % 5 == 0 ? 0 : -1);
        device::Device stream(lease.engine());
        stream.launch(4, [](std::int64_t) {});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::uint64_t dispatches = 0;
  for (const EngineGroupEngineStats& s : group.stats()) {
    dispatches += s.dispatches;
    EXPECT_DOUBLE_EQ(s.load, 0.0);
    EXPECT_EQ(s.device.streams_opened, s.device.streams_retired);
  }
  EXPECT_EQ(dispatches, 100u);
}

}  // namespace
}  // namespace bpm::serve
