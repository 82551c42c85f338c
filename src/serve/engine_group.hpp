#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "device/device.hpp"

namespace bpm::serve {

struct EngineGroupOptions {
  unsigned engines = 1;  ///< pool size (rounded up to at least 1)
  /// Backend of every engine in a uniform pool (ignored when
  /// `descriptors` is non-empty).
  device::Backend backend = device::default_backend();
  device::ExecMode device_mode = device::ExecMode::kConcurrent;
  /// Per-engine pool workers.  0 shares the hardware threads out over the
  /// pool, max(1, hardware / engines) each, so a pool never runs more
  /// workers than the machine has threads (one engine gets them all).
  unsigned device_threads = 0;
  /// Explicit per-engine descriptors — a *mixed* pool (sim next to host,
  /// differing worker counts).  Non-empty overrides `engines`/`backend`/
  /// `device_mode`/`device_threads`; one engine is built per entry.
  std::vector<device::EngineDescriptor> descriptors;
};

/// One engine's dispatch counters, next to its device odometer.
struct EngineGroupEngineStats {
  unsigned index = 0;
  bool retired = false;
  std::uint64_t dispatches = 0;     ///< leases handed out, lifetime
  double work_dispatched = 0.0;     ///< cumulative estimated work routed
  double load = 0.0;                ///< snapshot: in-flight estimated work
  device::EngineStats device;       ///< the engine's lifetime aggregates
  device::EngineDescriptor descriptor;  ///< what the engine is (backend,
                                        ///< lanes/workers)
};

/// A pool of N `device::Engine`s behind one dispatch point: `acquire`
/// routes a unit of work (a modeled-work estimate) to the least-loaded
/// live engine — lowest in-flight work (`device::Engine::load`), ties to
/// the fewest lifetime dispatches, then the lowest index, so a cold pool
/// fans out instead of piling onto engine 0 — and returns an RAII `Lease`
/// that charges the engine's load gauge for its lifetime.  This is the
/// seam that turns "the service owns one engine" into "the service
/// schedules over a fleet" — a CUDA backend slots in as another engine
/// here without the service noticing.
///
/// Engines can be `retire`d (failure, maintenance): a retired engine gets
/// no new dispatches, but outstanding leases stay valid — a lease holds
/// the engine `shared_ptr`, so streams on it keep running even if the
/// whole group is destroyed first.
///
/// Thread safety: all members are safe to call concurrently.
class EngineGroup {
 public:
  explicit EngineGroup(const EngineGroupOptions& options = {});

  EngineGroup(const EngineGroup&) = delete;
  EngineGroup& operator=(const EngineGroup&) = delete;

  /// The engine a dispatch was routed to, with its load charge held until
  /// release/destruction.  Movable, not copyable; default-constructed is
  /// empty (`operator bool` false).
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : engine_(std::move(other.engine_)),
          index_(other.index_),
          work_(other.work_) {
      other.engine_.reset();
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        engine_ = std::move(other.engine_);
        index_ = other.index_;
        work_ = other.work_;
        other.engine_.reset();
      }
      return *this;
    }
    ~Lease() { release(); }

    /// Removes the load charge; the lease is empty afterwards.
    void release() {
      if (engine_) engine_->remove_load(work_);
      engine_.reset();
    }

    [[nodiscard]] const std::shared_ptr<device::Engine>& engine() const {
      return engine_;
    }
    [[nodiscard]] unsigned index() const { return index_; }
    [[nodiscard]] double work() const { return work_; }
    [[nodiscard]] explicit operator bool() const { return engine_ != nullptr; }

   private:
    friend class EngineGroup;
    Lease(std::shared_ptr<device::Engine> engine, unsigned index, double work)
        : engine_(std::move(engine)), index_(index), work_(work) {}

    std::shared_ptr<device::Engine> engine_;
    unsigned index_ = 0;
    double work_ = 0.0;
  };

  /// Routes one dispatch: picks the least-loaded live engine — or
  /// `preferred_engine` when it names a live one (a sharded dispatch runs
  /// shard k on engine `k % fleet`, so its coordinator stream and load
  /// charge belong with shard 0's engine) — charges `estimated_work`
  /// (clamped to at least 1) to its load gauge, and returns the lease.
  /// Never fails: with every engine retired, the pick falls back over the
  /// retired pool — a draining service must still make progress.
  [[nodiscard]] Lease acquire(double estimated_work,
                              int preferred_engine = -1);

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(engines_.size());
  }
  /// The live (non-retired) engines in index order — the fleet a sharded
  /// solve spreads over (`SolveContext::engines`).  Falls back to the full
  /// pool when everything is retired, mirroring `acquire`'s never-fail
  /// rule.
  [[nodiscard]] std::vector<std::shared_ptr<device::Engine>> live_engines()
      const;
  [[nodiscard]] const std::shared_ptr<device::Engine>& engine(
      unsigned index) const {
    return engines_.at(index);
  }

  /// Stops routing new dispatches to `index`; outstanding leases are
  /// unaffected.  Idempotent.
  void retire(unsigned index);
  [[nodiscard]] bool retired(unsigned index) const;

  /// Per-engine dispatch counters + device odometers, in index order.
  [[nodiscard]] std::vector<EngineGroupEngineStats> stats() const;

 private:
  [[nodiscard]] unsigned least_loaded_locked() const;

  std::vector<std::shared_ptr<device::Engine>> engines_;

  mutable std::mutex mutex_;
  std::vector<bool> retired_;
  std::vector<std::uint64_t> dispatches_;
  std::vector<double> work_dispatched_;
};

}  // namespace bpm::serve
