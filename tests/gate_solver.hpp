#pragma once

// A registered test solver, `test-gate`, whose every solve blocks until
// the test opens a process-wide gate.  A test holds a service worker
// busy for exactly as long as it needs — until later submissions are
// queued, or a deadline has passed — however loaded the host is, where
// a solver that sleeps for a fixed window can be overrun.

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "core/solver.hpp"

namespace bpm {

/// Closes the gate for its lifetime; `open()` or the destructor opens it,
/// so a failed assertion never leaves a solve blocked.  Declare it after
/// the service, so it opens before the service joins its workers.  One
/// gate exists per process: construct one at a time.
class SolveGate {
 public:
  SolveGate() {
    [[maybe_unused]] static const bool registered = [] {
      SolverRegistry::instance().add(
          "test-gate", [] { return std::make_unique<GateSolver>(); });
      return true;
    }();
    const std::lock_guard lock(state().mutex);
    state().open = false;
  }
  ~SolveGate() { open(); }
  SolveGate(const SolveGate&) = delete;
  SolveGate& operator=(const SolveGate&) = delete;

  void open() {
    const std::lock_guard lock(state().mutex);
    state().open = true;
    state().cv.notify_all();
  }

  /// Blocks until `solves` solves are held at the gate.
  void await_blocked(std::size_t solves = 1) {
    std::unique_lock lock(state().mutex);
    state().cv.wait(lock, [&] { return state().blocked >= solves; });
  }

 private:
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool open = true;
    std::size_t blocked = 0;
  };
  static State& state() {
    static State s;
    return s;
  }

  class GateSolver final : public Solver {
   public:
    [[nodiscard]] std::string name() const override { return "test-gate"; }
    [[nodiscard]] SolverCaps caps() const override {
      return {.deterministic = true, .exact = false};
    }
    [[nodiscard]] SolveResult run(
        const SolveContext&, const graph::BipartiteGraph&,
        const matching::Matching& init) const override {
      {
        std::unique_lock lock(state().mutex);
        ++state().blocked;
        state().cv.notify_all();
        state().cv.wait(lock, [] { return state().open; });
        --state().blocked;
      }
      SolveResult out{init, {}};
      out.stats.cardinality = init.cardinality();
      return out;
    }
  };
};

}  // namespace bpm
