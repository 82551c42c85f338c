#include "serve/engine_group.hpp"

#include <algorithm>
#include <thread>

namespace bpm::serve {

namespace {

std::shared_ptr<device::Engine> make_engine(device::EngineDescriptor d) {
  if (d.backend == device::Backend::kHost)
    return std::make_shared<device::HostParallelEngine>(d);
  return std::make_shared<device::Engine>(d);
}

}  // namespace

EngineGroup::EngineGroup(const EngineGroupOptions& options) {
  if (!options.descriptors.empty()) {
    engines_.reserve(options.descriptors.size());
    for (const device::EngineDescriptor& d : options.descriptors)
      engines_.push_back(make_engine(d));
  } else {
    const unsigned n = std::max(options.engines, 1u);
    // 0 means "every hardware thread" for one engine; several engines
    // share the hardware threads out instead of each taking them all.
    unsigned threads = options.device_threads;
    if (threads == 0 && n > 1)
      threads = std::max(1u, std::thread::hardware_concurrency() / n);
    engines_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
      engines_.push_back(make_engine({.backend = options.backend,
                                      .mode = options.device_mode,
                                      .threads = threads}));
  }
  const auto n = engines_.size();
  retired_.assign(n, false);
  dispatches_.assign(n, 0);
  work_dispatched_.assign(n, 0.0);
}

unsigned EngineGroup::least_loaded_locked() const {
  // Minimise (load, lifetime dispatches, index); consider retired engines
  // only when nothing else is left.
  unsigned best = 0;
  bool found = false;
  double best_load = 0.0;
  for (int pass = 0; pass < 2 && !found; ++pass) {
    for (unsigned i = 0; i < engines_.size(); ++i) {
      if (pass == 0 && retired_[i]) continue;
      const double load = engines_[i]->load();
      if (!found || load < best_load ||
          (load == best_load && dispatches_[i] < dispatches_[best])) {
        best = i;
        best_load = load;
        found = true;
      }
    }
  }
  return best;
}

EngineGroup::Lease EngineGroup::acquire(double estimated_work,
                                        int preferred_engine) {
  const double work = std::max(estimated_work, 1.0);
  const std::scoped_lock lock(mutex_);
  // Shard-local placement first: a sharded dispatch's coordinator belongs
  // with the engine that hosts shard 0's arena.
  const bool preferred_live =
      preferred_engine >= 0 &&
      static_cast<std::size_t>(preferred_engine) < engines_.size() &&
      !retired_[static_cast<std::size_t>(preferred_engine)];
  const unsigned idx = preferred_live ? static_cast<unsigned>(preferred_engine)
                                      : least_loaded_locked();
  ++dispatches_[idx];
  work_dispatched_[idx] += work;
  // Charge the gauge while still holding the group mutex so a concurrent
  // acquire sees this dispatch's load (lock order is always group →
  // engine; nothing takes them the other way around).
  engines_[idx]->add_load(work);
  return Lease(engines_[idx], idx, work);
}

std::vector<std::shared_ptr<device::Engine>> EngineGroup::live_engines()
    const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::shared_ptr<device::Engine>> out;
  out.reserve(engines_.size());
  for (std::size_t i = 0; i < engines_.size(); ++i)
    if (!retired_[i]) out.push_back(engines_[i]);
  if (out.empty()) out = engines_;
  return out;
}

void EngineGroup::retire(unsigned index) {
  const std::scoped_lock lock(mutex_);
  if (index >= engines_.size() || retired_[index]) return;
  retired_[index] = true;
}

bool EngineGroup::retired(unsigned index) const {
  const std::scoped_lock lock(mutex_);
  return index < retired_.size() && retired_[index];
}

std::vector<EngineGroupEngineStats> EngineGroup::stats() const {
  const std::scoped_lock lock(mutex_);
  std::vector<EngineGroupEngineStats> out(engines_.size());
  for (unsigned i = 0; i < engines_.size(); ++i) {
    out[i].index = i;
    out[i].retired = retired_[i];
    out[i].dispatches = dispatches_[i];
    out[i].work_dispatched = work_dispatched_[i];
    out[i].load = engines_[i]->load();
    out[i].device = engines_[i]->stats();
    out[i].descriptor = engines_[i]->descriptor();
  }
  return out;
}

}  // namespace bpm::serve
