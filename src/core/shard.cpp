#include "core/shard.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/g_pr_internal.hpp"
#include "device/mem.hpp"
#include "util/timer.hpp"

namespace bpm::gpu {

int ShardPlan::owner(index_t v) const {
  // Last boundary <= v whose shard is non-empty past it: with duplicate
  // boundaries (empty shards) the upper_bound lands after every empty
  // range, so the returned shard really contains v.
  const auto it = std::upper_bound(col_begin.begin(), col_begin.end(), v);
  return static_cast<int>(it - col_begin.begin()) - 1;
}

std::size_t ShardPlan::shard_bytes(int k) const {
  const auto c = static_cast<std::size_t>(cols(k));
  const auto e = static_cast<std::size_t>(edges(k));
  return e * sizeof(index_t)                   // adjacency slice
         + (c + 1) * sizeof(graph::offset_t)   // col_ptr slice
         + c * 3 * sizeof(index_t);            // µ(v), ψ(v), iA slices
}

ShardPlan shard_columns(const BipartiteGraph& g, int shards) {
  if (shards < 1)
    throw std::invalid_argument("shard_columns: shards must be >= 1");
  const auto k = std::min<std::int64_t>(
      shards, std::max<index_t>(g.num_cols(), 1));
  const std::vector<graph::offset_t>& col_ptr = g.col_ptr();
  // The column CSR's pointer array IS the exclusive degree prefix sum the
  // edge-balanced cut needs — no scan to build, just binary searches.
  const std::vector<std::int64_t> bounds = device::balanced_partition(
      std::span<const std::int64_t>(col_ptr.data(), col_ptr.size()), k);
  ShardPlan plan;
  plan.col_begin.reserve(bounds.size());
  plan.edge_begin.reserve(bounds.size());
  for (const std::int64_t b : bounds) {
    plan.col_begin.push_back(static_cast<index_t>(b));
    plan.edge_begin.push_back(col_ptr[static_cast<std::size_t>(b)]);
  }
  return plan;
}

int resolve_shard_count(
    const BipartiteGraph& g, int requested,
    std::span<const std::shared_ptr<device::Engine>> engines) {
  const int max_k = std::max<index_t>(g.num_cols(), 1);
  if (requested >= 1) return std::min(requested, max_k);
  int k = std::max<int>(1, static_cast<int>(engines.size()));
  // Tightest positive engine budget bounds what one shard may hold
  // resident; double K until the worst shard fits.
  std::size_t budget = 0;
  for (const auto& e : engines) {
    if (e == nullptr) continue;
    const std::size_t b = e->descriptor().memory_budget;
    if (b > 0) budget = budget == 0 ? b : std::min(budget, b);
  }
  if (budget > 0) {
    while (k < max_k) {
      const ShardPlan plan = shard_columns(g, k);
      std::size_t worst = 0;
      for (int s = 0; s < plan.shards(); ++s)
        worst = std::max(worst, plan.shard_bytes(s));
      if (worst <= budget) break;
      k = static_cast<int>(std::min<std::int64_t>(2 * std::int64_t{1} * k,
                                                  max_k));
    }
  }
  return std::min(k, max_k);
}

namespace {

using matching::kUnmatched;

using detail::BalancedFrontier;
using detail::is_active_column;
using detail::RelabelScheduler;

/// Round-biased claim keys: `(kRoundKeyBias − round) << 32 | column`, so
/// any current-round key sorts strictly below every earlier round's and
/// the claim array never needs a reset pass.  Bounds the round count at
/// 2^31 − 2 — the loop bound trips orders of magnitude earlier.
constexpr std::int64_t kRoundKeyBias = (std::int64_t{1} << 31) - 1;
constexpr std::int64_t kClaimEmpty = std::numeric_limits<std::int64_t>::max();

/// One shard's driver state: its column range, its own `Device` stream on
/// its engine, its frontier buffers, and its cross-shard mailboxes.
struct Shard {
  int id;
  index_t col_lo, col_hi;
  device::Device dev;

  BalancedFrontier f, next;
  std::vector<index_t> displaced;   ///< slot-parallel double-push captures
  std::vector<index_t> pushed_row;  ///< slot-parallel rows pushed this round
  std::vector<index_t> survivors;   ///< compaction scratch
  std::vector<std::vector<index_t>> outbox;  ///< per-owner foreign survivors
  std::vector<index_t> inbox;  ///< displaced columns routed to this shard
  std::int64_t len = 0;

  GprStats stats;  ///< shard-local counters, folded into the run's at the end

  double round_busy_ms = 0.0;   ///< driver-thread wall this round
  double total_busy_ms = 0.0;   ///< driver-thread wall over the whole run
  double prev_modeled_ms = 0.0; ///< stream model snapshot (sim critical path)

  Shard(int k, index_t lo, index_t hi, std::shared_ptr<device::Engine> engine,
        int num_shards)
      : id(k), col_lo(lo), col_hi(hi), dev(std::move(engine)),
        outbox(static_cast<std::size_t>(num_shards)) {}
};

/// The sharded round loop.  Each round runs four phases, with all shards
/// synchronised between them (std::barrier in parallel driver mode, plain
/// program order in sequential mode) and the coordinator doing the
/// cross-shard work in the barrier completions:
///
///   A  compact+stamp: per shard, resolve the previous round's slots
///      (roll back conflict losers, pick up displaced columns), route
///      foreign survivors to their owner's outbox, rebuild the dense
///      frontier SoA and stamp iA.
///      — coordinator: drain outboxes into inboxes; terminate when every
///        frontier is empty and no transfer is in flight.
///   P  push+claim: the edge-balanced push with intra-item min-combine
///      (the same detail::balanced_push the unsharded driver runs), then
///      store_min a round-biased claim key for every row pushed.
///   C  apply: per push (v, u), the claim's minimum column wins and
///      re-asserts µ(u); losers count as conflicts and stay active — the
///      next round's A rolls them back, exactly like an intra-launch
///      conflict in the paper's scheme.
///      — coordinator: per-round critical-path accounting, round++ and the
///        loop bound, then the synchronous whole-graph global relabel
///        (shard-local relabels are unsound; see the header).
class ShardedRun {
 public:
  /// Trace timeline row of the coordinator (outbox drains, relabel
  /// barriers).  Shards use their own ids (0..K−1), so any row below
  /// `Tracer::kThreadTidBase` that cannot be a shard id works.
  static constexpr std::uint32_t kCoordinatorTid = 96;

  ShardedRun(std::span<const std::shared_ptr<device::Engine>> engines,
             const BipartiteGraph& g, const matching::Matching& init,
             const GprOptions& options, int num_shards, obs::Tracer* tracer)
      : g_(g),
        col_ptr_(g.col_ptr()),
        col_adj_(g.col_adj().data()),
        psi_inf_(g.psi_infinity()),
        // Shard-local relabels over-estimate alternating distances (the
        // AsyncGlobalRelabel hazard); every relabel is a synchronous
        // whole-graph G-GR on the coordinator stream.  Set before
        // `scheduler_` is built, so it never allocates shadow arrays.
        opts_([&options] {
          GprOptions o = options;
          o.concurrent_global_relabel = false;
          return o;
        }()),
        plan_(shard_columns(g, num_shards)),
        st_(device::uninitialized, g.num_rows(), g.num_cols()),
        i_a_(device::uninitialized, static_cast<std::size_t>(g.num_cols())),
        claim_(device::uninitialized, static_cast<std::size_t>(g.num_rows())),
        dev0_(engines[0]),
        tracer_(tracer) {
    max_rounds_ =
        std::min(detail::loop_bound(g, opts_), kRoundKeyBias - 2);

    const int k = plan_.shards();
    shards_.reserve(static_cast<std::size_t>(k));
    arenas_.reserve(engines.size());
    for (const auto& e : engines) arenas_.emplace_back(e);
    for (int s = 0; s < k; ++s) {
      const auto& engine = engines[static_cast<std::size_t>(s) %
                                   engines.size()];
      shards_.emplace_back(s, plan_.col_begin[static_cast<std::size_t>(s)],
                           plan_.col_begin[static_cast<std::size_t>(s) + 1],
                           engine, k);
    }
    if (tracer_ != nullptr) {
      dev0_.set_tracer(tracer_);
      dev0_.set_trace_tid(kCoordinatorTid);
      tracer_->name_tid(kCoordinatorTid, "coordinator");
      for (Shard& s : shards_) {
        s.dev.set_tracer(tracer_);
        s.dev.set_trace_tid(static_cast<std::uint32_t>(s.id));
        tracer_->name_tid(
            static_cast<std::uint32_t>(s.id),
            "shard " + std::to_string(s.id) + " (" +
                s.dev.engine()->descriptor().summary() + ")");
      }
    }
    init_state(init);
  }

  GprResult run() {
    Timer total;
    initial_relabel();
    if (resolve_parallel()) run_parallel();
    else run_sequential();
    if (failed_.load())
      throw std::runtime_error(error_);
    return finalize(total);
  }

 private:
  const device::EngineArena& arena_of(int shard) {
    return arenas_[static_cast<std::size_t>(shard) % arenas_.size()];
  }

  /// NUMA-aware state construction: each shard's engine arena first-touch
  /// constructs that shard's column slice (µ(v), ψ(v), iA); the shared
  /// row-side arrays and the claim array are interleaved across the
  /// arenas in K even blocks.  Then the initial matching is written and
  /// the initial frontiers (the unmatched columns of each slice) built.
  void init_state(const matching::Matching& init) {
    const auto rows = static_cast<std::size_t>(g_.num_rows());
    const int k = plan_.shards();
    for (Shard& s : shards_) {
      const auto lo = static_cast<std::size_t>(s.col_lo);
      const auto hi = static_cast<std::size_t>(s.col_hi);
      const device::EngineArena& a = arena_of(s.id);
      a.first_touch(st_.mu_col, lo, hi, kUnmatched);
      a.first_touch(st_.psi_col, lo, hi, index_t{1});
      a.first_touch(i_a_, lo, hi, index_t{-1});
      const std::size_t rb = rows * static_cast<std::size_t>(s.id) /
                             static_cast<std::size_t>(k);
      const std::size_t re = rows * (static_cast<std::size_t>(s.id) + 1) /
                             static_cast<std::size_t>(k);
      a.first_touch(st_.mu_row, rb, re, kUnmatched);
      a.first_touch(st_.psi_row, rb, re, index_t{0});
      a.first_touch(claim_, rb, re, kClaimEmpty);
    }
    for (std::size_t u = 0; u < rows; ++u)
      if (init.row_match[u] != kUnmatched)
        st_.mu_row.store(u, init.row_match[u]);
    for (std::size_t v = 0; v < init.col_match.size(); ++v)
      if (init.col_match[v] != kUnmatched)
        st_.mu_col.store(v, init.col_match[v]);
    for (Shard& s : shards_) {
      for (index_t v = s.col_lo; v < s.col_hi; ++v)
        if (st_.mu_col.load(static_cast<std::size_t>(v)) == kUnmatched)
          s.f.cols.push_back(v);
      s.len = s.f.size();
      s.displaced.assign(static_cast<std::size_t>(s.len), kUnmatched);
    }
  }

  void initial_relabel() {
    Timer t;
    const double m0 = dev0_.modeled_ms();
    (void)scheduler_.on_loop(dev0_, g_, st_, 0, stats_, gr_timer_);
    critical_ms_ += dev0_.backend() == device::Backend::kSim
                        ? dev0_.modeled_ms() - m0
                        : t.elapsed_ms();
  }

  [[nodiscard]] bool resolve_parallel() const {
    switch (opts_.shard_drivers) {
      case ShardDrivers::kSequential: return false;
      case ShardDrivers::kParallel: return true;
      case ShardDrivers::kAuto: break;
    }
    // One engine with one worker gains nothing from K driver threads: the
    // instruction stream is the sequential one plus barrier overhead.
    if (arenas_.size() > 1) return true;
    const auto& engine = shards_.front().dev.engine();
    return engine->num_workers() > 1;
  }

  // --- per-shard phases (run on the shard's driver) ----------------------

  /// Phase A: resolve the previous round's slots, route survivors, build
  /// the frontier SoA, stamp iA.  Serial per shard — the parallelism is
  /// across shards; the equivalent device cost is charged to the model.
  void phase_compact(Shard& s) {
    auto sp = obs::span(tracer_, "compact", "shard",
                        static_cast<std::uint32_t>(s.id));
    if (sp) {
      sp.arg("round", round_);
      sp.arg("slots", s.len);
    }
    Timer t;
    const auto round_stamp = static_cast<index_t>(round_);
    const std::int64_t slots = s.len;
    s.survivors.clear();
    const auto route = [&](index_t v) {
      if (v == kUnmatched) return;
      if (v >= s.col_lo && v < s.col_hi) {
        s.survivors.push_back(v);
        return;
      }
      s.outbox[static_cast<std::size_t>(plan_.owner(v))].push_back(v);
      ++s.stats.shard_transfers;
    };
    for (std::int64_t i = 0; i < slots; ++i) {
      // The unsharded resolve rule: a still-active pusher rolls back,
      // otherwise the slot yields its displaced column (or dies).
      const index_t v_prev = s.f.cols[static_cast<std::size_t>(i)];
      if (v_prev != -1 && is_active_column(st_, v_prev)) route(v_prev);
      else route(s.displaced[static_cast<std::size_t>(i)]);
    }
    // Inbox entries are displaced columns another shard routed here; a
    // displaced column is active by construction and owned by this shard
    // by routing, so they join the frontier directly.
    for (const index_t v : s.inbox) s.survivors.push_back(v);
    const auto in = static_cast<std::int64_t>(s.inbox.size());
    s.inbox.clear();

    const auto total = static_cast<std::int64_t>(s.survivors.size());
    s.next.resize_for(total);
    for (std::int64_t i = 0; i < total; ++i) {
      const auto iz = static_cast<std::size_t>(i);
      const index_t v = s.survivors[iz];
      const auto vz = static_cast<std::size_t>(v);
      s.next.cols[iz] = v;
      s.next.psi[iz] = st_.psi_col.load(vz);
      s.next.adj_begin[iz] = col_ptr_[vz];
      s.next.degree[iz] =
          static_cast<std::int64_t>(col_ptr_[vz + 1] - col_ptr_[vz]);
      i_a_.store(vz, round_stamp);
    }
    s.f.swap(s.next);
    s.displaced.assign(static_cast<std::size_t>(total), kUnmatched);
    s.pushed_row.assign(static_cast<std::size_t>(total), kUnmatched);
    s.len = total;
    ++s.stats.frontier_builds;
    // Two resolve gathers per slot, the inbox scan, and the survivors'
    // scattered iA stamps plus gathered ψ/CSR metadata.
    s.dev.charge_work(2 * slots + in + 3 * total);
    s.round_busy_ms = t.elapsed_ms();
  }

  /// Phase P: the edge-balanced push with intra-item min-combine, then a
  /// claim for every row pushed.  Claims only involve this shard's own
  /// push results, so no barrier is needed between push and claim.
  void phase_push_claim(Shard& s) {
    auto sp = obs::span(tracer_, "push", "shard",
                        static_cast<std::uint32_t>(s.id));
    if (sp) {
      sp.arg("round", round_);
      sp.arg("active", s.len);
    }
    Timer t;
    if (s.len > 0) {
      detail::balanced_push(s.dev, col_adj_, st_, s.f, i_a_,
                            static_cast<index_t>(round_), psi_inf_,
                            opts_.split_grain, s.displaced, &s.pushed_row,
                            s.stats);
      const std::int64_t hi = (kRoundKeyBias - round_) << 32;
      std::int64_t claims = 0;
      for (std::int64_t i = 0; i < s.len; ++i) {
        const index_t u = s.pushed_row[static_cast<std::size_t>(i)];
        if (u == kUnmatched) continue;
        const index_t v = s.f.cols[static_cast<std::size_t>(i)];
        claim_.store_min(
            static_cast<std::size_t>(u),
            hi | static_cast<std::int64_t>(static_cast<std::uint32_t>(v)));
        ++claims;
      }
      s.dev.charge_work(claims);
    }
    s.round_busy_ms += t.elapsed_ms();
  }

  /// Phase C: min-combine resolution.  For every push (v, u) this round,
  /// the smallest claiming column wins and re-asserts µ(u) (it may have
  /// been overwritten by a losing shard after the winner's store); losers
  /// stay active in their slots and are rolled back by the next round's
  /// compaction — the cross-shard analogue of an iA conflict.
  void phase_apply(Shard& s) {
    auto sp = obs::span(tracer_, "apply", "shard",
                        static_cast<std::uint32_t>(s.id));
    if (sp) sp.arg("round", round_);
    Timer t;
    const std::int64_t round_hi = kRoundKeyBias - round_;
    std::int64_t work = 0;
    for (std::int64_t i = 0; i < s.len; ++i) {
      const index_t u = s.pushed_row[static_cast<std::size_t>(i)];
      if (u == kUnmatched) continue;
      const index_t v = s.f.cols[static_cast<std::size_t>(i)];
      const std::int64_t c = claim_.load(static_cast<std::size_t>(u));
      ++work;  // claim gather
      const auto winner = static_cast<index_t>(
          static_cast<std::uint32_t>(c & 0xffffffff));
      if ((c >> 32) != round_hi || winner != v) {
        ++s.stats.shard_conflicts;
        continue;
      }
      if (st_.mu_row.load(static_cast<std::size_t>(u)) != v) {
        st_.mu_row.store(static_cast<std::size_t>(u), v);  // re-assert
        ++work;
      }
    }
    s.dev.charge_work(work);
    s.round_busy_ms += t.elapsed_ms();
  }

  // --- coordinator steps (barrier completions; all drivers blocked) ------

  void after_compact() {
    if (failed_.load()) {
      done_ = true;
      return;
    }
    auto sp = obs::span(tracer_, "outbox-exchange", "shard", kCoordinatorTid);
    if (sp) sp.arg("round", round_);
    std::int64_t routed = 0;
    bool any = false;
    std::int64_t total_len = 0;
    for (Shard& s : shards_) {
      for (std::size_t dst = 0; dst < s.outbox.size(); ++dst) {
        std::vector<index_t>& ob = s.outbox[dst];
        if (ob.empty()) continue;
        routed += static_cast<std::int64_t>(ob.size());
        shards_[dst].inbox.insert(shards_[dst].inbox.end(), ob.begin(),
                                  ob.end());
        ob.clear();
      }
    }
    for (const Shard& s : shards_) {
      total_len += s.len;
      if (s.len > 0 || !s.inbox.empty()) any = true;
    }
    stats_.active_peak =
        std::max<index_t>(stats_.active_peak,
                          static_cast<index_t>(total_len));
    if (sp) {
      sp.arg("transfers", routed);
      sp.arg("active", total_len);
    }
    done_ = !any;
  }

  void after_apply() {
    if (failed_.load()) {
      done_ = true;
      return;
    }
    // Per-round critical path: the slowest shard stream (its modeled delta
    // on sim engines, its measured driver wall on host engines — the
    // shards time-share this box's cores, so per-shard busy time, not
    // elapsed wall, is what a one-engine-per-shard fleet would pay) plus
    // the coordinator's synchronous relabel below.
    double round_max = 0.0;
    for (Shard& s : shards_) {
      const double cost = s.dev.backend() == device::Backend::kSim
                              ? s.dev.modeled_ms() - s.prev_modeled_ms
                              : s.round_busy_ms;
      s.prev_modeled_ms = s.dev.modeled_ms();
      s.total_busy_ms += s.round_busy_ms;
      s.round_busy_ms = 0.0;
      round_max = std::max(round_max, cost);
    }
    critical_ms_ += round_max;

    ++round_;
    ++stats_.shard_rounds;
    if (round_ > max_rounds_) {
      fail(
          "g_pr: loop bound exceeded — termination regression (a correct "
          "run finishes far inside the bound)");
      return;
    }
    // Every driver is blocked at the barrier while this runs, so the span
    // IS the fleet-wide relabel barrier the trace should make visible.
    auto sp =
        obs::span(tracer_, "global-relabel-barrier", "shard", kCoordinatorTid);
    if (sp) sp.arg("round", round_);
    Timer t;
    const double m0 = dev0_.modeled_ms();
    try {
      (void)scheduler_.on_loop(dev0_, g_, st_, round_, stats_, gr_timer_);
    } catch (const std::exception& e) {
      fail(std::string("g_pr_sharded: relabel failed: ") + e.what());
      return;
    }
    critical_ms_ += dev0_.backend() == device::Backend::kSim
                        ? dev0_.modeled_ms() - m0
                        : t.elapsed_ms();
  }

  void fail(std::string message) {
    {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      if (error_.empty()) error_ = std::move(message);
    }
    failed_.store(true);
    done_ = true;
  }

  // --- drivers -----------------------------------------------------------

  void run_sequential() {
    while (true) {
      for (Shard& s : shards_) phase_compact(s);
      after_compact();
      if (done_) break;
      for (Shard& s : shards_) phase_push_claim(s);
      for (Shard& s : shards_) phase_apply(s);
      after_apply();
      if (done_) break;
    }
  }

  void run_parallel() {
    const int k = plan_.shards();
    int stage = 0;
    // The completion function must not exit via exception (std::barrier's
    // contract) — coordinator failures set the flag instead, and every
    // driver observes `done_` right after the barrier (the completion
    // happens-before each arrive_and_wait return).
    const auto completion = [this, &stage]() noexcept {
      if (stage == 0) after_compact();
      else if (stage == 2) after_apply();
      stage = (stage + 1) % 3;
    };
    std::barrier sync(k, completion);
    const auto driver = [&](int id) {
      Shard& s = shards_[static_cast<std::size_t>(id)];
      while (true) {
        guarded([&] { phase_compact(s); });
        sync.arrive_and_wait();
        if (done_) break;
        guarded([&] { phase_push_claim(s); });
        sync.arrive_and_wait();
        guarded([&] { phase_apply(s); });
        sync.arrive_and_wait();
        if (done_) break;
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(k) - 1);
    for (int id = 1; id < k; ++id) threads.emplace_back(driver, id);
    driver(0);
    for (std::thread& t : threads) t.join();
  }

  /// A phase that throws (allocation failure, a regression) must still
  /// reach its barrier or every other driver deadlocks.
  template <typename Fn>
  void guarded(Fn&& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      fail(std::string("g_pr_sharded: shard driver failed: ") + e.what());
    } catch (...) {
      fail("g_pr_sharded: shard driver failed");
    }
  }

  GprResult finalize(Timer& total) {
    // The terminating round's compact phase ran after the last
    // after_apply snapshot — fold its trailing cost in.
    double tail = 0.0;
    for (Shard& s : shards_) {
      const double cost = s.dev.backend() == device::Backend::kSim
                              ? s.dev.modeled_ms() - s.prev_modeled_ms
                              : s.round_busy_ms;
      s.total_busy_ms += s.round_busy_ms;
      tail = std::max(tail, cost);
    }
    critical_ms_ += tail;

    Timer fix;
    detail::fix_matching(dev0_, g_, st_);

    GprResult result;
    result.matching.row_match = st_.mu_row.to_host();
    result.matching.col_match = st_.mu_col.to_host();
    result.stats = stats_;
    GprStats& out = result.stats;
    out.fix_ms = fix.elapsed_ms();
    for (const Shard& s : shards_) {
      out.split_items += s.stats.split_items;
      out.split_fragments += s.stats.split_fragments;
      out.shard_conflicts += s.stats.shard_conflicts;
      out.shard_transfers += s.stats.shard_transfers;
      out.frontier_builds += s.stats.frontier_builds;
      out.device_launches += static_cast<std::int64_t>(s.dev.launches());
      out.push_ms += s.total_busy_ms;
    }
    out.device_launches += static_cast<std::int64_t>(dev0_.launches());
    out.shards = plan_.shards();
    out.loops = round_;
    out.shard_critical_ms = critical_ms_;
    out.modeled_ms = dev0_.backend() == device::Backend::kSim
                         ? critical_ms_
                         : 0.0;
    out.total_ms = total.elapsed_ms();
    return result;
  }

  const BipartiteGraph& g_;
  const std::vector<graph::offset_t>& col_ptr_;
  const index_t* col_adj_;
  const index_t psi_inf_;
  GprOptions opts_;  ///< local copy: concurrent relabel forced off
  const ShardPlan plan_;

  DeviceState st_;
  device::relaxed_vector<index_t> i_a_;
  device::relaxed_vector<std::int64_t> claim_;
  std::vector<device::EngineArena> arenas_;
  std::vector<Shard> shards_;

  device::Device dev0_;  ///< coordinator stream (relabels, FIXMATCHING)
  obs::Tracer* tracer_;  ///< nullable; shard rows tid = shard id
  RelabelScheduler scheduler_{g_, opts_};
  Timer gr_timer_;
  GprStats stats_;

  std::int64_t round_ = 0;
  std::int64_t max_rounds_ = 0;
  double critical_ms_ = 0.0;
  /// Written only by the coordinator while every driver is blocked at the
  /// barrier; the completion happens-before each driver's return from
  /// arrive_and_wait, which publishes it.
  bool done_ = false;
  std::atomic<bool> failed_{false};
  std::mutex error_mutex_;
  std::string error_;
};

}  // namespace

GprResult g_pr_sharded(
    std::span<const std::shared_ptr<device::Engine>> engines,
    const BipartiteGraph& g, const matching::Matching& init,
    const GprOptions& options, obs::Tracer* tracer) {
  if (engines.empty())
    throw std::invalid_argument("g_pr_sharded: at least one engine required");
  const int shards = resolve_shard_count(g, options.shards, engines);
  if (shards <= 1) {
    device::Device dev(engines[0]);
    dev.set_tracer(tracer);
    GprResult r = g_pr(dev, g, init, options);
    r.stats.shards = 1;
    return r;
  }
  if (!init.is_valid(g))
    throw std::invalid_argument("g_pr_sharded: invalid initial matching: " +
                                init.first_violation(g));
  ShardedRun run(engines, g, init, options, shards, tracer);
  return run.run();
}

}  // namespace bpm::gpu
