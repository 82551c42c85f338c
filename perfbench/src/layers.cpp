// Shared pieces of every workload: parallel set-up, the per-layer probe of
// the library modules, and the fixed per-layer metric list.
#include <algorithm>
#include <atomic>
#include <thread>

#include "core/g_pr.hpp"
#include "core/shard.hpp"
#include "core/solver.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/seq_pr.hpp"
#include "matching/verify.hpp"
#include "policy/auto_solver.hpp"
#include "policy/features.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
  const auto count =
      static_cast<unsigned>(std::min<std::size_t>(std::max(1u, threads), n));
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < count; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

void warm_cpus(unsigned threads, double seconds) {
  const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
  parallel_for(threads, threads, [&](std::size_t) {
    volatile std::uint64_t x = 1;
    while (Clock::now() < until)
      for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ull + 1;
  });
}

SetupTimes median_setup(int runs, const std::function<void()>& tear_down,
                        const std::function<void()>& set_up) {
  std::vector<double> cpu, wall;
  for (int r = 0; r < runs; ++r) {
    tear_down();
    const double c0 = process_cpu_ms();
    const auto t0 = Clock::now();
    set_up();
    wall.push_back(ms_since(t0) / 1000.0);
    cpu.push_back((process_cpu_ms() - c0) / 1000.0);
  }
  return {median(cpu), median(wall)};
}

namespace {

/// The candidate specs `auto` can resolve to (its fallback pool, which
/// also covers every spec of the embedded cost model).
const std::vector<std::string>& pick_names() {
  return bpm::policy::PolicyEngine::fallback_pool();
}

std::string pick_metric(const std::string& spec) {
  return "policy.picks." + spec;
}

/// A direct library call has no ok flag of its own; it counts as
/// reported ok when the program's own verification would accept it — the
/// cardinality equals the admitted instance's reference.
void judge_direct(Verdict& verdict, const bpm::PipelineInstance& inst,
                  const bpm::matching::Matching& m, std::int64_t reference,
                  const std::string& what) {
  const bool program_ok = m.cardinality() == inst.maximum_cardinality;
  verdict.judge(program_ok, check_matching(inst.graph, m, reference),
                what + " on " + inst.name);
}

}  // namespace

std::vector<std::shared_ptr<bpm::device::Engine>> make_fleet(unsigned nproc) {
  const unsigned engines = std::min(4u, nproc);
  std::vector<std::shared_ptr<bpm::device::Engine>> fleet;
  for (unsigned e = 0; e < engines; ++e)
    fleet.push_back(
        std::make_shared<bpm::device::HostParallelEngine>(nproc / engines));
  return fleet;
}

void probe_library_layers(
    const std::vector<const bpm::PipelineInstance*>& instances,
    const std::vector<std::int64_t>& references, unsigned nproc,
    SpanLog& spans, Verdict& verdict, Metrics& metrics) {
  namespace gpu = bpm::gpu;
  namespace mt = bpm::matching;
  std::shared_ptr<bpm::device::Engine> engine =
      std::make_shared<bpm::device::HostParallelEngine>(kEngineThreads);
  const std::vector<std::shared_ptr<bpm::device::Engine>> fleet =
      make_fleet(nproc);
  std::unique_ptr<bpm::Solver> auto_solver =
      bpm::SolverSpec::parse("auto").instantiate();

  double gr_ms = 0, push_ms = 0, fix_ms = 0, gpr_total_ms = 0;
  double launches = 0, relabels = 0, levels = 0, loops = 0;
  double rounds = 0, conflicts = 0, transfers = 0, critical_ms = 0;
  double init_ms = 0, reference_ms = 0, verify_ms = 0, native_ms = 0;
  double pushes = 0, scanned = 0, features_ms = 0;
  std::vector<double> resolve_us, speedups, vs_best;
  std::map<std::string, double> picks;

  for (std::size_t i = 0; i < instances.size(); ++i) {
    const bpm::PipelineInstance& inst = *instances[i];
    const auto& g = inst.graph;
    const std::int64_t ref = references[i];
    const SpanLog::Scope root(spans, "bench", "probe " + inst.name, i);
    const auto timed = [&](const char* layer, const char* name, auto&& fn) {
      const SpanLog::Scope s(spans, layer, name, i, root.handle());
      const auto t0 = Clock::now();
      fn();
      return ms_since(t0);
    };

    init_ms += timed("matching", "cheap_matching",
                     [&] { (void)mt::cheap_matching(g); });
    reference_ms += timed("matching", "hopcroft_karp",
                          [&] { (void)mt::hopcroft_karp(g, inst.init); });

    gpu::GprResult r;
    const double native0 = engine->stats().native_ms;
    const double gpr_ms = timed("core", "g_pr", [&] {
      bpm::device::Device dev(engine);  // retires into engine stats
      r = gpu::g_pr(dev, g, inst.init, gpu::GprOptions{});
    });
    native_ms += engine->stats().native_ms - native0;
    judge_direct(verdict, inst, r.matching, ref, "g_pr");
    gr_ms += r.stats.gr_ms;
    push_ms += r.stats.push_ms;
    fix_ms += r.stats.fix_ms;
    gpr_total_ms += r.stats.total_ms;
    launches += static_cast<double>(r.stats.device_launches);
    relabels += static_cast<double>(r.stats.global_relabels);
    levels += static_cast<double>(r.stats.gr_level_kernels);
    loops += static_cast<double>(r.stats.loops);
    verify_ms += timed("matching", "verify", [&] {
      (void)r.matching.is_valid(g);
      (void)mt::is_maximum(g, r.matching);
    });

    gpu::GprOptions sharded;
    sharded.shards = 4;
    gpu::GprResult rs;
    const double sh_ms = timed("shard", "g_pr_sharded", [&] {
      rs = gpu::g_pr_sharded(fleet, g, inst.init, sharded);
    });
    judge_direct(verdict, inst, rs.matching, ref, "g_pr_sharded");
    rounds += static_cast<double>(rs.stats.shard_rounds);
    conflicts += static_cast<double>(rs.stats.shard_conflicts);
    transfers += static_cast<double>(rs.stats.shard_transfers);
    critical_ms += rs.stats.shard_critical_ms;
    speedups.push_back(gpr_ms / std::max(sh_ms, 1e-6));

    mt::SeqPrStats ss;
    mt::Matching seq;
    const double seq_ms = timed("matching", "seq_push_relabel", [&] {
      seq = mt::seq_push_relabel(g, inst.init, {}, &ss);
    });
    judge_direct(verdict, inst, seq, ref, "seq_push_relabel");
    pushes += static_cast<double>(ss.pushes);
    scanned += static_cast<double>(ss.scanned_edges);

    bpm::policy::InstanceFeatures f;
    features_ms += timed("policy", "compute_features", [&] {
      f = bpm::policy::compute_features(g, inst.initial_cardinality);
    });
    const bpm::policy::AutoSolver resolver;
    std::string picked;
    resolve_us.push_back(1000.0 * timed("policy", "resolve", [&] {
      picked = resolver.resolve(f).spec.name;
    }));
    const auto& names = pick_names();
    picks[std::find(names.begin(), names.end(), picked) != names.end()
              ? picked
              : "other"] += 1;
    bpm::SolveResult ar;
    const double auto_ms = timed("policy", "auto", [&] {
      bpm::device::Device dev(engine);
      ar = auto_solver->run({.device = &dev, .threads = kEngineThreads, .engines = fleet},
                            g, inst.init);
    });
    judge_direct(verdict, inst, ar.matching, ref, "auto");
    vs_best.push_back(auto_ms / std::max(std::min(gpr_ms, seq_ms), 1e-6));
  }

  metrics["gpr.relabel_ms"] = {gr_ms, "ms"};
  metrics["gpr.push_ms"] = {push_ms, "ms"};
  metrics["gpr.fix_ms"] = {fix_ms, "ms"};
  metrics["gpr.relabel_share"] = {gpr_total_ms > 0 ? gr_ms / gpr_total_ms : 0,
                                  "frac"};
  metrics["gpr.global_relabels"] = {relabels, "count"};
  metrics["gpr.relabel_levels"] = {levels, "count"};
  metrics["gpr.loops"] = {loops, "count"};
  metrics["device.launches"] = {launches, "count"};
  metrics["device.native_ms"] = {native_ms, "ms"};
  metrics["shard.rounds"] = {rounds, "count"};
  metrics["shard.conflicts"] = {conflicts, "count"};
  metrics["shard.transfers"] = {transfers, "count"};
  metrics["shard.critical_ms"] = {critical_ms, "ms"};
  metrics["shard.wall_speedup"] = {geomean(speedups), "x"};
  metrics["matching.init_ms"] = {init_ms, "ms"};
  metrics["matching.reference_ms"] = {reference_ms, "ms"};
  metrics["matching.verify_ms"] = {verify_ms, "ms"};
  metrics["seqpr.pushes"] = {pushes, "count"};
  metrics["seqpr.scanned_edges"] = {scanned, "count"};
  metrics["policy.features_ms"] = {features_ms, "ms"};
  metrics["policy.resolve_us"] = {median(resolve_us), "us"};
  for (const std::string& name : pick_names())
    metrics[pick_metric(name)] = {picks[name], "count"};
  metrics["policy.picks.other"] = {picks["other"], "count"};
  metrics["policy.vs_best_fixed"] = {geomean(vs_best), "x"};
}

const std::vector<std::pair<std::string, std::string>>&
per_layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = [] {
    std::vector<std::pair<std::string, std::string>> u = {
        {"gpr.relabel_ms", "ms"},
        {"gpr.push_ms", "ms"},
        {"gpr.fix_ms", "ms"},
        {"gpr.relabel_share", "frac"},
        {"gpr.global_relabels", "count"},
        {"gpr.relabel_levels", "count"},
        {"gpr.loops", "count"},
        {"device.launches", "count"},
        {"device.native_ms", "ms"},
        {"shard.rounds", "count"},
        {"shard.conflicts", "count"},
        {"shard.transfers", "count"},
        {"shard.critical_ms", "ms"},
        {"shard.wall_speedup", "x"},
        {"matching.init_ms", "ms"},
        {"matching.reference_ms", "ms"},
        {"matching.verify_ms", "ms"},
        {"seqpr.pushes", "count"},
        {"seqpr.scanned_edges", "count"},
        {"policy.features_ms", "ms"},
        {"policy.resolve_us", "us"},
        {"policy.picks.other", "count"},
        {"policy.vs_best_fixed", "x"},
        {"pipeline.overhead_ms", "ms"},
        {"serve.gen_rtt_ms.p50", "ms"},
        {"serve.gen_rtt_ms.p99", "ms"},
        {"service.queue_ms.p50", "ms"},
        {"service.queue_ms.p99", "ms"},
        {"service.service_ms.p50", "ms"},
        {"service.service_ms.p99", "ms"},
        {"service.dispatches", "count"},
        {"service.coalesced", "count"},
        {"service.fanout_hits", "count"},
        {"cache.hit_frac", "frac"},
        {"proto.parse_us", "us"},
        {"session.lines", "count"},
        {"transport.overhead_ms", "ms"},
        {"trace.overhead_frac", "frac"},
        {"setup_wall_s", "s"},
        {"req_per_s", "1/s"},
        {"latency_p50_ms", "ms"},
        {"trace.spans", "count"},
        {"gpr_geomean_ms", "ms"},
        {"seqpr_geomean_ms", "ms"},
        {"auto_geomean_ms", "ms"},
        {"auto_cpu_ms", "ms"},
        {"mix_geomean_ms", "ms"},
        {"hk_geomean_ms", "ms"},
        {"latency_p99_ms", "ms"},
        {"self.bench_ms", "ms"},
        {"self.pipeline_ms", "ms"},
        {"self.core_ms", "ms"},
        {"self.transport_ms", "ms"},
        {"self.service_ms", "ms"},
    };
    for (const std::string& name : pick_names())
      u.emplace_back(pick_metric(name), "count");
    return u;
  }();
  return units;
}

void add_self_times(const SpanLog& spans, Metrics& metrics) {
  const double roots = static_cast<double>(std::max<std::size_t>(1, spans.roots()));
  for (const auto& [layer, ms] : spans.self_ms())
    metrics["self." + layer + "_ms"] = {ms / roots, "ms"};
  metrics["trace.spans"] = {static_cast<double>(spans.size()), "count"};
}

}  // namespace perfbench
