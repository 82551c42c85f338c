// The library workload `table1-host`: the paper's 28 Table I analogues,
// each solved by g-pr-shr, seq-pr and auto through `MatchingPipeline`, one
// job at a time.  Every result is checked against the benchmark's own
// Hopcroft–Karp reference, and an audit re-runs every (instance, spec)
// pair through `Solver::run` so the matching itself is checked too.
#include <algorithm>
#include <numeric>
#include <random>

#include "core/solver.hpp"
#include "graph/instances.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using bpm::graph::BipartiteGraph;

struct Input {
  std::string name;
  std::function<BipartiteGraph()> build;
};

struct Workload {
  std::vector<Input> inputs;
  std::vector<std::string> specs;
};

/// `table1-host`: the Table I analogues at the harness default scale.
Workload table1(std::uint64_t seed) {
  Workload w;
  for (const bpm::graph::Instance& meta : bpm::graph::paper_instances())
    w.inputs.push_back(
        {meta.name, [meta, s = derive_seed(seed, static_cast<std::uint64_t>(meta.id))] {
           return meta.build(1.0 / 64.0, s);
         }});
  w.specs = {"g-pr-shr", "seq-pr", "auto"};
  return w;
}

struct Admitted {
  std::unique_ptr<bpm::MatchingPipeline> pipe;
  std::int64_t reference = 0;
  [[nodiscard]] const bpm::PipelineInstance& inst() const {
    return pipe->instances().front();
  }
};

/// Generation, the benchmark's references, and admission into one
/// pipeline per instance (so each job can be timed from outside).
std::vector<Admitted> set_up(const Workload& w,
                             const bpm::PipelineOptions& popts,
                             unsigned nproc) {
  const std::size_t n = w.inputs.size();
  std::vector<BipartiteGraph> graphs(n);
  parallel_for(n, nproc, [&](std::size_t i) { graphs[i] = w.inputs[i].build(); });
  // References and admissions are independent; start the largest first.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return graphs[a].num_edges() > graphs[b].num_edges();
  });
  std::vector<std::int64_t> refs(n);
  std::vector<bpm::PipelineInstance> admitted(n);
  parallel_for(2 * n, nproc, [&](std::size_t t) {
    const std::size_t i = order[t / 2];
    if (t % 2 == 0)
      refs[i] = reference_cardinality(graphs[i]);
    else
      admitted[i] = bpm::admit_instance(w.inputs[i].name, graphs[i], popts);
  });
  std::vector<Admitted> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].pipe = std::make_unique<bpm::MatchingPipeline>(popts);
    out[i].pipe->add_instance(std::move(admitted[i]));
    out[i].reference = refs[i];
  }
  return out;
}

struct Window {
  TimeTable wall, cpu;   ///< untraced jobs: wall and process CPU time
  TimeTable traced;      ///< wall time of traced jobs (traced run only)
  std::vector<double> overhead_ms;  ///< job wall − solver wall
  std::uint64_t ok = 0;
  int rounds = 0;
};

/// Whole rounds over every (instance, spec) pair, each round in a seeded
/// shuffled order, so every pair runs the same number of jobs.  A round
/// starts only while the window still holds one as long as the last (the
/// first always runs).  With `spans`, a pair's jobs alternate between
/// untraced and traced from round to round, so both sets sample the same
/// period of the run.
Window measure(const std::vector<std::string>& specs, std::vector<Admitted>& set,
               const RunOptions& o, SpanLog* spans, Verdict& verdict) {
  Window win;
  SpanLog off(false);
  std::mt19937_64 rng(derive_seed(o.seed, 7));
  std::vector<std::size_t> pairs(set.size() * specs.size());
  std::iota(pairs.begin(), pairs.end(), 0);
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(o.seconds));
  std::uint64_t id = 0;
  for (Clock::duration last{}; win.rounds == 0 || Clock::now() + last <= deadline;
       ++win.rounds) {
    const auto r0 = Clock::now();
    std::shuffle(pairs.begin(), pairs.end(), rng);
    for (const std::size_t p : pairs) {
      Admitted& a = set[p / specs.size()];
      const std::string& spec = specs[p % specs.size()];
      const bool traced = spans != nullptr && (p + win.rounds) % 2 == 1;
      SpanLog& log = traced ? *spans : off;
      const SpanLog::Scope job(log, "bench", spec + " " + a.inst().name, id);
      const double c0 = process_cpu_ms();
      const auto j0 = Clock::now();
      const std::int64_t run = log.begin("pipeline", "run", id, job.handle());
      const bpm::PipelineReport rep = a.pipe->run({spec});
      log.end(run);
      const auto j1 = Clock::now();
      const double cpu = process_cpu_ms() - c0;
      const bpm::PipelineJob& pj = rep.jobs.front();
      // The solver's own wall, back-computed inside the pipeline span.
      log.add("core", "solve", id, run, j0,
              j0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(pj.stats.wall_ms)));
      ++id;
      const double ms = ms_between(j0, j1);
      std::string check;
      if (pj.stats.cardinality != a.reference)
        check = "cardinality " + std::to_string(pj.stats.cardinality) +
                " differs from reference " + std::to_string(a.reference);
      if (!verdict.judge(pj.ok, check,
                         spec + " on " + a.inst().name +
                             (pj.error.empty() ? "" : " (" + pj.error + ")")))
        continue;
      ++win.ok;
      if (traced) {
        win.traced.add(spec, a.inst().name, ms);
        continue;
      }
      win.wall.add(spec, a.inst().name, ms);
      win.cpu.add(spec, a.inst().name, cpu);
      win.overhead_ms.push_back(ms - pj.stats.wall_ms);
    }
    last = Clock::now() - r0;
  }
  return win;
}

/// Re-runs every (instance, spec) pair once through `Solver::run` and
/// checks the returned matching itself, which a pipeline job does not
/// carry.  Untimed.
void audit(const std::vector<std::string>& specs, const std::vector<Admitted>& set,
           const RunOptions& o, Verdict& verdict) {
  const std::size_t n = set.size() * specs.size();
  std::vector<std::string> checks(n);
  std::vector<char> program_ok(n);
  parallel_for(n, o.nproc, [&](std::size_t p) {
    const Admitted& a = set[p / specs.size()];
    const std::unique_ptr<bpm::Solver> solver =
        bpm::SolverSpec::parse(specs[p % specs.size()]).instantiate();
    bpm::device::Device dev(a.pipe->engine());
    const bpm::SolveResult r =
        solver->run({.device = &dev, .threads = kEngineThreads, .engines = {}},
                    a.inst().graph, a.inst().init);
    // Reported ok = what the program's own verification would accept.
    program_ok[p] = r.matching.cardinality() == a.inst().maximum_cardinality;
    checks[p] = check_matching(a.inst().graph, r.matching, a.reference);
  });
  for (std::size_t p = 0; p < n; ++p)
    verdict.judge(program_ok[p], checks[p],
                  "audit " + specs[p % specs.size()] + " on " +
                      set[p / specs.size()].inst().name);
}

/// Rate and median job time of one round over every (instance, spec)
/// pair at its median time.
void job_rate(const TimeTable& wall, Metrics& m) {
  const std::vector<double> pairs = wall.pair_medians();
  double round_ms = 0.0;
  for (double ms : pairs) round_ms += ms;
  m["req_per_s"] = {1000.0 * static_cast<double>(pairs.size()) / round_ms, "1/s"};
  m["latency_p50_ms"] = {median(pairs), "ms"};
  m["latency_p99_ms"] = {percentile(wall.all(), 99), "ms"};
}

}  // namespace

RunOutcome run_library_workload(const RunOptions& o) {
  RunOutcome out;
  const Workload w = table1(o.seed);

  bpm::PipelineOptions popts;
  popts.device_backend = bpm::device::Backend::kHost;
  popts.device_threads = kEngineThreads;
  popts.solver_threads = kEngineThreads;
  popts.max_concurrent_jobs = 1;
  popts.cache_results = false;

  std::vector<Admitted> set;
  const SetupTimes setup = median_setup(
      3, [&] { set.clear(); }, [&] { set = set_up(w, popts, o.nproc); });

  out.provenance = {{"backend", "host"},
                    {"engine_threads", std::to_string(kEngineThreads)},
                    {"instances", std::to_string(set.size())},
                    {"clients", "1"}};

  Metrics& m = out.metrics;
  SpanLog spans(true);
  const Window win = measure(w.specs, set, o, o.trace ? &spans : nullptr, out.verdict);
  out.provenance.emplace_back("rounds", std::to_string(win.rounds));
  const double ok_frac = static_cast<double>(win.ok) /
                         static_cast<double>(out.verdict.attempted());
  audit(w.specs, set, o, out.verdict);
  if (!o.trace) {
    m["setup_s"] = {setup.cpu_s, "s"};
    m["ok_frac"] = {ok_frac, "frac"};
    m["gpr_cpu_ms"] = {win.cpu.spec_geomean("g-pr-shr"), "ms"};
    m["seqpr_cpu_ms"] = {win.cpu.spec_geomean("seq-pr"), "ms"};
    return out;
  }

  m["trace.overhead_frac"] = {win.traced.ratio_to(win.wall) - 1.0, "frac"};
  m["setup_wall_s"] = {setup.wall_s, "s"};
  m["gpr_geomean_ms"] = {win.wall.spec_geomean("g-pr-shr"), "ms"};
  m["seqpr_geomean_ms"] = {win.wall.spec_geomean("seq-pr"), "ms"};
  m["auto_geomean_ms"] = {win.wall.spec_geomean("auto"), "ms"};
  m["auto_cpu_ms"] = {win.cpu.spec_geomean("auto"), "ms"};
  m["mix_geomean_ms"] = {win.wall.mix_geomean(), "ms"};
  job_rate(win.wall, m);
  m["pipeline.overhead_ms"] = {median(win.overhead_ms), "ms"};
  add_self_times(spans, m);

  std::vector<const bpm::PipelineInstance*> insts;
  std::vector<std::int64_t> refs;
  for (const Admitted& a : set) {
    insts.push_back(&a.inst());
    refs.push_back(a.reference);
  }
  SpanLog probe_spans(true);
  probe_library_layers(insts, refs, o.nproc, probe_spans, out.verdict, m);
  // `submit` lines a service client would send for the same jobs.
  std::vector<std::string> lines;
  for (const Admitted& a : set)
    for (const std::string& spec : w.specs)
      lines.push_back("submit " + a.inst().name + " " + spec);
  m["proto.parse_us"] = {proto_parse_us(lines), "us"};
  if (!o.trace_path.empty()) {
    spans.write_json(o.trace_path);
    probe_spans.write_json(o.trace_path + ".probe.json");
  }
  return out;
}

}  // namespace perfbench
