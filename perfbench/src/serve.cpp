// The serve workload `serve-repeat`: `MatchingService` behind `Session`
// and `SocketTransport`, driven over loopback TCP by `LineClient`
// connections in closed loop (each client sends its next request only
// after the previous result line arrived).  A fixed instance set × the
// serve specs is warmed into the result cache during set-up, then
// requested again and again.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <random>
#include <thread>

#include "graph/generators.hpp"
#include "graph/instances.hpp"
#include "reference.hpp"
#include "serve/proto.hpp"
#include "serve/result_cache.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"
#include "workloads.hpp"

namespace perfbench {

// --- Inputs -----------------------------------------------------------------

std::string GenParams::gen_line(const std::string& name) const {
  const std::string s = std::to_string(seed);
  switch (kind) {
    case kChungLu:
      return "gen " + name + " chung-lu " + std::to_string(rows) + " " +
             std::to_string(cols) + " " + json_number(degree) + " " +
             json_number(gamma) + " " + s;
    case kUniform:
      return "gen " + name + " uniform " + std::to_string(rows) + " " +
             std::to_string(cols) + " " + std::to_string(edges) + " " + s;
    case kPlanted:
      return "gen " + name + " planted " + std::to_string(rows) + " " +
             json_number(degree) + " " + s;
    case kInstance:
      return "gen " + name + " instance " + paper + " " + json_number(scale) +
             " " + s;
  }
  return {};
}

bpm::graph::BipartiteGraph GenParams::build() const {
  namespace gen = bpm::graph::gen;
  switch (kind) {
    case kChungLu: return gen::chung_lu(rows, cols, degree, gamma, seed);
    case kUniform: return gen::random_uniform(rows, cols, edges, seed);
    case kPlanted: return gen::planted_perfect(rows, degree, seed);
    case kInstance:
      for (const auto& inst : bpm::graph::paper_instances())
        if (inst.name == paper) return inst.build(scale, seed);
      break;
  }
  throw std::invalid_argument("unknown generated input");
}

namespace {

/// Input `index` of a stream: kinds rotate chung-lu (skewed), uniform
/// (deficient), planted (perfect), small Table I analogues (high
/// diameter); the generator seed is fresh per index.
GenParams input(std::uint64_t seed, std::uint64_t index) {
  static const char* const kMeshes[] = {"roadNet-PA", "delaunay_n20",
                                        "hugetrace-00000", "italy_osm"};
  GenParams p;
  p.seed = derive_seed(seed, index, 3) & 0xffffffffffffull;
  switch (index % 4) {
    case 0:
      p.kind = GenParams::kChungLu;
      p.rows = p.cols = 2500;
      p.degree = 5.0;
      p.gamma = 2.3;
      break;
    case 1:
      p.kind = GenParams::kUniform;
      p.rows = p.cols = 3000;
      p.edges = 6500;
      break;
    case 2:
      p.kind = GenParams::kPlanted;
      p.rows = p.cols = 3000;
      p.degree = 2.0;
      break;
    default:
      p.kind = GenParams::kInstance;
      p.paper = kMeshes[(index / 4) % 4];
      p.scale = 1.0 / 1024.0;
      break;
  }
  return p;
}

}  // namespace

const std::vector<std::string>& serve_specs() {
  static const std::vector<std::string> specs = {"g-pr-shr", "seq-pr", "hk"};
  return specs;
}

std::vector<std::pair<std::string, GenParams>> repeat_instances(
    std::uint64_t seed) {
  std::vector<std::pair<std::string, GenParams>> out;
  for (std::uint64_t k = 0; k < 32; ++k)
    out.emplace_back(std::string("r").append(std::to_string(k)),
                     input(seed ^ 0x5e9eull, k));
  return out;
}

double proto_parse_us(const std::vector<std::string>& lines) {
  if (lines.empty()) return 0.0;
  std::vector<double> per_line;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    std::size_t parsed = 0;
    while (ms_since(t0) < 4.0)
      for (const std::string& line : lines) {
        const bpm::serve::proto::Parsed p = bpm::serve::proto::parse_command(line);
        parsed += p.command ? 1 : 0;
      }
    per_line.push_back(1000.0 * ms_since(t0) /
                       static_cast<double>(std::max<std::size_t>(parsed, 1)));
  }
  return median(per_line);
}

// --- The stack --------------------------------------------------------------

namespace {

namespace serve = bpm::serve;

/// Pins the calling thread, and every thread it starts while pinned, to
/// the CPU it runs on; restores the previous CPU set when destroyed.  One
/// request is in flight at a time, which needs one core.  Spread over
/// several, each hand-off between the client, transport and service
/// threads wakes another virtual CPU, and on a shared virtual machine the
/// CPU time that costs swings with the host's load.  On a shared 4-vCPU
/// machine a request took 0.134 ms of CPU time unpinned (IQR/median 0.10
/// over five seeds) against 0.079 ms (0.045) pinned.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    if (sched_getaffinity(0, sizeof previous_, &previous_) != 0) return;
    const int cpu = sched_getcpu();
    if (cpu < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) == 0) cpu_ = cpu;
  }
  ~PinToOneCpu() {
    if (cpu_ >= 0) (void)sched_setaffinity(0, sizeof previous_, &previous_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;
  /// The CPU pinned to, or -1 when the system refused.
  [[nodiscard]] int cpu() const { return cpu_; }

 private:
  int cpu_ = -1;
  cpu_set_t previous_{};
};

/// Closed-loop connections: one, so that each request's process CPU time
/// is its own (the stack's threads are otherwise idle).
constexpr unsigned kClients = 1;
constexpr unsigned kServiceWorkers = 1;

/// Service + session context + socket transport + connected clients;
/// torn down clients first, service last.
struct Stack {
  Stack() {
    serve::ServiceOptions so;
    so.workers = kServiceWorkers;
    so.device_threads = kEngineThreads;
    so.solver_threads = kEngineThreads;
    so.backend = bpm::device::Backend::kHost;
    so.cache = std::make_shared<serve::ResultCache>();
    service = std::make_unique<serve::MatchingService>(std::move(so));
    context = std::make_unique<serve::SessionContext>(*service);
    serve::TransportOptions to;
    to.port = 0;
    to.max_clients = kClients + 2;
    to.executors = kClients + 1;
    transport = std::make_unique<serve::SocketTransport>(*context, to);
    for (unsigned i = 0; i < kClients; ++i)
      clients.push_back(std::make_unique<serve::LineClient>("127.0.0.1",
                                                            transport->port()));
  }
  ~Stack() {
    for (auto& c : clients) c->close();
    transport->stop();
    service->shutdown();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::unique_ptr<serve::MatchingService> service;
  std::unique_ptr<serve::SessionContext> context;
  std::unique_ptr<serve::SocketTransport> transport;
  std::vector<std::unique_ptr<serve::LineClient>> clients;
};

constexpr int kLineTimeoutMs = 60000;

/// One request as the client saw it.
struct Record {
  std::size_t key = 0;    ///< index into the (instance, spec) keys
  bool traced = false;    ///< recorded spans (traced run only)
  bool answered = false;  ///< every line answered in the expected shape
  std::string failure;    ///< why not (rejection, error, timeout)
  ResultLine result;
  double latency_ms = 0.0;  ///< first line sent → result line received
  double cpu_ms = 0.0;      ///< process CPU time over the same interval
};

/// Sends `submit` then `wait` on one connection; fills `rec`.
void submit_and_wait(serve::LineClient& client, const std::string& instance,
                     const std::string& spec, std::uint64_t id,
                     SpanLog& spans, std::int64_t root, Record& rec) {
  const SpanLog::Scope submit(spans, "transport", "submit", id, root);
  client.send_line("submit " + instance + " " + spec);
  const std::optional<std::string> ticket = client.recv_line(kLineTimeoutMs);
  spans.end(submit.handle());
  if (!ticket || !ticket->starts_with("ticket ")) {
    rec.failure = ticket ? *ticket : "submit timed out";
    return;
  }
  const std::int64_t wait = spans.begin("transport", "wait", id, root);
  client.send_line("wait " + ticket->substr(7));
  const std::optional<std::string> line = client.recv_line(kLineTimeoutMs);
  const auto done = Clock::now();
  spans.end(wait);
  const std::optional<ResultLine> r = line ? parse_result_line(*line) : std::nullopt;
  if (!r) {
    rec.failure = line ? *line : "wait timed out";
    return;
  }
  // The service's own submission → completion interval, inside `wait`.
  spans.add("service", "ticket", id, wait,
            done - std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(r->total_ms)),
            done);
  rec.result = *r;
  rec.answered = true;
}

/// Runs `body(client_index, deadline)` on every client at once.
void closed_loop(unsigned clients, double seconds,
                 const std::function<void(unsigned, Clock::time_point)>& body) {
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c)
    threads.emplace_back([&, c] { body(c, deadline); });
  for (std::thread& t : threads) t.join();
}

struct ServeWindow {
  std::vector<Record> records;
  serve::ServiceStats before, after;
  std::uint64_t lines_before = 0, lines_after = 0;
};

class ServeWorkload {
 public:
  explicit ServeWorkload(const RunOptions& o) : o_(o) {
    instances_ = repeat_instances(o.seed);
    for (const auto& [name, params] : instances_)
      for (const std::string& spec : serve_specs()) keys_.emplace_back(name, spec);
  }

  RunOutcome run() {
    std::optional<PinToOneCpu> pin(std::in_place);
    RunOutcome out;
    const SetupTimes setup = median_setup(
        5,
        [&] {
          stack_.reset();
          setup_records_.clear();
        },
        [&] { set_up(); });
    out.provenance = {{"backend", "host"},
                      {"clients", std::to_string(kClients)},
                      {"service_workers", std::to_string(kServiceWorkers)},
                      {"engine_threads", std::to_string(kEngineThreads)},
                      {"engines", "1"},
                      {"pinned_cpu", std::to_string(pin->cpu())},
                      {"cache", "on"}};
    SpanLog spans(true);
    const ServeWindow win = window(o_.trace ? &spans : nullptr);
    Metrics& m = out.metrics;
    const Tables t = judge(win, out.verdict, m);
    judge_setup(out.verdict);
    if (!o_.trace) {
      m["setup_s"] = {setup.cpu_s, "s"};
      m["gpr_cpu_ms"] = {t.cpu.spec_geomean("g-pr-shr"), "ms"};
      m["seqpr_cpu_ms"] = {t.cpu.spec_geomean("seq-pr"), "ms"};
      return out;
    }
    m["trace.overhead_frac"] = {t.traced.ratio_to(t.wall) - 1.0, "frac"};
    m["setup_wall_s"] = {setup.wall_s, "s"};
    m["gpr_geomean_ms"] = {t.wall.spec_geomean("g-pr-shr"), "ms"};
    m["seqpr_geomean_ms"] = {t.wall.spec_geomean("seq-pr"), "ms"};
    m["hk_geomean_ms"] = {t.wall.spec_geomean("hk"), "ms"};
    m["mix_geomean_ms"] = {t.wall.mix_geomean(), "ms"};
    m["latency_p99_ms"] = {percentile(t.wall.all(), 99), "ms"};
    m["latency_p50_ms"] = {median(t.wall.all()), "ms"};
    // Closed loop: each client has one request in flight at a time.
    double mean_ms = 0.0;
    for (double ms : t.wall.all()) mean_ms += ms;
    mean_ms /= static_cast<double>(std::max<std::size_t>(t.wall.all().size(), 1));
    m["req_per_s"] = {1000.0 * kClients / std::max(mean_ms, 1e-9), "1/s"};
    layer_metrics(win, m);
    add_self_times(spans, m);
    pin.reset();  // the probe's sharded solve spreads over every CPU
    probe(out.verdict, m);
    if (!o_.trace_path.empty()) spans.write_json(o_.trace_path);
    return out;
  }

 private:
  /// `submit` + `wait` of key `key` on `client`.
  void request(serve::LineClient& client, std::size_t key, std::uint64_t id,
               SpanLog& spans, Record& rec) {
    rec.key = key;
    const SpanLog::Scope root(spans, "bench", keys_[key].second + " " + keys_[key].first, id);
    const double c0 = process_cpu_ms();
    const auto t0 = Clock::now();
    submit_and_wait(client, keys_[key].first, keys_[key].second, id, spans,
                    root.handle(), rec);
    rec.latency_ms = ms_since(t0);
    rec.cpu_ms = process_cpu_ms() - c0;
  }

  /// The stack, the benchmark's references, `gen` of every instance and
  /// one solve of every (instance, spec) to fill the cache.
  void set_up() {
    stack_ = std::make_unique<Stack>();
    SpanLog off(false);
    references_.assign(instances_.size(), 0);
    parallel_for(instances_.size(), o_.nproc, [&](std::size_t i) {
      references_[i] = reference_cardinality(instances_[i].second.build());
    });
    gen_rtt_ms_.clear();
    reported_max_.clear();
    for (const auto& [name, params] : instances_) {
      const auto t0 = Clock::now();
      stack_->clients[0]->send_line(params.gen_line(name));
      const std::optional<std::string> line = stack_->clients[0]->recv_line(kLineTimeoutMs);
      gen_rtt_ms_.push_back(ms_since(t0));
      const std::optional<std::int64_t> max = line ? parse_instance_max(*line) : std::nullopt;
      reported_max_.push_back(max.value_or(-1));
    }
    setup_records_.resize(keys_.size());
    closed_loop(kClients, 0.0, [&](unsigned c, Clock::time_point) {
      for (std::size_t k = c; k < keys_.size(); k += kClients)
        guarded(setup_records_[k], [&](Record& r) {
          request(*stack_->clients[c], k, k, off, r);
        });
    });
  }

  template <typename Fn>
  static void guarded(Record& rec, Fn&& fn) {
    try {
      fn(rec);
    } catch (const std::exception& e) {
      rec.answered = false;
      rec.failure = e.what();
    }
  }

  /// The timed window.  With `spans`, each client's requests alternate
  /// between untraced and traced, so both sets sample the same period.
  ServeWindow window(SpanLog* spans) {
    ServeWindow win;
    SpanLog off(false);
    win.before = stack_->service->stats();
    win.lines_before = stack_->transport->stats().lines;
    std::vector<std::vector<Record>> per_client(kClients);
    closed_loop(kClients, o_.seconds, [&](unsigned c, Clock::time_point deadline) {
      std::vector<Record>& recs = per_client[c];
      std::mt19937_64 rng(derive_seed(o_.seed, 11, c));
      std::vector<std::size_t> order(keys_.size());
      for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
      std::shuffle(order.begin(), order.end(), rng);
      for (std::uint64_t j = 0; Clock::now() < deadline; ++j) {
        recs.emplace_back();
        Record& rec = recs.back();
        // Flips every pass over the keys too, so each key runs both ways.
        rec.traced = spans != nullptr && (j + j / order.size()) % 2 == 1;
        const std::uint64_t id = (std::uint64_t{c} << 40) | j;
        guarded(rec, [&](Record& r) {
          request(*stack_->clients[c], order[j % order.size()], id,
                  rec.traced ? *spans : off, r);
        });
      }
    });
    win.after = stack_->service->stats();
    win.lines_after = stack_->transport->stats().lines;
    for (auto& recs : per_client)
      for (Record& r : recs) win.records.push_back(std::move(r));
    return win;
  }

  struct Tables {
    TimeTable wall, cpu;  ///< untraced requests
    TimeTable traced;     ///< wall time of traced requests
  };

  /// Judges every record of a window against the benchmark's references
  /// and returns the verified requests' times by (spec, instance).
  Tables judge(const ServeWindow& win, Verdict& verdict, Metrics& m) {
    Tables t;
    std::size_t ok = 0;
    for (const Record& r : win.records) {
      const auto& [instance, spec] = keys_[r.key];
      const std::string what = spec + " on " + instance;
      if (!r.answered) {
        verdict.failed_op(what + ": " + r.failure);
        continue;
      }
      if (!judge_result_line(verdict, r.result,
                             references_[r.key / serve_specs().size()], what))
        continue;
      ++ok;
      if (r.traced) {
        t.traced.add(spec, instance, r.latency_ms);
      } else {
        t.wall.add(spec, instance, r.latency_ms);
        t.cpu.add(spec, instance, r.cpu_ms);
      }
    }
    const double n = static_cast<double>(std::max<std::size_t>(win.records.size(), 1));
    m["cache.hit_frac"] = {
        static_cast<double>(win.after.cache_hits - win.before.cache_hits) / n, "frac"};
    m["ok_frac"] = {static_cast<double>(ok) / n, "frac"};
    return t;
  }

  /// The set-up requests of the kept stack are outputs too, and so are
  /// the `max=` answers of its `gen`s.
  void judge_setup(Verdict& verdict) {
    ServeWindow w;
    w.records = setup_records_;
    Metrics ignored;
    (void)judge(w, verdict, ignored);
    for (std::size_t i = 0; i < instances_.size(); ++i)
      if (reported_max_[i] != references_[i])
        verdict.wrong("gen " + instances_[i].first + ": service reference " +
                      std::to_string(reported_max_[i]) + " differs from " +
                      std::to_string(references_[i]));
  }

  void layer_metrics(const ServeWindow& win, Metrics& m) {
    std::vector<double> queue, service, overhead;
    for (const Record& r : win.records) {
      if (!r.answered || r.traced) continue;
      queue.push_back(r.result.queue_ms);
      service.push_back(r.result.service_ms);
      overhead.push_back(r.latency_ms - r.result.total_ms);
    }
    m["serve.gen_rtt_ms.p50"] = {percentile(gen_rtt_ms_, 50), "ms"};
    m["serve.gen_rtt_ms.p99"] = {percentile(gen_rtt_ms_, 99), "ms"};
    m["service.queue_ms.p50"] = {percentile(queue, 50), "ms"};
    m["service.queue_ms.p99"] = {percentile(queue, 99), "ms"};
    m["service.service_ms.p50"] = {percentile(service, 50), "ms"};
    m["service.service_ms.p99"] = {percentile(service, 99), "ms"};
    m["transport.overhead_ms"] = {median(overhead), "ms"};
    m["service.dispatches"] = {static_cast<double>(win.after.dispatches - win.before.dispatches), "count"};
    m["service.coalesced"] = {static_cast<double>(win.after.coalesced - win.before.coalesced), "count"};
    m["service.fanout_hits"] = {static_cast<double>(win.after.fanout_hits - win.before.fanout_hits), "count"};
    m["session.lines"] = {static_cast<double>(win.lines_after - win.lines_before), "count"};
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < std::min<std::size_t>(win.records.size(), 256); ++i) {
      const Record& r = win.records[i];
      lines.push_back("submit " + keys_[r.key].first + " " + keys_[r.key].second);
      lines.push_back("wait " + std::to_string(r.result.ticket));
    }
    m["proto.parse_us"] = {proto_parse_us(lines), "us"};
  }

  /// Library layers over the workload's own graphs.
  void probe(Verdict& verdict, Metrics& m) {
    bpm::PipelineOptions popts;
    popts.device_backend = bpm::device::Backend::kHost;
    popts.device_threads = kEngineThreads;
    popts.solver_threads = kEngineThreads;
    popts.max_concurrent_jobs = 1;
    popts.cache_results = false;
    bpm::MatchingPipeline pipe(popts);
    std::vector<std::int64_t> refs;
    for (const auto& [name, params] : instances_) {
      bpm::graph::BipartiteGraph g = params.build();
      refs.push_back(reference_cardinality(g));
      pipe.add_instance(name, std::move(g));
    }
    std::vector<const bpm::PipelineInstance*> insts;
    for (const auto& inst : pipe.instances()) insts.push_back(&inst);
    SpanLog probe_spans(true);
    probe_library_layers(insts, refs, o_.nproc, probe_spans, verdict, m);
    const bpm::PipelineReport rep = pipe.run({"g-pr-shr"});
    double solver_ms = 0;
    for (const bpm::PipelineJob& j : rep.jobs) {
      solver_ms += j.stats.wall_ms;
      std::string check;
      if (j.stats.cardinality != refs[j.instance])
        check = "cardinality differs from reference";
      verdict.judge(j.ok, check, "probe pipeline g-pr-shr on " + instances_[j.instance].first);
    }
    m["pipeline.overhead_ms"] = {
        (rep.totals.batch_wall_ms - solver_ms) /
            static_cast<double>(std::max<std::size_t>(rep.jobs.size(), 1)),
        "ms"};
    if (!o_.trace_path.empty()) probe_spans.write_json(o_.trace_path + ".probe.json");
  }

  const RunOptions& o_;
  std::vector<std::pair<std::string, GenParams>> instances_;
  std::vector<std::pair<std::string, std::string>> keys_;
  std::vector<std::int64_t> references_;
  std::vector<std::int64_t> reported_max_;
  std::vector<double> gen_rtt_ms_;
  std::vector<Record> setup_records_;
  std::unique_ptr<Stack> stack_;
};

}  // namespace

RunOutcome run_serve_workload(const RunOptions& options) {
  ServeWorkload w(options);
  return w.run();
}

}  // namespace perfbench
