// The benchmark's workloads.  Each builds its inputs from the workload
// seed, sets up the program through its public entry points, measures a
// timed window, checks every output against the benchmark's own
// reference, and fills the end-to-end (untraced) or per-layer (traced)
// metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "device/device.hpp"
#include "graph/bipartite_graph.hpp"
#include "spans.hpp"
#include "util.hpp"
#include "verdict.hpp"

namespace perfbench {

/// Threads of every engine that runs a workload's jobs.  With more, each
/// kernel launch hands work to pool threads, and on a shared virtual
/// machine the CPU time those hand-offs take swings with the host's load:
/// on a shared 4-vCPU machine the g-pr-shr CPU geomean spread by 0.15
/// over ten seeds at four threads, against 0.07–0.11 at one.  Parallel
/// speed-up is measured by the traced probe's sharded solve over
/// `make_fleet`.
inline constexpr unsigned kEngineThreads = 1;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< where the traced run writes its spans
  unsigned nproc = 1;
};

struct RunOutcome {
  Verdict verdict;
  Metrics metrics;
  /// Workload-specific provenance (client count, workers, threads, ...).
  std::vector<std::pair<std::string, std::string>> provenance;
};

/// `table1-host`.
[[nodiscard]] RunOutcome run_library_workload(const RunOptions& options);
/// `serve-repeat`.
[[nodiscard]] RunOutcome run_serve_workload(const RunOptions& options);

/// Keeps `threads` threads busy for `seconds`.  On virtualised hosts the
/// first second of load after an idle spell can run several times slower
/// than steady state; spinning first keeps that out of every measurement.
void warm_cpus(unsigned threads, double seconds);

/// Runs `fn(i)` for i in [0, n) on up to `threads` threads, claiming
/// indices dynamically.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn);

/// Medians over `runs` timed calls of `set_up`, each after an untimed
/// `tear_down` of the previous one.  The last set-up is kept.
struct SetupTimes {
  double cpu_s = 0.0;   ///< process CPU time: the reported `setup_s`
  double wall_s = 0.0;  ///< elapsed time: the traced `setup_wall_s`
};
[[nodiscard]] SetupTimes median_setup(int runs,
                                      const std::function<void()>& tear_down,
                                      const std::function<void()>& set_up);

/// A generated input of `serve-repeat`, described by the `gen`
/// arguments the service receives and rebuilt by the benchmark from the
/// same arguments for its reference.
struct GenParams {
  enum Kind { kChungLu, kUniform, kPlanted, kInstance };
  Kind kind = kPlanted;
  std::int64_t rows = 0, cols = 0, edges = 0;
  double degree = 0.0, gamma = 0.0, scale = 0.0;
  std::string paper;
  std::uint64_t seed = 0;

  /// The `gen <name> ...` protocol line for this input.
  [[nodiscard]] std::string gen_line(const std::string& name) const;
  /// The same graph, built in-process by the library generators.
  [[nodiscard]] bpm::graph::BipartiteGraph build() const;
};

/// The fixed instance set of `serve-repeat`.
[[nodiscard]] std::vector<std::pair<std::string, GenParams>> repeat_instances(
    std::uint64_t seed);

/// The explicit specs `serve-repeat` requests each instance with.
[[nodiscard]] const std::vector<std::string>& serve_specs();

/// The engine fleet the probe's sharded solves spread over: min(4, nproc)
/// host engines, so engines × threads per engine stay within nproc.
[[nodiscard]] std::vector<std::shared_ptr<bpm::device::Engine>> make_fleet(
    unsigned nproc);

/// Per-layer probe over admitted instances: direct calls into the core
/// (G-PR, sharded G-PR over `make_fleet`), matching and policy modules,
/// each wrapped in a span and checked against `references`.  Fills the
/// `gpr.*`, `device.*`, `shard.*`, `matching.*`, `seqpr.*` and `policy.*`
/// metrics.
void probe_library_layers(
    const std::vector<const bpm::PipelineInstance*>& instances,
    const std::vector<std::int64_t>& references, unsigned nproc,
    SpanLog& spans, Verdict& verdict, Metrics& metrics);

/// Median microseconds `proto::parse_command` takes per line of `lines`.
[[nodiscard]] double proto_parse_us(const std::vector<std::string>& lines);

/// Every per-layer metric name with its unit, so each traced run reports
/// the full list (layers a workload does not reach read 0).
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metric_units();

/// Adds the self time per layer of `spans` (ms per root span).
void add_self_times(const SpanLog& spans, Metrics& metrics);

}  // namespace perfbench
