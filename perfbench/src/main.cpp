// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--git-commit <sha>] [--source-hash <h>]
//   perfbench --selftest
//
// Prints a provenance line, then, as the last stdout line, one JSON object
// with the correctness verdict, attempted/failed operation counts, and the
// end-to-end metrics (untraced) or per-layer metrics (traced).
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace perfbench {
int run_selftests();
}

namespace {

using perfbench::Metrics;

/// The end-to-end metrics every workload reports, with their units.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"ok_frac", "frac"},
    {"gpr_cpu_ms", "ms"},
    {"seqpr_cpu_ms", "ms"},
};

const std::vector<std::string> kWorkloads = {"table1-host", "serve-repeat"};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <table1-host|serve-repeat> "
               "--seed <n> --seconds <s> --trace "
               "<0|1> [--trace-out <path>] [--git-commit <sha>] "
               "[--source-hash <h>] | --selftest\n";
  std::exit(2);
}

/// Exactly the declared metric set, each with its declared unit; a metric
/// a workload does not reach reads 0.
Metrics declared(const Metrics& measured,
                 const std::vector<std::pair<std::string, std::string>>& names) {
  Metrics out;
  for (const auto& [name, unit] : names) {
    const auto it = measured.find(name);
    out[name] = {it == measured.end() ? 0.0 : it->second.value, unit};
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  std::string git_commit = "unknown", source_hash = "unknown";
  bool have_workload = false, selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = value() == "1";
      } else if (a == "--trace-out") {
        o.trace_path = value();
      } else if (a == "--git-commit") {
        git_commit = value();
      } else if (a == "--source-hash") {
        source_hash = value();
      } else if (a == "--selftest") {
        selftest = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (selftest) return perfbench::run_selftests() == 0 ? 0 : 1;
  if (!have_workload ||
      std::find(kWorkloads.begin(), kWorkloads.end(), o.workload) == kWorkloads.end())
    usage("unknown or missing --workload");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  o.nproc = std::max(1u, std::thread::hardware_concurrency());
  perfbench::warm_cpus(o.nproc, 1.0);

  perfbench::RunOutcome out = o.workload.starts_with("serve-")
                                  ? perfbench::run_serve_workload(o)
                                  : perfbench::run_library_workload(o);

  std::cout << "# provenance {\"workload\": " << perfbench::json_string(o.workload)
            << ", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
            << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"nproc\": " << o.nproc
            << ", \"compiler\": " << perfbench::json_string(PERFBENCH_COMPILER)
            << ", \"build_type\": " << perfbench::json_string(PERFBENCH_BUILD_TYPE)
            << ", \"git_commit\": " << perfbench::json_string(git_commit)
            << ", \"source_hash\": " << perfbench::json_string(source_hash);
  for (const auto& [k, v] : out.provenance)
    std::cout << ", " << perfbench::json_string(k) << ": " << perfbench::json_string(v);
  std::cout << "}\n";
  for (const std::string& n : out.verdict.notes()) std::cerr << n << "\n";

  const Metrics metrics = declared(
      out.metrics, o.trace ? perfbench::per_layer_metric_units() : kEndToEnd);
  std::cout << perfbench::result_line(out.verdict.correct(),
                                      std::max<std::uint64_t>(1, out.verdict.attempted()),
                                      out.verdict.failed(), metrics)
            << std::endl;
  return 0;
}
