// Backend comparison (BENCH_host_backend.json): the same solver specs on
// the same instances, once per execution backend — the modeled-C2050 sim
// against the real multicore host executor (`device::HostParallelEngine`).
//
// Both backends run every launch's kernel lambda on the same worker pool
// size (--threads); what differs is what surrounds the kernel.  The sim
// charges the analytic device model per launch — lane tallies, straggler
// accounting, a balanced partition per edge-balanced launch — because its
// *product* is the modeled time.  The host backend's product is the wall
// time itself: it skips all model bookkeeping, applies a serial cutoff to
// small grids (`EngineDescriptor::host_grain`), and claims oversubscribed
// chunks dynamically.  The per-suite `host_wall_speedup` geomeans report
// how much wall time that buys on identical matching work; every run is
// verified against the Hopcroft–Karp ground truth first.
//
// `--json <path>` records the instance x algo x backend grid plus the
// summaries — the artifact committed as BENCH_host_backend.json and
// uploaded by CI.

#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "harness_common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace bpm;
using graph::BipartiteGraph;
using graph::index_t;
namespace gen = graph::gen;

struct BenchInstance {
  std::string name;
  std::string suite;  ///< "uniform" or "skew"
  std::function<BipartiteGraph(index_t n, std::uint64_t seed)> make;
};

// The balance_skew suites: a uniform control group and a degree-skewed
// group whose hub blocks are where balanced launches (and the straggler
// model) matter.  Comparing backends on the same shapes keeps the two
// benchmark artifacts directly relatable.
std::vector<BenchInstance> instance_set() {
  const auto frac = [](index_t n, double f) {
    return std::max<index_t>(1, static_cast<index_t>(f * n));
  };
  return {
      {"uniform_random", "uniform",
       [](index_t n, std::uint64_t s) {
         return gen::random_uniform(n, n, 5 * static_cast<graph::offset_t>(n),
                                    s);
       }},
      {"uniform_deficient", "uniform",
       [frac](index_t n, std::uint64_t s) {
         return gen::random_uniform(frac(n, 0.95), n,
                                    5 * static_cast<graph::offset_t>(n), s);
       }},
      {"planted", "uniform",
       [](index_t n, std::uint64_t s) {
         return gen::planted_perfect(n, 2.0, s);
       }},
      {"hub_block", "skew",
       [frac](index_t n, std::uint64_t s) {
         return gen::skewed_hubs(frac(n, 0.9), n, std::max<index_t>(8, n / 8),
                                 0.008, 3.0, s, /*scatter=*/false);
       }},
      {"hub_block_sparse", "skew",
       [frac](index_t n, std::uint64_t s) {
         return gen::skewed_hubs(frac(n, 0.88), n,
                                 std::max<index_t>(8, n / 12), 0.012, 2.5, s,
                                 /*scatter=*/false);
       }},
      {"power_law", "skew",
       [frac](index_t n, std::uint64_t s) {
         return gen::chung_lu(frac(n, 0.9), n, 6.0, 2.2, s);
       }},
  };
}

constexpr device::Backend kBackends[2] = {device::Backend::kSim,
                                          device::Backend::kHost};

}  // namespace

int main(int argc, char** argv) {
  using namespace bpm::bench;

  CliParser cli("host_backend",
                "sim vs host backend wall time for the same solver specs on "
                "uniform and degree-skewed suites");
  cli.add_option("n", "base column count of the generated instances", "6000");
  cli.add_option("reps",
                 "timed repetitions per (instance, algo, backend); best wall "
                 "wins",
                 "3");
  cli.add_option("seed", "generator seed", "1");
  cli.add_option("threads",
                 "worker threads for BOTH backends (0 = hardware)", "8");
  cli.add_flag("verbose", "per-instance build info");
  cli.add_flag("csv", "emit CSV instead of aligned tables");
  cli.add_option("json",
                 "write instance x algo x backend results as JSON to this "
                 "path (empty = off)",
                 "");
  add_algo_flag(cli, "g-pr-shr,g-pr-wb");
  register_observability_flags(cli);
  SuiteOptions opt;
  index_t n = 0;
  int reps = 1;
  try {
    cli.parse(argc, argv);
    exit_if_list_algos(cli);
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    opt.threads = static_cast<unsigned>(cli.get_int("threads"));
    opt.verbose = cli.get_flag("verbose");
    opt.csv = cli.get_flag("csv");
    opt.json_path = cli.get_string("json");
    opt.algos = solver_specs_from_cli(cli);
    observability_from_cli(cli, opt);
    n = static_cast<index_t>(cli.get_int("n"));
    reps = std::max(1, static_cast<int>(cli.get_int("reps")));
    if (n < 64) throw std::invalid_argument("--n must be at least 64");
    if (opt.algos.empty()) throw std::invalid_argument("--algo must be set");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  const auto set = instance_set();
  std::cout << "# host_backend — sim vs host executor on identical work\n"
            << "# instances: " << set.size() << " (n = " << n << "), seed "
            << opt.seed << ", reps " << reps << ", threads " << opt.threads
            << " on both backends\n";

  // One device per backend, same worker count: the comparison isolates
  // what the backend *does around* the kernels, not how many threads run.
  std::vector<std::unique_ptr<device::Device>> devices;
  for (const device::Backend backend : kBackends)
    devices.push_back(std::make_unique<device::Device>(
        device::DeviceOptions{.backend = backend,
                              .mode = device::ExecMode::kConcurrent,
                              .num_threads = opt.threads}));
  for (const auto& dev : devices) attach_tracer(opt, *dev);
  std::vector<std::unique_ptr<Solver>> solvers;
  for (const auto& spec : opt.algos) solvers.push_back(spec.instantiate());

  std::vector<std::string> headers{"instance", "suite", "algo", "MM",
                                   "sim wall(s)", "sim model(s)",
                                   "host wall(s)", "host speedup"};
  Table table(std::move(headers), 4);

  // Per (suite group, algo) wall-time series for the geomean summaries.
  struct Series {
    std::vector<double> wall[2];  ///< indexed like kBackends
  };
  std::vector<std::vector<Series>> series(
      2, std::vector<Series>(solvers.size()));
  const auto group_of = [](const std::string& s) {
    return s == "skew" ? 1 : 0;
  };

  bool all_ok = true;
  std::vector<JsonRecord> records;
  for (const auto& inst : set) {
    BuiltInstance bi;
    bi.meta.name = inst.name;
    bi.g = inst.make(n, opt.seed);
    prepare_instance(bi);
    if (opt.verbose)
      std::cout << "  built " << inst.name << ": " << bi.g.describe() << '\n';

    for (std::size_t a = 0; a < solvers.size(); ++a) {
      AlgoResult best[2];
      // Backends interleave within each rep so slow machine drift (CPU
      // frequency, noisy neighbours) cannot bias one backend's block.
      for (int rep = 0; rep < reps; ++rep) {
        for (int b = 0; b < 2; ++b) {
          const AlgoResult r =
              run_solver(*solvers[a], *devices[b], bi, opt.threads);
          all_ok &= r.ok;
          if (rep == 0 || r.seconds < best[b].seconds) best[b] = r;
        }
      }
      for (int b = 0; b < 2; ++b) {
        series[group_of(inst.suite)][a].wall[b].push_back(best[b].seconds);
        records.push_back(to_json_record(inst.name, inst.suite,
                                         opt.algos[a].canonical(), best[b],
                                         kBackends[b], &bi.features));
      }
      table.add_row({inst.name, inst.suite, opt.algos[a].canonical(),
                     static_cast<std::int64_t>(bi.maximum_cardinality),
                     best[0].seconds, best[0].modeled_seconds,
                     best[1].seconds, best[0].seconds / best[1].seconds});
    }
  }

  if (opt.csv)
    std::cout << table.to_csv();
  else
    table.print(std::cout);

  // Geomean host-over-sim wall speedup per (suite group, algo) — the
  // numbers the acceptance story reads from BENCH_host_backend.json.
  std::vector<std::pair<std::string, double>> summary;
  const char* group_names[2] = {"uniform", "skew"};
  std::cout << '\n';
  for (int grp = 0; grp < 2; ++grp) {
    std::vector<double> suite_wall[2];  ///< all algos pooled, per backend
    for (std::size_t a = 0; a < solvers.size(); ++a) {
      const double sim_wall = geometric_mean(series[grp][a].wall[0]);
      const double host_wall = geometric_mean(series[grp][a].wall[1]);
      const double speedup = sim_wall / host_wall;
      const std::string label = std::string(group_names[grp]) + ":" +
                                opt.algos[a].canonical();
      summary.emplace_back("host_wall_speedup:" + label, speedup);
      std::cout << label << ": geomean host wall speedup " << speedup
                << "x (sim " << sim_wall << "s -> host " << host_wall
                << "s)\n";
      for (int b = 0; b < 2; ++b)
        suite_wall[b].insert(suite_wall[b].end(),
                             series[grp][a].wall[b].begin(),
                             series[grp][a].wall[b].end());
    }
    // The headline per-suite number: one geomean over every (instance,
    // algo) pair of the group.
    const double suite_speedup = geometric_mean(suite_wall[0]) /
                                 geometric_mean(suite_wall[1]);
    summary.emplace_back(
        std::string("host_wall_speedup:") + group_names[grp] + ":all",
        suite_speedup);
    std::cout << group_names[grp] << " suite: geomean host wall speedup "
              << suite_speedup << "x\n";
  }
  try {
    write_json(opt.json_path, "host_backend", records, summary);
    write_observability(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  std::cout << "\nExpected shape: the host backend wins wall time everywhere "
               "— it runs the same kernels without the sim's per-launch "
               "model accounting — and wins biggest on the skew suite, "
               "where the sim also pays lane tallies and a balanced "
               "partition per edge-balanced launch.\n";
  return all_ok ? 0 : 1;
}
