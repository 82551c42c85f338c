// Shard-scaling grid: `g-pr-sh` across shard counts x engine fleets x
// backends on the `massive` suite (streamed `gen::huge_bipartite`
// instances ~10x the Table I analogues) plus a degree-skewed control
// suite.
//
// Two time axes per cell:
//  * wall(s)  — measured host wall of the whole sharded solve.  On a box
//    with fewer cores than engines the shards time-share the CPU, so wall
//    stays flat with K: it answers "what did THIS machine pay".
//  * fleet(s) — the K-engine-fleet critical path
//    (`GprStats::shard_critical_ms`: per-round max over shard streams
//    plus the coordinator's relabels; the sim backend's modeled time is
//    the same quantity under the C2050 model).  It answers "what would a
//    one-engine-per-shard deployment pay", which is the number shard
//    scaling is about.
//
// `--json <path>` records the full grid; the summary carries per-K
// geomean speedups vs K=1 on both axes, per suite and backend — the
// acceptance numbers BENCH_shard_scaling.json is committed with.

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/solver.hpp"
#include "device/device.hpp"
#include "graph/generators.hpp"
#include "harness_common.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace bpm;
using graph::index_t;
namespace gen = graph::gen;

/// One grid cell: K shards over E engines of one backend.
struct Cell {
  int shards;
  int engines;
  device::Backend backend;

  [[nodiscard]] std::string label() const {
    return std::string(device::backend_name(backend)) + ":K" +
           std::to_string(shards) + "E" + std::to_string(engines);
  }
};

std::vector<std::shared_ptr<device::Engine>> build_fleet(
    const Cell& cell, unsigned threads) {
  std::vector<std::shared_ptr<device::Engine>> fleet;
  fleet.reserve(static_cast<std::size_t>(cell.engines));
  for (int e = 0; e < cell.engines; ++e)
    fleet.push_back(std::make_shared<device::Engine>(device::EngineDescriptor{
        .backend = cell.backend,
        .mode = device::ExecMode::kConcurrent,
        .threads = threads}));
  return fleet;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bpm::bench;

  CliParser cli("shard_scaling",
                "g-pr-sh across shards x engines x backends on the massive "
                "and skew suites");
  cli.add_option("scale",
                 "massive-suite size multiplier (1.0 = ~13M edges/instance)",
                 "1.0");
  cli.add_option("skew-n", "column count of the skew-suite instances",
                 "30000");
  cli.add_option("reps",
                 "timed repetitions per (instance, cell); best wall wins",
                 "1");
  cli.add_option("seed", "generator seed", "1");
  cli.add_option("threads", "workers per engine (0 = hardware)", "0");
  cli.add_flag("verbose", "per-instance build info");
  cli.add_flag("csv", "emit CSV instead of aligned tables");
  cli.add_flag("skip-massive", "skew suite only (quick smoke)");
  cli.add_option("json",
                 "write the cell grid (wall/fleet/launches/matched) as JSON "
                 "to this path (empty = off)",
                 "");
  register_observability_flags(cli);
  SuiteOptions opt;
  index_t skew_n = 0;
  int reps = 1;
  bool skip_massive = false;
  try {
    cli.parse(argc, argv);
    opt.scale = cli.get_double("scale");
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    opt.threads = static_cast<unsigned>(cli.get_int("threads"));
    opt.verbose = cli.get_flag("verbose");
    opt.csv = cli.get_flag("csv");
    opt.json_path = cli.get_string("json");
    skew_n = static_cast<index_t>(cli.get_int("skew-n"));
    reps = std::max(1, static_cast<int>(cli.get_int("reps")));
    skip_massive = cli.get_flag("skip-massive");
    observability_from_cli(cli, opt);
    if (opt.scale <= 0.0) throw std::invalid_argument("--scale must be > 0");
    if (skew_n < 64) throw std::invalid_argument("--skew-n must be >= 64");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  // The grid: host cells sweep K with a matching fleet (the shard-scaling
  // story); sim cells anchor the modeled device at the endpoints.
  const std::vector<Cell> cells{
      {1, 1, device::Backend::kHost}, {2, 2, device::Backend::kHost},
      {4, 4, device::Backend::kHost}, {1, 1, device::Backend::kSim},
      {4, 4, device::Backend::kSim},
  };

  // Suites: massive (the point of sharding) + a smaller degree-skewed
  // control where the hub straggler, not memory, is the enemy.
  struct Labeled {
    std::string suite;
    BuiltInstance bi;
  };
  std::vector<Labeled> instances;
  if (!skip_massive)
    for (BuiltInstance& bi : build_massive_suite(opt))
      instances.push_back({"massive", std::move(bi)});
  {
    const auto rows = static_cast<index_t>(0.9 * static_cast<double>(skew_n));
    struct SkewSpec {
      const char* name;
      graph::BipartiteGraph g;
    };
    std::vector<SkewSpec> skews;
    skews.push_back(
        {"skew_hub_block",
         gen::skewed_hubs(rows, skew_n, std::max<index_t>(8, skew_n / 8),
                          0.008, 3.0, opt.seed, /*scatter=*/false)});
    skews.push_back({"skew_huge_hubs",
                     gen::huge_bipartite(rows, skew_n, 4.0, 0.01,
                                         std::max<index_t>(1, skew_n / 64),
                                         opt.seed + 7)});
    for (SkewSpec& s : skews) {
      BuiltInstance bi;
      bi.meta.name = s.name;
      bi.g = std::move(s.g);
      prepare_instance(bi);
      instances.push_back({"skew", std::move(bi)});
    }
  }

  std::cout << "# shard_scaling — g-pr-sh across shards x engines x "
               "backends\n# instances: "
            << instances.size() << ", cells: " << cells.size() << ", seed "
            << opt.seed << ", reps " << reps << '\n';

  std::vector<std::string> headers{"instance", "suite", "MM"};
  for (const Cell& cell : cells) {
    headers.push_back(cell.label() + " wall(s)");
    headers.push_back(cell.label() + " fleet(s)");
  }
  Table table(std::move(headers), 4);

  // Per (suite, cell) series for the geomean summaries.
  struct Series {
    std::vector<double> wall, fleet;
  };
  std::vector<std::vector<Series>> series(
      2, std::vector<Series>(cells.size()));
  const auto group_of = [](const std::string& s) {
    return s == "massive" ? 0 : 1;
  };

  bool all_ok = true;
  std::vector<JsonRecord> records;
  for (const Labeled& inst : instances) {
    if (opt.verbose)
      std::cout << "  " << inst.bi.meta.name << ": "
                << inst.bi.g.describe() << '\n';
    std::vector<Table::Cell> row{
        inst.bi.meta.name, inst.suite,
        static_cast<std::int64_t>(inst.bi.maximum_cardinality)};
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const Cell& cell = cells[c];
      const auto fleet = build_fleet(cell, opt.threads);
      device::Device dev(fleet.front());
      attach_tracer(opt, dev);
      SolveContext ctx{.device = &dev,
                       .threads = opt.threads,
                       .engines = fleet,
                       .tracer = opt.tracer()};
      const auto solver = SolverRegistry::instance().create("g-pr-sh");
      if (!solver->set_option("shards", std::to_string(cell.shards)))
        throw std::logic_error("g-pr-sh lost its shards option");
      AlgoResult best;
      for (int rep = 0; rep < reps; ++rep) {
        const AlgoResult r = run_solver(*solver, ctx, inst.bi);
        all_ok &= r.ok;
        if (rep == 0 || r.seconds < best.seconds) best = r;
      }
      row.emplace_back(best.seconds);
      row.emplace_back(best.modeled_seconds);
      series[group_of(inst.suite)][c].wall.push_back(best.seconds);
      series[group_of(inst.suite)][c].fleet.push_back(
          best.modeled_seconds > 0.0 ? best.modeled_seconds : best.seconds);
      records.push_back(to_json_record(inst.bi.meta.name, inst.suite,
                                       "g-pr-sh:" + cell.label(), best,
                                       cell.backend, &inst.bi.features));
    }
    table.add_row(std::move(row));
  }

  if (opt.csv)
    std::cout << table.to_csv();
  else
    table.print(std::cout);

  // Geomean speedups of every cell over its backend's K=1 anchor, per
  // suite, on both axes.  Fleet is the shard-scaling number; wall is
  // reported next to it so a core-starved box's flat wall is visible
  // rather than hidden.
  std::vector<std::pair<std::string, double>> summary;
  const char* group_names[2] = {"massive", "skew"};
  std::cout << '\n';
  for (int grp = 0; grp < 2; ++grp) {
    if (series[grp][0].wall.empty()) continue;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      // Anchor: the K=1 cell of the same backend.
      std::size_t anchor = c;
      for (std::size_t a = 0; a < cells.size(); ++a)
        if (cells[a].backend == cells[c].backend && cells[a].shards == 1)
          anchor = a;
      if (anchor == c) continue;
      const double wall_speedup =
          geometric_mean(series[grp][anchor].wall) /
          geometric_mean(series[grp][c].wall);
      const double fleet_speedup =
          geometric_mean(series[grp][anchor].fleet) /
          geometric_mean(series[grp][c].fleet);
      const std::string label =
          std::string(group_names[grp]) + ":" + cells[c].label();
      summary.emplace_back("wall_speedup:" + label, wall_speedup);
      summary.emplace_back("fleet_speedup:" + label, fleet_speedup);
      std::cout << label << ": geomean wall speedup " << wall_speedup
                << "x, fleet critical-path speedup " << fleet_speedup
                << "x (vs " << cells[anchor].label() << ")\n";
    }
  }
  try {
    write_json(opt.json_path, "shard_scaling", records, summary);
    write_observability(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  std::cout << "\nExpected shape: fleet critical path drops with K (each "
               "round costs the max shard, not the sum); wall follows only "
               "when the box has cores for every engine.\n";
  return all_ok ? 0 : 1;
}
