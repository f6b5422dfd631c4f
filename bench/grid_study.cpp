// Grid-study harness for the unified experiment API: a 2-axis parameter grid
// (N x raise_factor, the power-increase scenario) across several strategies.
//
// By default the whole grid runs in this process.  With --orchestrate=K it is
// driven across K self-spawned worker processes (--units, --split, --shard-dir
// and the rest of the orchestration flag set are in bench_util.hpp), and with
// --fleet-agents=K across loopback TCP worker agents; either way the merged
// result is bit-identical to the single-process run.  Trial t of grid point p
// always draws stream p * trials + t regardless of which process runs it.
//
// Options:
//   --trials=N          total Monte-Carlo trials per grid point (default 100)
//   --seed=S            master seed (default 2001)
//   --threads=T         pool size (default 0 = hardware concurrency)
//   --ns=...            N axis values (default 40,60,80,100)
//   --factors=...       raise_factor axis values (default 1.5,2.5,3.5,4.5,5.5)
//   --strategies=...    strategy names (default minim,cp,bbb)
//   --csv-dir=DIR       also write DIR/grid_study.csv (one row per cell)
//   --save-experiment=F write the full per-trial experiment CSV to F (the
//                       artifact CI diffs between orchestrated and
//                       single-process runs)

#include <iostream>
#include <string>
#include <vector>

#include "../bench/bench_util.hpp"
#include "sim/experiment.hpp"
#include "sim/experiment_io.hpp"
#include "util/csv.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

using namespace minim;

struct StudyConfig {
  std::vector<double> ns;
  std::vector<double> factors;
  std::vector<std::string> strategies;
  sim::ExperimentOptions run;
};

StudyConfig config_from(const util::Options& options) {
  StudyConfig config;
  config.ns = bench::double_list_from(options, "ns", {40, 60, 80, 100});
  config.factors =
      bench::double_list_from(options, "factors", {1.5, 2.5, 3.5, 4.5, 5.5});
  config.strategies =
      bench::string_list_from(options, "strategies", {"minim", "cp", "bbb"});
  config.run.trials = static_cast<std::size_t>(options.get_int("trials", 100));
  config.run.seed = static_cast<std::uint64_t>(options.get_int("seed", 2001));
  config.run.threads = static_cast<std::size_t>(options.get_int("threads", 0));
  return config;
}

sim::Experiment make_experiment(const StudyConfig& config) {
  sim::ExperimentGrid grid;
  grid.base.kind = sim::ScenarioKind::kPower;
  grid.axes.push_back(sim::GridAxis{
      "n", config.ns, [](sim::ScenarioSpec& spec, double x) {
        spec.workload.n = static_cast<std::size_t>(x);
      }});
  grid.axes.push_back(sim::GridAxis{
      "raise_factor", config.factors,
      [](sim::ScenarioSpec& spec, double x) { spec.raise_factor = x; }});
  grid.strategies = config.strategies;
  return sim::Experiment(std::move(grid));
}

void print_result(const sim::ExperimentResult& result,
                  const util::Options& options) {
  util::TextTable table("Grid study: power increase (delta vs post-join state)");
  table.set_header({"N", "raisefactor", "strategy", "d max color",
                    "d recodings", "trials"});
  struct Row {
    util::RunningStats color;
    util::RunningStats recode;
  };
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t p = 0; p < result.point_count(); ++p)
    for (std::size_t s = 0; s < result.strategy_count(); ++s) {
      Row row;
      for (const sim::ExperimentTrial& trial : result.cell(p, s).trials) {
        row.color.add(trial.delta_max_color());
        row.recode.add(trial.delta_recodings());
      }
      table.add_row({util::fmt_fixed(result.points[p][0], 0),
                     util::fmt_fixed(result.points[p][1], 1),
                     result.strategies[s],
                     util::fmt_fixed(row.color.mean(), 2) + " +- " +
                         util::fmt_fixed(row.color.ci95_halfwidth(), 2),
                     util::fmt_fixed(row.recode.mean(), 2) + " +- " +
                         util::fmt_fixed(row.recode.ci95_halfwidth(), 2),
                     std::to_string(row.color.count())});
      csv_rows.push_back(
          {util::fmt_fixed(result.points[p][0], 3),
           util::fmt_fixed(result.points[p][1], 3), result.strategies[s],
           std::to_string(row.color.count()), util::fmt_fixed(row.color.mean(), 6),
           util::fmt_fixed(row.color.ci95_halfwidth(), 6),
           util::fmt_fixed(row.recode.mean(), 6),
           util::fmt_fixed(row.recode.ci95_halfwidth(), 6)});
    }
  std::cout << table.render() << "\n";

  const std::string csv_dir = options.get("csv-dir", "");
  if (!csv_dir.empty()) {
    auto stream = util::open_csv(csv_dir + "/grid_study.csv");
    util::CsvWriter csv(stream);
    csv.header({"n", "raise_factor", "strategy", "trials", "d_color_mean",
                "d_color_ci95", "d_recodings_mean", "d_recodings_ci95"});
    for (const auto& row : csv_rows) csv.row(row);
    std::cout << "[csv] wrote " << csv_dir << "/grid_study.csv\n";
  }
}

/// --save-experiment=F: persist the full per-trial result (exact format) —
/// the artifact the CI equivalence gate compares across run modes.
void save_experiment_if_requested(const sim::ExperimentResult& result,
                                  const util::Options& options) {
  const std::string path = options.get("save-experiment", "");
  if (path.empty()) return;
  sim::write_experiment_csv_file(result, path);
  std::cout << "[csv] wrote " << path << " (full per-trial experiment)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options options(argc, argv);
  // A fleet agent serves units for a remote driver; nothing else in this
  // harness applies to that invocation.
  if (bench::is_fleet_agent(options)) return bench::run_fleet_agent(options);
  const StudyConfig config = config_from(options);

  // Orchestration worker: run this unit's rectangle, write its shard CSV,
  // and say nothing on stdout (the driver collects the log).
  if (bench::is_worker(options)) {
    if (bench::run_worker_unit(options, make_experiment(config), config.run,
                               "grid_study"))
      return 0;
    std::cerr << "unknown --unit-tag for grid_study\n";
    return 2;
  }

  std::cout << "=== Grid study: N x raise_factor ===\n"
            << config.ns.size() << " x " << config.factors.size()
            << " grid, strategies:";
  for (const auto& s : config.strategies) std::cout << " " << s;
  std::cout << ", " << config.run.trials << " trials, seed " << config.run.seed
            << "\n\n";

  const sim::ExperimentResult result = bench::run_experiment_cli(
      options, make_experiment(config), config.run, "grid_study");
  save_experiment_if_requested(result, options);
  print_result(result, options);
  return 0;
}
