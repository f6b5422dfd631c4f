// Fleet orchestration study: the same small experiment grid is run
// in-process (the golden result) and then over TCP worker-agent fleets of
// increasing size, asserting byte-identical merged CSVs at every agent
// count and measuring aggregate throughput in work units per second.
//
// Unlike the figure sweeps (which measure the simulation), this harness
// measures the orchestration substrate itself — dispatch latency hiding,
// capacity weighting, and the cost of the shard round-trip.
//
// Modes / options:
//   --agents=LIST     fleet sizes to run (default 1,3; each in [1, 64]; the
//                     first is the scaling baseline)
//   --capacity=C      advertised capacity of every self-spawned agent
//                     (default 1)
//   --units=M         work units to plan (default 12)
//   --trials=N        Monte-Carlo trials per grid point (default 48)
//   --ns/--factors/--strategies/--seed   the experiment grid (small defaults)
//   --die-after=K     failure injection: the first agent of every fleet run
//                     drops its connection after K results (the merged CSV
//                     must still match the golden bytes)
//   --smoke           CI-sized run (fewer trials and units)
//
// The binary doubles as the fleet worker agent (--worker-agent=HOST:PORT)
// and as the per-unit worker (--run-unit=...), exactly like every other
// fleet-aware harness.

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_util.hpp"
#include "sim/experiment.hpp"
#include "sim/experiment_io.hpp"
#include "sim/orchestrator.hpp"
#include "util/options.hpp"
#include "util/remote_pool.hpp"
#include "util/subprocess.hpp"
#include "util/table.hpp"

namespace {

using namespace minim;

constexpr const char* kTag = "fleet";

struct FleetConfig {
  std::vector<double> ns;
  std::vector<double> factors;
  std::vector<std::string> strategies;
  std::vector<double> agents;
  std::uint32_t capacity = 1;
  std::size_t units = 12;
  std::size_t die_after = 0;
  sim::ExperimentOptions run;
};

FleetConfig config_from(const util::Options& options) {
  const bool smoke = options.get_bool("smoke", false);
  FleetConfig config;
  config.ns = bench::double_list_from(options, "ns", {20, 30}, {1, 1e6, true});
  config.factors = bench::double_list_from(options, "factors", {2.0, 3.0});
  config.strategies =
      bench::string_list_from(options, "strategies", {"minim", "cp"});
  config.agents = bench::double_list_from(
      options, "agents",
      smoke ? std::vector<double>{1, 2} : std::vector<double>{1, 3},
      {1, 64, true});
  config.capacity = static_cast<std::uint32_t>(
      std::max<long long>(1, options.get_int("capacity", 1)));
  config.units = static_cast<std::size_t>(
      options.get_int("units", smoke ? 6 : 12));
  config.die_after =
      static_cast<std::size_t>(options.get_int("die-after", 0));
  config.run.trials = static_cast<std::size_t>(
      options.get_int("trials", smoke ? 12 : 48));
  config.run.seed = static_cast<std::uint64_t>(options.get_int("seed", 2001));
  // Workers run one unit at a time; the driver machine also hosts the
  // agents, so per-worker threading stays serial.
  config.run.threads = 1;
  return config;
}

sim::Experiment make_experiment(const FleetConfig& config) {
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

std::string csv_bytes(const sim::ExperimentResult& result) {
  std::ostringstream out;
  sim::write_experiment_csv(result, out);
  return out.str();
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct FleetRun {
  std::size_t agents = 0;
  std::size_t units = 0;
  double wall_s = 0.0;
  std::size_t redispatched = 0;
  std::size_t agents_lost = 0;
};

/// One fleet pass: self-spawn `agents` loopback agents, run the whole grid
/// over them, and require the merged CSV to match `golden` byte for byte.
FleetRun run_fleet(const FleetConfig& config, const sim::Experiment& experiment,
                   const std::string& golden, std::size_t agents) {
  const std::string scratch =
      "fleet-bench-scratch-a" + std::to_string(agents);

  util::RemotePoolOptions pool_options;
  pool_options.self_spawn = agents;
  pool_options.agent_capacity = config.capacity;
  pool_options.scratch_dir = scratch + "/agents";
  // The injection needs a survivor to requeue onto; a 1-agent fleet would
  // (correctly) abort the run instead, so keep its pass clean.
  if (config.die_after > 0 && agents > 1)
    pool_options.first_agent_extra_args.push_back(
        "--agent-die-after=" + std::to_string(config.die_after));
  util::RemotePool pool(pool_options);

  sim::OrchestratorOptions orchestration;
  orchestration.experiment =
      std::string(kTag) + "#" +
      bench::experiment_fingerprint(experiment, config.run);
  orchestration.workers = std::max<std::size_t>(
      1, agents * static_cast<std::size_t>(config.capacity));
  orchestration.units = config.units;
  orchestration.scratch_dir = scratch;
  orchestration.pool = &pool;

  const std::string self = util::self_exe_path();
  if (self.empty()) {
    std::cerr << "cannot locate this executable to self-spawn agents\n";
    std::exit(2);
  }
  const auto list_arg = [](const char* key, const std::vector<double>& xs) {
    std::ostringstream os;
    os << "--" << key << "=";
    for (std::size_t i = 0; i < xs.size(); ++i)
      os << (i ? "," : "") << util::fmt_fixed(xs[i], 3);
    return os.str();
  };
  std::ostringstream strategies;
  for (std::size_t i = 0; i < config.strategies.size(); ++i)
    strategies << (i ? "," : "") << config.strategies[i];
  const std::vector<std::string> base_args{
      self,
      "--trials=" + std::to_string(config.run.trials),
      "--seed=" + std::to_string(config.run.seed),
      list_arg("ns", config.ns),
      list_arg("factors", config.factors),
      "--strategies=" + strategies.str()};

  sim::Orchestrator orchestrator(experiment.points().size(),
                                 config.run.trials, config.run.seed,
                                 orchestration);
  FleetRun stats;
  stats.agents = agents;
  stats.units = orchestrator.units().size();
  const auto start = std::chrono::steady_clock::now();
  const sim::ExperimentResult merged = orchestrator.run(
      [&base_args](const sim::WorkUnit& unit, const std::string& out_path) {
        std::vector<std::string> args = base_args;
        args.push_back("--run-unit=" + std::to_string(unit.point_begin) + "/" +
                       std::to_string(unit.point_count) + "/" +
                       std::to_string(unit.trial_begin) + "/" +
                       std::to_string(unit.trial_count));
        args.push_back("--unit-out=" + out_path);
        args.push_back("--unit-id=" + std::to_string(unit.id));
        args.push_back("--unit-tag=" + std::string(kTag));
        return args;
      });
  stats.wall_s = seconds_since(start);
  stats.redispatched = pool.stats().redispatched;
  stats.agents_lost = pool.stats().agents_lost;

  if (csv_bytes(merged) != golden) {
    std::cerr << "FAIL: fleet of " << agents
              << " agent(s) merged to different bytes than the in-process "
                 "run\n";
    std::exit(1);
  }

  std::error_code ignored;
  std::filesystem::remove_all(scratch, ignored);
  return stats;
}

double units_per_s(const FleetRun& run) {
  return run.wall_s > 0.0 ? static_cast<double>(run.units) / run.wall_s : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options options(argc, argv);
  // A fleet agent serves units for a remote driver; nothing else in this
  // harness applies to that invocation.
  if (bench::is_fleet_agent(options)) return bench::run_fleet_agent(options);

  const FleetConfig config = config_from(options);
  const sim::Experiment experiment = make_experiment(config);
  if (bench::run_worker_unit(options, experiment, config.run, kTag)) return 0;

  std::cout << "Fleet study: " << experiment.points().size() << " grid points"
            << " x " << config.run.trials << " trials, " << config.units
            << " units, capacity " << config.capacity << " per agent\n";

  // The golden bytes every fleet size must reproduce, and the serial
  // reference wall clock.
  const auto serial_start = std::chrono::steady_clock::now();
  const std::string golden = csv_bytes(experiment.run(config.run));
  const double serial_wall_s = seconds_since(serial_start);
  std::cout << "  in-process reference: " << util::fmt_fixed(serial_wall_s, 2)
            << " s\n";

  std::vector<FleetRun> runs;
  for (double raw : config.agents) {
    const auto agents = static_cast<std::size_t>(raw);
    runs.push_back(run_fleet(config, experiment, golden, agents));
    const FleetRun& run = runs.back();
    std::cout << "  fleet of " << agents << ": "
              << util::fmt_fixed(run.wall_s, 2) << " s, "
              << util::fmt_fixed(units_per_s(run), 1) << " units/s ("
              << run.redispatched << " speculative re-dispatch(es), "
              << run.agents_lost << " agent(s) lost), merged CSV identical\n";
  }
  if (runs.empty()) {
    std::cerr << "no agent counts to run (--agents)\n";
    return 2;
  }

  util::TextTable table("Fleet throughput (byte-identical merges)");
  table.set_header({"agents", "units", "wall s", "units/s", "vs @a1"});
  const double base_rate = units_per_s(runs.front());
  for (const FleetRun& run : runs)
    table.add_row({std::to_string(run.agents), std::to_string(run.units),
                   util::fmt_fixed(run.wall_s, 2),
                   util::fmt_fixed(units_per_s(run), 1),
                   base_rate > 0.0
                       ? util::fmt_fixed(units_per_s(run) / base_rate, 2) + "x"
                       : "-"});
  std::cout << table.render() << "\n";

  return 0;
}
