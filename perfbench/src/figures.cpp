// paper-figures: the fig10, fig11 and fig12 paper x-grids (the harnesses'
// strategy sets) at a fixed run count, orchestrated through sim::Orchestrator
// over 2 local worker processes.  A round runs all six grids to merged CSVs
// under a seed drawn from the run's; rounds repeat until the run's seconds
// are spent, and every merged CSV must be byte-equal to the in-process
// sim::Experiment run (with CA1/CA2 validation after every event) of its
// round's seed.
//
// The traced run also drives every minim trial through the replica for the
// net, core, matching and minim-repair layers.
//
// Workers are this binary (`--figures-worker`).  Each times its trials
// through the grid's strategy factory — a trial's first strategy is built
// when its replay starts — and leaves the samples beside its shard CSV.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>

#include "replica.hpp"
#include "sim/experiment_io.hpp"
#include "sim/orchestrator.hpp"
#include "sim/replay.hpp"
#include "sim/sweeps.hpp"
#include "strategies/factory.hpp"
#include "util/rng.hpp"
#include "util/subprocess.hpp"
#include "util/worker_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace sim = minim::sim;
namespace util = minim::util;
namespace fs = std::filesystem;

constexpr std::size_t kRuns = 10;    ///< Monte-Carlo runs per grid point
constexpr std::size_t kWorkers = 2;  ///< orchestrated worker processes
/// In-process reference run: util::map_reduce's caller works alongside its
/// pool, so 2 pool threads keep the run at 3 busy threads.
constexpr std::size_t kReferenceThreads = 2;
constexpr std::uint64_t kRoundStream = 0xf16;  ///< per-round seed stream

struct Grid {
  std::string tag;
  sim::Experiment experiment;
};

/// The six grids of bench/fig10_join, fig11_power_increase and
/// fig12_movement, with their strategy sets.
std::vector<Grid> make_grids(std::uint64_t seed, bool validate,
                             const minim::strategies::StrategyFactory& factory) {
  const auto options = [&](std::vector<std::string> strategies) {
    sim::SweepOptions sweep;
    sweep.strategies = std::move(strategies);
    sweep.runs = kRuns;
    sweep.seed = seed;
    sweep.threads = 1;
    sweep.validate = validate;
    sweep.strategy_factory = factory;
    return sweep;
  };
  const auto all = options({"minim", "cp", "bbb"});
  const auto distributed = options({"minim", "cp"});
  std::vector<Grid> grids;
  grids.push_back({"fig10-n", sim::Experiment(sim::grid_join_vs_n(
                                  {40, 50, 60, 70, 80, 90, 100, 110, 120}, all))});
  grids.push_back({"fig10-range", sim::Experiment(sim::grid_join_vs_avg_range(
                                      {7.5, 17.5, 27.5, 37.5, 47.5, 57.5, 67.5}, all))});
  grids.push_back({"fig11", sim::Experiment(sim::grid_power_vs_raise_factor(
                                {1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0},
                                options({"minim", "cp", "cp-exact", "bbb"})))});
  grids.push_back({"fig12-disp", sim::Experiment(sim::grid_move_vs_max_displacement(
                                     {0, 10, 20, 30, 40, 50, 60, 70, 80}, distributed))});
  const std::vector<double> rounds{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  grids.push_back({"fig12-rounds", sim::Experiment(sim::grid_move_vs_rounds(rounds, all))});
  grids.push_back({"fig12-rounds-dist",
                   sim::Experiment(sim::grid_move_vs_rounds(rounds, distributed))});
  return grids;
}

sim::ExperimentOptions run_options(std::uint64_t seed, std::size_t threads) {
  sim::ExperimentOptions run;
  run.trials = kRuns;
  run.seed = seed;
  run.threads = threads;
  return run;
}

std::string csv_of(const sim::ExperimentResult& result) {
  std::ostringstream os;
  sim::write_experiment_csv(result, os);
  return os.str();
}

/// The process pool the orchestrator schedules over, with its lifecycle
/// events counted on the way through.
class ObservedPool final : public util::WorkerPool {
 public:
  std::vector<util::WorkerOutcome> run_jobs(const std::vector<util::WorkerJob>& jobs,
                                            const Observer& observer) override {
    return pool_.run_jobs(jobs, [&](const util::WorkerPoolEvent& event) {
      switch (event.kind) {
        case util::WorkerPoolEvent::Kind::kStart: ++attempts; break;
        case util::WorkerPoolEvent::Kind::kRetry: ++retries; break;
        case util::WorkerPoolEvent::Kind::kFinish:
          if (!event.outcome->ok) ++failures;
          unit_s.push_back(event.wall_s);
          last_finish_ns = now_ns();
          break;
        default: break;
      }
      if (observer) observer(event);
    });
  }

  std::size_t attempts = 0;
  std::size_t retries = 0;
  std::size_t failures = 0;
  std::vector<double> unit_s;
  std::uint64_t last_finish_ns = 0;

 private:
  util::ProcessPool pool_{kWorkers};
};

/// What one orchestrated round of the six grids produced.
struct Round {
  double setup_s = 0.0;  ///< plan + worker spawn, summed over the grids
  double wall_s = 0.0;   ///< round start to the last merged CSV on disk
  double merge_s = 0.0;  ///< last unit finished to merged, summed
  LatencySamples trial_us;
  std::vector<std::string> csvs;  ///< merged CSV bytes, grid order
};

/// Reads and removes a worker's sample file: its start stamp, then one
/// trial latency (ns) per line.
std::uint64_t take_samples(const std::string& path, LatencySamples& samples) {
  std::ifstream in(path);
  require(in.good(), "worker left no samples at " + path);
  std::uint64_t started = 0;
  in >> started;
  std::uint64_t ns = 0;
  while (in >> ns) samples.add(static_cast<double>(ns) * 1e-3);
  in.close();
  fs::remove(path);
  return started;
}

Round orchestrated_round(const std::vector<Grid>& grids, std::uint64_t seed,
                         const std::string& scratch, ObservedPool& pool) {
  Round round;
  const std::string self = util::self_exe_path();
  require(!self.empty(), "cannot locate this executable to spawn workers");
  const std::uint64_t round_start = now_ns();
  std::uint64_t bookkeeping_ns = 0;
  for (const Grid& grid : grids) {
    const std::string dir = scratch + "/" + grid.tag;
    std::uint64_t merged_at = 0;
    sim::OrchestratorOptions options;
    options.experiment = grid.tag;
    options.workers = kWorkers;
    options.worker_timeout_s = 120.0;
    options.scratch_dir = dir;
    options.pool = &pool;
    options.progress = [&merged_at](const std::string& line) {
      if (line.find("] merged ") != std::string::npos) merged_at = now_ns();
    };
    std::vector<std::string> sample_files;
    const std::uint64_t planned = now_ns();
    sim::Orchestrator orchestrator(grid.experiment.points().size(), kRuns, seed, options);
    const sim::ExperimentResult merged = orchestrator.run(
        [&](const sim::WorkUnit& unit, const std::string& out) {
          sample_files.push_back(out + ".samples");
          return std::vector<std::string>{
              self, "--figures-worker", grid.tag, std::to_string(seed),
              std::to_string(unit.point_begin), std::to_string(unit.point_count),
              std::to_string(unit.trial_begin), std::to_string(unit.trial_count), out};
        });
    const std::string csv_path = scratch + "/" + grid.tag + ".csv";
    sim::write_experiment_csv_file(merged, csv_path);
    require(merged_at >= pool.last_finish_ns, "orchestrator reported no merge");
    round.merge_s += static_cast<double>(merged_at - pool.last_finish_ns) * 1e-9;

    // Collecting samples and CSV bytes is the benchmark's own work: it is
    // excluded from the round's wall time.
    const std::uint64_t bookkeeping_start = now_ns();
    std::uint64_t first_worker = UINT64_MAX;
    for (const std::string& file : sample_files)
      first_worker = std::min(first_worker, take_samples(file, round.trial_us));
    round.setup_s += static_cast<double>(first_worker - planned) * 1e-9;
    std::ifstream in(csv_path);
    round.csvs.push_back(std::string(std::istreambuf_iterator<char>(in), {}));
    fs::remove_all(dir);
    bookkeeping_ns += now_ns() - bookkeeping_start;
  }
  round.wall_s = static_cast<double>(now_ns() - round_start - bookkeeping_ns) * 1e-9;
  return round;
}

/// Span name of one strategy's replay (span names are static strings).
const char* replay_span(const std::string& strategy) {
  for (const char* name :
       {"sim.replay.minim", "sim.replay.cp", "sim.replay.cp-exact", "sim.replay.bbb"})
    if (strategy == name + std::strlen("sim.replay.")) return name;
  throw std::logic_error("no replay span for strategy " + strategy);
}

/// The in-process reference: every grid through sim::Experiment with
/// CA1/CA2 validated after every event.
std::vector<sim::ExperimentResult> reference_results(std::uint64_t seed) {
  std::vector<sim::ExperimentResult> results;
  for (const Grid& grid : make_grids(seed, true, {}))
    results.push_back(grid.experiment.run(run_options(seed, kReferenceThreads)));
  return results;
}

Report untraced(const RunArgs& args) {
  Report report = blank_report(false);
  // Each round runs the grids under its own seed, drawn from the run's:
  // one seed's trials are too few for a steady median trial latency.  Its
  // in-process reference runs after it, outside the timed window.
  const std::string scratch = args.scratch + "/paper-figures";
  ObservedPool pool;
  std::size_t mismatched = 0, grid_count = 0;
  double events = 0.0, recodings = 0.0, max_color = 0.0, trials = 0.0;
  LatencySamples trial_us;
  std::vector<double> setups, walls, rates;
  double measured_s = 0.0;
  for (std::uint64_t r = 0; walls.size() < 2 || measured_s < args.seconds; ++r) {
    const std::uint64_t seed = util::Rng::for_stream(args.seed, kRoundStream + r)();
    const std::vector<Grid> grids = make_grids(seed, false, {});
    const Round round = orchestrated_round(grids, seed, scratch, pool);
    measured_s += round.wall_s;
    double round_events = 0.0;
    const std::vector<sim::ExperimentResult> reference = reference_results(seed);
    for (std::size_t g = 0; g < grids.size(); ++g) {
      if (round.csvs[g] != csv_of(reference[g])) ++mismatched;
      for (const sim::ExperimentCell& cell : reference[g].cells)
        for (const sim::ExperimentTrial& trial : cell.trials) {
          round_events += static_cast<double>(trial.totals.events);
          recodings += static_cast<double>(trial.totals.recodings);
          max_color += static_cast<double>(trial.final_max_color);
          trials += 1.0;
        }
    }
    grid_count += grids.size();
    events += round_events;
    trial_us.append(round.trial_us);
    setups.push_back(round.setup_s);
    walls.push_back(round.wall_s);
    rates.push_back(round_events / round.wall_s);
  }
  fs::remove_all(scratch);
  report.attempted = pool.attempts;
  report.failed = pool.retries + pool.failures;
  if (mismatched != 0 || report.failed != 0) {
    std::cout << "[check] FAIL: " << mismatched << " merged CSVs differ from the "
              << "in-process run; " << report.failed << " failed worker attempts\n";
    report.correct = false;
    report.failed = report.attempted;
  } else {
    std::cout << "[check] PASS: " << grid_count
              << " merged CSVs byte-equal to the in-process sim::Experiment run "
                 "of their seed, which validated CA1/CA2 after every event\n";
  }
  require(print_latency("per Monte-Carlo trial, in the workers", trial_us),
          "too few samples to support p99");

  report.update("setup_s", median(setups));
  report.update("events_per_s", median(rates));
  report.update("p50_us", trial_us.quantile(0.5));
  report.update("p99_us", trial_us.quantile(0.99));
  report.update("wall_s", median(walls));
  report.update("peak_rss_mb", peak_rss_mb());
  report.update("recodings_per_event", recodings / events);
  report.update("max_color", max_color / trials);
  std::cout << "[figures] " << walls.size() << " rounds of 6 grids at " << kRuns
            << " runs (" << measured_s << " s measured); " << pool.attempts
            << " worker attempts, " << pool.retries << " retries\n";
  return report;
}

Report traced(const RunArgs& args) {
  Report report = blank_report(true);
  const std::vector<sim::ExperimentResult> reference = reference_results(args.seed);
  const std::vector<Grid> grids = make_grids(args.seed, false, {});

  // One orchestrated round: unit, merge and worker-attempt figures.
  const std::string scratch = args.scratch + "/paper-figures";
  ObservedPool pool;
  const Round round = orchestrated_round(grids, args.seed, scratch, pool);
  fs::remove_all(scratch);
  double unit_total = 0.0;
  for (const double s : pool.unit_s) unit_total += s;
  report.update("sim.unit_s", unit_total / static_cast<double>(pool.unit_s.size()));
  report.update("sim.merge_s", round.merge_s);
  report.update("util.worker_attempts", static_cast<double>(pool.attempts));
  report.update("util.worker_retries", static_cast<double>(pool.retries));

  // In-process: sim::replay per strategy per (point, trial), untraced and
  // then traced, checked against the reference cell by cell.
  std::size_t mismatches = 0;
  const auto replay_all_grids = [&](Tracer* tracer) {
    const auto start = Clock::now();
    for (std::size_t g = 0; g < grids.size(); ++g) {
      const sim::Experiment& experiment = grids[g].experiment;
      const std::vector<std::string>& names = experiment.grid().strategies;
      for (std::size_t p = 0; p < experiment.points().size(); ++p) {
        const sim::ScenarioSpec spec = experiment.spec_for_point(p);
        for (std::size_t trial = 0; trial < kRuns; ++trial) {
          util::Rng rng = util::Rng::for_stream(args.seed, p * kRuns + trial);
          const std::int32_t gen = tracer ? tracer->begin("sim.workload_gen") : -1;
          const sim::Workload workload = sim::make_scenario_workload(spec, rng);
          if (tracer != nullptr) tracer->end(gen);
          for (std::size_t s = 0; s < names.size(); ++s) {
            const auto strategy = minim::strategies::make_strategy(names[s]);
            const ScopedSpan span(tracer, replay_span(names[s]));
            const sim::RunOutcome outcome = sim::replay(workload, *strategy);
            const sim::ExperimentTrial& expected =
                reference[g].cell(p, s).trials[trial];
            if (outcome.totals.recodings != expected.totals.recodings ||
                outcome.totals.events != expected.totals.events ||
                outcome.max_color != expected.final_max_color)
              ++mismatches;
          }
        }
      }
    }
    return seconds_since(start);
  };
  const double plain_s = replay_all_grids(nullptr);
  Tracer tracer;
  const double traced_s = replay_all_grids(&tracer);
  report.update("trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s);
  const auto spans = tracer.totals();
  for (const char* name : {"minim", "cp", "cp-exact", "bbb"}) {
    const auto it = spans.find(std::string("sim.replay.") + name);
    if (it != spans.end())
      report.update(std::string("sim.replay_s.") + name, it->second.total_ns * 1e-9);
  }
  report.update("sim.workload_gen_s", spans.at("sim.workload_gen").total_ns * 1e-9);
  print_spans(spans);

  // The minim repair layer by layer: every minim trial of the grids through
  // the replica (network mutation, then on_*), with the shadow G' build and
  // matching, checked against the reference cell.  The paper's workloads
  // have no leaves, so the leave metrics read 0 here.
  Tracer layers;
  ShadowStats shadow;
  std::unique_ptr<core::RecodingStrategy> strategy;
  std::unique_ptr<Replica> replica;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const sim::Experiment& experiment = grids[g].experiment;
    const std::vector<std::string>& names = experiment.grid().strategies;
    const auto minim_at = std::find(names.begin(), names.end(), "minim");
    if (minim_at == names.end()) continue;
    const auto s = static_cast<std::size_t>(minim_at - names.begin());
    for (std::size_t p = 0; p < experiment.points().size(); ++p) {
      const sim::ScenarioSpec spec = experiment.spec_for_point(p);
      for (std::size_t trial = 0; trial < kRuns; ++trial) {
        util::Rng rng = util::Rng::for_stream(args.seed, p * kRuns + trial);
        const sim::Workload workload = sim::make_scenario_workload(spec, rng);
        replica.reset();
        strategy = minim::strategies::make_strategy("minim");
        replica = std::make_unique<Replica>(*strategy, workload.width, workload.height,
                                            &layers, true);
        for (const sim::TraceEvent& e : sim::trace_from_workload(workload))
          replica->apply(e);
        const sim::ExperimentTrial& expected = reference[g].cell(p, s).trials[trial];
        if (replica->totals().recodings != expected.totals.recodings ||
            replica->totals().events != expected.totals.events ||
            replica->assignment().max_color() != expected.final_max_color)
          ++mismatches;
        shadow.events += replica->shadow().events;
        shadow.v1_size += replica->shadow().v1_size;
        shadow.gprime_edges += replica->shadow().gprime_edges;
        shadow.pool_colors += replica->shadow().pool_colors;
      }
    }
  }
  require(replica != nullptr, "no grid runs minim");
  const auto layer_spans = layers.totals();
  report_replica_layers(report, layer_spans, shadow, replica->network(), true);
  print_spans(layer_spans);

  report.attempted = pool.attempts;
  report.failed = pool.retries + pool.failures;
  if (mismatches != 0 || report.failed != 0) {
    std::cout << "[check] FAIL: " << mismatches
              << " in-process replays or minim replicas differ from the experiment\n";
    report.correct = false;
    report.failed = report.attempted;
  } else {
    std::cout << "[check] PASS: every solo replay and minim replica equals its "
                 "sim::Experiment cell\n";
  }
  return report;
}

}  // namespace

Report run_figures(const RunArgs& args) {
  return args.trace ? traced(args) : untraced(args);
}

int figures_worker(int argc, char** argv) {
  // argv: <self> --figures-worker <tag> <seed> <pb> <pc> <tb> <tc> <out>
  const std::uint64_t started = now_ns();
  if (argc != 9) {
    std::cerr << "--figures-worker wants: tag seed pb pc tb tc out\n";
    return 2;
  }
  const std::string tag = argv[2];
  const auto number = [&](int i) {
    return static_cast<std::size_t>(std::strtoull(argv[i], nullptr, 10));
  };
  const std::uint64_t seed = number(3);
  const std::string out = argv[8];

  // Trial boundaries: a trial builds its first strategy when its replay
  // starts (after its workload is generated).
  std::vector<std::uint64_t> trial_starts;
  std::string first_strategy;
  const minim::strategies::StrategyFactory factory = [&](const std::string& name) {
    if (name == first_strategy) trial_starts.push_back(now_ns());
    return minim::strategies::make_strategy(name);
  };
  for (const Grid& grid : make_grids(seed, false, factory)) {
    if (grid.tag != tag) continue;
    first_strategy = grid.experiment.grid().strategies.front();
    sim::ExperimentOptions run = run_options(seed, 1);
    run.point_begin = number(4);
    run.point_count = number(5);
    run.trial_begin = number(6);
    run.trial_count = number(7);
    const sim::ExperimentResult result = grid.experiment.run(run);
    const std::uint64_t finished = now_ns();
    sim::write_experiment_csv_file(result, out);
    std::ofstream samples(out + ".samples");
    samples << started << "\n";
    for (std::size_t i = 0; i < trial_starts.size(); ++i)
      samples << ((i + 1 < trial_starts.size() ? trial_starts[i + 1] : finished) -
                  trial_starts[i])
              << "\n";
    return samples.good() ? 0 : 1;
  }
  std::cerr << "unknown grid tag '" << tag << "'\n";
  return 2;
}

}  // namespace perfbench
