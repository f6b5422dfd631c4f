#pragma once

// Shared plumbing for the figure harnesses: render a sweep as the paper's
// table (x column + one column per strategy, mean over runs with the 95% CI
// half-width), and optionally dump raw CSV for offline plotting.
//
// Every harness honours:
//   --runs=N       Monte-Carlo runs per point (default 100, as in the paper)
//   --seed=S       master seed (default 2001)
//   --threads=T    worker threads (default: hardware)
//   --csv-dir=DIR  write <name>.csv series files into DIR
//   --fast         shorthand for --runs=10 (CI smoke)

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/network.hpp"
#include "sim/experiment_io.hpp"
#include "sim/orchestrator.hpp"
#include "sim/sweeps.hpp"
#include "util/csv.hpp"
#include "util/options.hpp"
#include "util/remote_pool.hpp"
#include "util/rpc.hpp"
#include "util/subprocess.hpp"
#include "util/table.hpp"

namespace minim::bench {

// --------------------------------------------------------- memory profiling

/// Peak resident set size of this process in bytes (Linux VmHWM); 0 when the
/// platform does not expose it.  Monotone over the process lifetime, so
/// harnesses that scale a size axis should run it ascending and snapshot
/// after each stage.
inline std::size_t peak_rss_bytes() {
#if defined(__linux__)
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  std::size_t kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10));
      break;
    }
  }
  std::fclose(status);
  return kib * 1024;
#else
  return 0;
#endif
}

/// Engine-footprint report for the large-N benches: heap bytes reachable
/// from the network's hot structures, normalized per live node.
struct MemoryProfile {
  std::size_t engine_bytes = 0;
  std::size_t nodes = 0;
  double bytes_per_node = 0.0;
};

inline MemoryProfile memory_profile(const net::AdhocNetwork& network) {
  MemoryProfile profile;
  profile.engine_bytes = network.memory_bytes();
  profile.nodes = network.node_count();
  if (profile.nodes > 0)
    profile.bytes_per_node = static_cast<double>(profile.engine_bytes) /
                             static_cast<double>(profile.nodes);
  return profile;
}

/// A stage's peak-RSS ceiling in MB, keyed by the stage name
/// `bench_large_n` prints ("bench.large_n.clustered.10000.churn").
struct RssBound {
  std::string_view stage;
  double max_mb;
};

/// One stage's peak RSS and the bound it is held to.
struct RssRow {
  std::string stage;
  double rss_mb = 0.0;
  std::optional<double> bound_mb;  ///< empty: no bound names this stage
  bool over() const { return bound_mb && rss_mb > *bound_mb; }
};

/// The bound `bounds` sets for `stage`, if any.
inline std::optional<double> rss_bound_for(std::span<const RssBound> bounds,
                                            std::string_view stage) {
  for (const RssBound& bound : bounds)
    if (bound.stage == stage) return bound.max_mb;
  return std::nullopt;
}

/// The RSS gate's verdict: at least one stage had a bound and none exceeded
/// it.  A stage without a bound is neither a pass nor a failure; its row
/// says so, and a run in which no stage had a bound fails.
inline bool rss_gate_passes(std::span<const RssRow> rows) {
  bool checked = false;
  for (const RssRow& row : rows) {
    if (row.over()) return false;
    checked = checked || row.bound_mb.has_value();
  }
  return checked;
}

/// Splits a comma-separated value on commas, dropping empty fields.
inline std::vector<std::string> split_list(const std::string& raw) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (start <= raw.size()) {
    const std::size_t pos = raw.find(',', start);
    const std::string field =
        raw.substr(start, pos == std::string::npos ? pos : pos - start);
    if (!field.empty()) fields.push_back(field);
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return fields;
}

/// Parses a comma-separated string list option ("--strategies=minim,cp");
/// returns `fallback` when the option is absent.
inline std::vector<std::string> string_list_from(const util::Options& options,
                                                 const std::string& key,
                                                 std::vector<std::string> fallback) {
  const std::string raw = options.get(key, "");
  return raw.empty() ? fallback : split_list(raw);
}

/// What one numeric flag field may hold.  The defaults admit any finite
/// number.
struct NumberRange {
  double min = std::numeric_limits<double>::lowest();
  double max = std::numeric_limits<double>::max();
  bool whole = false;  ///< integers only
};

/// Parses one numeric flag field: the whole text must be a finite number in
/// [range.min, range.max], and an integer when `range.whole`.  Empty for
/// anything else, so a typo never becomes a truncated value or a negative
/// one cast to std::size_t.
inline std::optional<double> parse_number(const std::string& text,
                                          const NumberRange& range) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front())))
    return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(value) || value < range.min || value > range.max ||
      (range.whole && value != std::floor(value)))
    return std::nullopt;
  return value;
}

/// `parse_number` at the CLI boundary: names the flag and exits 2 on a bad
/// field.
inline double number_or_exit(const std::string& key, const std::string& text,
                             const NumberRange& range) {
  const std::optional<double> value = parse_number(text, range);
  if (!value) {
    std::ostringstream want;
    want.precision(15);
    want << (range.whole ? "a whole number" : "a finite number");
    if (range.min != NumberRange{}.min || range.max != NumberRange{}.max)
      want << " in [" << range.min << ", " << range.max << "]";
    std::cerr << "--" << key << ": '" << text << "' is not " << want.str()
              << "\n";
    std::exit(2);
  }
  return *value;
}

/// Parses a comma-separated numeric list option ("--ns=40,60,80"); returns
/// `fallback` when the option is absent and exits 2 on any field outside
/// `range`.
inline std::vector<double> double_list_from(const util::Options& options,
                                            const std::string& key,
                                            std::vector<double> fallback,
                                            const NumberRange& range = {}) {
  const std::string raw = options.get(key, "");
  if (raw.empty()) return fallback;
  std::vector<double> values;
  for (const std::string& field : split_list(raw))
    values.push_back(number_or_exit(key, field, range));
  return values;
}

/// Upper bound on `--recolor-threads`: the recolor pool starts that many
/// threads, so a typo must not ask the OS for thousands.
inline constexpr std::size_t kMaxRecolorThreads = 256;

/// Parses one `--recolor-threads` value: digits only, 0 (one thread per
/// hardware core) or 1..kMaxRecolorThreads.  Empty for anything else.
inline std::optional<std::size_t> parse_recolor_threads(const std::string& text) {
  if (text.empty() || text.size() > 4 ||
      !std::all_of(text.begin(), text.end(),
                   [](unsigned char c) { return std::isdigit(c) != 0; }))
    return std::nullopt;
  const std::size_t threads = std::stoul(text);
  if (threads > kMaxRecolorThreads) return std::nullopt;
  return threads;
}

/// `parse_recolor_threads` at the CLI boundary: prints why and exits 2 on
/// an invalid value.
inline std::size_t recolor_threads_or_exit(const std::string& text) {
  const std::optional<std::size_t> threads = parse_recolor_threads(text);
  if (!threads) {
    std::cerr << "--recolor-threads=" << text << ": want 0 (one per core) or 1.."
              << kMaxRecolorThreads << "\n";
    std::exit(2);
  }
  return *threads;
}

/// Resolves `--csv-dir=DIR` once at start-up: creates DIR (parents
/// included) so the writers at the end of a run cannot fail on it, or exits 2
/// with a one-line message before any work starts.  No-op without the flag.
inline void prepare_csv_dir(const util::Options& options) {
  const std::string dir = options.get("csv-dir", "");
  if (dir.empty()) return;
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error || !std::filesystem::is_directory(dir)) {
    std::cerr << "--csv-dir=" << dir << ": cannot create directory"
              << (error ? ": " + error.message() : std::string()) << "\n";
    std::exit(2);
  }
}

inline sim::SweepOptions sweep_options_from(const util::Options& options,
                                            std::vector<std::string> strategies) {
  sim::SweepOptions sweep;
  sweep.strategies = std::move(strategies);
  sweep.runs = static_cast<std::size_t>(options.get_int("runs", 100));
  if (options.get_bool("fast", false)) sweep.runs = 10;
  sweep.seed = static_cast<std::uint64_t>(options.get_int("seed", 2001));
  sweep.threads = static_cast<std::size_t>(options.get_int("threads", 0));
  return sweep;
}

// ------------------------------------------------- orchestrated experiments
//
// Driver-aware CLI runner: a harness that routes its experiments through
// `run_experiment_cli` (and dispatches workers via `is_worker` +
// `run_worker_unit`) gains multi-process orchestration for free:
//
//   --orchestrate=K      drive K self-spawned worker processes
//   --units=M            work units to plan (default K)
//   --split=MODE         trials | points | auto (default auto)
//   --max-attempts=A     per-unit attempts, bounded retry (default 3)
//   --worker-timeout=S   per-attempt kill deadline in seconds (default none)
//   --shard-dir=DIR      scratch for shard CSVs/logs/manifest
//                        (default <tag>-orchestrate)
//   --resume             reuse done units from a prior manifest
//   --keep-shards        keep per-unit CSVs/logs after the merge
//   --crash-unit=I       failure injection (tests/CI): the worker for unit I
//                        exits 1 on its first attempt; a marker file next to
//                        the unit CSV makes the retried attempt succeed
//
// Fleet orchestration (TCP worker agents instead of local processes):
//   --fleet[=PORT]       listen for worker agents (0/absent value = an
//                        ephemeral port, printed at startup) and run the
//                        units over whoever connects
//   --fleet-agents=N     additionally self-spawn N loopback agents — the
//                        one-machine / CI form; implies --fleet
//   --fleet-capacity=C   advertised capacity of self-spawned agents (def. 1)
//   --straggler-factor=F speculative re-dispatch at F x median unit time
//   --fleet-die-after=K  failure injection: the first self-spawned agent
//                        drops its connection after K results
//   --fleet-delay-ms=X   straggler injection: the first self-spawned agent
//                        sleeps X ms before each unit
//
// Agent side (any fleet-aware harness binary doubles as the agent):
//   --worker-agent=HOST:PORT   connect to a fleet driver and serve units
//   --capacity=N               advertised concurrent units (def. cores)
//   --agent-scratch=DIR        agent-local scratch for unit CSVs/logs
//   --agent-die-after=K / --agent-delay-ms=X   injections (set by the
//                              driver's --fleet-die-after/--fleet-delay-ms)
//
// Worker-side internal flags (set by the driver, never by hand):
//   --run-unit=pb/pc/tb/tc --unit-out=F --unit-id=I --unit-tag=T

/// Option keys owned by the orchestration layer; never forwarded to workers.
inline const std::vector<std::string>& orchestrate_keys() {
  static const std::vector<std::string> keys{
      "orchestrate", "units",    "split",    "max-attempts",
      "worker-timeout", "shard-dir", "resume", "keep-shards",
      "run-unit",    "unit-out", "unit-id",  "unit-tag",
      "fleet",       "fleet-agents", "fleet-capacity", "straggler-factor",
      "fleet-die-after", "fleet-delay-ms",
      "worker-agent", "capacity", "agent-scratch", "agent-die-after",
      "agent-delay-ms"};
  return keys;
}

/// Keys that describe driver-side output, not the experiment; a worker fed
/// one of these would fight the driver over files/stdout.
inline const std::vector<std::string>& driver_output_keys() {
  static const std::vector<std::string> keys{
      "csv-dir", "save-experiment", "serial-check", "threads"};
  return keys;
}

/// True when this invocation is an orchestration worker.
inline bool is_worker(const util::Options& options) {
  return options.has("run-unit");
}

/// True when this invocation is a fleet worker agent (`--worker-agent=…`).
/// Check this before `is_worker`: the agent loop re-invokes this binary
/// with `--run-unit` for each job it serves.
inline bool is_fleet_agent(const util::Options& options) {
  return options.has("worker-agent");
}

/// Agent main: connect to the fleet driver named by `--worker-agent` and
/// serve units until SHUTDOWN.  Returns the process exit code.
inline int run_fleet_agent(const util::Options& options) {
  const std::string target = options.get("worker-agent", "");
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon + 1 >= target.size()) {
    std::cerr << "--worker-agent wants HOST:PORT, got '" << target << "'\n";
    return 2;
  }
  util::AgentOptions agent;
  agent.host = target.substr(0, colon);
  agent.port = static_cast<std::uint16_t>(
      std::strtoul(target.c_str() + colon + 1, nullptr, 10));
  agent.capacity = static_cast<std::uint32_t>(options.get_int("capacity", 0));
  agent.die_after =
      static_cast<std::size_t>(options.get_int("agent-die-after", 0));
  agent.delay_s = options.get_double("agent-delay-ms", 0.0) / 1000.0;
  agent.log = [](const std::string& line) {
    std::cout << line << "\n" << std::flush;
  };
  const std::string scratch =
      options.get("agent-scratch", "fleet-agent-scratch");
  return util::run_worker_agent(agent, util::subprocess_job_runner(scratch));
}

/// Parses the worker rectangle "pb/pc/tb/tc" into `run`; exits 2 on a
/// malformed value (driver bug, not user input).
inline void apply_worker_rectangle(const util::Options& options,
                                   sim::ExperimentOptions& run) {
  const std::string raw = options.get("run-unit", "");
  std::size_t fields[4] = {0, 0, 0, 0};
  std::size_t start = 0;
  for (std::size_t f = 0; f < 4; ++f) {
    const std::size_t slash = raw.find('/', start);
    const std::string part =
        raw.substr(start, slash == std::string::npos ? slash : slash - start);
    char* end = nullptr;
    fields[f] = static_cast<std::size_t>(
        std::strtoull(part.c_str(), &end, 10));
    if (part.empty() || end != part.c_str() + part.size() ||
        (f < 3 && slash == std::string::npos)) {
      std::cerr << "--run-unit wants pb/pc/tb/tc, got '" << raw << "'\n";
      std::exit(2);
    }
    start = slash + 1;
  }
  run.point_begin = fields[0];
  run.point_count = fields[1];
  run.trial_begin = fields[2];
  run.trial_count = fields[3];
}

/// Worker side: when `tag` matches this worker's `--unit-tag`, runs the
/// unit's rectangle of `experiment` and writes the shard CSV to
/// `--unit-out`; returns true (the caller returns 0 from main).  Returns
/// false when the tag names one of the harness's other experiments.
///
/// Failure injection: with `--crash-unit` equal to this unit's id, the first
/// attempt writes a marker file and exits 1 before running anything — the
/// driver's bounded retry then runs the unit for real.
inline bool run_worker_unit(const util::Options& options,
                            const sim::Experiment& experiment,
                            sim::ExperimentOptions run, const std::string& tag) {
  if (!is_worker(options)) return false;
  if (options.get("unit-tag", "") != tag) return false;

  const std::string out_path = options.get("unit-out", "");
  if (out_path.empty()) {
    std::cerr << "worker invoked without --unit-out\n";
    std::exit(2);
  }
  if (options.has("crash-unit") &&
      options.get("crash-unit", "") == options.get("unit-id", "?")) {
    const std::string marker = out_path + ".crashed";
    if (!std::ifstream(marker).good()) {
      std::ofstream(marker) << "injected crash\n";
      std::cerr << "[worker] injected crash for unit "
                << options.get("unit-id", "?") << "\n";
      std::exit(1);
    }
  }
  apply_worker_rectangle(options, run);
  sim::write_experiment_csv_file(experiment.run(run), out_path);
  return true;
}

/// Cheap config fingerprint (FNV-1a) over everything that makes two
/// same-shaped studies different: scenario kind and spec knobs, axis names
/// and point coordinates, strategy names, trials, seed.  Recorded in the
/// shard manifest so `--resume` can refuse another study's leftovers.
inline std::string experiment_fingerprint(const sim::Experiment& experiment,
                                          const sim::ExperimentOptions& run) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix_bytes = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  };
  const auto mix = [&mix_bytes](const auto& value) {
    mix_bytes(&value, sizeof value);
  };
  const auto mix_string = [&mix_bytes](const std::string& s) {
    mix_bytes(s.data(), s.size());
    const char end = '\0';
    mix_bytes(&end, 1);
  };

  const sim::ScenarioSpec& base = experiment.grid().base;
  mix(base.kind);
  mix(base.raise_factor);
  mix(base.max_displacement);
  mix(base.move_rounds);
  mix(base.validate);
  mix(base.workload.n);
  mix(base.workload.min_range);
  mix(base.workload.max_range);
  mix(base.workload.width);
  mix(base.workload.height);
  mix(base.workload.placement);
  mix(base.workload.cluster_count);
  mix(base.workload.cluster_sigma);
  mix(base.workload.min_separation);
  mix(base.churn.duration);
  mix(base.churn.arrival_rate);
  mix(base.churn.mean_lifetime);
  mix(base.churn.move_rate);
  mix(base.churn.power_rate);
  for (const sim::GridAxis& axis : experiment.grid().axes) mix_string(axis.name);
  for (const std::vector<double>& point : experiment.points())
    for (double coordinate : point) mix(coordinate);
  for (const std::string& name : experiment.grid().strategies) mix_string(name);
  mix(run.trials);
  mix(run.seed);

  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

/// Driver side: runs `experiment` — orchestrated over self-spawned worker
/// processes when `--orchestrate=K` is present, in-process otherwise.  The
/// merged result is bit-identical either way.  `tag` names this experiment
/// among the harness's experiments (worker dispatch + default scratch dir).
inline sim::ExperimentResult run_experiment_cli(
    const util::Options& options, const sim::Experiment& experiment,
    const sim::ExperimentOptions& run, const std::string& tag) {
  const auto workers =
      static_cast<std::size_t>(options.get_int("orchestrate", 0));
  const bool fleet = options.has("fleet") || options.has("fleet-agents");
  if (workers == 0 && !fleet) return experiment.run(run);

  const auto fleet_agents =
      static_cast<std::size_t>(options.get_int("fleet-agents", 0));
  const auto fleet_capacity = static_cast<std::uint32_t>(
      std::max<long long>(1, options.get_int("fleet-capacity", 1)));

  sim::OrchestratorOptions orchestration;
  orchestration.experiment = tag + "#" + experiment_fingerprint(experiment, run);
  // For a fleet, `workers` sizes the default unit plan: one unit per
  // advertised slot of the self-spawned agents (external fleets should
  // pass --units explicitly).
  orchestration.workers =
      fleet ? std::max<std::size_t>(1, fleet_agents * fleet_capacity)
            : workers;
  orchestration.units = static_cast<std::size_t>(options.get_int("units", 0));
  orchestration.split = sim::work_split_from(options.get("split", "auto"));
  orchestration.max_attempts =
      static_cast<std::size_t>(options.get_int("max-attempts", 3));
  orchestration.worker_timeout_s = options.get_double("worker-timeout", 0.0);
  orchestration.scratch_dir = options.get("shard-dir", tag + "-orchestrate");
  orchestration.resume = options.get_bool("resume", false);
  orchestration.keep_scratch = options.get_bool("keep-shards", false);
  orchestration.progress = [](const std::string& line) {
    std::cout << line << "\n" << std::flush;
  };

  std::unique_ptr<util::RemotePool> fleet_pool;
  if (fleet) {
    util::RemotePoolOptions pool_options;
    pool_options.port =
        static_cast<std::uint16_t>(options.get_int("fleet", 0));
    pool_options.self_spawn = fleet_agents;
    pool_options.agent_capacity = fleet_capacity;
    pool_options.scratch_dir = orchestration.scratch_dir + "/agents";
    pool_options.straggler_factor =
        options.get_double("straggler-factor", 3.0);
    if (options.has("fleet-die-after"))
      pool_options.first_agent_extra_args.push_back(
          "--agent-die-after=" + options.get("fleet-die-after", "1"));
    if (options.has("fleet-delay-ms"))
      pool_options.first_agent_extra_args.push_back(
          "--agent-delay-ms=" + options.get("fleet-delay-ms", "0"));
    pool_options.log = [](const std::string& line) {
      std::cout << line << "\n" << std::flush;
    };
    fleet_pool = std::make_unique<util::RemotePool>(pool_options);
    orchestration.pool = fleet_pool.get();
    std::cout << "[fleet] driver listening on port " << fleet_pool->port()
              << " (" << fleet_agents << " self-spawned agent(s))\n"
              << std::flush;
  }

  const std::string self = util::self_exe_path();
  if (self.empty()) {
    std::cerr << "--orchestrate: cannot locate this executable to self-spawn\n";
    std::exit(2);
  }

  // Workers re-parse this harness's own flags, minus the orchestration and
  // driver-output keys, plus their unit rectangle.  Worker threads default
  // to an even share of the machine so K workers do not oversubscribe it.
  std::vector<std::string> base_args{self};
  for (const auto& [key, value] : options.values()) {
    const auto excluded = [&key](const std::vector<std::string>& keys) {
      return std::find(keys.begin(), keys.end(), key) != keys.end();
    };
    if (excluded(orchestrate_keys()) || excluded(driver_output_keys())) continue;
    base_args.push_back(value.empty() ? "--" + key : "--" + key + "=" + value);
  }
  std::size_t worker_threads =
      static_cast<std::size_t>(options.get_int("threads", 0));
  if (worker_threads == 0) {
    const std::size_t hardware =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    worker_threads =
        std::max<std::size_t>(1, hardware / orchestration.workers);
  }
  base_args.push_back("--threads=" + std::to_string(worker_threads));

  sim::Orchestrator orchestrator(experiment.points().size(), run.trials,
                                 run.seed, orchestration);
  std::vector<std::string> unit_outputs;
  sim::ExperimentResult merged =
      orchestrator.run([&](const sim::WorkUnit& unit,
                           const std::string& out_path) {
        unit_outputs.push_back(out_path);
        std::vector<std::string> args = base_args;
        args.push_back("--run-unit=" + std::to_string(unit.point_begin) + "/" +
                       std::to_string(unit.point_count) + "/" +
                       std::to_string(unit.trial_begin) + "/" +
                       std::to_string(unit.trial_count));
        args.push_back("--unit-out=" + out_path);
        args.push_back("--unit-id=" + std::to_string(unit.id));
        args.push_back("--unit-tag=" + tag);
        return args;
      });
  if (options.has("crash-unit")) {
    // Drop the injected-crash markers so the scratch dir can empty out.
    std::error_code ignored;
    for (const std::string& out : unit_outputs)
      std::filesystem::remove(out + ".crashed", ignored);
    std::filesystem::remove(orchestration.scratch_dir, ignored);
  }
  if (fleet_pool != nullptr) {
    const util::RemotePool::Stats& stats = fleet_pool->stats();
    std::cout << "[fleet] " << stats.agents_seen << " agent(s) served the run"
              << " (" << stats.agents_lost << " lost, "
              << stats.redispatched << " speculative re-dispatch(es), "
              << stats.results_ignored << " duplicate result(s) ignored)\n";
    for (std::size_t i = 0; i < stats.agent_names.size(); ++i)
      std::cout << "[fleet]   " << stats.agent_names[i] << ": "
                << stats.agent_completed[i] << " unit(s), busy "
                << util::fmt_fixed(stats.agent_busy_s[i], 2) << "s\n";
    std::cout << std::flush;
    if (!orchestration.keep_scratch) {
      // The agents' scratch subdirectory (logs) mirrors the orchestrator's
      // own cleanup policy.
      std::error_code ignored;
      std::filesystem::remove_all(orchestration.scratch_dir + "/agents",
                                  ignored);
      std::filesystem::remove(orchestration.scratch_dir, ignored);
    }
  }
  return merged;
}

/// Which of the two metrics a sub-figure plots.
enum class Metric { kColor, kRecodings };

/// The sub-series of `points` whose strategy is in `keep` (original order).
/// Strategy lanes of a sweep are independent, so the distributed-only
/// sub-figures (Fig 10c/f, 11c) are exact subsets of the all-strategies
/// sweep — filtering replaces what used to be a second full sweep over the
/// identical workloads, at byte-identical CSV output.
inline std::vector<sim::SweepPoint> filter_strategies(
    const std::vector<sim::SweepPoint>& points,
    const std::vector<std::string>& keep) {
  std::vector<sim::SweepPoint> subset;
  for (const auto& point : points)
    if (std::find(keep.begin(), keep.end(), point.strategy) != keep.end())
      subset.push_back(point);
  return subset;
}

/// Prints one sub-figure as a table: rows = x values, columns = strategies,
/// cells = "mean +- ci95".
inline void print_series(const std::string& title, const std::string& x_name,
                         const std::vector<sim::SweepPoint>& points, Metric metric,
                         const util::Options& options, const std::string& csv_name) {
  // Collect strategy order as first encountered.
  std::vector<std::string> strategies;
  for (const auto& point : points)
    if (std::find(strategies.begin(), strategies.end(), point.strategy) ==
        strategies.end())
      strategies.push_back(point.strategy);

  util::TextTable table(title);
  std::vector<std::string> header{x_name};
  for (const auto& s : strategies) header.push_back(s);
  table.set_header(header);

  std::vector<double> xs;
  for (const auto& point : points)
    if (xs.empty() || xs.back() != point.x) xs.push_back(point.x);

  auto stat_of = [&](const sim::SweepPoint& p) {
    return metric == Metric::kColor ? p.color_metric : p.recoding_metric;
  };

  for (double x : xs) {
    std::vector<std::string> row{util::fmt_fixed(x, 1)};
    for (const auto& s : strategies) {
      for (const auto& point : points)
        if (point.x == x && point.strategy == s) {
          const auto& stat = stat_of(point);
          row.push_back(util::fmt_fixed(stat.mean(), 2) + " +- " +
                        util::fmt_fixed(stat.ci95_halfwidth(), 2));
          break;
        }
    }
    table.add_row(std::move(row));
  }
  std::cout << table.render() << "\n";

  const std::string csv_dir = options.get("csv-dir", "");
  if (!csv_dir.empty()) {
    auto stream = util::open_csv(csv_dir + "/" + csv_name + ".csv");
    util::CsvWriter csv(stream);
    csv.header({x_name, "strategy", "mean", "ci95", "stddev", "min", "max", "runs"});
    for (const auto& point : points) {
      const auto& stat = stat_of(point);
      csv.row({util::fmt_fixed(point.x, 3), point.strategy,
               util::fmt_fixed(stat.mean(), 6), util::fmt_fixed(stat.ci95_halfwidth(), 6),
               util::fmt_fixed(stat.stddev(), 6), util::fmt_fixed(stat.min(), 3),
               util::fmt_fixed(stat.max(), 3), std::to_string(stat.count())});
    }
    std::cout << "[csv] wrote " << csv_dir << "/" << csv_name << ".csv\n\n";
  }
}

}  // namespace minim::bench
