// churn-100k: 10⁵ clustered nodes at mean degree 12, built by joins
// (set-up, done twice), then leave/move/power/join churn with minim, driven
// in-process through sim::Simulation on one thread.  Latency is per
// Simulation call; the time metrics are taken over the quickest tenth of the
// run's blocks of 2000 churn events (see kQuickShare).
// The traced run drives the replica instead (spans around the network
// mutation and the repair, plus the shadow G' build and matching) and then
// the plain Simulation over the same events for the tracing overhead.

#include <iostream>
#include <memory>

#include "replica.hpp"
#include "strategies/factory.hpp"
#include "transcript.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Kind = sim::TraceEvent::Kind;
constexpr std::size_t kBlock = 2000;  // ~0.2 s; each block supports p99
// Churn grows the id space (every arrival takes a fresh id), so the memory
// high-water mark is read after a fixed number of churn events, not after
// however many a run's seconds fit.
constexpr std::size_t kRssEvents = 100000;
constexpr const char* kStrategy = "minim";

/// A Simulation with its strategy and the join-order → id table.
struct Engine {
  std::unique_ptr<core::RecodingStrategy> strategy;
  std::unique_ptr<sim::Simulation> simulation;
  std::vector<net::NodeId> ids;

  Engine(double width, double height)
      : strategy(minim::strategies::make_strategy(kStrategy)) {
    sim::Simulation::Params params;
    params.width = width;
    params.height = height;
    simulation = std::make_unique<sim::Simulation>(*strategy, params);
  }

  void join(const net::NodeConfig& config) { ids.push_back(simulation->join(config)); }

  void apply(const sim::TraceEvent& e) {
    switch (e.kind) {
      case Kind::kJoin: join(net::NodeConfig{e.position, e.range}); break;
      case Kind::kLeave: simulation->leave(ids.at(e.node)); break;
      case Kind::kMove: simulation->move(ids.at(e.node), e.position); break;
      case Kind::kPower: simulation->change_power(ids.at(e.node), e.range); break;
    }
  }

  FinalState state() const {
    return capture(simulation->network(), simulation->assignment(),
                   simulation->totals());
  }
};

/// Builds the network by joins; returns the wall seconds.
double build(Engine& engine, const ChurnTranscript& t) {
  const auto start = Clock::now();
  for (const net::NodeConfig& config : t.build) engine.join(config);
  return seconds_since(start);
}

Report untraced(const RunArgs& args, const ChurnTranscript& t) {
  Report report = blank_report(false);
  std::vector<double> setups;
  std::unique_ptr<Engine> engine;
  for (int i = 0; i < 2; ++i) {
    engine.reset();  // one network alive at a time
    engine = std::make_unique<Engine>(t.width, t.height);
    setups.push_back(build(*engine, t));
  }
  sim::Simulation& simulation = *engine->simulation;
  const std::size_t recodings_before = simulation.totals().recodings;

  // Blocks of kBlock events are the unit a run takes its time metrics over.
  // The network's ~255 MB straddles the last-level cache a shared host
  // splits among its tenants, so how much of it stays cached, and with it
  // the speed of a whole run, follows the neighbours; the quickest blocks
  // are the ones they disturbed least.
  LatencySamples latency, block_latency;
  std::vector<double> blocks, p50s, p99s;
  double maxc_sum = 0.0, rss_mb = 0.0;
  std::size_t events = 0;
  const std::uint64_t start = now_ns();
  const auto limit = static_cast<std::uint64_t>(args.seconds * 1e9);
  std::uint64_t block_start = start;
  std::uint64_t last = start;
  for (const sim::TraceEvent& e : t.churn) {
    const std::uint64_t before = now_ns();
    engine->apply(e);
    last = now_ns();
    block_latency.add(static_cast<double>(last - before) * 1e-3);
    maxc_sum += static_cast<double>(simulation.max_color());
    if (++events % kBlock == 0) {
      blocks.push_back(static_cast<double>(last - block_start) * 1e-9);
      p50s.push_back(block_latency.quantile(0.5));
      p99s.push_back(block_latency.quantile(0.99));
      latency.append(block_latency);
      block_latency = LatencySamples();
      block_start = last;
      if (events == kRssEvents) {
        rss_mb = peak_rss_mb();
        block_start = now_ns();
      }
    }
    if (last - start >= limit) break;
  }
  latency.append(block_latency);
  const double measured_s = static_cast<double>(last - start) * 1e-9;

  report.attempted = t.build.size() + events;
  std::string failure;
  try {
    sim::validate_assignment(simulation.network(), simulation.assignment());
  } catch (const std::exception& invalid) {
    failure = invalid.what();
  }
  if (simulation.totals().events != t.build.size() + events)
    failure = "engine counted a different number of events";
  if (blocks.empty()) failure = "fewer than one block of churn events measured";
  if (!failure.empty()) {
    std::cout << "[check] FAIL: " << failure << "\n";
    report.correct = false;
    report.failed = report.attempted;
  } else {
    std::cout << "[check] PASS: CA1/CA2 valid over " << simulation.network().node_count()
              << " live nodes after " << events << " churn events\n";
  }
  print_latency("per Simulation call, all blocks", latency);
  require(LatencySamples::supported(0.99, kBlock), "too few samples per block for p99");
  std::cout << "[latency] per block: " << kBlock << " samples, "
            << LatencySamples::beyond(0.99, kBlock)
            << " beyond p99; each time metric is the median of its quickest tenth of "
            << blocks.size() << " blocks\n";

  const double block_s = quick_median(blocks);
  report.update("setup_s", median(setups));
  report.update("events_per_s", static_cast<double>(kBlock) / block_s);
  report.update("p50_us", quick_median(p50s));
  report.update("p99_us", quick_median(p99s));
  report.update("wall_s", block_s);
  report.update("peak_rss_mb", events >= kRssEvents ? rss_mb : peak_rss_mb());
  report.update("recodings_per_event",
                static_cast<double>(simulation.totals().recodings - recodings_before) /
                    static_cast<double>(events));
  report.update("max_color", maxc_sum / static_cast<double>(events));
  std::cout << "[churn] block seconds:";
  for (const double b : blocks) std::cout << " " << b;
  std::cout << "\n[churn] builds " << setups[0] << " s, " << setups[1] << " s; "
            << events << " churn events in " << measured_s << " s ("
            << blocks.size() << " blocks of " << kBlock << "); peak RSS "
            << (events >= kRssEvents ? "after " + std::to_string(kRssEvents) +
                                           " churn events"
                                     : std::string("at the end"))
            << "\n";
  return report;
}

Report traced(const RunArgs& args, const ChurnTranscript& t) {
  Report report = blank_report(true);
  Tracer tracer;
  std::size_t events = 0;
  FinalState replica_state;
  double traced_s = 0.0;
  {
    const auto strategy = minim::strategies::make_strategy(kStrategy);
    Replica replica(*strategy, t.width, t.height, nullptr, false);
    for (const net::NodeConfig& config : t.build) {
      sim::TraceEvent join;
      join.position = config.position;
      join.range = config.range;
      replica.apply(join);
    }
    replica.trace(&tracer, true);
    const auto start = Clock::now();
    for (const sim::TraceEvent& e : t.churn) {
      replica.apply(e);
      ++events;
      if (seconds_since(start) >= args.seconds) break;
    }
    sim::validate_assignment(replica.network(), replica.assignment());
    const auto spans = tracer.totals();
    traced_s = spans.at("replica.event").total_ns * 1e-9 - replica.shadow_ns() * 1e-9;
    report_replica_layers(report, spans, replica.shadow(), replica.network(), true);
    replica_state = capture(replica.network(), replica.assignment(), replica.totals());
    print_spans(spans);
  }

  // The same events through the untraced Simulation: overhead and identity.
  Engine engine(t.width, t.height);
  build(engine, t);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < events; ++i) engine.apply(t.churn[i]);
  const double plain_s = seconds_since(start);
  report.update("trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s);

  report.attempted = 2 * (t.build.size() + events);
  const std::string diff = compare_states(engine.state(), replica_state, true);
  if (!diff.empty()) {
    std::cout << "[check] FAIL: replica differs from Simulation: " << diff << "\n";
    report.correct = false;
    report.failed = report.attempted;
  } else {
    std::cout << "[check] PASS: replica ends in the Simulation's codes and totals after "
              << events << " churn events\n";
  }
  return report;
}

}  // namespace

Report run_churn(const RunArgs& args) {
  const ChurnTranscript transcript = make_churn_transcript(args.seed);
  std::cout << "[churn] " << transcript.build.size() << " clustered joins on a "
            << transcript.width << " x " << transcript.height << " field, up to "
            << transcript.churn.size() << " churn events, strategy " << kStrategy
            << "\n";
  return args.trace ? traced(args, transcript) : untraced(args, transcript);
}

}  // namespace perfbench
