// Tests of the benchmark's own logic: generator determinism, the latency
// percentile and sample-count rule, span self-time arithmetic, and that the
// final-state check catches an injected wrong code.  Exits 1 on the first
// failed check.
//
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/perfbench_selftest

#include <cmath>
#include <iostream>
#include <string>

#include "measure.hpp"
#include "replica.hpp"
#include "serve/engine.hpp"
#include "strategies/factory.hpp"
#include "transcript.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "[ ok ] " : "[FAIL] ") << what << "\n";
  if (!ok) ++failures;
}

void generators_are_deterministic() {
  ServeTranscriptParams small;
  small.target_live = 40;
  small.steady_events = 500;
  const std::string a = make_serve_transcript(7, small).text();
  const std::string b = make_serve_transcript(7, small).text();
  const std::string c = make_serve_transcript(8, small).text();
  check(a == b, "serve transcript is byte-identical for one seed");
  check(a != c, "serve transcript differs for another seed");
  const ServeTranscript t = make_serve_transcript(7, small);
  check(t.steady.size() == small.steady_events, "steady phase has the asked length");
  check(t.storm_events > 0 && t.storm_events * 50 >= small.steady_events,
        "storm pairs make up a fixed share of the steady phase");

  ChurnTranscriptParams churn;
  churn.nodes = 2000;
  churn.churn_events = 3000;
  const ChurnTranscript x = make_churn_transcript(7, churn);
  const ChurnTranscript y = make_churn_transcript(7, churn);
  const ChurnTranscript z = make_churn_transcript(8, churn);
  const auto text = [](const ChurnTranscript& t) {
    sim::Trace all;
    for (const net::NodeConfig& config : t.build) {
      sim::TraceEvent join;
      join.position = config.position;
      join.range = config.range;
      all.push_back(join);
    }
    all.insert(all.end(), t.churn.begin(), t.churn.end());
    return sim::serialize_trace(all);
  };
  check(text(x) == text(y), "churn transcript is byte-identical for one seed");
  check(text(x) != text(z), "churn transcript differs for another seed");
  // Every churn event must be applicable: replay it and validate.
  const auto strategy = minim::strategies::make_strategy("minim");
  Replica replica(*strategy, x.width, x.height, nullptr, false);
  bool applied = true;
  try {
    for (const net::NodeConfig& config : x.build) {
      sim::TraceEvent join;
      join.position = config.position;
      join.range = config.range;
      replica.apply(join);
    }
    for (const sim::TraceEvent& e : x.churn) replica.apply(e);
    sim::validate_assignment(replica.network(), replica.assignment());
  } catch (const std::exception&) {
    applied = false;
  }
  check(applied, "every churn event applies and the assignment stays valid");
}

void percentile_rule() {
  LatencySamples samples;
  for (int i = 1; i <= 1000; ++i) samples.add(i);
  check(samples.quantile(0.5) == 500.0, "p50 of 1..1000 is 500 (nearest rank)");
  check(samples.quantile(0.99) == 990.0, "p99 of 1..1000 is 990");
  check(LatencySamples::beyond(0.99, 1000) == 10, "1000 samples leave 10 beyond p99");
  check(LatencySamples::supported(0.99, 1000), "p99 is supported by 1000 samples");
  check(!LatencySamples::supported(0.99, 999), "p99 is not supported by 999 samples");
  check(LatencySamples::highest_supported(999) == 0.9,
        "999 samples support p90 at most");
  check(LatencySamples::highest_supported(10000) == 0.999,
        "10000 samples support p99.9");
  check(LatencySamples::highest_supported(20) == 0.5, "20 samples support the median");
  check(LatencySamples::highest_supported(19) == 0.0, "19 samples support nothing");
}

void quick_median_rule() {
  std::vector<double> seconds;
  for (int i = 40; i >= 1; --i) seconds.push_back(0.1 * i);
  check(std::abs(quick_median(seconds) - 0.25) < 1e-12,
        "the quickest tenth of 0.1..4.0 is 0.1..0.4, median 0.25");
  check(quick_median({0.3, 0.1, 0.2}) == 0.1, "a share under one value keeps the lowest");
  check(quick_median({}) == 0.0, "no values, no median");
  check(quick_median({0.3, 0.1, 0.2}, 1.0) == 0.2, "the whole share is the plain median");
}

void span_self_time() {
  Tracer tracer;
  const std::int32_t root = tracer.add("root", 100, 200);
  tracer.add("child", 110, 130, root);
  tracer.add("child", 120, 150, root);          // overlaps the first child
  tracer.add("child", 190, 260, root);          // runs past the parent
  const std::int32_t inner = tracer.add("inner", 160, 180, root);
  tracer.add("leaf", 165, 170, inner);
  const auto totals = tracer.totals();
  // Children cover [110,150) + [160,180) + [190,200) = 70 of root's 100.
  check(totals.at("root").self_ns == 30.0, "root self time subtracts merged children");
  check(totals.at("inner").self_ns == 15.0, "inner self time subtracts its leaf");
  check(totals.at("child").total_ns == 20.0 + 30.0 + 70.0, "totals sum durations");
  check(totals.at("child").count == 3, "totals count spans");
  check(totals.at("leaf").self_ns == 5.0, "a leaf's self time is its duration");
}

void check_catches_wrong_code() {
  ServeTranscriptParams small;
  small.target_live = 30;
  small.steady_events = 200;
  const ServeTranscript t = make_serve_transcript(3, small);
  const sim::Trace trace = sim::parse_trace(t.text());

  minim::serve::AssignmentEngine engine("minim");
  for (const sim::TraceEvent& e : trace) engine.apply(e);
  const sim::Simulation& served = engine.simulation();
  const FinalState actual =
      capture(served.network(), served.assignment(), served.totals());

  const auto strategy = minim::strategies::make_strategy("minim");
  sim::Simulation reference(*strategy);
  sim::apply_trace(trace, reference);
  const FinalState expected =
      capture(reference.network(), reference.assignment(), reference.totals());
  check(compare_states(expected, actual, true).empty(),
        "engine and one-at-a-time apply_trace agree");

  FinalState wrong = actual;
  wrong.codes[wrong.codes.size() / 2] += 1;
  check(!compare_states(expected, wrong, true).empty(),
        "an injected wrong code is caught");
  FinalState miscounted = actual;
  miscounted.totals.recodings += 1;
  check(!compare_states(expected, miscounted, true).empty(),
        "a wrong recoding total is caught");
  check(compare_states(expected, wrong, false).empty() &&
            compare_states(expected, miscounted, false).empty(),
        "codes and recoding totals are skipped under the live-set tier");
  FinalState moved = actual;
  moved.configs[0].position.x += 1.0;
  check(!compare_states(expected, moved, false).empty(),
        "the live-set tier still catches a wrong node configuration");
  FinalState missing = actual;
  missing.ids.pop_back();
  check(!compare_states(expected, missing, false).empty(),
        "the live-set tier still catches a missing node");
}

}  // namespace

int main() {
  generators_are_deterministic();
  percentile_rule();
  quick_median_rule();
  span_self_time();
  check_catches_wrong_code();
  std::cout << (failures == 0 ? "all checks passed\n" : "checks FAILED\n");
  return failures == 0 ? 0 : 1;
}
