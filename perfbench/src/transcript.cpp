#include "transcript.hpp"

#include <cmath>
#include <numbers>

#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using Kind = sim::TraceEvent::Kind;
using minim::util::Rng;
using minim::util::Vec2;

// Stream tags keep the generators' draws disjoint for one seed.
constexpr std::uint64_t kServeStream = 0x5e7e;
constexpr std::uint64_t kChurnStream = 0xc4a7;

/// Live-set bookkeeping shared by both generators: join-order indices of
/// live nodes, O(1) random pick and removal.
class LiveSet {
 public:
  void add(std::size_t node) { live_.push_back(node); }
  std::size_t size() const { return live_.size(); }
  std::size_t pick(Rng& rng) const { return live_[rng.below(live_.size())]; }
  std::size_t take(Rng& rng) {
    const std::size_t slot = rng.below(live_.size());
    const std::size_t node = live_[slot];
    live_[slot] = live_.back();
    live_.pop_back();
    return node;
  }

 private:
  std::vector<std::size_t> live_;
};

std::string line_of(const sim::TraceEvent& event) {
  std::string text = sim::serialize_trace(sim::Trace{event});
  text.pop_back();  // the trailing newline
  return text;
}

}  // namespace

std::string ServeTranscript::text() const {
  std::string out;
  for (const std::string& line : ramp_lines) out += line + "\n";
  for (const std::string& line : steady_lines) out += line + "\n";
  return out;
}

ServeTranscript make_serve_transcript(std::uint64_t seed,
                                      const ServeTranscriptParams& params,
                                      std::uint64_t variant) {
  Rng rng = Rng::for_stream(seed, kServeStream + variant);
  LiveSet live;
  std::vector<double> range_of;  // by join index

  const auto join = [&] {
    sim::TraceEvent e;
    e.kind = Kind::kJoin;
    e.position = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    e.range = rng.uniform(10.0, 25.0);
    live.add(range_of.size());
    range_of.push_back(e.range);
    return e;
  };
  // Half the events change membership: a join below the target, a leave at
  // or above it, so the population stays within one node of the target (a
  // wandering population would make a seed's cost depend on where it
  // wandered).  The rest move nodes or change their power.
  const auto steady = [&] {
    const double u = rng.uniform01();
    if (u < 0.5 && live.size() < params.target_live) return join();
    sim::TraceEvent e;
    if (u < 0.5) {
      e.kind = Kind::kLeave;
      e.node = live.take(rng);
    } else if (u < 0.8) {
      e.kind = Kind::kMove;
      e.node = live.pick(rng);
      e.position = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    } else {
      e.kind = Kind::kPower;
      e.node = live.pick(rng);
      e.range = rng.uniform(10.0, 25.0);
      range_of[e.node] = e.range;
    }
    return e;
  };

  ServeTranscript t;
  for (std::size_t i = 0; i < params.target_live; ++i) t.ramp.push_back(join());
  std::size_t since_storm = 0;
  while (t.steady.size() < params.steady_events) {
    if (since_storm >= params.storm_every &&
        t.steady.size() + 2 <= params.steady_events) {
      sim::TraceEvent raise;
      raise.kind = Kind::kPower;
      raise.node = live.pick(rng);
      raise.range = range_of[raise.node] * 3.0;
      sim::TraceEvent restore = raise;
      restore.range = range_of[raise.node];
      t.steady.push_back(raise);
      t.steady.push_back(restore);
      t.storm_events += 2;
      since_storm = 0;
      continue;
    }
    t.steady.push_back(steady());
    ++since_storm;
  }
  for (const sim::TraceEvent& e : t.ramp) t.ramp_lines.push_back(line_of(e));
  for (const sim::TraceEvent& e : t.steady) t.steady_lines.push_back(line_of(e));
  return t;
}

ChurnTranscript make_churn_transcript(std::uint64_t seed,
                                      const ChurnTranscriptParams& params) {
  sim::WorkloadParams placement = sim::make_large_n_params(
      params.nodes, params.mean_degree, sim::Placement::kClustered);
  // The network itself is fixed: its max code is set by its densest
  // cluster, so a layout drawn per seed would make the quality metrics an
  // extreme-value lottery across seeds.  The seed draws the churn.
  // Arrivals come from the same Thomas process as the build (nodes are
  // i.i.d. once the cluster centers are fixed, so the first `nodes`
  // configurations are exactly a `nodes`-node build).
  Rng layout = Rng::for_stream(params.layout_seed, kChurnStream);
  const std::size_t arrivals = params.churn_events / 4 + 1;
  placement.n = params.nodes + arrivals;
  const sim::Workload joins = sim::make_join_workload(placement, layout);
  Rng rng = Rng::for_stream(seed, kChurnStream);

  ChurnTranscript t;
  t.width = placement.width;
  t.height = placement.height;
  t.build.assign(joins.joins.begin(),
                 joins.joins.begin() + static_cast<std::ptrdiff_t>(params.nodes));

  LiveSet live;
  std::vector<Vec2> position;
  std::vector<double> full_range;
  // Power-save episodes: a transmitter lowers its power and a later power
  // event restores it, so few are saving at any time.  Toggling uniformly
  // picked nodes instead drifts toward half the network saving, which thins
  // the conflict graph and makes late events cheaper than early ones: a
  // run's speed would then depend on how far into the transcript it got.
  constexpr std::size_t kFull = static_cast<std::size_t>(-1);
  std::vector<std::size_t> saving;       // join indices in power-save state
  std::vector<std::size_t> saving_slot;  // by join index; kFull when not saving
  const auto restore = [&](std::size_t node) {
    const std::size_t slot = saving_slot[node];
    saving[slot] = saving.back();
    saving_slot[saving[slot]] = slot;
    saving.pop_back();
    saving_slot[node] = kFull;
  };
  for (std::size_t i = 0; i < params.nodes; ++i) {
    live.add(i);
    position.push_back(t.build[i].position);
    full_range.push_back(t.build[i].range);
    saving_slot.push_back(kFull);
  }
  std::size_t next_arrival = params.nodes;

  // As in the serving transcript, membership events hold the population
  // within one node of the build size.
  while (t.churn.size() < params.churn_events) {
    const double u = rng.uniform01();
    sim::TraceEvent e;
    const bool can_join = next_arrival < joins.joins.size();
    if (u < 0.4 && can_join && live.size() < params.nodes) {
      e.kind = Kind::kJoin;
      e.position = joins.joins[next_arrival].position;
      e.range = joins.joins[next_arrival].range;
      live.add(next_arrival);
      position.push_back(e.position);
      full_range.push_back(e.range);
      saving_slot.push_back(kFull);
      ++next_arrival;
    } else if (u < 0.4) {
      e.kind = Kind::kLeave;
      e.node = live.take(rng);
      if (saving_slot[e.node] != kFull) restore(e.node);
    } else if (u < 0.8) {
      e.kind = Kind::kMove;
      e.node = live.pick(rng);
      const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
      const double step = params.max_displacement * std::sqrt(rng.uniform01());
      const Vec2 from = position[e.node];
      e.position = minim::util::clamp_to_box(
          Vec2{from.x + step * std::cos(angle), from.y + step * std::sin(angle)},
          t.width, t.height);
      position[e.node] = e.position;
    } else {
      e.kind = Kind::kPower;
      // Half the power events end an episode, the rest toggle a live node.
      const bool end_episode = !saving.empty() && rng.uniform01() < 0.5;
      e.node = end_episode ? saving[rng.below(saving.size())] : live.pick(rng);
      if (saving_slot[e.node] == kFull) {
        saving_slot[e.node] = saving.size();
        saving.push_back(e.node);
        e.range = full_range[e.node] * params.power_save_factor;
      } else {
        restore(e.node);
        e.range = full_range[e.node];
      }
    }
    t.churn.push_back(e);
  }
  return t;
}

}  // namespace perfbench
