#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/trace.hpp"

/// \file transcript.hpp
/// \brief Seeded input generators.  Each draws only on its own RNG stream
/// and bookkeeping (never on engine state), so a seed fixes the inputs byte
/// for byte and every strategy and code path sees the same events.

namespace perfbench {

namespace sim = minim::sim;
namespace net = minim::net;

/// The serving transcript: a ramp of joins to the target population, then
/// a steady join/leave/move/power mix held near it, with a 3x power
/// raise/restore pair after every `storm_every` steady events.
struct ServeTranscript {
  sim::Trace ramp;
  sim::Trace steady;
  std::vector<std::string> ramp_lines;    ///< request lines, no terminator
  std::vector<std::string> steady_lines;
  std::size_t storm_events = 0;           ///< raise + restore events in steady

  /// The whole transcript in the trace grammar (ramp, then steady).
  std::string text() const;
};

struct ServeTranscriptParams {
  std::size_t target_live = 300;
  std::size_t steady_events = 4000;
  std::size_t storm_every = 48;
};

/// `variant` selects one of several independent transcripts of one seed.
ServeTranscript make_serve_transcript(std::uint64_t seed,
                                      const ServeTranscriptParams& params = {},
                                      std::uint64_t variant = 0);

/// The large-N churn input: `build` joins (clustered placement at constant
/// density, fixed by `layout_seed`), then leave/move/power churn drawn from
/// the seed, with arrivals from the same cluster process and power events
/// as short power-save episodes, so the load per event stays level along
/// the transcript.  Churn events name nodes by join order; build joins are
/// indices [0, build.size()).
struct ChurnTranscript {
  double width = 0.0;
  double height = 0.0;
  std::vector<net::NodeConfig> build;
  sim::Trace churn;
};

struct ChurnTranscriptParams {
  std::uint64_t layout_seed = 2001;  ///< the build and arrival placement
  std::size_t nodes = 100000;
  double mean_degree = 12.0;
  std::size_t churn_events = 500000;
  double max_displacement = 30.0;
  double power_save_factor = 0.6;
};

ChurnTranscript make_churn_transcript(std::uint64_t seed,
                                      const ChurnTranscriptParams& params = {});

}  // namespace perfbench
