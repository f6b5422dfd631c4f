#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "measure.hpp"
#include "net/assignment.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"

/// \file replica.hpp
/// \brief A benchmark-side copy of `sim::Simulation`'s per-event step, with
/// a span around each call into a layer, and the final-state comparison
/// every workload's correctness check uses.
///
/// The replica owns an `AdhocNetwork`, a `CodeAssignment` and borrows a
/// strategy; for each event it times the network mutation and then the
/// strategy's `on_*` (or one `on_batch` for a coalesced batch), exactly as
/// `Simulation::apply_batch` sequences them, so its final codes and totals
/// equal the engine's.  With `shadow_minim` it also times a shadow
/// `build_recode_problem` + `max_weight_matching` on the pre-repair state of
/// each join and move — the G' build and matching the minim repair is
/// about to do — without touching the assignment.
///
/// Span names: `replica.event` / `replica.batch` roots; children
/// `net.mutate.<kind>`, `strategies.repair.<kind>` (per-event) or
/// `strategies.repair.batch`, and `core.gprime_build`, `matching.hungarian`
/// for the shadow.

namespace perfbench {

namespace sim = minim::sim;
namespace net = minim::net;
namespace core = minim::core;

/// Shadow G' facts, summed over the shadowed events.
struct ShadowStats {
  std::size_t events = 0;
  double v1_size = 0.0;
  double gprime_edges = 0.0;
  double pool_colors = 0.0;
};

class Replica {
 public:
  /// `tracer` may be null (no spans).  The strategy is borrowed.
  Replica(core::RecodingStrategy& strategy, double width, double height,
          Tracer* tracer, bool shadow_minim);

  /// Starts (or stops, with null) recording spans and shadowing minim.
  void trace(Tracer* tracer, bool shadow_minim) {
    tracer_ = tracer;
    shadow_minim_ = shadow_minim;
  }

  /// One event through the per-event path (`Simulation::join` & co.).
  void apply(const sim::TraceEvent& event);
  /// A batch exactly as `Simulation::apply_batch` applies it: coalesced
  /// into one `on_batch` when the strategy supports it and the batch has
  /// more than one event, per-event otherwise.
  void apply_batch(std::span<const sim::TraceEvent> events);

  const net::AdhocNetwork& network() const { return network_; }
  const net::CodeAssignment& assignment() const { return assignment_; }
  const sim::Totals& totals() const { return totals_; }
  const ShadowStats& shadow() const { return shadow_; }
  /// Strategy repair calls made (one per event, or one per coalesced batch).
  std::size_t repairs() const { return repairs_; }
  /// Spans of shadow work (excluded when the replica's time is compared
  /// with the engine's).
  double shadow_ns() const { return shadow_ns_; }

 private:
  net::NodeId resolve(const sim::TraceEvent& event) const;
  void shadow_recode(net::NodeId subject, std::int32_t parent);

  core::RecodingStrategy* strategy_;
  Tracer* tracer_;
  bool shadow_minim_;
  net::AdhocNetwork network_;
  net::CodeAssignment assignment_;
  sim::Totals totals_;
  std::vector<net::NodeId> by_join_order_;
  ShadowStats shadow_;
  double shadow_ns_ = 0.0;
  std::size_t repairs_ = 0;
  std::vector<core::BatchedEvent> batch_events_;
  std::vector<net::NodeId> joiners_;
  std::vector<net::NodeId> reborn_;
};

/// A network's final state as the correctness checks compare it: every
/// live node id with its configuration and code, plus the totals.
struct FinalState {
  std::vector<net::NodeId> ids;
  std::vector<net::NodeConfig> configs;
  std::vector<net::Color> codes;
  net::Color max_color = net::kNoColor;
  sim::Totals totals;
};

FinalState capture(const net::AdhocNetwork& network,
                   const net::CodeAssignment& assignment,
                   const sim::Totals& totals);

/// Empty when equal; otherwise the first difference.  Node ids are
/// comparable because every engine allocates them identically from the
/// same event sequence.  With `compare_codes` everything must match: codes,
/// max color, event and recoding totals.  Without, only what every
/// batching of the same events must share: the live set, each node's
/// configuration and the event totals — the tier bbb-bounded promises
/// between coalesced and one-at-a-time runs, whose fallbacks reseed the
/// maintained order at different times.
std::string compare_states(const FinalState& expected, const FinalState& actual,
                           bool compare_codes);

}  // namespace perfbench
