#include "replica.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/bipartite_builder.hpp"
#include "matching/hungarian.hpp"

namespace perfbench {

namespace {

using Kind = sim::TraceEvent::Kind;

const char* const kMutateSpan[] = {"net.mutate.join", "net.mutate.leave",
                                   "net.mutate.move", "net.mutate.power"};
const char* const kRepairSpan[] = {
    "strategies.repair.join", "strategies.repair.leave",
    "strategies.repair.move", "strategies.repair.power"};

std::size_t index_of(Kind kind) { return static_cast<std::size_t>(kind); }

}  // namespace

Replica::Replica(core::RecodingStrategy& strategy, double width, double height,
                 Tracer* tracer, bool shadow_minim)
    : strategy_(&strategy),
      tracer_(tracer),
      shadow_minim_(shadow_minim),
      network_(width, height) {}

net::NodeId Replica::resolve(const sim::TraceEvent& event) const {
  if (event.node >= by_join_order_.size() ||
      !network_.contains(by_join_order_[event.node]))
    throw std::invalid_argument("replica: event names a node that is not live");
  return by_join_order_[event.node];
}

void Replica::shadow_recode(net::NodeId subject, std::int32_t parent) {
  const std::uint64_t start = now_ns();
  const auto heard = network_.heard_by(subject);
  std::vector<net::NodeId> v1(heard.begin(), heard.end());
  v1.push_back(subject);
  const std::uint64_t build_start = now_ns();
  const core::RecodeProblem problem =
      core::build_recode_problem(network_, assignment_, std::move(v1));
  const std::uint64_t match_start = now_ns();
  const auto match = minim::matching::max_weight_matching(problem.graph);
  const std::uint64_t end = now_ns();
  if (match.left_to_right.size() != problem.v1.size())
    throw std::logic_error("replica: shadow matching lost a V1 member");
  if (tracer_ != nullptr) {
    tracer_->add("core.gprime_build", build_start, match_start, parent);
    tracer_->add("matching.hungarian", match_start, end, parent);
  }
  shadow_ns_ += static_cast<double>(end - start);
  ++shadow_.events;
  shadow_.v1_size += static_cast<double>(problem.v1.size());
  shadow_.gprime_edges += static_cast<double>(problem.graph.edge_count());
  shadow_.pool_colors += static_cast<double>(problem.max_color);
}

void Replica::apply(const sim::TraceEvent& event) {
  const ScopedSpan root(tracer_, "replica.event");
  const std::size_t k = index_of(event.kind);
  core::RecodeReport report;
  std::int32_t mutate = tracer_ ? tracer_->begin(kMutateSpan[k], root.id()) : -1;
  const auto mutated = [&] {
    if (tracer_ != nullptr) tracer_->end(mutate);
  };
  switch (event.kind) {
    case Kind::kJoin: {
      const net::NodeId id =
          network_.add_node(net::NodeConfig{event.position, event.range});
      mutated();
      by_join_order_.push_back(id);
      if (shadow_minim_) shadow_recode(id, root.id());
      const ScopedSpan repair(tracer_, kRepairSpan[k], root.id());
      report = strategy_->on_join(network_, assignment_, id);
      break;
    }
    case Kind::kLeave: {
      const net::NodeId id = resolve(event);
      network_.remove_node(id);
      assignment_.clear(id);
      mutated();
      const ScopedSpan repair(tracer_, kRepairSpan[k], root.id());
      report = strategy_->on_leave(network_, assignment_, id);
      break;
    }
    case Kind::kMove: {
      const net::NodeId id = resolve(event);
      network_.set_position(id, event.position);
      mutated();
      if (shadow_minim_) shadow_recode(id, root.id());
      const ScopedSpan repair(tracer_, kRepairSpan[k], root.id());
      report = strategy_->on_move(network_, assignment_, id);
      break;
    }
    case Kind::kPower: {
      const net::NodeId id = resolve(event);
      const double old_range = network_.config(id).range;
      network_.set_range(id, event.range);
      mutated();
      const ScopedSpan repair(tracer_, kRepairSpan[k], root.id());
      report = strategy_->on_power_change(network_, assignment_, id, old_range);
      break;
    }
  }
  sim::account_event(totals_, report);
  ++repairs_;
}

void Replica::apply_batch(std::span<const sim::TraceEvent> events) {
  if (events.empty()) return;
  if (!strategy_->supports_batch() || events.size() == 1) {
    for (const sim::TraceEvent& event : events) apply(event);
    return;
  }
  const ScopedSpan root(tracer_, "replica.batch");
  batch_events_.clear();
  for (const sim::TraceEvent& e : events) {
    const ScopedSpan mutate(tracer_, kMutateSpan[index_of(e.kind)], root.id());
    core::BatchedEvent be;
    switch (e.kind) {
      case Kind::kJoin:
        be.event = core::EventType::kJoin;
        be.subject = network_.add_node(net::NodeConfig{e.position, e.range});
        by_join_order_.push_back(be.subject);
        break;
      case Kind::kLeave:
        be.event = core::EventType::kLeave;
        be.subject = resolve(e);
        network_.remove_node(be.subject);
        assignment_.clear(be.subject);
        break;
      case Kind::kMove:
        be.event = core::EventType::kMove;
        be.subject = resolve(e);
        network_.set_position(be.subject, e.position);
        break;
      case Kind::kPower:
        be.subject = resolve(e);
        be.old_range = network_.config(be.subject).range;
        be.event = e.range > be.old_range ? core::EventType::kPowerIncrease
                                          : core::EventType::kPowerDecrease;
        network_.set_range(be.subject, e.range);
        break;
    }
    batch_events_.push_back(be);
  }

  // Live joiners in order of their last join; ids freed and reused within
  // the batch are "reborn" (see core::BatchRepairContext).
  joiners_.clear();
  for (const core::BatchedEvent& be : batch_events_) {
    if (be.event != core::EventType::kJoin) continue;
    std::erase(joiners_, be.subject);
    joiners_.push_back(be.subject);
  }
  std::erase_if(joiners_, [this](net::NodeId v) { return !network_.contains(v); });
  reborn_.clear();
  for (const core::BatchedEvent& be : batch_events_)
    if (be.event == core::EventType::kLeave && network_.contains(be.subject))
      reborn_.push_back(be.subject);
  std::sort(reborn_.begin(), reborn_.end());
  reborn_.erase(std::unique(reborn_.begin(), reborn_.end()), reborn_.end());

  core::RecodeReport report;
  {
    const ScopedSpan repair(tracer_, "strategies.repair.batch", root.id());
    const core::BatchRepairContext context{batch_events_, joiners_, reborn_};
    report = strategy_->on_batch(network_, assignment_, context);
  }
  ++repairs_;
  totals_.events += batch_events_.size();
  for (const core::BatchedEvent& be : batch_events_)
    ++totals_.events_by_type[static_cast<std::size_t>(be.event)];
  totals_.recodings += report.recodings();
  totals_.messages += report.messages;
  totals_.recodings_by_type[static_cast<std::size_t>(report.event)] +=
      report.recodings();
}

// ------------------------------------------------------------ final state

FinalState capture(const net::AdhocNetwork& network,
                   const net::CodeAssignment& assignment,
                   const sim::Totals& totals) {
  FinalState state;
  network.nodes(state.ids);
  for (const net::NodeId id : state.ids) {
    state.configs.push_back(network.config(id));
    state.codes.push_back(assignment.color(id));
  }
  state.max_color = assignment.max_color();
  state.totals = totals;
  return state;
}

std::string compare_states(const FinalState& expected, const FinalState& actual,
                           bool compare_codes) {
  if (expected.ids != actual.ids)
    return "live node sets differ (" + std::to_string(expected.ids.size()) +
           " vs " + std::to_string(actual.ids.size()) + " nodes)";
  for (std::size_t i = 0; i < expected.ids.size(); ++i) {
    const net::NodeConfig& a = expected.configs[i];
    const net::NodeConfig& b = actual.configs[i];
    if (a.position.x != b.position.x || a.position.y != b.position.y ||
        a.range != b.range)
      return "node " + std::to_string(expected.ids[i]) + " configuration differs";
    if (compare_codes && expected.codes[i] != actual.codes[i])
      return "node " + std::to_string(expected.ids[i]) + " has code " +
             std::to_string(actual.codes[i]) + ", expected " +
             std::to_string(expected.codes[i]);
  }
  if (expected.totals.events != actual.totals.events ||
      expected.totals.events_by_type != actual.totals.events_by_type)
    return "event totals differ";
  if (!compare_codes) return "";
  if (expected.max_color != actual.max_color) return "max color differs";
  if ((expected.totals.recodings != actual.totals.recodings ||
       expected.totals.recodings_by_type != actual.totals.recodings_by_type))
    return "recoding totals differ (" + std::to_string(expected.totals.recodings) +
           " vs " + std::to_string(actual.totals.recodings) + ")";
  return "";
}

}  // namespace perfbench
