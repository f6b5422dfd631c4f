// Incremental BBB must be bit-identical to the from-scratch recolor: same
// RecodeReports (change lists), same assignments, same max colors, across
// every coloring order and randomized event soaks.  The reference is
// `color_network` called directly (tests/helpers.hpp), not a mode of the
// strategy under test.

#include <gtest/gtest.h>

#include <vector>

#include "../helpers.hpp"
#include "net/constraints.hpp"
#include "net/network.hpp"
#include "strategies/bbb.hpp"
#include "util/rng.hpp"

namespace {

using minim::core::EventType;
using minim::core::RecodeReport;
using minim::net::AdhocNetwork;
using minim::net::CodeAssignment;
using minim::net::NodeConfig;
using minim::net::NodeId;
using minim::strategies::BbbStrategy;
using minim::strategies::ColoringOrder;
using minim::test::recolor_from_scratch;
using minim::util::Rng;

void expect_reports_equal(const RecodeReport& a, const RecodeReport& b,
                          int event_index) {
  ASSERT_EQ(a.event, b.event) << "event " << event_index;
  ASSERT_EQ(a.subject, b.subject) << "event " << event_index;
  ASSERT_EQ(a.max_color_after, b.max_color_after) << "event " << event_index;
  ASSERT_EQ(a.changes.size(), b.changes.size()) << "event " << event_index;
  for (std::size_t i = 0; i < a.changes.size(); ++i) {
    EXPECT_EQ(a.changes[i].node, b.changes[i].node) << "event " << event_index;
    EXPECT_EQ(a.changes[i].old_color, b.changes[i].old_color)
        << "event " << event_index;
    EXPECT_EQ(a.changes[i].new_color, b.changes[i].new_color)
        << "event " << event_index;
  }
}

/// Drives one randomized join/move/power/leave history through a BBB
/// instance and the from-scratch reference, sharing the network but owning
/// separate assignments, asserting identical behavior after every event.
void soak(ColoringOrder order, BbbStrategy::Params incremental_params,
          std::uint64_t seed, int events) {
  Rng rng(seed);
  AdhocNetwork net;
  CodeAssignment incremental_asg;
  CodeAssignment full_asg;
  BbbStrategy incremental(order, incremental_params);
  std::vector<NodeId> live;

  for (int event = 0; event < events; ++event) {
    const double roll = rng.uniform(0, 1);
    RecodeReport a;
    RecodeReport b;
    if (live.size() < 5 || roll < 0.4) {
      const NodeId id = net.add_node(
          {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(10, 35)});
      live.push_back(id);
      a = incremental.on_join(net, incremental_asg, id);
      b = recolor_from_scratch(net, order, EventType::kJoin, id, full_asg);
    } else if (roll < 0.6) {
      const NodeId v = live[rng.below(live.size())];
      net.set_position(v, {rng.uniform(0, 100), rng.uniform(0, 100)});
      a = incremental.on_move(net, incremental_asg, v);
      b = recolor_from_scratch(net, order, EventType::kMove, v, full_asg);
    } else if (roll < 0.85) {
      const NodeId v = live[rng.below(live.size())];
      const double old_range = net.config(v).range;
      const double new_range = rng.uniform(0, 40);
      net.set_range(v, new_range);
      a = incremental.on_power_change(net, incremental_asg, v, old_range);
      b = recolor_from_scratch(net, order,
                               new_range > old_range ? EventType::kPowerIncrease
                                                     : EventType::kPowerDecrease,
                               v, full_asg);
    } else {
      const std::size_t index = rng.below(live.size());
      const NodeId v = live[index];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
      net.remove_node(v);
      incremental_asg.clear(v);
      full_asg.clear(v);
      a = incremental.on_leave(net, incremental_asg, v);
      b = recolor_from_scratch(net, order, EventType::kLeave, v, full_asg);
    }

    ASSERT_NO_FATAL_FAILURE(expect_reports_equal(a, b, event));
    for (NodeId v : net.nodes())
      ASSERT_EQ(incremental_asg.color(v), full_asg.color(v))
          << "node " << v << " after event " << event;
    ASSERT_TRUE(minim::net::is_valid(net, incremental_asg)) << "event " << event;
  }
}

class BbbIncrementalOrder : public ::testing::TestWithParam<ColoringOrder> {};

TEST_P(BbbIncrementalOrder, MatchesFullRecolorOverRandomizedEvents) {
  soak(GetParam(), BbbStrategy::Params{}, 9001, 90);
  soak(GetParam(), BbbStrategy::Params{}, 9002, 90);
}

TEST_P(BbbIncrementalOrder, MatchesWithAggressiveDirtyThreshold) {
  // Never fall back on size: stresses the change-propagation path alone.
  BbbStrategy::Params params;
  params.full_recolor_fraction = 1.0;
  soak(GetParam(), params, 9003, 90);
}

TEST_P(BbbIncrementalOrder, MatchesWithZeroThresholdAlwaysFullPath) {
  // Threshold 0 forces the fallback whenever anything changed, pinning the
  // fallback wiring.
  BbbStrategy::Params params;
  params.full_recolor_fraction = 0.0;
  soak(GetParam(), params, 9004, 50);
}

INSTANTIATE_TEST_SUITE_P(StaticOrders, BbbIncrementalOrder,
                         ::testing::Values(ColoringOrder::kSmallestLast,
                                           ColoringOrder::kLargestFirst,
                                           ColoringOrder::kIdentity));

TEST(BbbIncremental, DSaturAlwaysUsesFullPathAndStaysValid) {
  soak(ColoringOrder::kDSatur, BbbStrategy::Params{}, 9005, 60);
}

TEST(BbbIncremental, SurvivesForeignAssignmentMutation) {
  // An out-of-band color change invalidates the snapshot; the strategy must
  // detect it and still produce the from-scratch result.
  Rng rng(77);
  AdhocNetwork net;
  CodeAssignment asg;
  BbbStrategy bbb(ColoringOrder::kSmallestLast);
  std::vector<NodeId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(net.add_node(
        {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(15, 30)}));
    bbb.on_join(net, asg, ids.back());
  }
  // Clobber a color behind the strategy's back.
  asg.set_color(ids[4], asg.color(ids[4]) + 17);

  CodeAssignment reference_asg;
  for (NodeId v : net.nodes()) reference_asg.set_color(v, asg.color(v));

  const double old_range = net.config(ids[2]).range;
  net.set_range(ids[2], old_range * 1.5);
  const auto a = bbb.on_power_change(net, asg, ids[2], old_range);
  const auto b = recolor_from_scratch(net, ColoringOrder::kSmallestLast,
                                      EventType::kPowerIncrease, ids[2], reference_asg);
  expect_reports_equal(a, b, 0);
  for (NodeId v : net.nodes()) EXPECT_EQ(asg.color(v), reference_asg.color(v));
}

}  // namespace
