// Direct tests of the G' builder (Section 4.1 step 4), checked cell by cell
// against G' spelled out from `net::forbidden_colors`, and of the
// recode-report plumbing, plus evidence that the paper's weight scheme is load-bearing:
// uniform weights break minimality, cardinality matching breaks it harder,
// yet both remain *correct* (validity is enforced by the graph, not the
// weights).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../helpers.hpp"
#include "core/bipartite_builder.hpp"
#include "core/minim.hpp"
#include "net/constraints.hpp"
#include "net/partitions.hpp"
#include "util/rng.hpp"

namespace {

using minim::core::BipartiteWeights;
using minim::core::build_recode_problem;
using minim::core::EventType;
using minim::core::MinimStrategy;
using minim::core::RecodeProblem;
using minim::net::AdhocNetwork;
using minim::net::CodeAssignment;
using minim::net::Color;
using minim::net::NodeId;
using minim::test::build_world;
using minim::test::World;
using minim::util::Rng;

// ----------------------------------------------------------- the builder

TEST(BipartiteBuilder, PoolBoundCoversConstraintsAndOldColors) {
  // Joiner hears u (color 5); u's outside partner holds color 7.
  AdhocNetwork net;
  CodeAssignment asg;
  const NodeId u = net.add_node({{50, 50}, 20});
  const NodeId outside = net.add_node({{50, 65}, 20});  // mutual with u
  asg.set_color(u, 5);
  asg.set_color(outside, 7);
  const NodeId joiner = net.add_node({{50, 40}, 5});  // hears u only? u reaches it
  ASSERT_TRUE(net.graph().has_edge(u, joiner));

  std::vector<NodeId> v1 = minim::test::ids(net.heard_by(joiner));
  v1.push_back(joiner);
  const RecodeProblem problem = build_recode_problem(net, asg, v1);
  // outside (7) constrains u; old color 5 also counts: pool max must be >= 7.
  EXPECT_GE(problem.max_color, 7u);
  EXPECT_EQ(problem.graph.left_size(), problem.v1.size());
  EXPECT_EQ(problem.graph.right_size(), problem.max_color);
}

TEST(BipartiteBuilder, ForbiddenColorsHaveNoEdges) {
  AdhocNetwork net;
  CodeAssignment asg;
  const NodeId u = net.add_node({{50, 50}, 20});
  const NodeId outside = net.add_node({{50, 65}, 20});
  asg.set_color(u, 2);
  asg.set_color(outside, 3);
  const NodeId joiner = net.add_node({{50, 40}, 5});

  std::vector<NodeId> v1 = minim::test::ids(net.heard_by(joiner));
  v1.push_back(joiner);
  const RecodeProblem problem = build_recode_problem(net, asg, v1);

  // Find u's index in v1.
  const auto it = std::find(problem.v1.begin(), problem.v1.end(), u);
  ASSERT_NE(it, problem.v1.end());
  const auto ui = static_cast<std::uint32_t>(it - problem.v1.begin());
  // u conflicts with `outside` (mutual edge): color 3 must have no edge.
  EXPECT_FALSE(problem.graph.has_edge(ui, 3 - 1));
  // u's own old color must be a weight-3 edge.
  EXPECT_EQ(problem.graph.weight(ui, 2 - 1), 3);
}

TEST(BipartiteBuilder, WeightSchemeConfigurable) {
  AdhocNetwork net;
  CodeAssignment asg;
  const NodeId u = net.add_node({{50, 50}, 20});
  net.add_node({{50, 60}, 20});
  asg.set_color(u, 1);
  asg.set_color(1, 2);
  BipartiteWeights weights;
  weights.old_color_weight = 9;
  weights.other_weight = 4;
  const RecodeProblem problem = build_recode_problem(net, asg, {u}, weights);
  EXPECT_EQ(problem.graph.weight(0, 0), 9);  // old color 1
  // Color 2 is forbidden (partner), so the only other pool color is... pool
  // max = max(old=1, constraint=2) = 2 and color 2 has no edge.
  EXPECT_EQ(problem.max_color, 2u);
  EXPECT_FALSE(problem.graph.has_edge(0, 1));
}

TEST(BipartiteBuilder, RejectsNonPositiveWeights) {
  AdhocNetwork net;
  CodeAssignment asg;
  const NodeId u = net.add_node({{50, 50}, 20});
  BipartiteWeights weights;
  weights.other_weight = 0;
  EXPECT_THROW(build_recode_problem(net, asg, {u}, weights), std::invalid_argument);
}

TEST(BipartiteBuilder, DeduplicatesV1) {
  AdhocNetwork net;
  CodeAssignment asg;
  const NodeId u = net.add_node({{50, 50}, 20});
  asg.set_color(u, 1);
  const RecodeProblem problem = build_recode_problem(net, asg, {u, u, u});
  EXPECT_EQ(problem.v1.size(), 1u);
}

TEST(BipartiteBuilder, EmptyRecodeSet) {
  AdhocNetwork net;
  CodeAssignment asg;
  const RecodeProblem problem = build_recode_problem(net, asg, {});
  EXPECT_EQ(problem.graph.left_size(), 0u);
  EXPECT_EQ(problem.max_color, 0u);
}

// ---------------------------------------------- the builder vs an oracle

using minim::matching::Weight;

// G' spelled out from its definition: each member's forbidden colors from
// `net::forbidden_colors` (ignoring V1), the pool bound over those and the
// members' old colors, and one weight per (member, color) cell.
struct ExpectedGPrime {
  std::vector<NodeId> v1;
  Color max_color = 0;
  std::vector<std::vector<Weight>> cells;  // [member index][color - 1]
};

ExpectedGPrime expected_gprime(const AdhocNetwork& net, const CodeAssignment& asg,
                               std::vector<NodeId> v1, const BipartiteWeights& weights) {
  std::sort(v1.begin(), v1.end());
  v1.erase(std::unique(v1.begin(), v1.end()), v1.end());
  const auto in_v1 = [&](NodeId x) { return std::binary_search(v1.begin(), v1.end(), x); };
  ExpectedGPrime expected;
  std::vector<std::vector<Color>> forbidden;
  for (NodeId u : v1) {
    forbidden.push_back(minim::net::forbidden_colors(net, asg, u, in_v1));
    if (!forbidden.back().empty())
      expected.max_color = std::max(expected.max_color, forbidden.back().back());
    expected.max_color = std::max(expected.max_color, asg.color(u));
  }
  for (std::size_t i = 0; i < v1.size(); ++i) {
    std::vector<Weight> row(expected.max_color, 0);
    for (Color c = 1; c <= expected.max_color; ++c) {
      if (std::binary_search(forbidden[i].begin(), forbidden[i].end(), c)) continue;
      row[c - 1] = c == asg.color(v1[i]) ? weights.old_color_weight : weights.other_weight;
    }
    expected.cells.push_back(std::move(row));
  }
  expected.v1 = std::move(v1);
  return expected;
}

void expect_matches_oracle(const AdhocNetwork& net, const CodeAssignment& asg,
                           const std::vector<NodeId>& v1, const BipartiteWeights& weights) {
  const RecodeProblem problem = build_recode_problem(net, asg, v1, weights);
  const ExpectedGPrime expected = expected_gprime(net, asg, v1, weights);
  ASSERT_EQ(problem.v1, expected.v1);
  ASSERT_EQ(problem.max_color, expected.max_color);
  ASSERT_EQ(problem.graph.left_size(), expected.v1.size());
  ASSERT_EQ(problem.graph.right_size(), expected.max_color);
  std::size_t edges = 0;
  Weight heaviest = 0;
  for (std::uint32_t i = 0; i < expected.v1.size(); ++i) {
    for (Color c = 1; c <= expected.max_color; ++c) {
      const Weight w = expected.cells[i][c - 1];
      ASSERT_EQ(problem.graph.weight(i, c - 1), w)
          << "member " << expected.v1[i] << " color " << c;
      if (w == 0) continue;
      ++edges;
      heaviest = std::max(heaviest, w);
    }
  }
  EXPECT_EQ(problem.graph.edge_count(), edges);
  EXPECT_EQ(problem.graph.max_weight(), heaviest);
}

// The paper's 3/1 scheme and the ablation bench's alternatives.
const std::vector<BipartiteWeights> kWeightSchemes = {{3, 1}, {2, 1}, {1, 1}, {9, 4}};

void expect_matches_oracle_all_weights(const AdhocNetwork& net, const CodeAssignment& asg,
                                       const std::vector<NodeId>& v1) {
  for (const BipartiteWeights& weights : kWeightSchemes) {
    SCOPED_TRACE(testing::Message() << "weights " << weights.old_color_weight << "/"
                                    << weights.other_weight);
    expect_matches_oracle(net, asg, v1, weights);
  }
}

std::vector<NodeId> join_recoding_set(const AdhocNetwork& net, NodeId joiner) {
  std::vector<NodeId> v1 = minim::test::ids(net.heard_by(joiner));
  v1.push_back(joiner);
  return v1;
}

TEST(BuilderOracle, MatchesDefinitionOnRandomWorlds) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed * 101);
    World world = build_world(30, 15.0, 35.0, rng);
    auto& net = world.network;
    auto& asg = world.assignment;
    // A joiner not yet recoded (uncolored), the shape Minim builds.
    const NodeId joiner = net.add_node(
        {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(15.0, 35.0)});
    expect_matches_oracle_all_weights(net, asg, join_recoding_set(net, joiner));
    expect_matches_oracle_all_weights(net, asg, {});
    // Random recoding sets, duplicates included, over a recolored world: some
    // members share a color with an outside partner, so their old color is
    // forbidden.
    for (int trial = 0; trial < 8; ++trial) {
      for (int k = 0; k < 6; ++k)
        asg.set_color(world.ids[rng.below(world.ids.size())],
                      static_cast<Color>(1 + rng.below(12)));
      std::vector<NodeId> v1;
      const std::size_t size = rng.below(9);
      for (std::size_t k = 0; k < size; ++k) v1.push_back(world.ids[rng.below(world.ids.size())]);
      expect_matches_oracle_all_weights(net, asg, v1);
    }
  }
}

TEST(BuilderOracle, PoolsStraddlingBitmapWordEdges) {
  // Colors 63/64 and 127/128 sit on either side of the 64-bit words the
  // builder complements; each pool bound here ends on or next to an edge.
  const std::vector<Color> edge_colors = {63, 64, 65, 127, 128};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 7919);
    const World base = build_world(30, 25.0, 40.0, rng);
    for (const Color top : edge_colors) {
      for (const int old_mode : {0, 1, 2}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " top " << top
                                        << " old_mode " << old_mode);
        AdhocNetwork net = base.network;
        CodeAssignment asg = base.assignment;
        // Recode the best-connected node alone, so every conflict partner is
        // outside V1, and force the edge colors (up to `top`) onto them.
        NodeId u = base.ids.front();
        for (NodeId id : base.ids)
          if (net.conflict_graph().neighbors(id).size() >
              net.conflict_graph().neighbors(u).size())
            u = id;
        const auto partners = minim::test::ids(net.conflict_graph().neighbors(u));
        ASSERT_GE(partners.size(), edge_colors.size());
        std::size_t p = 0;
        for (const Color c : edge_colors)
          if (c <= top) asg.set_color(partners[p++], c);
        // old_mode 0: u keeps its small color; 1: u's old color is `top`,
        // which a partner holds, so it is forbidden; 2: u's old color
        // `top + 1` sets the pool bound.
        if (old_mode == 1) asg.set_color(u, top);
        if (old_mode == 2) asg.set_color(u, top + 1);
        expect_matches_oracle_all_weights(net, asg, {u});
        expect_matches_oracle_all_weights(net, asg, {u, partners.back()});
        // A color far above the pool elsewhere widens the scratch stride.
        asg.set_color(partners.back(), 300);
        expect_matches_oracle_all_weights(net, asg, {u});
      }
    }
  }
}

TEST(BuilderOracle, OldColorForbiddenByOutsidePartner) {
  AdhocNetwork net;
  CodeAssignment asg;
  const NodeId u = net.add_node({{50, 50}, 20});
  const NodeId outside = net.add_node({{50, 65}, 20});  // mutual with u
  asg.set_color(u, 2);
  asg.set_color(outside, 2);
  const RecodeProblem problem = build_recode_problem(net, asg, {u});
  EXPECT_EQ(problem.max_color, 2u);
  EXPECT_FALSE(problem.graph.has_edge(0, 1));
  EXPECT_EQ(problem.graph.weight(0, 0), 1);
  expect_matches_oracle_all_weights(net, asg, {u});
}

// ------------------------------------------------- weights are load-bearing

TEST(WeightScheme, UniformWeightsLoseMinimalitySomewhere) {
  // Thm 4.1.8 needs weight 3 > 1 + 1.  With uniform weights the matcher may
  // displace old colors; across many random joins we must find at least one
  // event where the uniform variant recodes more than the bound (and the
  // paper scheme never does).
  MinimStrategy::Params uniform_params;
  uniform_params.weights.old_color_weight = 1;
  bool witness = false;
  for (std::uint64_t seed = 1; seed <= 20 && !witness; ++seed) {
    Rng rng(seed * 13);
    World world = build_world(25, 20.5, 30.5, rng);
    // Fork the world; apply one more join under each variant.
    const minim::net::NodeConfig config{{rng.uniform(0, 100), rng.uniform(0, 100)},
                                        rng.uniform(20.5, 30.5)};
    AdhocNetwork net_u = world.network;
    CodeAssignment asg_u = world.assignment;
    const NodeId id_u = net_u.add_node(config);
    const std::size_t bound = minim::net::minimal_recoding_bound(net_u, asg_u, id_u);
    MinimStrategy uniform(uniform_params);
    const auto report_u = uniform.on_join(net_u, asg_u, id_u);
    ASSERT_TRUE(minim::net::is_valid(net_u, asg_u));  // still correct!
    if (report_u.recodings() > bound + 1) witness = true;
  }
  EXPECT_TRUE(witness) << "uniform weights never exceeded the bound in 20 worlds";
}

TEST(WeightScheme, Weight2StillMinimalOnPairFreeInstances) {
  // 2 > 1 but 2 < 1 + 1 + epsilon... the exchange argument needs
  // old > other + other; with old=2, other=1 a kept color can be traded for
  // two matched nodes without losing weight, so minimality *can* break —
  // but correctness never does.  We just assert validity across a sweep.
  MinimStrategy::Params params;
  params.weights.old_color_weight = 2;
  MinimStrategy strategy(params);
  Rng rng(77);
  AdhocNetwork net;
  CodeAssignment asg;
  for (int i = 0; i < 40; ++i) {
    const NodeId id = net.add_node(
        {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(20.5, 30.5)});
    strategy.on_join(net, asg, id);
    ASSERT_TRUE(minim::net::is_valid(net, asg));
  }
}

TEST(WeightScheme, CardinalityMatcherValidButNotMinimal) {
  MinimStrategy::Params params;
  params.matcher = MinimStrategy::Matcher::kCardinality;
  MinimStrategy cardinality(params);
  MinimStrategy exact;

  double cardinality_total = 0;
  double exact_total = 0;
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    Rng rng_a(seed);
    Rng rng_b(seed);
    AdhocNetwork net_a;
    CodeAssignment asg_a;
    AdhocNetwork net_b;
    CodeAssignment asg_b;
    for (int i = 0; i < 35; ++i) {
      const minim::net::NodeConfig config{{rng_a.uniform(0, 100), rng_a.uniform(0, 100)},
                                          rng_a.uniform(20.5, 30.5)};
      rng_b.uniform(0, 1);  // keep streams aligned (unused)
      const NodeId id_a = net_a.add_node(config);
      cardinality_total += static_cast<double>(
          cardinality.on_join(net_a, asg_a, id_a).recodings());
      ASSERT_TRUE(minim::net::is_valid(net_a, asg_a));
      const NodeId id_b = net_b.add_node(config);
      exact_total += static_cast<double>(exact.on_join(net_b, asg_b, id_b).recodings());
    }
  }
  EXPECT_GE(cardinality_total, exact_total);
}

// ----------------------------------------------------------- report basics

TEST(RecodeReport, EventTypeNames) {
  EXPECT_EQ(minim::core::to_string(EventType::kJoin), "join");
  EXPECT_EQ(minim::core::to_string(EventType::kLeave), "leave");
  EXPECT_EQ(minim::core::to_string(EventType::kMove), "move");
  EXPECT_EQ(minim::core::to_string(EventType::kPowerIncrease), "power-increase");
  EXPECT_EQ(minim::core::to_string(EventType::kPowerDecrease), "power-decrease");
}

TEST(RecodeReport, FinalizeComputesNetworkMax) {
  AdhocNetwork net;
  CodeAssignment asg;
  asg.set_color(net.add_node({{10, 10}, 5}), 4);
  asg.set_color(net.add_node({{90, 90}, 5}), 9);
  minim::core::RecodeReport report;
  finalize_report(net, asg, report);
  EXPECT_EQ(report.max_color_after, 9u);
}

}  // namespace
