// The incremental ConflictGraph cache: delta maintenance cross-checked
// against from-scratch construction on brute-force-rebuilt digraphs after
// randomized join/leave/move/power event sequences, plus the dirty-journal
// protocol dirty-region consumers rely on, checked per event against a
// phase oracle that never calls the delta protocol.

#include "net/conflict_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/constraints.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"

namespace {

using minim::graph::Digraph;
using minim::graph::NodeId;
using minim::net::AdhocNetwork;
using minim::net::ConflictGraph;
using minim::util::Rng;

/// Asserts the two conflict graphs agree on every pair and multiplicity.
void expect_same(const ConflictGraph& actual, const ConflictGraph& expected) {
  ASSERT_EQ(actual.pair_count(), expected.pair_count());
  const NodeId bound = std::max(actual.id_bound(), expected.id_bound());
  for (NodeId v = 0; v < bound; ++v) {
    const auto a = actual.neighbors(v);
    const auto e = expected.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), e.begin(), e.end()))
        << "partner lists of node " << v << " differ";
    for (NodeId w : e)
      ASSERT_EQ(actual.multiplicity(v, w), expected.multiplicity(v, w))
          << "multiplicity of pair " << v << "," << w;
  }
}

/// The acceptance-criterion oracle: the incrementally maintained cache must
/// equal the conflict graph built from scratch on the brute-force-rebuilt
/// edge set.
void expect_matches_brute_force(const AdhocNetwork& net) {
  const Digraph fresh = net.rebuild_graph_brute_force();
  expect_same(net.conflict_graph(), ConflictGraph::build_from(fresh));
}

// ------------------------------------------------------------ hand geometry

TEST(ConflictGraphDeltas, PrimaryPairHasOneWitnessPerDirection) {
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 10.0});
  const NodeId b = net.add_node({{5, 0}, 1.0});  // hears a, cannot answer
  EXPECT_EQ(net.conflict_graph().multiplicity(a, b), 1u);
  net.set_range(b, 10.0);  // now mutual
  EXPECT_EQ(net.conflict_graph().multiplicity(a, b), 2u);
  EXPECT_EQ(net.conflict_graph().pair_count(), 1u);
}

TEST(ConflictGraphDeltas, HiddenPairCountsCommonReceivers) {
  // a and c are out of range of each other but both reach b (and later d).
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 12.0});
  const NodeId b = net.add_node({{10, 0}, 1.0});
  const NodeId c = net.add_node({{20, 0}, 12.0});
  EXPECT_EQ(net.conflict_graph().multiplicity(a, c), 1u);  // via b
  const NodeId d = net.add_node({{10, 5}, 1.0});
  EXPECT_EQ(net.conflict_graph().multiplicity(a, c), 2u);  // via b and d
  net.remove_node(b);
  EXPECT_EQ(net.conflict_graph().multiplicity(a, c), 1u);
  net.remove_node(d);
  EXPECT_EQ(net.conflict_graph().multiplicity(a, c), 0u);
  EXPECT_FALSE(net.conflict_graph().in_conflict(a, c));
}

TEST(ConflictGraphDeltas, PowerDecreaseRetractsWitnesses) {
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 30.0});
  const NodeId b = net.add_node({{20, 0}, 30.0});
  ASSERT_TRUE(net.conflict_graph().in_conflict(a, b));
  net.set_range(a, 1.0);
  net.set_range(b, 1.0);
  EXPECT_FALSE(net.conflict_graph().in_conflict(a, b));
  EXPECT_EQ(net.conflict_graph().pair_count(), 0u);
  expect_matches_brute_force(net);
}

TEST(ConflictGraphDeltas, PartnersMatchConstraintEnumeration) {
  Rng rng(7);
  AdhocNetwork net;
  for (int i = 0; i < 25; ++i)
    net.add_node({{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(15, 35)});
  for (NodeId v : net.nodes()) {
    const auto row = net.conflict_graph().neighbors(v);
    const std::vector<NodeId> partners(row.begin(), row.end());
    EXPECT_EQ(partners, minim::net::conflict_partners(net, v));
  }
}

// ------------------------------------------------------ the phase oracle

/// Appends both endpoints of every pair whose existence differs between
/// `before` and `after` — the zero crossings of one sign-uniform phase.
void append_crossings(const ConflictGraph& before, const ConflictGraph& after,
                      std::vector<NodeId>& endpoints) {
  const auto crossed_away = [&endpoints](const ConflictGraph& from,
                                         const ConflictGraph& to) {
    for (NodeId u = 0; u < from.id_bound(); ++u)
      for (NodeId w : from.neighbors(u))
        if (u < w && !to.in_conflict(u, w)) {
          endpoints.push_back(u);
          endpoints.push_back(w);
        }
  };
  crossed_away(before, after);
  crossed_away(after, before);
}

/// The journal of one event that changes the edges at `v`, derived without
/// the delta protocol.  Starting from the pre-event digraph `g`, the oracle
/// applies the event's edge changes (towards `after`) in the protocol's four
/// sign-uniform phases — out-removals, out-additions, in-removals,
/// in-additions — builds each phase's conflict graph from scratch, and
/// journals both endpoints of every pair that crossed zero, plus `v` for a
/// join or a leave.  Returned sorted: the entries' order inside a phase is
/// unspecified.
std::vector<NodeId> phase_oracle_journal(Digraph g, const Digraph& after,
                                         NodeId v, bool joined, bool left) {
  std::vector<NodeId> expected;
  if (joined) {
    EXPECT_EQ(g.add_node(), v);
    expected.push_back(v);
  }
  ConflictGraph previous = ConflictGraph::build_from(g);
  const auto phase = [&](bool out, bool add) {
    const auto live = out ? g.out_neighbors(v) : g.in_neighbors(v);
    const std::span<const NodeId> wanted =
        left ? std::span<const NodeId>()
             : (out ? after.out_neighbors(v) : after.in_neighbors(v));
    const std::vector<NodeId> current(live.begin(), live.end());
    for (NodeId w : add ? wanted : std::span<const NodeId>(current)) {
      const bool keep = std::binary_search(wanted.begin(), wanted.end(), w);
      if (add) {
        g.add_edge(out ? v : w, out ? w : v);
      } else if (!keep) {
        g.remove_edge(out ? v : w, out ? w : v);
      }
    }
    ConflictGraph next = ConflictGraph::build_from(g);
    append_crossings(previous, next, expected);
    previous = std::move(next);
  };
  phase(/*out=*/true, /*add=*/false);
  if (!left) phase(true, true);
  phase(false, false);
  if (!left) phase(false, true);
  if (left) expected.push_back(v);
  std::sort(expected.begin(), expected.end());
  return expected;
}

/// Journal entries since `since`, sorted (duplicates kept).
std::vector<NodeId> sorted_journal_since(const ConflictGraph& cg,
                                         std::uint64_t since) {
  std::vector<NodeId> entries;
  EXPECT_TRUE(cg.append_dirty_since(since, entries));
  std::sort(entries.begin(), entries.end());
  return entries;
}

/// The journal check: the revision delta is the oracle's entry count (two
/// per crossing plus the node marks), and the entries are the oracle's
/// endpoints — as a multiset, so the dirty id sets agree too.
void expect_journal(const ConflictGraph& cg, std::uint64_t since,
                    const std::vector<NodeId>& expected) {
  EXPECT_EQ(cg.revision() - since, expected.size());
  EXPECT_EQ(sorted_journal_since(cg, since), expected);
}

// --------------------------------------------------- randomized event soak

class ConflictGraphSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConflictGraphSoak, IncrementalEqualsBruteForceRebuild) {
  Rng rng(GetParam());
  AdhocNetwork net;
  std::vector<NodeId> live;

  for (int event = 0; event < 160; ++event) {
    const double roll = rng.uniform(0, 1);
    const Digraph before = net.graph();
    const std::uint64_t revision = net.conflict_graph().revision();
    NodeId v = 0;
    bool joined = false;
    bool left = false;
    if (live.size() < 5 || roll < 0.3) {  // join
      v = net.add_node(
          {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(10, 35)});
      live.push_back(v);
      joined = true;
    } else if (roll < 0.45) {  // move anywhere
      v = live[rng.below(live.size())];
      net.set_position(v, {rng.uniform(0, 100), rng.uniform(0, 100)});
    } else if (roll < 0.6) {  // small displacement: most in-edges survive
      v = live[rng.below(live.size())];
      const auto p = net.config(v).position;
      net.set_position(v, {p.x + rng.uniform(-4, 4), p.y + rng.uniform(-4, 4)});
    } else if (roll < 0.75) {  // power change (raise or cut)
      v = live[rng.below(live.size())];
      net.set_range(v, rng.uniform(0, 40));
    } else if (roll < 0.87) {  // power raise up to 6x (fig11's range)
      v = live[rng.below(live.size())];
      net.set_range(v, net.config(v).range * rng.uniform(1, 6));
    } else {  // leave
      const std::size_t index = rng.below(live.size());
      v = live[index];
      net.remove_node(v);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
      left = true;
    }
    const Digraph after = net.rebuild_graph_brute_force();
    ASSERT_NO_FATAL_FAILURE(
        expect_same(net.conflict_graph(), ConflictGraph::build_from(after)))
        << "event " << event;
    ASSERT_NO_FATAL_FAILURE(expect_journal(
        net.conflict_graph(), revision,
        phase_oracle_journal(before, after, v, joined, left)))
        << "event " << event;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictGraphSoak,
                         ::testing::Values(101u, 202u, 303u));

// ------------------------------------------------------------- the journal

TEST(ConflictGraphJournal, ReportsNodesTouchedSinceARevision) {
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 15.0});
  const NodeId b = net.add_node({{10, 0}, 15.0});
  const std::uint64_t synced = net.conflict_graph().revision();

  const NodeId c = net.add_node({{12, 0}, 15.0});
  std::vector<NodeId> dirty;
  ASSERT_TRUE(net.conflict_graph().append_dirty_since(synced, dirty));
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  // The join links c to b (primary) and to a (hidden via b): all three are
  // dirty.
  EXPECT_EQ(dirty, (std::vector<NodeId>{a, b, c}));

  // Nothing since the head revision.
  dirty.clear();
  ASSERT_TRUE(net.conflict_graph().append_dirty_since(
      net.conflict_graph().revision(), dirty));
  EXPECT_TRUE(dirty.empty());
}

TEST(ConflictGraphJournal, QuietEventTouchesNothing) {
  AdhocNetwork net;
  net.add_node({{0, 0}, 10.0});
  const NodeId b = net.add_node({{5, 0}, 10.0});
  const std::uint64_t synced = net.conflict_graph().revision();
  net.set_range(b, 10.5);  // still reaches exactly {a}: no existence change
  std::vector<NodeId> dirty;
  ASSERT_TRUE(net.conflict_graph().append_dirty_since(synced, dirty));
  EXPECT_TRUE(dirty.empty());
}

TEST(ConflictGraphJournal, TrimmingInvalidatesOldWindows) {
  // Force far more than the journal cap of existence transitions: toggling
  // a's range flips the single-witness pairs (a, b) and (a, c) each time
  // (b's range reaches nobody, so every witness involves a's out-edge).
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 12.0});
  net.add_node({{10, 0}, 1.0});  // b: the common receiver
  const NodeId c = net.add_node({{20, 0}, 12.0});
  const std::uint64_t ancient = 0;
  for (int i = 0; i < (1 << 14); ++i) {
    net.set_range(a, 1.0);
    net.set_range(a, 12.0);
  }
  std::vector<NodeId> dirty;
  EXPECT_FALSE(net.conflict_graph().append_dirty_since(ancient, dirty));
  // A recent window still answers.
  const std::uint64_t synced = net.conflict_graph().revision();
  net.set_range(c, 1.0);  // retracts (c, b) and the hidden (a, c)
  dirty.clear();
  EXPECT_TRUE(net.conflict_graph().append_dirty_since(synced, dirty));
  EXPECT_FALSE(dirty.empty());
}

TEST(ConflictGraphJournal, ClearInvalidatesEveryWindow) {
  AdhocNetwork net;
  net.add_node({{0, 0}, 15.0});
  net.add_node({{10, 0}, 15.0});
  const std::uint64_t synced = net.conflict_graph().revision();
  net.reset(100.0, 100.0);
  std::vector<NodeId> dirty;
  EXPECT_FALSE(net.conflict_graph().append_dirty_since(synced, dirty));
  EXPECT_EQ(net.conflict_graph().pair_count(), 0u);
}

// --------------------------------------------------------------- the arena

TEST(NetworkReset, ReplaysIdenticallyToAFreshNetwork) {
  Rng seed_rng(55);
  std::vector<minim::net::NodeConfig> configs;
  for (int i = 0; i < 30; ++i)
    configs.push_back({{seed_rng.uniform(0, 100), seed_rng.uniform(0, 100)},
                       seed_rng.uniform(10, 35)});

  AdhocNetwork reused;
  for (int i = 0; i < 12; ++i)  // occupy, then reset
    reused.add_node(configs[static_cast<std::size_t>(i)]);
  reused.remove_node(3);
  reused.reset(100.0, 100.0);
  ASSERT_EQ(reused.node_count(), 0u);

  AdhocNetwork fresh;
  for (const auto& config : configs) {
    const NodeId a = reused.add_node(config);
    const NodeId b = fresh.add_node(config);
    ASSERT_EQ(a, b);  // same id sequence
  }
  ASSERT_EQ(reused.graph().edge_count(), fresh.graph().edge_count());
  expect_same(reused.conflict_graph(), ConflictGraph::build_from(fresh.graph()));
}

// ------------------------------------------------------------- batched fans

/// A random digraph and its conflict graph, maintained through the fans.
struct FanFixture {
  Digraph g;
  ConflictGraph cg;

  explicit FanFixture(std::size_t n, Rng& rng, double edge_p = 0.25) {
    for (std::size_t i = 0; i < n; ++i) cg.on_node_added(g.add_node());
    std::vector<NodeId> targets;
    for (NodeId u = 0; u < n; ++u) {
      targets.clear();
      for (NodeId v = 0; v < n; ++v)
        if (u != v && rng.uniform01() < edge_p) targets.push_back(v);
      cg.on_out_edges_added(g, u, targets);
      for (NodeId v : targets) g.add_edge(u, v);
    }
  }

  /// Applies one fan (reported before the digraph changes, as the protocol
  /// requires) and checks it against the phase oracle: the resulting state
  /// equals a from-scratch build, and the journal gained exactly two
  /// entries per zero crossing, naming the crossing pairs' endpoints.
  void apply_and_check(bool out, bool add, NodeId hub,
                       const std::vector<NodeId>& others) {
    const ConflictGraph before = ConflictGraph::build_from(g);
    const std::uint64_t revision = cg.revision();
    if (out && add) cg.on_out_edges_added(g, hub, others);
    if (out && !add) cg.on_out_edges_removed(g, hub, others);
    if (!out && add) cg.on_in_edges_added(g, others, hub);
    if (!out && !add) cg.on_in_edges_removed(g, others, hub);
    for (NodeId w : others) {
      const NodeId from = out ? hub : w;
      const NodeId to = out ? w : hub;
      if (add) {
        g.add_edge(from, to);
      } else {
        g.remove_edge(from, to);
      }
    }
    const ConflictGraph after = ConflictGraph::build_from(g);
    ASSERT_NO_FATAL_FAILURE(expect_same(cg, after));
    std::vector<NodeId> expected;
    append_crossings(before, after, expected);
    std::sort(expected.begin(), expected.end());
    ASSERT_NO_FATAL_FAILURE(expect_journal(cg, revision, expected));
  }
};

TEST(ConflictGraphBatch, FanAddAndRemoveEqualSequentialEdgeDeltas) {
  Rng rng(321);
  for (int round = 0; round < 25; ++round) {
    const std::size_t n = 6 + static_cast<std::size_t>(rng.below(8));
    FanFixture fx(n, rng);

    // A fan from a random source to every non-neighbor (dense on purpose:
    // targets share co-senders, so single pairs collect several witnesses
    // in one batch).
    const NodeId u = static_cast<NodeId>(rng.below(n));
    std::vector<NodeId> targets;
    for (NodeId v = 0; v < n; ++v)
      if (v != u && !fx.g.has_edge(u, v)) targets.push_back(v);
    if (targets.empty()) continue;

    ASSERT_NO_FATAL_FAILURE(fx.apply_and_check(true, true, u, targets))
        << "round " << round;
    // And back out: the batched removal retracts exactly what it added.
    ASSERT_NO_FATAL_FAILURE(fx.apply_and_check(true, false, u, targets))
        << "round " << round;
  }
}

TEST(ConflictGraphBatch, InFanAddAndRemoveMatchThePhaseOracle) {
  Rng rng(654);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 6 + static_cast<std::size_t>(rng.below(10));
    FanFixture fx(n, rng, rng.uniform(0.1, 0.5));
    const NodeId v = static_cast<NodeId>(rng.below(n));

    // New senders into v; the existing ones form K, whose rows gain S.
    std::vector<NodeId> senders;
    for (NodeId w = 0; w < n; ++w)
      if (w != v && !fx.g.has_edge(w, v) && rng.uniform01() < 0.6)
        senders.push_back(w);
    ASSERT_NO_FATAL_FAILURE(fx.apply_and_check(false, true, v, senders))
        << "round " << round;

    // Retract a random subset of all senders, so K keeps some old and some
    // new ones.
    std::vector<NodeId> retract;
    for (NodeId w : fx.g.in_neighbors(v))
      if (rng.uniform01() < 0.5) retract.push_back(w);
    ASSERT_NO_FATAL_FAILURE(fx.apply_and_check(false, false, v, retract))
        << "round " << round;
  }
}

TEST(ConflictGraphBatch, FanPreconditionsAreChecked) {
  Rng rng(9);
  FanFixture fx(5, rng, 0.0);
  fx.cg.on_out_edges_added(fx.g, 0, std::vector<NodeId>{1});
  fx.g.add_edge(0, 1);
  const std::vector<NodeId> present{0};
  const std::vector<NodeId> absent{2};
  const std::vector<NodeId> unsorted{3, 2};
  EXPECT_THROW(fx.cg.on_in_edges_added(fx.g, present, 1), std::invalid_argument);
  EXPECT_THROW(fx.cg.on_in_edges_removed(fx.g, absent, 1), std::invalid_argument);
  EXPECT_THROW(fx.cg.on_in_edges_added(fx.g, unsorted, 1), std::invalid_argument);
  EXPECT_THROW(fx.cg.on_out_edges_added(fx.g, 0, std::vector<NodeId>{1}),
               std::invalid_argument);
  EXPECT_THROW(fx.cg.on_out_edges_removed(fx.g, 0, std::vector<NodeId>{2}),
               std::invalid_argument);
}

TEST(ConflictGraphBatch, EmptyFanIsANoOp) {
  Rng rng(5);
  FanFixture fx(6, rng);
  const std::uint64_t revision = fx.cg.revision();
  fx.cg.on_out_edges_added(fx.g, 0, {});
  fx.cg.on_out_edges_removed(fx.g, 0, {});
  fx.cg.on_in_edges_added(fx.g, {}, 0);
  fx.cg.on_in_edges_removed(fx.g, {}, 0);
  EXPECT_EQ(fx.cg.revision(), revision);
}

}  // namespace
