// Exactness of the maximum-weight matcher is what the paper's minimality and
// optimality theorems stand on; these tests pin it against an exhaustive
// oracle across thousands of random instances, and pin its exact output (not
// just its weight) against an edge-list Hungarian kept here as a reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "matching/bipartite_graph.hpp"
#include "matching/brute_force.hpp"
#include "matching/heuristics.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/hungarian.hpp"
#include "util/rng.hpp"

namespace {

using minim::matching::BipartiteGraph;
using minim::matching::brute_force_max_weight_matching;
using minim::matching::greedy_matching;
using minim::matching::is_valid_matching;
using minim::matching::MatchingResult;
using minim::matching::max_cardinality_matching;
using minim::matching::max_weight_matching;
using minim::matching::Weight;
using minim::util::Rng;

struct Edge {
  std::uint32_t left;
  std::uint32_t right;
  Weight weight;
};

// The e-maxx Hungarian over an edge list and a copied cost matrix, as the
// library ran it before the graph became a dense matrix.  The library's
// solver reads the same costs off the matrix in the same pivot order, so
// its `left_to_right` must equal this one's exactly: Minim's recodings, and
// so every figure CSV, depend on which of several equal-weight optima wins.
MatchingResult reference_hungarian(std::uint32_t left, std::uint32_t right,
                                   const std::vector<Edge>& edges) {
  const std::size_t n = left;
  MatchingResult result;
  result.left_to_right.assign(n, MatchingResult::kUnmatched);
  if (n == 0) return result;
  const std::size_t r_real = right;
  const std::size_t m = r_real + n;
  Weight w_max = 0;
  for (const auto& e : edges) w_max = std::max(w_max, e.weight);
  if (w_max == 0) return result;
  std::vector<Weight> cost(n * m, w_max);
  for (const auto& e : edges)
    cost[static_cast<std::size_t>(e.left) * m + e.right] = w_max - e.weight;

  constexpr Weight kInf = std::numeric_limits<Weight>::max() / 4;
  std::vector<Weight> u(n + 1, 0);
  std::vector<Weight> v(m + 1, 0);
  std::vector<std::size_t> p(m + 1, 0);
  std::vector<std::size_t> way(m + 1, 0);
  for (std::size_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::size_t j0 = 0;
    std::vector<Weight> minv(m + 1, kInf);
    std::vector<char> used(m + 1, 0);
    do {
      used[j0] = 1;
      const std::size_t i0 = p[j0];
      Weight delta = kInf;
      std::size_t j1 = 0;
      const Weight* row = cost.data() + (i0 - 1) * m;
      for (std::size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const Weight cur = row[j - 1] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const std::size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  for (std::size_t j = 1; j <= r_real; ++j) {
    if (p[j] == 0) continue;
    const std::size_t i = p[j] - 1;
    Weight w = 0;
    for (const auto& e : edges)
      if (e.left == i && e.right == j - 1) w = e.weight;
    if (w <= 0) continue;
    result.left_to_right[i] = static_cast<std::uint32_t>(j - 1);
    result.total_weight += w;
  }
  return result;
}

// Greedy by its specification: edges by descending weight, then left id,
// then right id; take every edge whose endpoints are both free.
MatchingResult reference_greedy(std::uint32_t left, std::uint32_t right,
                                std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.left != b.left) return a.left < b.left;
    return a.right < b.right;
  });
  MatchingResult result;
  result.left_to_right.assign(left, MatchingResult::kUnmatched);
  std::vector<char> right_used(right, 0);
  for (const auto& e : edges) {
    if (result.left_to_right[e.left] != MatchingResult::kUnmatched || right_used[e.right])
      continue;
    result.left_to_right[e.left] = e.right;
    right_used[e.right] = 1;
    result.total_weight += e.weight;
  }
  return result;
}

BipartiteGraph graph_of(std::uint32_t left, std::uint32_t right,
                        const std::vector<Edge>& edges) {
  BipartiteGraph g(left, right);
  for (const auto& e : edges) g.add_edge(e.left, e.right, e.weight);
  return g;
}

// -------------------------------------------------------- BipartiteGraph

TEST(BipartiteGraph, BasicAccessors) {
  BipartiteGraph g(2, 3);
  g.add_edge(0, 1, 3);
  g.add_edge(1, 2, 1);
  EXPECT_EQ(g.left_size(), 2u);
  EXPECT_EQ(g.right_size(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.weight(0, 1), 3);
  EXPECT_EQ(g.weight(0, 0), 0);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.max_weight(), 3);
  const auto row = g.row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], 0);
  EXPECT_EQ(row[1], 3);
  EXPECT_EQ(row[2], 0);
  EXPECT_EQ(BipartiteGraph(2, 2).max_weight(), 0);
  EXPECT_THROW(g.weight(2, 0), std::invalid_argument);
  EXPECT_THROW(g.weight(0, 3), std::invalid_argument);
}

TEST(BipartiteGraph, RejectsBadEdges) {
  BipartiteGraph g(2, 2);
  EXPECT_THROW(g.add_edge(2, 0, 1), std::invalid_argument);  // left OOR
  EXPECT_THROW(g.add_edge(0, 2, 1), std::invalid_argument);  // right OOR
  EXPECT_THROW(g.add_edge(0, 0, 0), std::invalid_argument);  // non-positive
  g.add_edge(0, 0, 1);
  EXPECT_THROW(g.add_edge(0, 0, 2), std::invalid_argument);  // duplicate
}

TEST(BipartiteGraph, ValidMatchingChecker) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 3);
  g.add_edge(1, 1, 1);
  MatchingResult ok;
  ok.left_to_right = {0, 1};
  ok.total_weight = 4;
  EXPECT_TRUE(is_valid_matching(g, ok));

  MatchingResult non_edge = ok;
  non_edge.left_to_right = {1, 0};  // neither (0,1) nor (1,0) exists
  EXPECT_FALSE(is_valid_matching(g, non_edge));

  MatchingResult wrong_weight = ok;
  wrong_weight.total_weight = 5;
  EXPECT_FALSE(is_valid_matching(g, wrong_weight));
}

TEST(BipartiteGraph, DuplicateRightRejectedByChecker) {
  BipartiteGraph g(2, 1);
  g.add_edge(0, 0, 1);
  g.add_edge(1, 0, 1);
  MatchingResult m;
  m.left_to_right = {0, 0};
  m.total_weight = 2;
  EXPECT_FALSE(is_valid_matching(g, m));
}

// -------------------------------------------------------- Hungarian, basics

TEST(Hungarian, EmptyGraph) {
  BipartiteGraph g(0, 0);
  const auto m = max_weight_matching(g);
  EXPECT_TRUE(m.left_to_right.empty());
  EXPECT_EQ(m.total_weight, 0);
}

TEST(Hungarian, NoEdgesLeavesAllUnmatched) {
  BipartiteGraph g(3, 2);
  const auto m = max_weight_matching(g);
  for (auto r : m.left_to_right) EXPECT_EQ(r, MatchingResult::kUnmatched);
  EXPECT_EQ(m.total_weight, 0);
}

TEST(Hungarian, SingleEdge) {
  BipartiteGraph g(1, 1);
  g.add_edge(0, 0, 3);
  const auto m = max_weight_matching(g);
  EXPECT_EQ(m.left_to_right[0], 0u);
  EXPECT_EQ(m.total_weight, 3);
}

TEST(Hungarian, PrefersHeavyEdgeOverTwoLight) {
  // Wait — 3 > 1 + 1 is the paper's weight inequality.  Left 0 can take the
  // weight-3 edge to right 0, or leave it for left 1; taking it plus left
  // 1's weight-1 edge to right 1 is optimal.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 3);
  g.add_edge(1, 0, 1);
  g.add_edge(1, 1, 1);
  const auto m = max_weight_matching(g);
  EXPECT_EQ(m.total_weight, 4);
  EXPECT_EQ(m.left_to_right[0], 0u);
  EXPECT_EQ(m.left_to_right[1], 1u);
}

TEST(Hungarian, WeightBeatsCardinality) {
  // One heavy edge (10) on the only right vertex vs two light edges that
  // cannot coexist: max weight picks the single heavy edge.
  BipartiteGraph g(2, 1);
  g.add_edge(0, 0, 10);
  g.add_edge(1, 0, 1);
  const auto m = max_weight_matching(g);
  EXPECT_EQ(m.total_weight, 10);
  EXPECT_EQ(m.left_to_right[0], 0u);
  EXPECT_EQ(m.left_to_right[1], MatchingResult::kUnmatched);
}

TEST(Hungarian, AugmentingPathDisplacement) {
  // Classic alternating-path case: greedy would match (0,0) and strand 1;
  // the exact solver must re-route 0 to right 1.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 1);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 0, 1);
  const auto m = max_weight_matching(g);
  EXPECT_EQ(m.cardinality(), 2u);
  EXPECT_EQ(m.total_weight, 2);
}

TEST(Hungarian, ResultIsAlwaysValidMatching) {
  Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    const auto l = static_cast<std::uint32_t>(1 + rng.below(8));
    const auto r = static_cast<std::uint32_t>(1 + rng.below(10));
    BipartiteGraph g(l, r);
    for (std::uint32_t i = 0; i < l; ++i)
      for (std::uint32_t j = 0; j < r; ++j)
        if (rng.chance(0.4))
          g.add_edge(i, j, rng.chance(0.3) ? 3 : 1);
    const auto m = max_weight_matching(g);
    ASSERT_TRUE(is_valid_matching(g, m)) << "trial " << trial;
  }
}

// ------------------------------------------- Hungarian vs exhaustive oracle

struct RandomInstanceParams {
  std::uint32_t max_left;
  std::uint32_t max_right;
  double density;
  bool paper_weights;  // 3/1 scheme vs arbitrary weights in [1, 9]
};

// Prints the fields, e.g. "l4 r4 d0.5 paper": ctest's discovered test names
// embed this text, and gtest's default byte dump would include padding.
void PrintTo(const RandomInstanceParams& param, std::ostream* os) {
  *os << "l" << param.max_left << " r" << param.max_right << " d" << param.density
      << (param.paper_weights ? " paper" : " w1-9");
}

class HungarianOracleTest : public ::testing::TestWithParam<RandomInstanceParams> {
 protected:
  // One random instance of the family, as an edge list in ascending
  // (left, right) order — the order the G' builder adds edges in.
  static std::vector<Edge> random_edges(const RandomInstanceParams& param, Rng& rng,
                                        std::uint32_t& l, std::uint32_t& r) {
    l = static_cast<std::uint32_t>(1 + rng.below(param.max_left));
    r = static_cast<std::uint32_t>(1 + rng.below(param.max_right));
    std::vector<Edge> edges;
    for (std::uint32_t i = 0; i < l; ++i)
      for (std::uint32_t j = 0; j < r; ++j)
        if (rng.chance(param.density)) {
          const auto w = param.paper_weights ? (rng.chance(0.3) ? 3 : 1)
                                             : static_cast<Weight>(1 + rng.below(9));
          edges.push_back(Edge{i, j, w});
        }
    return edges;
  }

  static std::uint64_t seed_of(const RandomInstanceParams& param) {
    return 1000 + param.max_left * 31 + param.max_right * 7 +
           static_cast<std::uint64_t>(param.density * 100);
  }
};

TEST_P(HungarianOracleTest, MatchesBruteForceWeight) {
  const auto param = GetParam();
  Rng rng(seed_of(param));
  for (int trial = 0; trial < 150; ++trial) {
    std::uint32_t l = 0;
    std::uint32_t r = 0;
    const std::vector<Edge> edges = random_edges(param, rng, l, r);
    const BipartiteGraph g = graph_of(l, r, edges);
    const auto exact = max_weight_matching(g);
    const auto oracle = brute_force_max_weight_matching(g);
    ASSERT_TRUE(is_valid_matching(g, exact));
    ASSERT_EQ(exact.total_weight, oracle.total_weight)
        << "trial " << trial << " l=" << l << " r=" << r;
    // Not just an optimum: the reference's optimum, cell for cell.
    ASSERT_EQ(exact.left_to_right, reference_hungarian(l, r, edges).left_to_right)
        << "trial " << trial << " l=" << l << " r=" << r;
  }
}

TEST_P(HungarianOracleTest, DenseRowsIgnoreInsertionOrder) {
  // The same instances with edges added in descending and in shuffled order:
  // every matcher walks the dense rows in ascending right order, whatever
  // order the edges arrived in.
  const auto param = GetParam();
  Rng rng(seed_of(param) + 1);
  for (int trial = 0; trial < 100; ++trial) {
    std::uint32_t l = 0;
    std::uint32_t r = 0;
    const std::vector<Edge> ascending = random_edges(param, rng, l, r);
    std::vector<Edge> descending(ascending.rbegin(), ascending.rend());
    std::vector<Edge> shuffled = ascending;
    for (std::size_t k = shuffled.size(); k > 1; --k)
      std::swap(shuffled[k - 1], shuffled[rng.below(k)]);

    const MatchingResult hungarian = reference_hungarian(l, r, ascending);
    const MatchingResult greedy = reference_greedy(l, r, ascending);
    const MatchingResult oracle = brute_force_max_weight_matching(graph_of(l, r, ascending));
    std::vector<Edge> unit = ascending;
    for (auto& e : unit) e.weight = 1;
    const std::size_t max_cardinality = reference_hungarian(l, r, unit).cardinality();
    for (const auto* order : {&descending, &shuffled}) {
      const BipartiteGraph g = graph_of(l, r, *order);
      ASSERT_EQ(g.edge_count(), ascending.size());
      ASSERT_EQ(max_weight_matching(g).left_to_right, hungarian.left_to_right)
          << "trial " << trial;
      ASSERT_EQ(greedy_matching(g).left_to_right, greedy.left_to_right) << "trial " << trial;
      const auto brute = brute_force_max_weight_matching(g);
      ASSERT_TRUE(is_valid_matching(g, brute));
      ASSERT_EQ(brute.left_to_right, oracle.left_to_right) << "trial " << trial;
      const auto hk = max_cardinality_matching(g);
      ASSERT_TRUE(is_valid_matching(g, hk));
      ASSERT_EQ(hk.cardinality(), max_cardinality) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, HungarianOracleTest,
    ::testing::Values(RandomInstanceParams{4, 4, 0.5, true},
                      RandomInstanceParams{6, 4, 0.4, true},
                      RandomInstanceParams{4, 8, 0.6, true},
                      RandomInstanceParams{7, 7, 0.3, true},
                      RandomInstanceParams{5, 5, 0.8, true},
                      RandomInstanceParams{4, 4, 0.5, false},
                      RandomInstanceParams{6, 5, 0.4, false},
                      RandomInstanceParams{5, 9, 0.7, false}));

// -------------------------------------------------------- Hopcroft-Karp

TEST(HopcroftKarp, PerfectMatchingOnCompleteGraph) {
  BipartiteGraph g(4, 4);
  for (std::uint32_t i = 0; i < 4; ++i)
    for (std::uint32_t j = 0; j < 4; ++j) g.add_edge(i, j, 1);
  const auto m = max_cardinality_matching(g);
  EXPECT_EQ(m.cardinality(), 4u);
  EXPECT_TRUE(is_valid_matching(g, m));
}

TEST(HopcroftKarp, CardinalityMatchesHungarianUnderUniformWeights) {
  Rng rng(33);
  for (int trial = 0; trial < 100; ++trial) {
    const auto l = static_cast<std::uint32_t>(1 + rng.below(9));
    const auto r = static_cast<std::uint32_t>(1 + rng.below(9));
    BipartiteGraph g(l, r);
    for (std::uint32_t i = 0; i < l; ++i)
      for (std::uint32_t j = 0; j < r; ++j)
        if (rng.chance(0.35)) g.add_edge(i, j, 1);
    const auto hk = max_cardinality_matching(g);
    const auto hung = max_weight_matching(g);
    // With unit weights, max weight == max cardinality.
    ASSERT_EQ(hk.cardinality(), hung.cardinality()) << "trial " << trial;
    ASSERT_TRUE(is_valid_matching(g, hk));
  }
}

TEST(HopcroftKarp, IgnoresWeights) {
  // Cardinality 2 with light edges beats cardinality 1 with the heavy edge.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 100);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 0, 1);
  const auto m = max_cardinality_matching(g);
  EXPECT_EQ(m.cardinality(), 2u);
}

// -------------------------------------------------------- Greedy heuristic

TEST(Greedy, ProducesValidMatching) {
  Rng rng(44);
  for (int trial = 0; trial < 100; ++trial) {
    const auto l = static_cast<std::uint32_t>(1 + rng.below(10));
    const auto r = static_cast<std::uint32_t>(1 + rng.below(10));
    BipartiteGraph g(l, r);
    for (std::uint32_t i = 0; i < l; ++i)
      for (std::uint32_t j = 0; j < r; ++j)
        if (rng.chance(0.4)) g.add_edge(i, j, rng.chance(0.3) ? 3 : 1);
    ASSERT_TRUE(is_valid_matching(g, greedy_matching(g)));
  }
}

TEST(Greedy, AtLeastHalfOfOptimalWeight) {
  Rng rng(55);
  for (int trial = 0; trial < 100; ++trial) {
    const auto l = static_cast<std::uint32_t>(1 + rng.below(8));
    const auto r = static_cast<std::uint32_t>(1 + rng.below(8));
    BipartiteGraph g(l, r);
    for (std::uint32_t i = 0; i < l; ++i)
      for (std::uint32_t j = 0; j < r; ++j)
        if (rng.chance(0.5))
          g.add_edge(i, j, static_cast<minim::matching::Weight>(1 + rng.below(9)));
    const auto greedy = greedy_matching(g);
    const auto exact = max_weight_matching(g);
    ASSERT_GE(2 * greedy.total_weight, exact.total_weight);
  }
}

TEST(Greedy, CanBeSuboptimal) {
  // Greedy takes the 5 edge and strands left 1; optimal takes 4 + 3 = 7.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 5);
  g.add_edge(0, 1, 4);
  g.add_edge(1, 0, 3);
  EXPECT_EQ(greedy_matching(g).total_weight, 5);
  EXPECT_EQ(max_weight_matching(g).total_weight, 7);
}

// -------------------------------------------------------- Brute force

TEST(BruteForce, RefusesLargeInstances) {
  BipartiteGraph g(13, 2);
  EXPECT_THROW(brute_force_max_weight_matching(g), std::invalid_argument);
}

TEST(BruteForce, HandlesIsolatedLeftVertices) {
  BipartiteGraph g(3, 1);
  g.add_edge(1, 0, 2);
  const auto m = brute_force_max_weight_matching(g);
  EXPECT_EQ(m.total_weight, 2);
  EXPECT_EQ(m.left_to_right[0], MatchingResult::kUnmatched);
  EXPECT_EQ(m.left_to_right[1], 0u);
}

}  // namespace
