#include "core/bipartite_builder.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/require.hpp"

namespace minim::core {

RecodeProblem build_recode_problem(const net::AdhocNetwork& net,
                                   const net::CodeAssignment& assignment,
                                   std::vector<net::NodeId> v1,
                                   const BipartiteWeights& weights) {
  MINIM_REQUIRE(weights.old_color_weight > 0 && weights.other_weight > 0,
                "matching weights must be positive");
  std::sort(v1.begin(), v1.end());
  v1.erase(std::unique(v1.begin(), v1.end()), v1.end());

  RecodeProblem problem;
  problem.v1 = std::move(v1);
  const auto& set = problem.v1;

  // Per-member forbidden colors (colors of conflict partners outside V1) as
  // bitmap rows, bit c-1 for color c, and the pool bound `max`.  Inlined
  // rather than routed through `net::forbidden_colors`' std::function filter,
  // with V1 membership served from an epoch-stamped array: this loop runs
  // once per conflict partner of every V1 member of every join, and both the
  // indirect call and the per-partner binary search dominated the join
  // profile.  No color exceeds the assignment's maximum, which fixes the row
  // stride before the scan.  The scratch is thread_local because strategies
  // run one per worker thread.
  thread_local std::vector<std::uint64_t> member_epoch;
  thread_local std::uint64_t epoch = 0;
  thread_local std::vector<std::uint64_t> forbidden;
  if (member_epoch.size() < net.id_bound()) member_epoch.resize(net.id_bound(), 0);
  ++epoch;
  for (net::NodeId v : set) member_epoch[v] = epoch;

  const std::size_t stride = (std::size_t{assignment.max_color()} + 63) / 64;
  forbidden.assign(set.size() * stride, 0);
  net::Color max_color = net::kNoColor;
  for (std::size_t i = 0; i < set.size(); ++i) {
    std::uint64_t* bits = forbidden.data() + i * stride;
    for (net::NodeId v : net.conflict_graph().neighbors(set[i])) {
      if (member_epoch[v] == epoch) continue;
      const net::Color c = assignment.color(v);
      if (c == net::kNoColor) continue;
      bits[(c - 1) / 64] |= std::uint64_t{1} << ((c - 1) % 64);
      max_color = std::max(max_color, c);
    }
    max_color = std::max(max_color, assignment.color(set[i]));
  }
  problem.max_color = max_color;

  // Each row is the complement of its forbidden bitmap, cut at the pool
  // bound; its set bits are the edges, visited in ascending color order.
  problem.graph = matching::BipartiteGraph(static_cast<std::uint32_t>(set.size()),
                                           max_color);
  const std::size_t words = (std::size_t{max_color} + 63) / 64;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const net::Color old = assignment.color(set[i]);
    const std::uint64_t* bits = forbidden.data() + i * stride;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t allowed = ~bits[w];
      const std::size_t tail = max_color - 64 * w;  // pool colors from this word on
      if (tail < 64) allowed &= (std::uint64_t{1} << tail) - 1;
      for (; allowed != 0; allowed &= allowed - 1) {
        const auto c = static_cast<net::Color>(64 * w + std::countr_zero(allowed) + 1);
        problem.graph.add_edge(static_cast<std::uint32_t>(i), c - 1,
                               c == old ? weights.old_color_weight : weights.other_weight);
      }
    }
  }
  return problem;
}

}  // namespace minim::core
