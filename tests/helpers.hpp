#pragma once

// Shared fixtures for strategy tests: random geometric worlds with a valid
// initial assignment, plus an exhaustive adversary that enumerates *every*
// correct recoding of a recode set — the oracle behind the minimality
// (Thm 4.1.8) and optimality-among-minimal (Thm 4.1.9) tests.

#include <algorithm>
#include <limits>
#include <ostream>
#include <span>
#include <vector>

#include "core/minim.hpp"
#include "core/recode_report.hpp"
#include "net/assignment.hpp"
#include "net/constraints.hpp"
#include "net/network.hpp"
#include "strategies/coloring.hpp"
#include "util/rng.hpp"

namespace minim::test {

/// Materializes a neighbor range (the pooled-storage spans returned by
/// Digraph/AdhocNetwork/ConflictGraph accessors) for gtest comparisons.
template <typename Range>
std::vector<net::NodeId> ids(const Range& range) {
  return std::vector<net::NodeId>(range.begin(), range.end());
}

/// A network populated by sequential Minim joins (assignment always valid).
struct World {
  net::AdhocNetwork network{100.0, 100.0};
  net::CodeAssignment assignment;
  std::vector<net::NodeId> ids;
};

inline World build_world(std::size_t n, double min_range, double max_range,
                         util::Rng& rng) {
  World world;
  core::MinimStrategy minim;
  for (std::size_t i = 0; i < n; ++i) {
    const net::NodeId id = world.network.add_node(
        {{rng.uniform(0, 100), rng.uniform(0, 100)},
         rng.uniform(min_range, max_range)});
    minim.on_join(world.network, world.assignment, id);
    world.ids.push_back(id);
  }
  return world;
}

/// The from-scratch BBB reference: recolors a copy of `assignment` with
/// `strategies::color_network` in `order`, reports every live node whose
/// color differs (ascending id, as `BbbStrategy` reports), and writes the
/// recolored copy back.  Incremental BBB must match it event for event.
inline core::RecodeReport recolor_from_scratch(const net::AdhocNetwork& network,
                                               strategies::ColoringOrder order,
                                               core::EventType event,
                                               net::NodeId subject,
                                               net::CodeAssignment& assignment) {
  net::CodeAssignment fresh = assignment;
  strategies::color_network(network, order, fresh);
  core::RecodeReport report;
  report.event = event;
  report.subject = subject;
  for (net::NodeId v : network.nodes())
    if (fresh.color(v) != assignment.color(v))
      report.changes.push_back(core::Recode{v, assignment.color(v), fresh.color(v)});
  assignment = fresh;
  core::finalize_report(network, assignment, report);
  return report;
}

/// Result of exhaustively enumerating correct recodings of `v1`.
struct AdversaryResult {
  std::size_t min_recodings = std::numeric_limits<std::size_t>::max();
  /// Smallest network-wide max color among recodings that achieve
  /// `min_recodings`.
  net::Color best_max_color = std::numeric_limits<net::Color>::max();
  std::size_t explored = 0;
};

/// Enumerates every assignment of pairwise-distinct colors to `v1` that is
/// feasible against the (fixed) colors outside `v1`.  Pairwise distinctness
/// is exactly the intra-V1 constraint for join/move recode sets (V1 is a
/// conflict clique through the event node).  Pool: 1..(pool_max).
class ExhaustiveAdversary {
 public:
  ExhaustiveAdversary(const net::AdhocNetwork& network,
                      const net::CodeAssignment& assignment,
                      std::vector<net::NodeId> v1)
      : network_(network), assignment_(assignment), v1_(std::move(v1)) {
    std::sort(v1_.begin(), v1_.end());
    auto in_v1 = [this](net::NodeId v) {
      return std::binary_search(v1_.begin(), v1_.end(), v);
    };
    net::Color max_seen = net::kNoColor;
    for (net::NodeId u : v1_) {
      forbidden_.push_back(net::forbidden_colors(network_, assignment_, u, in_v1));
      if (!forbidden_.back().empty())
        max_seen = std::max(max_seen, forbidden_.back().back());
      max_seen = std::max(max_seen, assignment_.color(u));
    }
    pool_max_ = max_seen + static_cast<net::Color>(v1_.size());
    for (net::NodeId v : network_.nodes()) {
      if (in_v1(v)) continue;
      outside_max_ = std::max(outside_max_, assignment_.color(v));
    }
  }

  AdversaryResult run() {
    current_.assign(v1_.size(), net::kNoColor);
    used_.assign(pool_max_ + 1, 0);
    recurse(0, 0, net::kNoColor);
    return result_;
  }

 private:
  void recurse(std::size_t index, std::size_t changes, net::Color v1_max) {
    if (index == v1_.size()) {
      ++result_.explored;
      const net::Color total_max = std::max(v1_max, outside_max_);
      if (changes < result_.min_recodings) {
        result_.min_recodings = changes;
        result_.best_max_color = total_max;
      } else if (changes == result_.min_recodings) {
        result_.best_max_color = std::min(result_.best_max_color, total_max);
      }
      return;
    }
    const net::Color old = assignment_.color(v1_[index]);
    const auto& forb = forbidden_[index];
    for (net::Color c = 1; c <= pool_max_; ++c) {
      if (used_[c]) continue;
      if (std::binary_search(forb.begin(), forb.end(), c)) continue;
      used_[c] = 1;
      recurse(index + 1, changes + (c != old ? 1 : 0), std::max(v1_max, c));
      used_[c] = 0;
    }
  }

  const net::AdhocNetwork& network_;
  const net::CodeAssignment& assignment_;
  std::vector<net::NodeId> v1_;
  std::vector<std::vector<net::Color>> forbidden_;
  net::Color pool_max_ = 0;
  net::Color outside_max_ = 0;
  std::vector<net::Color> current_;
  std::vector<char> used_;
  AdversaryResult result_;
};

}  // namespace minim::test

namespace minim::strategies {

// Prints the order's name ("smallest-last"), found by argument-dependent
// lookup: ctest's discovered names of the order-parameterized suites embed
// this text instead of gtest's byte dump of the enum.
inline void PrintTo(ColoringOrder order, std::ostream* os) {
  *os << to_string(order);
}

}  // namespace minim::strategies
