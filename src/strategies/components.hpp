#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/conflict_graph.hpp"

/// \file components.hpp
/// \brief Connected components of the rank-bounded propagation frontier.
///
/// BBB's propagation kernel (bbb.cpp) pops dirty nodes in non-decreasing
/// rank and, when a node's color changes, pushes only its *later-ranked*
/// conflict neighbors.  The set of nodes such a propagation
/// can ever touch is therefore contained in the **forward closure** of the
/// seed set: walk conflict rows from the seeds, following an edge u–w only
/// when `rank(w) > rank(u)`.  The closure R is forward-closed by
/// construction — every later-ranked neighbor of an R-node is itself in R —
/// so conflict edges that leave R point exclusively at *earlier* ranks, i.e.
/// at colors the propagation reads but never writes.
///
/// `DirtyComponents` computes that closure and, fused into the same walk,
/// partitions it into connected components of the conflict graph restricted
/// to R (union-find over every intra-R edge the walk crosses).  Two nodes in
/// different components share no conflict edge inside R, and edges out of R
/// only reach read-only earlier-rank colors, so the bounded propagation of
/// one component can neither read a color another component writes nor push
/// a node another component owns.  That independence is what makes the
/// component-parallel recolor in `BbbStrategy` bit-identical to the serial
/// pass (see bbb.hpp, "Parallel recoloring").
///
/// The walk refuses (returns false) as soon as the closure exceeds
/// `node_cap` — the caller's propagation budget.  A closure within the
/// budget proves the serial pass could never hit its slack bailout (it pops
/// at most |R| ≤ budget nodes), so the parallel path only ever runs batches
/// the serial path would have absorbed, and demotion on refusal loses
/// nothing but the parallelism.
namespace minim::strategies {

class DirtyComponents {
 public:
  /// Rank value of ids outside the maintained order (matches
  /// `DegeneracyOrderer::kNoRank`).  Unranked ids — departed/tombstoned, or
  /// past the rank span — are never entered: a departed node has no conflict
  /// row, and the bounded path never pushes an unranked neighbor.
  static constexpr std::uint32_t kUnranked = static_cast<std::uint32_t>(-1);

  /// Decomposes the forward closure of `seeds` (deduped, any order) under
  /// rank-increasing conflict edges of `cg` into connected components.
  /// `rank` is the id-indexed rank span (ids past its end are unranked).
  /// Unranked seeds are skipped.  Returns false — leaving the
  /// previous decomposition invalid — when the closure would exceed
  /// `node_cap` nodes.
  bool decompose(const net::ConflictGraph& cg, std::span<const std::uint32_t> rank,
                 std::span<const net::NodeId> seeds, std::size_t node_cap);

  /// Number of components of the last successful decompose.
  std::size_t count() const { return component_count_; }

  /// Total nodes in the closure (sum of member counts).
  std::size_t closure_size() const { return members_flat_.size(); }

  /// Members of component `c`, in the discovery order of the walk
  /// (deterministic: a pure function of graph, ranks, and seed order).
  std::span<const net::NodeId> members(std::size_t c) const {
    return {members_flat_.data() + member_offsets_[c],
            member_offsets_[c + 1] - member_offsets_[c]};
  }

  /// The seeds that fell into component `c`, preserving the caller's seed
  /// order — the order the bounded path heapifies them in.
  std::span<const net::NodeId> seeds(std::size_t c) const {
    return {seeds_flat_.data() + seed_offsets_[c],
            seed_offsets_[c + 1] - seed_offsets_[c]};
  }

 private:
  /// Local index of `v`, creating it (members/union-find slot + BFS stack
  /// entry) on first visit.  `v` must be below the visit arrays' bound.
  std::uint32_t visit(net::NodeId v);
  std::uint32_t find(std::uint32_t x);

  // Epoch-stamped visit marks: a slot belongs to the current decompose iff
  // its stamp equals epoch_, so reuse across calls is O(closure), not O(n).
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> visit_epoch_;  ///< id-indexed
  std::vector<std::uint32_t> local_of_;     ///< id -> local index (when visited)

  // Walk state, local-indexed (dense over the closure).
  std::vector<net::NodeId> members_;   ///< local index -> id, discovery order
  std::vector<std::uint32_t> parent_;  ///< union-find forest
  std::vector<std::uint32_t> uf_size_; ///< union-by-size weights
  std::vector<net::NodeId> stack_;     ///< BFS/DFS frontier

  // Grouped output of the last successful decompose.
  std::size_t component_count_ = 0;
  std::vector<std::uint32_t> comp_of_local_;
  std::vector<std::uint32_t> root_comp_;  ///< union-find root -> component id
  std::vector<net::NodeId> members_flat_;
  std::vector<std::uint32_t> member_offsets_;
  std::vector<net::NodeId> seeds_flat_;
  std::vector<std::uint32_t> seed_offsets_;
  std::vector<std::uint32_t> cursor_;
};

}  // namespace minim::strategies
