#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/row_pool.hpp"

/// \file conflict_graph.hpp
/// \brief Cached two-hop interference adjacency (CA1 ∪ CA2) with per-pair
/// multiplicity counts, maintained incrementally from digraph edge deltas.
///
/// The TOCA conflict graph is the central object of every strategy: u and v
/// conflict iff u→v, v→u (CA1), or they share an out-neighbor (CA2).  The
/// naive enumeration (`merge in/out lists, union co-senders of every
/// out-neighbor`) costs O(deg²) per node and was recomputed per *event* by
/// the global strategies — the dominant term in every wall-clock profile.
///
/// This cache keeps, for every node, the sorted list of its conflict
/// partners together with a *multiplicity* per pair:
///
///     count(u, v) = [u→v] + [v→u] + |out(u) ∩ out(v)|
///
/// i.e. the number of distinct CA1/CA2 witnesses forbidding the pair the
/// same color.  Counting witnesses makes edge deltas compose: adding the
/// directed edge u→v contributes exactly one witness to (u, v) and one to
/// (u, w) for every other sender w ∈ in(v); removing it retracts the same
/// witnesses.  A pair conflicts iff its count is positive, so existence
/// transitions (0 → 1 and 1 → 0) are detected locally, with no global
/// recount.
///
/// ## Delta protocol: fans and phases
///
/// The owner (`AdhocNetwork`) reports an event's edge changes as *fans*,
/// each *before* applying it to the digraph; this class never mutates the
/// digraph it reads.  A fan shares one endpoint, and applies its witnesses
/// with at most one sorted merge per touched row:
///
///   * **Out-fan** u → T (u's own reach changed).  The partner multiset
///     ⊎_{v∈T} ({v} ∪ in(v) \ {u}) is tallied per id, only the distinct
///     partners are sorted, and row u merges once; every partner's row gets
///     one point update for u.
///   * **In-fan** S → v (who reaches v changed).  With K = in(v) \ S, each
///     sender a ∈ S merges once with {v} ∪ K ∪ S \ {a}, row v merges once
///     with S, and each row in K gains or loses S.
///
/// An event reports at most four fans, each *sign-uniform* (only additions
/// or only removals), in a fixed phase order: out-removals, out-additions,
/// in-removals, in-additions.  A fan's total equals applying its edges one
/// at a time, in any order.
///
/// ## Dirty journal
///
/// Every existence transition — a pair gaining or losing its last witness —
/// and every node add/remove appends the touched node ids to a bounded
/// journal tagged with a monotonically increasing revision.  A consumer that
/// remembers the revision it last synchronized at can ask for "every node
/// whose conflict neighborhood changed since" and recompute only those
/// (incremental recoloring in `BbbStrategy`).  If the window has been
/// trimmed away — or the graph was `clear()`ed — the query fails and the
/// consumer must fall back to a full pass.
///
/// Journal invariant: inside one phase every pair's count is monotone, so a
/// pair crosses zero at most once per phase, and each crossing journals
/// both endpoints exactly once — the entries an edge-at-a-time application
/// of the same phase would write.  Only their order inside a phase is
/// unspecified (consumers sort and dedupe, or count), so revisions and trim
/// points depend on the event sequence alone.
namespace minim::net {

using graph::NodeId;

class ConflictGraph {
 public:
  // ------------------------------------------------------------- queries

  /// Conflict partners of `v`, ascending by id.  Empty for dead/unknown ids.
  /// The span points into pooled storage; any conflict-graph mutation
  /// invalidates it.
  std::span<const NodeId> neighbors(NodeId v) const { return rows_.ids(v); }

  /// Number of CA1/CA2 witnesses forbidding {u, v} the same color.
  std::uint32_t multiplicity(NodeId u, NodeId v) const;

  /// True iff u and v may not share a color (count > 0).
  bool in_conflict(NodeId u, NodeId v) const { return multiplicity(u, v) > 0; }

  /// Conflict degree of `v` (number of distinct partners).
  std::size_t degree(NodeId v) const { return rows_.size(v); }

  /// Number of conflicting unordered pairs.
  std::size_t pair_count() const { return pair_count_; }

  /// Exclusive upper bound on ids with allocated rows.
  NodeId id_bound() const { return static_cast<NodeId>(rows_.row_count()); }

  /// Heap bytes held by the adjacency pools, the dirty journal and the fan
  /// scratch (the partner tally costs 4 B per id ever seen).
  std::size_t memory_bytes() const;

  // ------------------------------------------------------------- journal

  ConflictGraph();

  /// Process-unique identity of this instance.  Consumers that cache state
  /// keyed to a conflict graph (the degeneracy orderer's degree mirror)
  /// must key on the nonce, not the address: a new graph allocated where a
  /// destroyed one lived would otherwise silently serve them stale state.
  std::uint64_t nonce() const { return nonce_; }

  /// Monotonically increasing change counter; bumps on every journaled
  /// dirty mark (never resets, not even on `clear()`).
  std::uint64_t revision() const { return revision_; }

  /// Appends to `out` the ids journaled in revisions (since, revision()].
  /// Ids repeat and may reference since-removed nodes; callers dedupe and
  /// filter liveness.  Returns false when that window is no longer covered
  /// (journal trimmed, or the graph was cleared) — the caller must then
  /// treat every node as dirty.
  bool append_dirty_since(std::uint64_t since, std::vector<NodeId>& out) const;

  /// Zero-copy variant: points `out` at the journal entries of revisions
  /// (since, revision()] without materializing them.  Same failure contract
  /// as `append_dirty_since`.  The span is invalidated by any mutation —
  /// per-event consumers (the rank-maintained orderer, BBB's bounded
  /// propagation) read it once per event before touching the graph.
  bool dirty_window_since(std::uint64_t since, std::span<const NodeId>& out) const;

  // ----------------------------------------- delta protocol (AdhocNetwork)

  /// Ensures a row for `v` and journals it dirty (a joiner with no edges
  /// still needs a color).
  void on_node_added(NodeId v);

  /// Journals the removal.  Requires every incident digraph edge to have
  /// been retracted through the fans first (the row must be empty).
  void on_node_removed(NodeId v);

  /// Out-fan: accounts the witnesses of the new edges u→v, v ∈ `targets`
  /// (ascending, deduped, each absent from `g`).  Call before applying any
  /// of them to `g`.
  void on_out_edges_added(const graph::Digraph& g, NodeId u,
                          std::span<const NodeId> targets);

  /// Out-fan: retracts the witnesses of edges u→v, v ∈ `targets`
  /// (ascending, deduped, each present in `g`; call before removing any).
  void on_out_edges_removed(const graph::Digraph& g, NodeId u,
                            std::span<const NodeId> targets);

  /// In-fan: accounts the witnesses of the new edges a→v, a ∈ `senders`
  /// (ascending, deduped, each absent from `g`).  Call before applying any
  /// of them to `g`.
  void on_in_edges_added(const graph::Digraph& g,
                         std::span<const NodeId> senders, NodeId v);

  /// In-fan: retracts the witnesses of edges a→v, a ∈ `senders`
  /// (ascending, deduped, each present in `g`; call before removing any).
  void on_in_edges_removed(const graph::Digraph& g,
                           std::span<const NodeId> senders, NodeId v);

  /// Drops all adjacency, keeping row capacity (arena reuse).  Invalidates
  /// every outstanding journal window.
  void clear();

  // ------------------------------------------------------------- oracles

  /// Builds the conflict graph of `g` from scratch by direct enumeration —
  /// an implementation independent of the delta protocol, used as the test
  /// oracle and to measure full-rebuild cost in the microbenchmarks.
  static ConflictGraph build_from(const graph::Digraph& g);

 private:
  /// Adds one witness to the unordered pair {u, v} (both directions) —
  /// the edge-free path of `build_from`.
  void add_witness(NodeId u, NodeId v);
  /// One direction of add_witness; returns true when the pair went 0 → 1.
  bool bump_row(NodeId u, NodeId v);
  void mark_dirty(NodeId v);
  /// Books an existence transition of {u, w}: the pair count and both
  /// journal entries.
  void count_crossing(NodeId u, NodeId w, int sign);

  void out_fan(const graph::Digraph& g, NodeId u,
               std::span<const NodeId> targets, int sign);
  void in_fan(const graph::Digraph& g, std::span<const NodeId> senders,
              NodeId v, int sign);
  /// Checks a fan's shape and its edges' presence (`sign` > 0: absent) in
  /// `g`; returns the largest id it names.
  NodeId check_fan(const graph::Digraph& g, NodeId hub,
                   std::span<const NodeId> others, bool out, int sign) const;
  /// One sorted merge of `partners` (ascending, unique; `skip` excluded)
  /// into row `r`: adds (`sign` > 0) or retracts `deltas[j]` witnesses per
  /// partner — one each when `deltas` is empty.  Sets `crossed_[j]` for
  /// every pair that crossed zero; journals nothing.
  void merge_row(NodeId r, std::span<const NodeId> partners,
                 std::span<const std::uint32_t> deltas, int sign,
                 NodeId skip);
  /// Point update of pair (r, w) in row r by one witness.
  void touch_row(NodeId r, NodeId w, int sign);

  std::uint64_t nonce_;  ///< process-unique; see nonce()
  /// Sorted pooled rows; the parallel count of `ids(v)[i]` is the witness
  /// multiplicity of the pair.
  graph::CountedRowPool rows_;
  // Fan scratch, kept across calls (counted by memory_bytes()).
  /// Id-indexed witness tally of an out-fan's partners; all zero between
  /// calls (only the touched entries are reset).
  std::vector<std::uint32_t> tally_;
  std::vector<NodeId> fan_ids_;  ///< a fan's distinct partners, ascending
  std::vector<std::uint32_t> fan_deltas_;  ///< parallel to fan_ids_
  std::vector<NodeId> merged_ids_;  ///< merge_row output
  std::vector<std::uint32_t> merged_counts_;
  std::vector<char> crossed_;  ///< merge_row: partner j's pair crossed zero
  /// The revision of `journal_[i]` is `journal_base_ + i` — the counter
  /// bumps exactly once per entry, so entries store only the node id.
  std::vector<NodeId> journal_;
  std::uint64_t journal_base_ = 1;  ///< revision of journal_[0]
  std::uint64_t revision_ = 0;
  /// Highest revision whose entry has been discarded; a `since` below this
  /// is no longer answerable.
  std::uint64_t trimmed_revision_ = 0;
  std::size_t pair_count_ = 0;
};

}  // namespace minim::net
