#include "net/conflict_graph.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <utility>

#include "util/require.hpp"

namespace minim::net {

ConflictGraph::ConflictGraph() {
  static std::atomic<std::uint64_t> next_nonce{1};
  nonce_ = next_nonce.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/// Journal size cap: one event's delta on paper-size networks is a few
/// hundred entries, so this covers many events of slack while bounding
/// memory on long-lived networks.  When full, the older half is discarded
/// and consumers past it fall back to a full pass.
constexpr std::size_t kJournalCap = 1 << 15;

}  // namespace

std::uint32_t ConflictGraph::multiplicity(NodeId u, NodeId v) const {
  const std::uint32_t* count = rows_.find(u, v);
  return count != nullptr ? *count : 0;
}

bool ConflictGraph::append_dirty_since(std::uint64_t since,
                                       std::vector<NodeId>& out) const {
  std::span<const NodeId> window;
  if (!dirty_window_since(since, window)) return false;
  out.insert(out.end(), window.begin(), window.end());
  return true;
}

bool ConflictGraph::dirty_window_since(std::uint64_t since,
                                       std::span<const NodeId>& out) const {
  out = {};
  if (since < trimmed_revision_) return false;
  if (since >= revision_) return true;  // nothing newer
  // Entry i holds revision journal_base_ + i; the window starts at the first
  // revision > since.
  const std::size_t first =
      since < journal_base_ ? 0
                            : static_cast<std::size_t>(since - journal_base_ + 1);
  out = std::span<const NodeId>(journal_).subspan(first);
  return true;
}

void ConflictGraph::mark_dirty(NodeId v) {
  if (journal_.size() >= kJournalCap) {
    // Drop the older half; amortized O(1) per entry.
    const std::size_t keep = kJournalCap / 2;
    const std::size_t dropped = journal_.size() - keep;
    trimmed_revision_ = journal_base_ + dropped - 1;
    journal_.erase(journal_.begin(),
                   journal_.begin() + static_cast<std::ptrdiff_t>(dropped));
    journal_base_ += dropped;
  }
  ++revision_;
  journal_.push_back(v);
}

std::size_t ConflictGraph::memory_bytes() const {
  return rows_.memory_bytes() + journal_.capacity() * sizeof(NodeId) +
         (tally_.capacity() + fan_deltas_.capacity() +
          merged_counts_.capacity()) *
             sizeof(std::uint32_t) +
         (fan_ids_.capacity() + merged_ids_.capacity()) * sizeof(NodeId) +
         crossed_.capacity();
}

bool ConflictGraph::bump_row(NodeId u, NodeId v) {
  rows_.ensure_row(u);
  if (std::uint32_t* count = rows_.find(u, v)) {
    ++*count;
    return false;
  }
  rows_.insert(u, v, 1);
  return true;
}

void ConflictGraph::add_witness(NodeId u, NodeId v) {
  if (bump_row(u, v)) {
    bump_row(v, u);
    count_crossing(u, v, +1);
  } else {
    bump_row(v, u);
  }
}

void ConflictGraph::count_crossing(NodeId u, NodeId w, int sign) {
  if (sign > 0) {
    ++pair_count_;
  } else {
    --pair_count_;
  }
  mark_dirty(u);
  mark_dirty(w);
}

void ConflictGraph::on_node_added(NodeId v) {
  rows_.ensure_row(v);
  MINIM_REQUIRE(rows_.size(v) == 0, "conflict graph: reused row not empty");
  mark_dirty(v);
}

void ConflictGraph::on_node_removed(NodeId v) {
  MINIM_REQUIRE(v < rows_.row_count() && rows_.size(v) == 0,
                "conflict graph: removing a node with live conflicts");
  mark_dirty(v);
}

NodeId ConflictGraph::check_fan(const graph::Digraph& g, NodeId hub,
                                std::span<const NodeId> others, bool out,
                                int sign) const {
  MINIM_REQUIRE(std::is_sorted(others.begin(), others.end()) &&
                    std::adjacent_find(others.begin(), others.end()) ==
                        others.end(),
                "conflict graph: edge fan must be ascending and deduped");
  NodeId max_id = hub;
  for (NodeId w : others) {
    const bool present = out ? g.has_edge(hub, w) : g.has_edge(w, hub);
    if (sign > 0) {
      MINIM_REQUIRE(!present, "conflict graph: edge delta already applied");
    } else {
      MINIM_REQUIRE(present, "conflict graph: retracting an absent edge");
    }
    max_id = std::max(max_id, w);
  }
  return max_id;
}

void ConflictGraph::merge_row(NodeId r, std::span<const NodeId> partners,
                              std::span<const std::uint32_t> deltas, int sign,
                              NodeId skip) {
  // Merge pass over (row r, partners) into scratch — no per-partner search
  // or shifting of the row — then one write-back.
  const std::span<const NodeId> ids = rows_.ids(r);
  const std::span<const std::uint32_t> counts = rows_.counts(r);
  const std::size_t bound = ids.size() + partners.size();
  if (merged_ids_.size() < bound) {
    merged_ids_.resize(bound);
    merged_counts_.resize(bound);
  }
  NodeId* out_ids = merged_ids_.data();
  std::uint32_t* out_counts = merged_counts_.data();
  crossed_.assign(partners.size(), 0);
  std::size_t n = 0;
  std::size_t i = 0;
  for (std::size_t j = 0; j < partners.size(); ++j) {
    const NodeId p = partners[j];
    if (p == skip) continue;
    for (; i < ids.size() && ids[i] < p; ++i, ++n) {
      out_ids[n] = ids[i];
      out_counts[n] = counts[i];
    }
    const std::uint32_t delta = deltas.empty() ? 1 : deltas[j];
    std::uint32_t count = delta;
    if (i < ids.size() && ids[i] == p) {
      count = counts[i++];
      if (sign > 0) {
        count += delta;
      } else {
        MINIM_REQUIRE(count >= delta,
                      "conflict graph: retracting an unknown witness");
        count -= delta;
        if (count == 0) {
          crossed_[j] = 1;  // pair went positive -> 0
          continue;
        }
      }
    } else {
      MINIM_REQUIRE(sign > 0, "conflict graph: retracting an unknown witness");
      crossed_[j] = 1;  // pair went 0 -> positive
    }
    out_ids[n] = p;
    out_counts[n++] = count;
  }
  for (; i < ids.size(); ++i, ++n) {
    out_ids[n] = ids[i];
    out_counts[n] = counts[i];
  }
  rows_.replace_row(r, {out_ids, n}, {out_counts, n});
}

void ConflictGraph::touch_row(NodeId r, NodeId w, int sign) {
  std::uint32_t* count = rows_.find(r, w);
  if (sign > 0) {
    if (count != nullptr) {
      ++*count;
    } else {
      rows_.insert(r, w, 1);
    }
    return;
  }
  MINIM_REQUIRE(count != nullptr,
                "conflict graph: retracting an unknown witness");
  if (--*count == 0) rows_.erase(r, w);
}

void ConflictGraph::out_fan(const graph::Digraph& g, NodeId u,
                            std::span<const NodeId> targets, int sign) {
  if (targets.empty()) return;
  rows_.ensure_row(check_fan(g, u, targets, /*out=*/true, sign));
  // Partner multiset ⊎_{v∈T} ({v} ∪ in(v) \ {u}), tallied per id: a
  // co-sender into several targets witnesses the pair once per target.
  // Only the distinct partners are sorted.
  if (tally_.size() < g.id_bound()) tally_.resize(g.id_bound(), 0);
  fan_ids_.clear();
  const auto tally = [this](NodeId w) {
    if (tally_[w]++ == 0) fan_ids_.push_back(w);
  };
  for (NodeId v : targets) {
    tally(v);
    for (NodeId w : g.in_neighbors(v))
      if (w != u) tally(w);
  }
  std::sort(fan_ids_.begin(), fan_ids_.end());
  fan_deltas_.resize(fan_ids_.size());
  for (std::size_t j = 0; j < fan_ids_.size(); ++j) {
    fan_deltas_[j] = std::exchange(tally_[fan_ids_[j]], 0);
  }

  merge_row(u, fan_ids_, fan_deltas_, sign, graph::kInvalidNode);
  // Reciprocal rows: one point update each (merge_row may relocate the
  // pool, so no row span is held across it).
  for (std::size_t j = 0; j < fan_ids_.size(); ++j) {
    const NodeId w = fan_ids_[j];
    const std::uint32_t delta = fan_deltas_[j];
    if (crossed_[j]) {
      count_crossing(u, w, sign);
      if (sign > 0) {
        rows_.insert(w, u, delta);
      } else {
        rows_.erase(w, u);
      }
    } else if (sign > 0) {
      *rows_.find(w, u) += delta;
    } else {
      *rows_.find(w, u) -= delta;
    }
  }
}

void ConflictGraph::in_fan(const graph::Digraph& g,
                           std::span<const NodeId> senders, NodeId v,
                           int sign) {
  if (senders.empty()) return;
  rows_.ensure_row(check_fan(g, v, senders, /*out=*/false, sign));
  // fan_ids_ = {v} ∪ in(v) ∪ S.  For a removal S ⊆ in(v); for an addition S
  // and in(v) are disjoint.  Either way in(v) \ S is K.
  const std::span<const NodeId> in = g.in_neighbors(v);
  fan_ids_.clear();
  std::set_union(in.begin(), in.end(), senders.begin(), senders.end(),
                 std::back_inserter(fan_ids_));
  fan_ids_.insert(std::upper_bound(fan_ids_.begin(), fan_ids_.end(), v), v);
  const auto is_sender = [senders](NodeId w) {
    return std::binary_search(senders.begin(), senders.end(), w);
  };

  // Each sender a: one merge with {v} ∪ K ∪ S \ {a}.  A pair inside S
  // crosses in both of its senders' merges; the lower sender books it.
  for (NodeId a : senders) {
    merge_row(a, fan_ids_, {}, sign, a);
    for (std::size_t j = 0; j < fan_ids_.size(); ++j) {
      if (!crossed_[j]) continue;
      const NodeId w = fan_ids_[j];
      if (w < a && is_sender(w)) continue;
      count_crossing(a, w, sign);
    }
  }
  // Row v: one merge with S (its crossings were booked by the senders).
  merge_row(v, senders, {}, sign, graph::kInvalidNode);
  // Rows in K gain or lose S by point updates.  On the serving transcripts
  // (about 15 senders into K rows of about 90 partners) a full-row merge
  // per K row measured no faster.
  for (NodeId k : in) {
    if (is_sender(k)) continue;
    for (NodeId a : senders) touch_row(k, a, sign);
  }
}

void ConflictGraph::on_out_edges_added(const graph::Digraph& g, NodeId u,
                                       std::span<const NodeId> targets) {
  out_fan(g, u, targets, +1);
}

void ConflictGraph::on_out_edges_removed(const graph::Digraph& g, NodeId u,
                                         std::span<const NodeId> targets) {
  out_fan(g, u, targets, -1);
}

void ConflictGraph::on_in_edges_added(const graph::Digraph& g,
                                      std::span<const NodeId> senders,
                                      NodeId v) {
  in_fan(g, senders, v, +1);
}

void ConflictGraph::on_in_edges_removed(const graph::Digraph& g,
                                        std::span<const NodeId> senders,
                                        NodeId v) {
  in_fan(g, senders, v, -1);
}

void ConflictGraph::clear() {
  rows_.clear();
  pair_count_ = 0;
  journal_.clear();
  // Any consumer synchronized to a pre-clear revision must full-rebuild:
  // advance the revision and declare everything at or below it trimmed.
  trimmed_revision_ = ++revision_;
  journal_base_ = revision_ + 1;
}

ConflictGraph ConflictGraph::build_from(const graph::Digraph& g) {
  ConflictGraph cg;
  if (g.id_bound() > 0) cg.rows_.ensure_row(g.id_bound() - 1);
  const auto nodes = g.nodes();
  for (NodeId u : nodes) {
    // CA1: one witness per directed edge.
    for (NodeId v : g.out_neighbors(u)) cg.add_witness(u, v);
    // CA2: one witness per (sender pair, common receiver); enumerate each
    // receiver's sender list once, pairs ordered i < j.
    const auto senders = g.in_neighbors(u);
    for (std::size_t i = 0; i < senders.size(); ++i)
      for (std::size_t j = i + 1; j < senders.size(); ++j)
        cg.add_witness(senders[i], senders[j]);
  }
  return cg;
}

}  // namespace minim::net
