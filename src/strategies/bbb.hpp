#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/strategy.hpp"
#include "strategies/coloring.hpp"
#include "strategies/components.hpp"
#include "strategies/ordering.hpp"
#include "util/thread_pool.hpp"

/// \file bbb.hpp
/// \brief The BBB global baseline: recolor the whole network at every event.
///
/// The paper evaluates its distributed strategies against "a strategy that
/// uses a centralized coloring heuristic: the BBB algorithm of [7], to
/// recolor the entire network at every event".  BBB is near-optimal in max
/// color index (it ignores history and colors from scratch) but pathological
/// in #recodings, which is exactly the contrast Figures 10-12 show.
///
/// ## Incremental repair: one propagation kernel, two rank sources
///
/// Recoloring from scratch per event made BBB dominate every wall-clock
/// profile.  This implementation instead *replays* the greedy incrementally.
/// It keeps the previous output (colors, plus order positions for the
/// canonical orders), asks the network's cached conflict graph which nodes'
/// conflict neighborhoods changed since, seeds a min-heap keyed by rank with
/// those nodes, and pops ranks in non-decreasing order: each popped node
/// recomputes its lowest-free color from its earlier-ranked neighbors, and
/// only a node whose color actually changed pushes its later-ranked
/// neighbors.  The pop order guarantees every earlier-ranked color read is
/// final, so the result is bit-identical to a from-scratch greedy over the
/// same ranks.  Work per event is O(popped ranks · degree) on top of
/// whatever the rank source costs.  The ranks come from one of two places:
///
/// * **Canonical orders** (`bbb`, and the largest-first and identity
///   variants) rank by the *fresh* position of every live node in this
///   event's from-scratch coloring order.  Besides the journal-dirty nodes,
///   the heap is seeded with every node whose relative order against a
///   conflict neighbor flipped since the previous event (or whose neighbor
///   is new): such a node reads a different earlier-neighbor set even though
///   its adjacency did not change.  Reports and max colors are bit-identical
///   to the full recolor (soaked in tests/strategies/bbb_incremental_test.cpp
///   against `color_network` called directly).  Computing the fresh order
///   and the flip seeds is O(V+E) per event.
/// * **`bbb-bounded`** (`Params::bounded_propagation`, smallest-last only)
///   ranks by the orderer's persistent rank index (see ordering.hpp), which
///   absorbs each event locally and never reorders survivors, so the journal
///   dirty set alone seeds the heap and no per-event O(n) term is left.  The
///   result is bit-identical to a from-scratch greedy over the *maintained*
///   sequence (the fuzz harness in tests/strategies/bbb_bounded_fuzz_test.cpp
///   holds it to that per event).  The maintained sequence drifts from true
///   smallest-last between rebuilds; the coloring-quality cost of that drift
///   is an explicit, gated metric — not silent.  Propagation is capped at
///   `Params::propagation_slack` × live nodes; exceeding the cap, or a rank
///   drift refusal, runs the from-scratch path, which reseeds the rank index.
///
/// Either way the event falls back to the from-scratch path when the dirty
/// set exceeds `Params::full_recolor_fraction` of the live nodes, when the
/// journal window is gone, or when the assignment was mutated behind the
/// strategy's back (the canonical path checks every live node, the bounded
/// path only the dirty region).  DSATUR's dynamic ordering has no static
/// dependency structure, so it always recolors from scratch.
///
/// ## Parallel recoloring (`Params::recolor_threads`)
///
/// A batch's dirty set often spans spatially distant regions whose
/// propagations cannot interact.  With `recolor_threads > 1` the kernel
/// first decomposes the forward closure of the heap seeds under
/// rank-increasing conflict edges into connected components
/// (strategies/components.hpp) and recolors each component on its own
/// thread.  Components share no conflict edge inside the closure and edges
/// leaving the closure reach only *earlier-ranked* colors — final for this
/// event, read-only everywhere — so per-component heap propagation writes
/// disjoint id slots of the shared stamp and color arrays, and the merged,
/// id-sorted change list is bit-identical to the serial pass regardless of
/// thread schedule.  The closure walk is capped at the propagation budget: a
/// closure within the budget proves the serial pass could not have hit its
/// slack bailout either, so threads=N and threads=1 take the *same*
/// absorb/fallback decisions on every event.  Demotion ladder: closure cap
/// exceeded or a single component → the serial heap (this event stays
/// incremental); serial budget/drift/journal refusals → the from-scratch
/// path.  The fuzz harness in
/// tests/strategies/bbb_parallel_fuzz_test.cpp holds parallel ≡ serial to
/// bit-identical colors *and* maintained ranks across batched streams.

namespace minim::strategies {

class BbbStrategy final : public core::RecodingStrategy {
 public:
  /// Recoloring engine knobs; the defaults are the production behavior.
  struct Params {
    /// Fall back to a full recolor when the event's deduped dirty set
    /// (departures included) exceeds this fraction of the live nodes.
    double full_recolor_fraction = 0.5;
    /// Rank-bounded propagation: rank by the maintained rank index instead
    /// of a fresh per-event order (smallest-last only; see the file
    /// comment).  Bit-identical to a from-scratch greedy over the maintained
    /// sequence; order *quality* may drift between rebuilds.
    bool bounded_propagation = false;
    /// Per-event propagation budget as a fraction of the live node count
    /// (floor 32 processed ranks), bounded mode only.  Exceeding it abandons
    /// the event to the from-scratch path — the escape hatch for recolor
    /// storms.
    double propagation_slack = 0.25;
    /// The orderer's maintained-rank drift bound
    /// (`DegeneracyOrderer::Params::rank_rebuild_fraction`).
    double rank_rebuild_fraction = 0.25;
    /// Component-parallel recoloring: decompose the batch's propagation
    /// closure into independent components and recolor them concurrently
    /// (see the file comment).  1 = serial (default), 0 = one thread per
    /// hardware core.  Results are bit-identical at every setting.
    std::size_t recolor_threads = 1;
  };

  /// Where events went.  `bounded_events`, `full_events` and `full_ranks`
  /// count bounded mode only; the kernel counters (`processed_ranks`,
  /// `slack_bailouts`, `parallel_*`) count every incremental repair.
  struct Counters {
    std::uint64_t events = 0;          ///< recolor events served (any mode)
    std::uint64_t bounded_events = 0;  ///< absorbed by rank-bounded propagation
    std::uint64_t full_events = 0;     ///< fell back to the from-scratch path
    std::uint64_t processed_ranks = 0; ///< heap pops across incremental repairs
    std::uint64_t full_ranks = 0;      ///< live nodes walked by full events
    std::uint64_t slack_bailouts = 0;  ///< budget exceeded mid-propagation
    // Component-parallel mode (zero unless `recolor_threads` resolves > 1).
    std::uint64_t parallel_events = 0;      ///< repairs absorbed component-parallel
    std::uint64_t parallel_components = 0;  ///< components recolored across them
    std::uint64_t parallel_demotions = 0;   ///< attempts demoted to the serial heap
  };

  explicit BbbStrategy(ColoringOrder order = ColoringOrder::kSmallestLast)
      : BbbStrategy(order, Params{}) {}
  BbbStrategy(ColoringOrder order, Params params)
      : order_(order),
        params_(params),
        orderer_(DegeneracyOrderer::Params{
            .rank_rebuild_fraction = params.rank_rebuild_fraction}) {}

  std::string name() const override;

  core::RecodeReport on_join(const net::AdhocNetwork& net,
                             net::CodeAssignment& assignment, net::NodeId n) override;
  core::RecodeReport on_leave(const net::AdhocNetwork& net,
                              net::CodeAssignment& assignment,
                              net::NodeId departed) override;
  core::RecodeReport on_move(const net::AdhocNetwork& net,
                             net::CodeAssignment& assignment, net::NodeId n) override;
  core::RecodeReport on_power_change(const net::AdhocNetwork& net,
                                     net::CodeAssignment& assignment, net::NodeId n,
                                     double old_range) override;

  /// Every BBB handler replays the from-scratch greedy over the *current*
  /// network — the final assignment is a pure function of the final graph
  /// (plus, in bounded mode, the maintained sequence, which the batch
  /// absorption maintains exactly as a sequential replay would while all
  /// events absorb).  So one repair over the post-batch network is
  /// equivalent to repairing after every event.
  bool supports_batch() const override { return true; }
  core::RecodeReport on_batch(const net::AdhocNetwork& net,
                              net::CodeAssignment& assignment,
                              const core::BatchRepairContext& context) override;

  ColoringOrder order() const { return order_; }
  const Params& params() const { return params_; }
  const Counters& counters() const { return counters_; }
  /// The maintained-order engine (repair/fallback counters for tests; the
  /// maintained rank sequence for the bounded-mode fuzz oracle).
  const DegeneracyOrderer& orderer() const { return orderer_; }

  /// Re-targets `Params::recolor_threads` on a live strategy (the serving
  /// layer's tuning hook).  Takes effect from the next event; the worker
  /// pool is rebuilt lazily at the new size.
  void set_recolor_threads(std::size_t threads) {
    params_.recolor_threads = threads;
    pool_.reset();
  }

 private:
  static constexpr std::uint32_t kNoRank = DegeneracyOrderer::kNoRank;

  /// True when events rank by the maintained rank index (`bbb-bounded`).
  bool bounded_mode() const {
    return params_.bounded_propagation && order_ == ColoringOrder::kSmallestLast;
  }

  /// The coloring sequence of this event, served from the maintained
  /// orderer for smallest-last and from `coloring_sequence` otherwise.
  /// Returns a reference to `seq_`.
  const std::vector<net::NodeId>& sequence_for(const net::AdhocNetwork& net,
                                               const std::vector<net::NodeId>& nodes);

  /// Shared recolor driver.  `batch_events` > 1 and the joiner/reborn spans
  /// are only set on the batched path (`on_batch`): the propagation budget
  /// scales with the number of coalesced events, rank maintenance receives
  /// the batch's join order, and the bounded path skips its rank
  /// precondition for ids whose rank the maintenance itself creates.
  core::RecodeReport global_recolor(const net::AdhocNetwork& net,
                                    net::CodeAssignment& assignment,
                                    core::EventType event, net::NodeId subject,
                                    std::size_t batch_events = 1,
                                    std::span<const net::NodeId> joiners = {},
                                    std::span<const net::NodeId> reborn = {});

  /// The incremental repair (see the file comment): picks the rank source
  /// and seeds, runs the propagation kernel, applies the changes and rolls
  /// the snapshot forward.  Returns false — without touching `assignment` —
  /// when the event can't be absorbed (unknown network, trimmed journal,
  /// mutated assignment, dirty set or propagation budget exceeded, rank
  /// drift demanding a rebuild); the caller then runs the from-scratch path.
  bool incremental_recolor(const net::AdhocNetwork& net,
                           net::CodeAssignment& assignment,
                           core::RecodeReport& report, std::size_t batch_events,
                           std::span<const net::NodeId> joiners,
                           std::span<const net::NodeId> reborn);

  /// Canonical-order seeding: computes this event's fresh order into `pos_`
  /// and appends to `seeds_` every live node that is not journal-dirty but
  /// whose relative order against a conflict neighbor flipped (or whose
  /// neighbor is unseen).  Returns false when a live node's color differs
  /// from the snapshot (a foreign mutation).
  bool seed_order_flips(const net::AdhocNetwork& net,
                        const net::CodeAssignment& assignment);

  /// One propagation frontier's working state: the min-rank heap, the color
  /// changes it made, the free-color and later-neighbor scratch, and the pop
  /// count.  The
  /// serial path owns one (`frontier_`); the parallel path one per
  /// component (`comp_frontiers_`) so threads never share heap state.
  struct Frontier {
    std::vector<std::uint64_t> heap;  ///< rank << 32 | id
    std::vector<core::Recode> changed;
    std::vector<std::uint64_t> later;  ///< the popped node's unqueued successors
    ColorScratch scratch;
    std::size_t processed = 0;
  };

  /// Heap propagation from `seeds` (deduped, all ranked) over the id-indexed
  /// `ranks` (`kNoRank` = unranked; covers every id).  Each changed color is
  /// written straight into `last_colors_` and recorded in
  /// `frontier.changed` with its old color.  Each id is queued at most once
  /// per event: `seen_epoch_` is stamped at push.  Returns false when the
  /// pop count would exceed `budget` (frontier state then reflects exactly
  /// `budget` completed pops; the caller rolls `frontier.changed` back out
  /// of `last_colors_`).  Thread-safe across *disjoint components*: all
  /// shared writes land at the component's own member ids.
  bool propagate(const net::ConflictGraph& cg, std::span<const std::uint32_t> ranks,
                 std::span<const net::NodeId> seeds, std::size_t budget,
                 Frontier& frontier);

  /// The component-parallel pass: decompose `seeds_`'s forward closure
  /// under `ranks` (cap = `budget`), recolor each component on the pool,
  /// merge change lists into `changed_list_` and pop counts into
  /// `processed`.  Returns false — demoting to the serial heap — when the
  /// closure exceeds the budget or yields fewer than two components.
  bool parallel_propagate(const net::ConflictGraph& cg,
                          std::span<const std::uint32_t> ranks, std::size_t budget,
                          std::size_t& processed);

  /// `Params::recolor_threads` with 0 resolved to the hardware core count.
  std::size_t resolved_recolor_threads() const;
  /// Lazily builds the worker pool sized for `resolved_recolor_threads()`
  /// (the caller participates in `parallel_for`, so N-way concurrency needs
  /// N-1 workers).
  void ensure_pool();

  /// Records this event's output (colors + ordering positions + journal
  /// revision) as the base of the next event's change propagation.
  void snapshot(const net::AdhocNetwork& net,
                const std::vector<net::NodeId>& sequence,
                const net::CodeAssignment& assignment);

  net::Color snapshot_color(net::NodeId v) const {
    return v < last_colors_.size() ? last_colors_[v] : net::kNoColor;
  }

  ColoringOrder order_;
  Params params_;
  Counters counters_;

  // Previous output (valid when last_net_ != nullptr): id-indexed colors
  // and, for the canonical orders, greedy-order positions, plus the
  // conflict-journal revision they correspond to.
  const net::AdhocNetwork* last_net_ = nullptr;
  std::uint64_t last_revision_ = 0;
  std::vector<net::Color> last_colors_;
  std::vector<std::uint32_t> last_pos_;

  // Per-event scratch (reused across events; no per-node allocation).
  std::vector<net::NodeId> dirty_;
  std::vector<net::NodeId> nodes_;
  std::vector<net::NodeId> seq_;
  std::vector<std::uint32_t> pos_;  ///< this event's fresh positions (canonical)
  std::vector<net::Color> old_colors_;
  DegeneracyOrderer orderer_;

  // Propagation scratch.  The epoch stamp makes per-event resets O(1): a
  // slot belongs to this event iff its stamp equals epoch_.  During a
  // parallel pass `seen_epoch_` and `last_colors_` are shared across
  // component threads, but each thread writes only its own component's id
  // slots (both are pre-sized before the fan-out, so no reallocation races).
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> seen_epoch_;   ///< node queued this event
  std::vector<net::NodeId> seeds_;          ///< this event's heap seeds
  std::vector<core::Recode> changed_list_;  ///< merged changes, sorted for apply
  Frontier frontier_;                       ///< the serial propagation frontier

  // Component-parallel machinery (idle unless recolor_threads resolves > 1).
  DirtyComponents components_;
  std::vector<Frontier> comp_frontiers_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace minim::strategies
