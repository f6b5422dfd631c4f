#include "strategies/bbb.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <thread>

#include "net/conflict_graph.hpp"
#include "util/require.hpp"

namespace minim::strategies {

std::string BbbStrategy::name() const {
  if (order_ == ColoringOrder::kSmallestLast)
    return params_.bounded_propagation ? "BBB-bounded" : "BBB";
  return std::string("BBB/") + to_string(order_);
}

const std::vector<net::NodeId>& BbbStrategy::sequence_for(
    const net::AdhocNetwork& net, const std::vector<net::NodeId>& nodes) {
  if (order_ == ColoringOrder::kSmallestLast) {
    orderer_.order(net, nodes, graph::DegeneracyTieBreak::kStack, seq_);
    return seq_;
  }
  seq_ = coloring_sequence(net, nodes, order_);
  return seq_;
}

void BbbStrategy::snapshot(const net::AdhocNetwork& net,
                           const std::vector<net::NodeId>& sequence,
                           const net::CodeAssignment& assignment) {
  last_net_ = &net;
  last_revision_ = net.conflict_graph().revision();
  const std::size_t bound = net.id_bound();
  last_colors_.assign(bound, net::kNoColor);
  last_pos_.assign(bound, kNoRank);
  for (std::uint32_t i = 0; i < sequence.size(); ++i) {
    const net::NodeId v = sequence[i];
    last_colors_[v] = assignment.color(v);
    last_pos_[v] = i;
  }
}

bool BbbStrategy::seed_order_flips(const net::AdhocNetwork& net,
                                   const net::CodeAssignment& assignment) {
  const net::ConflictGraph& cg = net.conflict_graph();
  net.nodes(nodes_);
  // The from-scratch greedy's coloring order on the *new* graph.
  const std::vector<net::NodeId>& sequence = sequence_for(net, nodes_);
  const std::size_t bound = net.id_bound();
  pos_.assign(bound, kNoRank);
  for (std::uint32_t i = 0; i < sequence.size(); ++i) pos_[sequence[i]] = i;
  if (last_pos_.size() < bound) last_pos_.resize(bound, kNoRank);

  // A node keeps its color unless its conflict neighborhood changed (a
  // journal seed), an earlier-ordered neighbor changed color (a push during
  // propagation), or its relative order with a neighbor flipped — otherwise
  // its lowest-free computation sees the exact inputs of the previous run.
  // The last case is seeded here.  `dirty_` and `nodes_` are both ascending.
  auto dirty = dirty_.begin();
  for (net::NodeId u : nodes_) {
    // The snapshot must describe this assignment: every live node's color
    // has to match (the engine only clears departed ids in between).  An
    // out-of-band mutation — tests driving several strategies over one
    // network — falls back to the from-scratch path.
    if (snapshot_color(u) != assignment.color(u)) return false;
    while (dirty != dirty_.end() && *dirty < u) ++dirty;
    if (dirty != dirty_.end() && *dirty == u) continue;  // journal seed already
    const std::uint32_t pu = pos_[u];
    const std::uint32_t pu_old = last_pos_[u];
    bool flipped = pu_old == kNoRank;  // unseen node: defensive, implies dirty
    for (net::NodeId w : cg.neighbors(u)) {
      if (flipped) break;
      const std::uint32_t pw_old = last_pos_[w];
      flipped = pw_old == kNoRank || (pos_[w] < pu) != (pw_old < pu_old);
    }
    if (flipped) seeds_.push_back(u);
  }
  return true;
}

bool BbbStrategy::incremental_recolor(const net::AdhocNetwork& net,
                                      net::CodeAssignment& assignment,
                                      core::RecodeReport& report,
                                      std::size_t batch_events,
                                      std::span<const net::NodeId> joiners,
                                      std::span<const net::NodeId> reborn) {
  const net::ConflictGraph& cg = net.conflict_graph();
  if (last_net_ != &net) return false;
  std::span<const net::NodeId> window;
  if (!cg.dirty_window_since(last_revision_, window)) return false;

  dirty_.assign(window.begin(), window.end());
  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
  const std::size_t live = net.node_count();
  if (static_cast<double>(dirty_.size()) >
      params_.full_recolor_fraction * static_cast<double>(live))
    return false;

  const bool bounded = bounded_mode();
  seeds_.clear();
  for (net::NodeId v : dirty_)
    if (net.contains(v)) seeds_.push_back(v);

  // Pick the rank source (see the file comment) and the pop budget.
  std::span<const std::uint32_t> ranks;
  std::size_t budget = live;  // canonical: every node pops at most once
  if (bounded) {
    // Foreign-mutation guard over the dirty region only: a sweep of every
    // live node is exactly the O(n) this mode removes, so an out-of-band
    // recolor of an untouched node is *not* detected here (bench/sim drive
    // one strategy per assignment, which is the supported regime).
    for (net::NodeId v : seeds_)
      if (snapshot_color(v) != assignment.color(v)) return false;
    // Absorb the event(s) into the maintained rank order: departures
    // tombstone, joiners append in the batch's join order, reborn ids
    // tombstone-then-append.  A refusal (drift over threshold, or no order
    // yet) sends the event to the from-scratch path, which reseeds via
    // rebuild_ranks.
    if (!orderer_.try_maintain_ranks(net, dirty_, joiners, reborn)) return false;
    for (net::NodeId v : seeds_)
      MINIM_REQUIRE(orderer_.rank(v) != kNoRank,
                    "bounded BBB: live dirty node missing from the rank order");
    ranks = orderer_.rank_index();
    // One batch coalesces `batch_events` events' worth of propagation, so
    // it gets their combined budget — a bailout still costs one
    // from-scratch pass either way, which is the amortization the batch
    // path exists for.
    budget = batch_events *
             std::max<std::size_t>(32, static_cast<std::size_t>(
                                           params_.propagation_slack *
                                           static_cast<double>(live)));
  } else {
    if (!seed_order_flips(net, assignment)) return false;
    ranks = pos_;
  }

  // Event set-up: a fresh epoch, and the stamps and snapshot colors sized
  // for every id.
  if (++epoch_ == 0) {
    // Stamp wraparound: invalidate every slot once per 2^32 events.
    std::fill(seen_epoch_.begin(), seen_epoch_.end(), 0);
    epoch_ = 1;
  }
  const std::size_t bound = net.id_bound();
  if (seen_epoch_.size() < bound) seen_epoch_.resize(bound, 0);
  if (last_colors_.size() < bound) last_colors_.resize(bound, net::kNoColor);

  // Heap propagation (see propagate()).  With recolor_threads > 1 the seeds
  // are first decomposed into independent closure components and propagated
  // concurrently (parallel_propagate()), demoting to the single serial
  // frontier when the closure is one region or outgrows the budget.  Either
  // way the result is the same.
  std::size_t processed = 0;
  changed_list_.clear();
  bool absorbed = false;
  if (resolved_recolor_threads() > 1 && seeds_.size() > 1)
    absorbed = parallel_propagate(cg, ranks, budget, processed);
  if (!absorbed) {
    if (!propagate(cg, ranks, seeds_, budget, frontier_)) {
      // Clean bailout: roll the snapshot colors back; the assignment was
      // never touched.
      for (const core::Recode& change : frontier_.changed)
        last_colors_[change.node] = change.old_color;
      ++counters_.slack_bailouts;
      counters_.processed_ranks += frontier_.processed;
      return false;
    }
    processed = frontier_.processed;
    changed_list_.swap(frontier_.changed);
  }
  counters_.processed_ranks += processed;

  // Apply + report in ascending node order — the order the from-scratch
  // path emits.  The kernel already rolled the snapshot colors forward
  // (everyone it did not change provably keeps the greedy color); departures
  // blank out here.
  std::sort(changed_list_.begin(), changed_list_.end(),
            [](const core::Recode& a, const core::Recode& b) { return a.node < b.node; });
  for (const core::Recode& change : changed_list_)
    assignment.set_color(change.node, change.new_color);
  report.changes.assign(changed_list_.begin(), changed_list_.end());
  for (net::NodeId v : dirty_)
    if (!net.contains(v)) last_colors_[v] = net::kNoColor;
  if (!bounded) last_pos_.swap(pos_);
  last_revision_ = cg.revision();
  return true;
}

bool BbbStrategy::propagate(const net::ConflictGraph& cg,
                            std::span<const std::uint32_t> ranks,
                            std::span<const net::NodeId> seeds,
                            std::size_t budget, Frontier& frontier) {
  // Heap entries pack (rank, id) into one word, so the min-heap orders by
  // rank with a single compare.
  const auto entry = [](std::uint32_t rank, net::NodeId v) {
    return std::uint64_t{rank} << 32 | v;
  };
  const auto heap_greater = std::greater<std::uint64_t>{};
  auto& heap = frontier.heap;
  heap.clear();
  frontier.changed.clear();
  frontier.processed = 0;
  for (net::NodeId v : seeds) {
    seen_epoch_[v] = epoch_;
    heap.push_back(entry(ranks[v], v));
  }
  std::make_heap(heap.begin(), heap.end(), heap_greater);

  // Pops come out in non-decreasing rank (pushes only ever target ranks past
  // the node being processed), so when a node recomputes its lowest-free
  // color every earlier-ranked neighbor's color is already final — the
  // snapshot color, or the fresh one this pass wrote over it.  Conflict rows
  // list live ids only, and the caller sized `ranks`, the stamps and the
  // snapshot past every id, so the loops below index without bounds checks.
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_greater);
    const auto ru = static_cast<std::uint32_t>(heap.back() >> 32);
    const auto u = static_cast<net::NodeId>(heap.back());
    heap.pop_back();
    if (frontier.processed == budget) return false;
    ++frontier.processed;

    // One pass over the row: earlier-ranked neighbors feed the lowest-free
    // computation, unqueued later-ranked ones are held back in case `u`
    // changes color.
    frontier.scratch.reset();
    frontier.later.clear();
    for (net::NodeId w : cg.neighbors(u)) {
      const std::uint32_t rw = ranks[w];
      if (rw < ru) {
        const net::Color c = last_colors_[w];
        if (c != net::kNoColor) frontier.scratch.mark(c);
      } else if (rw != kNoRank && seen_epoch_[w] != epoch_) {
        frontier.later.push_back(entry(rw, w));
      }
    }
    const net::Color fresh = frontier.scratch.lowest_free();
    const net::Color old = last_colors_[u];
    if (fresh == old) continue;

    last_colors_[u] = fresh;
    frontier.changed.push_back(core::Recode{u, old, fresh});
    for (const std::uint64_t later : frontier.later) {
      seen_epoch_[static_cast<net::NodeId>(later)] = epoch_;
      heap.push_back(later);
      std::push_heap(heap.begin(), heap.end(), heap_greater);
    }
  }
  return true;
}

bool BbbStrategy::parallel_propagate(const net::ConflictGraph& cg,
                                     std::span<const std::uint32_t> ranks,
                                     std::size_t budget,
                                     std::size_t& processed) {
  // The closure walk caps at the budget: within the cap, the serial pass
  // could pop at most |closure| ≤ budget nodes, so it can never hit its
  // slack bailout — parallel and serial take the same decisions everywhere.
  if (!components_.decompose(cg, ranks, seeds_, budget) || components_.count() < 2) {
    ++counters_.parallel_demotions;
    return false;
  }
  const std::size_t count = components_.count();
  ensure_pool();
  if (comp_frontiers_.size() < count) comp_frontiers_.resize(count);
  // Shared state discipline inside the fan-out: `seen_epoch_` and
  // `last_colors_` are pre-sized (above) and each component writes only its
  // own members' id slots of both; ranks and conflict rows are read-only, and
  // so is every color outside the closure.  The parallel_for join publishes
  // every write before the merge below.
  pool_->parallel_for(count, [&](std::size_t c) {
    const bool within =
        propagate(cg, ranks, components_.seeds(c), budget, comp_frontiers_[c]);
    MINIM_REQUIRE(within, "parallel recolor: component exceeded the batch budget");
  });
  processed = 0;
  for (std::size_t c = 0; c < count; ++c) {
    const Frontier& frontier = comp_frontiers_[c];
    processed += frontier.processed;
    changed_list_.insert(changed_list_.end(), frontier.changed.begin(),
                         frontier.changed.end());
  }
  ++counters_.parallel_events;
  counters_.parallel_components += count;
  return true;
}

std::size_t BbbStrategy::resolved_recolor_threads() const {
  if (params_.recolor_threads != 0) return params_.recolor_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void BbbStrategy::ensure_pool() {
  if (pool_) return;
  const std::size_t threads = resolved_recolor_threads();
  pool_ = std::make_unique<util::ThreadPool>(
      std::max<std::size_t>(1, threads - 1));
}

core::RecodeReport BbbStrategy::global_recolor(const net::AdhocNetwork& net,
                                               net::CodeAssignment& assignment,
                                               core::EventType event,
                                               net::NodeId subject,
                                               std::size_t batch_events,
                                               std::span<const net::NodeId> joiners,
                                               std::span<const net::NodeId> reborn) {
  core::RecodeReport report;
  report.event = event;
  report.subject = subject;
  counters_.events += batch_events;

  // A refused incremental repair leaves the assignment untouched, so the
  // from-scratch path below starts from the same state.  DSATUR always
  // recolors from scratch.
  const bool bounded = bounded_mode();
  if (order_ != ColoringOrder::kDSatur &&
      incremental_recolor(net, assignment, report, batch_events, joiners, reborn)) {
    if (bounded) counters_.bounded_events += batch_events;
    finalize_report(net, assignment, report);
    return report;
  }

  net.nodes(nodes_);
  const std::vector<net::NodeId>& nodes = nodes_;

  // From-scratch recolor; remember the previous assignment to count changes.
  old_colors_.clear();
  old_colors_.reserve(nodes.size());
  for (net::NodeId v : nodes) old_colors_.push_back(assignment.color(v));

  if (order_ == ColoringOrder::kDSatur) {
    color_network(net, order_, assignment);
    last_net_ = nullptr;  // DSATUR's dynamic order seeds no incremental state
  } else {
    for (net::NodeId v : nodes) assignment.clear(v);
    const std::vector<net::NodeId>& sequence = sequence_for(net, nodes);
    if (bounded) {
      orderer_.rebuild_ranks(net, sequence);
      ++counters_.full_events;
      counters_.full_ranks += sequence.size();
    }
    greedy_color_in_sequence(net, sequence, assignment);
    snapshot(net, sequence, assignment);
  }

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const net::Color fresh = assignment.color(nodes[i]);
    if (fresh != old_colors_[i])
      report.changes.push_back(core::Recode{nodes[i], old_colors_[i], fresh});
  }
  finalize_report(net, assignment, report);
  return report;
}

core::RecodeReport BbbStrategy::on_join(const net::AdhocNetwork& net,
                                        net::CodeAssignment& assignment, net::NodeId n) {
  return global_recolor(net, assignment, core::EventType::kJoin, n);
}

core::RecodeReport BbbStrategy::on_leave(const net::AdhocNetwork& net,
                                         net::CodeAssignment& assignment,
                                         net::NodeId departed) {
  return global_recolor(net, assignment, core::EventType::kLeave, departed);
}

core::RecodeReport BbbStrategy::on_move(const net::AdhocNetwork& net,
                                        net::CodeAssignment& assignment, net::NodeId n) {
  return global_recolor(net, assignment, core::EventType::kMove, n);
}

core::RecodeReport BbbStrategy::on_power_change(const net::AdhocNetwork& net,
                                                net::CodeAssignment& assignment,
                                                net::NodeId n, double old_range) {
  const double new_range = net.config(n).range;
  const core::EventType event = new_range > old_range ? core::EventType::kPowerIncrease
                                                      : core::EventType::kPowerDecrease;
  return global_recolor(net, assignment, event, n);
}

core::RecodeReport BbbStrategy::on_batch(const net::AdhocNetwork& net,
                                         net::CodeAssignment& assignment,
                                         const core::BatchRepairContext& ctx) {
  MINIM_REQUIRE(!ctx.events.empty(), "BBB: on_batch requires at least one event");
  // A reborn id is a departure of its previous occupant followed by a fresh
  // join reusing the id.  Blank the per-id snapshot state exactly as the
  // sequential leave would have, so the new occupant does not inherit the
  // previous one's color or order position.
  for (net::NodeId v : ctx.reborn) {
    if (v < last_colors_.size()) last_colors_[v] = net::kNoColor;
    if (v < last_pos_.size()) last_pos_[v] = kNoRank;
  }
  const core::BatchedEvent& last = ctx.events.back();
  return global_recolor(net, assignment, last.event, last.subject,
                        ctx.events.size(), ctx.joiners, ctx.reborn);
}

}  // namespace minim::strategies
