#include "workloads.hpp"

namespace perfbench {

const MetricSpec kEndToEnd[8] = {
    {"setup_s", "s"},          {"events_per_s", "1/s"},
    {"p50_us", "us"},          {"p99_us", "us"},
    {"wall_s", "s"},           {"peak_rss_mb", "MB"},
    {"recodings_per_event", "count"}, {"max_color", "count"},
};

const MetricSpec kPerLayer[37] = {
    {"serve.transport_us", "us"},
    {"serve.session_us", "us"},
    {"serve.engine_us", "us"},
    {"serve.coalesced_frac", "fraction"},
    {"net.mutate_us.join", "us"},
    {"net.mutate_us.leave", "us"},
    {"net.mutate_us.move", "us"},
    {"net.mutate_us.power", "us"},
    {"net.digraph_bytes_per_node", "B"},
    {"net.conflict_bytes_per_node", "B"},
    {"net.grid_bytes_per_node", "B"},
    {"net.conflict_edges_per_node", "count"},
    {"core.gprime_build_us", "us"},
    {"core.v1_size", "count"},
    {"core.gprime_edges", "count"},
    {"core.pool_colors", "count"},
    {"matching.hungarian_us", "us"},
    {"strategies.minim_repair_us.join", "us"},
    {"strategies.minim_repair_us.leave", "us"},
    {"strategies.minim_repair_us.move", "us"},
    {"strategies.minim_repair_us.power", "us"},
    {"strategies.bbb_repair_us", "us"},
    {"strategies.bbb_ranks_per_event", "count"},
    {"strategies.bbb_fallback_frac", "fraction"},
    {"strategies.bbb_parallel_frac", "fraction"},
    {"strategies.bbb_components_per_batch", "count"},
    {"strategies.bbb_demotions", "count"},
    {"sim.replay_s.minim", "s"},
    {"sim.replay_s.cp", "s"},
    {"sim.replay_s.cp-exact", "s"},
    {"sim.replay_s.bbb", "s"},
    {"sim.workload_gen_s", "s"},
    {"sim.unit_s", "s"},
    {"sim.merge_s", "s"},
    {"util.worker_attempts", "count"},
    {"util.worker_retries", "count"},
    {"trace.overhead_pct", "%"},
};

Report blank_report(bool trace) {
  Report report;
  if (trace) {
    for (const MetricSpec& m : kPerLayer) report.set(m.name, 0.0, m.unit);
  } else {
    for (const MetricSpec& m : kEndToEnd) report.set(m.name, 0.0, m.unit);
  }
  return report;
}

}  // namespace perfbench
