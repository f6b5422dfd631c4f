#pragma once

#include <cstdint>
#include <string>

#include "measure.hpp"
#include "net/network.hpp"

/// \file workloads.hpp
/// \brief The four workloads.  Each pre-generates its inputs from the seed
/// outside the timed window, measures for about `seconds`, checks its
/// outputs, and returns the report: end-to-end metrics untraced, per-layer
/// metrics traced.

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_scratch";  ///< per-run files (paper-figures)
};

/// Every metric name the benchmark reports, with its unit.  A run reports
/// all of one list: the end-to-end list untraced, the per-layer list
/// traced.  A per-layer metric a workload does not exercise reads 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const MetricSpec kEndToEnd[8];
extern const MetricSpec kPerLayer[37];

/// A report with every metric of the run's list preset to 0.
Report blank_report(bool trace);

/// serve-minim (`bbb` false) and serve-bbb-burst (`bbb` true).
Report run_serve(const RunArgs& args, bool bbb);
/// churn-100k.
Report run_churn(const RunArgs& args);
/// paper-figures.
Report run_figures(const RunArgs& args);

// Layer reports shared by the workloads that drive a replica.
struct ShadowStats;
/// net.*_bytes_per_node and net.conflict_edges_per_node of `network`.
void report_network_bytes(Report& report, const minim::net::AdhocNetwork& network);
/// net.mutate_us.*, and for minim strategies.minim_repair_us.* and the
/// shadow core.* / matching.* figures, from replica spans and shadow
/// counts; the net.* footprint from `network`.
void report_replica_layers(Report& report,
                           const std::map<std::string, SpanTotals>& spans,
                           const ShadowStats& shadow,
                           const minim::net::AdhocNetwork& network, bool minim);

/// Orchestration worker entry (`perfbench --figures-worker ...`); returns
/// the process exit code.
int figures_worker(int argc, char** argv);

}  // namespace perfbench
