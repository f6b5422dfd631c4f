#pragma once

#include <iosfwd>
#include <string>

#include "sim/experiment.hpp"

/// \file experiment_io.hpp
/// \brief Exact persistence for experiment shards.
///
/// A sharded study runs as k processes, each producing one
/// `ExperimentResult` for its trial range; these helpers write a result as a
/// self-describing CSV (metadata preamble + one row per (cell, trial)) and
/// read it back *exactly*: integers verbatim, doubles with 17 significant
/// digits, so a write/read/merge round-trip stays bit-identical to the
/// in-memory result.  The orchestration layer (`sim::Orchestrator`, driven
/// by `--orchestrate=K` in `bench/grid_study.cpp` and the other experiment
/// harnesses) is the end-to-end user.

namespace minim::sim {

/// Writes `result` (typically one shard) to `out`.
void write_experiment_csv(const ExperimentResult& result, std::ostream& out);

/// One work unit of an orchestrated run: the (point x trial) rectangle it
/// covers, the shard CSV it produced, and how the run went.  Together with
/// the manifest's master `seed` this is full stream provenance — the unit's
/// trials draw exactly the streams `point * total_trials + trial` of
/// `Rng::for_stream(seed, .)` for its rectangle, no matter which process
/// (or how many attempts) ran it.
struct ShardManifestEntry {
  std::size_t unit = 0;         ///< work-unit id (plan order)
  std::size_t point_begin = 0;  ///< global grid-point range
  std::size_t point_count = 0;
  std::size_t trial_begin = 0;  ///< global trial range
  std::size_t trial_count = 0;
  std::size_t attempts = 0;     ///< worker attempts consumed so far
  std::string status;           ///< "pending" | "done" | "failed"
  std::string path;             ///< the unit's shard CSV
};

/// The orchestrator's on-disk ledger: written before workers launch and
/// updated as units finish, so a partial (crashed/interrupted) run can be
/// resumed — units already `done` with a readable shard CSV are not re-run.
/// `experiment` names *which* experiment the shards belong to (the driver's
/// tag plus a config fingerprint); resume refuses a manifest whose identity
/// differs, so same-shaped shards of a different study are never silently
/// adopted.
struct ShardManifest {
  std::string experiment;
  std::uint64_t seed = 0;
  std::size_t total_points = 0;
  std::size_t total_trials = 0;
  std::vector<ShardManifestEntry> entries;
};

void write_shard_manifest(const ShardManifest& manifest, std::ostream& out);

/// Parses a stream produced by `write_shard_manifest`.  Throws
/// std::runtime_error on malformed input.
ShardManifest read_shard_manifest(std::istream& in);

void write_shard_manifest_file(const ShardManifest& manifest,
                               const std::string& path);
ShardManifest read_shard_manifest_file(const std::string& path);

/// Parses a stream produced by `write_experiment_csv`.  Throws
/// std::runtime_error on malformed input.
ExperimentResult read_experiment_csv(std::istream& in);

/// File convenience wrappers; throw std::runtime_error when the file cannot
/// be opened.
void write_experiment_csv_file(const ExperimentResult& result,
                               const std::string& path);
ExperimentResult read_experiment_csv_file(const std::string& path);

}  // namespace minim::sim
