#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/worker_pool.hpp"

/// \file subprocess.hpp
/// \brief Self-spawning worker processes for multi-process scale-out.
///
/// The experiment layer shards deterministically (`sim::Experiment` +
/// `merge_shards`); `ProcessPool` launches and collects the shards: it runs
/// a batch of commands — typically this very binary re-invoked with
/// per-work-unit arguments (`self_exe_path`) — at a bounded parallelism,
/// through the shared scheduler (worker_pool.hpp) over a local fork/exec
/// launcher.  Each worker's stdout+stderr goes to its `log_path`.
///
/// Every worker runs in its own process group, and a worker that overruns
/// its deadline is killed with its whole group, so a shell's background
/// children die with it instead of outliving the batch.  Outside the
/// terminal's group, Ctrl-C no longer reaches a worker: on Linux it dies
/// with the driver (PR_SET_PDEATHSIG), but elsewhere an interrupted driver
/// leaves its running workers behind.  Child exits are noticed by a 5 ms
/// reap poll.  Everything runs on the calling thread.
///
/// POSIX only (fork/exec/waitpid); on other platforms `run_jobs` throws.
/// Only Linux is tested; other POSIX systems (macOS) take the same path.

namespace minim::util {

/// Absolute path of the running executable (Linux: /proc/self/exe), so a
/// driver can re-invoke itself as a worker.  Empty when undiscoverable.
std::string self_exe_path();

/// Forks and execs `args` (args[0] is the program path) in a new process
/// group, with stdout+stderr sent to `log_path` (created/truncated; empty =
/// inherit).  Returns the child pid, or -1 when the fork failed.  An exec
/// failure surfaces as the child exiting 127.
int spawn_process(const std::vector<std::string>& args,
                  const std::string& log_path);

class ProcessPool final : public WorkerPool {
 public:
  /// `max_parallel` children run concurrently (0 = hardware concurrency).
  explicit ProcessPool(std::size_t max_parallel);

  /// Runs each job's argv as a local child process (the argv writes
  /// `out_path` itself, so an ok outcome implies the file exists).  Never
  /// speculates: two copies would race on that one file.
  std::vector<WorkerOutcome> run_jobs(const std::vector<WorkerJob>& jobs,
                                      const Observer& observer = {}) override;

 private:
  std::size_t max_parallel_;
};

}  // namespace minim::util
