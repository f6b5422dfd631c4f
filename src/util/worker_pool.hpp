#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

/// \file worker_pool.hpp
/// \brief The pool abstraction the experiment orchestrator schedules over,
/// and the one scheduler every pool runs.
///
/// `sim::Orchestrator` plans work units and merges shards; it does not care
/// *where* a unit runs.  `WorkerPool` is that seam: a batch of `WorkerJob`s
/// — each a worker argv plus the result file it must produce — runs to
/// completion under bounded retry, and the pool reports outcomes indexed
/// like the jobs.
///
/// Each pool is `schedule_jobs` over its own `WorkerLauncher`.  The
/// scheduler owns every policy decision — the pending queue, attempt
/// charging against `max_attempts`, per-copy `timeout_s` deadlines, the
/// lifecycle events and straggler speculation — and a launcher only starts
/// copies, reports how they ended, and abandons overrun ones:
///
///   * `util::ProcessPool` (subprocess.hpp) — fork/exec on this machine,
///     each worker in its own process group; the argv writes `out_path` in
///     place, and a deadline kills the worker's whole group;
///   * `util::RemotePool` (remote_pool.hpp) — TCP worker agents
///     (util/rpc.hpp) re-invoke their own binary and stream the result
///     bytes back, which the launcher writes to `out_path` by tmp+rename.
///     A remote copy cannot be killed: past its deadline it becomes a
///     zombie whose late success may still win.
///
/// Either way the contract is: `outcome.ok` implies `job.out_path` holds
/// the job's complete result.  Shard results are byte-identical by
/// construction (deterministic per-unit streams), which is what makes a
/// speculative straggler copy safe — but only through a launcher that
/// stages results.  Two local copies would write one `out_path` in place
/// and race, so local pools never speculate.

namespace minim::util {

/// One unit of work: a worker argv (args[0] is the program path) that must
/// produce `out_path` and exit 0.  Remote pools replace args[0] with the
/// agent's own binary and rewrite any `--unit-out=` argument to an
/// agent-local path, so the same job description works on both pools.
struct WorkerJob {
  std::vector<std::string> args;
  std::string out_path;  ///< the result artifact the job must produce
  std::string log_path;  ///< worker stdout+stderr capture; empty = inherit
  double timeout_s = 0.0;        ///< per-attempt deadline; 0 = none
  std::size_t max_attempts = 1;  ///< total tries (1 = no retry)
};

/// Final state of one job after its last attempt.
struct WorkerOutcome {
  bool ok = false;
  std::size_t attempts = 0;  ///< charged tries (speculative copies are free)
  double wall_s = 0.0;       ///< wall clock of the deciding attempt
  bool timed_out = false;    ///< the last attempt hit its deadline
  int exit_code = -1;        ///< worker exit status when known (-1 otherwise)
  std::string executor;      ///< who ran the deciding attempt (agent name; empty = local process)
};

/// Lifecycle notification for live progress and ledger updates.
struct WorkerPoolEvent {
  enum class Kind {
    kStart,       ///< an attempt was dispatched
    kRetry,       ///< an attempt failed; another will run
    kFinish,      ///< the job is done (see outcome->ok)
    kRedispatch,  ///< a speculative straggler copy was dispatched
    kAgentJoin,   ///< a remote agent connected (remote pools only)
    kAgentLost,   ///< a remote agent disconnected; its jobs were requeued
  };
  Kind kind = Kind::kStart;
  std::size_t index = 0;    ///< job index; 0 for agent-level events
  std::size_t attempt = 0;  ///< 1-based attempt number
  /// Per-attempt wall clock, set on kRetry/kFinish.
  double wall_s = 0.0;
  const WorkerOutcome* outcome = nullptr;  ///< set on kRetry/kFinish
  std::string detail;  ///< agent name / human-readable context
};

class WorkerPool {
 public:
  using Observer = std::function<void(const WorkerPoolEvent&)>;

  virtual ~WorkerPool() = default;

  /// Runs every job to completion under its retry budget; never throws on
  /// job failure (inspect outcomes).  May throw when the pool itself is
  /// unusable (no platform support, every agent gone).
  virtual std::vector<WorkerOutcome> run_jobs(
      const std::vector<WorkerJob>& jobs, const Observer& observer = {}) = 0;
};

/// The straggler policy: a unit is a straggler when its elapsed wall clock
/// exceeds `factor` x the running median of completed-unit durations (never
/// less than `min_seconds`, and only once `min_samples` completions exist —
/// early units must not re-dispatch off a noise median).
class StragglerTracker {
 public:
  StragglerTracker(double factor, double min_seconds, std::size_t min_samples)
      : factor_(factor), min_seconds_(min_seconds), min_samples_(min_samples) {}

  void record(double wall_s) {
    durations_.insert(
        std::upper_bound(durations_.begin(), durations_.end(), wall_s),
        wall_s);
  }

  /// Median of the recorded durations; 0 when none.
  double median() const {
    if (durations_.empty()) return 0.0;
    const std::size_t mid = durations_.size() / 2;
    return durations_.size() % 2 == 1
               ? durations_[mid]
               : 0.5 * (durations_[mid - 1] + durations_[mid]);
  }

  /// The current re-dispatch threshold; 0 while below `min_samples`
  /// (meaning: no unit is a straggler yet).
  double threshold() const {
    if (durations_.size() < min_samples_) return 0.0;
    return std::max(min_seconds_, factor_ * median());
  }

  bool is_straggler(double elapsed_s) const {
    const double limit = threshold();
    return limit > 0.0 && elapsed_s > limit;
  }

 private:
  double factor_;
  double min_seconds_;
  std::size_t min_samples_;
  std::vector<double> durations_;  ///< kept sorted
};

/// The seam under `schedule_jobs`: where copies run and how their ends are
/// noticed.  A copy is one dispatched execution of a job; the scheduler
/// numbers copies and a launcher reports them back by that number.
class WorkerLauncher {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// How one copy ended.
  struct Ended {
    std::size_t copy = 0;
    bool ok = false;     ///< the job's result is complete in `out_path`
    int exit_code = -1;  ///< worker exit status when known
  };

  virtual ~WorkerLauncher() = default;

  /// The slot best placed to take one more copy of job `index`; kNoSlot
  /// when none is free.
  virtual std::size_t free_slot(std::size_t index) = 0;
  /// Who runs copies on `slot` (an agent name; empty = a local process).
  virtual std::string executor(std::size_t slot) const = 0;
  /// Starts copy `copy` of job `index` on `slot`.  Returns false when the
  /// copy never left (its slot is then gone for good), so nothing is
  /// charged; a copy that starts and fails at once is reported as a failed
  /// end by the next `wait`.
  virtual bool start(std::size_t copy, std::size_t slot, std::size_t index,
                     const WorkerJob& job) = 0;
  /// Gives up on a copy past its deadline.  The scheduler has already
  /// settled it as timed out; only a late success may still be reported.
  virtual void abandon(std::size_t copy) = 0;
  /// Blocks until some copy ends or `until` passes, appending ends to
  /// `ended`.  `wanted(copy)` tells whether that copy's job still needs a
  /// result, so a launcher that stages results publishes only winners.
  virtual void wait(Clock::time_point until,
                    const std::function<bool(std::size_t)>& wanted,
                    std::vector<Ended>& ended) = 0;

 protected:
  /// A poll(2) timeout reaching `until`: rounded up, -1 for never.
  static int poll_timeout_ms(Clock::time_point until);
};

/// The one scheduler: runs every job over `launcher` to success or an
/// exhausted `max_attempts`, and returns outcomes indexed like `jobs`.
/// `speculation` (null = never speculate) re-dispatches stragglers once the
/// queue is drained; pass one only with a launcher that stages results.
std::vector<WorkerOutcome> schedule_jobs(WorkerLauncher& launcher,
                                         const std::vector<WorkerJob>& jobs,
                                         const WorkerPool::Observer& observer,
                                         StragglerTracker* speculation);

}  // namespace minim::util
