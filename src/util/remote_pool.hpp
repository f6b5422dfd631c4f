#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/worker_pool.hpp"

/// \file remote_pool.hpp
/// \brief TCP fleet driver: the `WorkerPool` whose workers live in other
/// processes (possibly other machines) speaking the util/rpc.hpp protocol.
///
/// The driver binds a listening socket; worker agents (`cdma_drive
/// --worker-agent=host:port`, any harness binary of the same build) connect
/// and advertise a capacity.  `run_jobs` is the shared scheduler
/// (worker_pool.hpp, with straggler speculation) over a TCP launcher: each
/// copy goes to the agent with the most free slots (ties by join order)
/// that holds no other copy of the same job; a lost agent fails its
/// in-flight copies; each winner's RESULT bytes reach `job.out_path` by
/// tmp+rename, so the shard validator never sees a partial file.
///
/// For tests/CI (and single-machine scale-out) the pool can self-spawn
/// loopback agents: re-invocations of this binary wired to the pool's
/// ephemeral port, optionally with failure injections (die-after-N,
/// per-job delay) on selected agents.

namespace minim::util {

struct RemotePoolOptions {
  std::uint16_t port = 0;  ///< listen port; 0 = kernel-assigned ephemeral

  /// Self-spawned loopback agents (0 = none; external agents expected).
  std::size_t self_spawn = 0;
  /// Advertised capacity for self-spawned agents.  Defaults to 1 so
  /// `--fleet-agents=N` means N single-slot workers, comparable with
  /// `--orchestrate=N` on the same box.
  std::uint32_t agent_capacity = 1;
  /// Extra argv for every self-spawned agent.
  std::vector<std::string> agent_extra_args;
  /// Extra argv for the *first* self-spawned agent only — the injection
  /// hook (`--agent-die-after=K`, `--agent-delay-ms=X`).
  std::vector<std::string> first_agent_extra_args;
  /// Scratch directory for self-spawned agent logs.
  std::string scratch_dir = ".";

  double straggler_factor = 3.0;  ///< re-dispatch at factor x median
  double straggler_min_s = 0.5;   ///< never re-dispatch before this elapsed
  std::size_t straggler_min_samples = 3;

  /// How long run_jobs waits for the first agent HELLO before giving up.
  double hello_timeout_s = 30.0;

  /// Progress sink; null = silent.
  std::function<void(const std::string&)> log;
};

class RemotePool final : public WorkerPool {
 public:
  /// Binds and listens immediately, so `port()` is valid before any agent
  /// is launched.  Throws when the socket cannot be bound.
  explicit RemotePool(RemotePoolOptions options);
  ~RemotePool() override;

  RemotePool(const RemotePool&) = delete;
  RemotePool& operator=(const RemotePool&) = delete;

  /// The bound listen port (the one agents must connect to).
  std::uint16_t port() const { return port_; }

  /// Fleet-level counters for the bench harness, valid after run_jobs.
  struct Stats {
    std::size_t agents_seen = 0;      ///< HELLOs accepted over the run
    std::size_t agents_lost = 0;      ///< disconnects with jobs in flight or not
    std::size_t redispatched = 0;     ///< speculative straggler copies sent
    std::size_t results_ignored = 0;  ///< losing copies discarded
    std::vector<std::string> agent_names;
    std::vector<std::size_t> agent_completed;  ///< wins per agent (by name order)
    std::vector<double> agent_busy_s;          ///< dispatch->result time summed
  };
  const Stats& stats() const { return stats_; }

  /// Runs the batch over whatever agents connect.  Throws when no agent
  /// ever appears (hello_timeout_s) or every agent is gone with work
  /// still pending and nothing left to wait for.
  std::vector<WorkerOutcome> run_jobs(
      const std::vector<WorkerJob>& jobs,
      const Observer& observer = {}) override;

 private:
  RemotePoolOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  Stats stats_;
};

}  // namespace minim::util
