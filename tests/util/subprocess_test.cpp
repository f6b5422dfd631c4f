// util::ProcessPool: spawn/collect/exit-code/timeout/retry semantics through
// the shared scheduler, driven with /bin/sh workers so the tests need no
// fixture binary.  The pool is the process-level substrate of the
// experiment orchestrator; its contracts (outcomes indexed like jobs,
// bounded retry, deadline kill of the worker's whole process group, log
// capture) are what sim::Orchestrator builds on.

#include "util/subprocess.hpp"

#include <gtest/gtest.h>
#include <signal.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace {

namespace fs = std::filesystem;

using minim::util::ProcessPool;
using minim::util::WorkerJob;
using minim::util::WorkerOutcome;
using minim::util::WorkerPoolEvent;

WorkerJob shell(const std::string& script) {
  WorkerJob job;
  job.args = {"/bin/sh", "-c", script};
  return job;
}

/// True once `pid` no longer runs.  An orphan killed under an init that
/// does not reap lingers as a zombie, so /proc state 'Z' counts as gone.
bool gone(pid_t pid) {
  if (::kill(pid, 0) != 0) return errno == ESRCH;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string id, comm, state;
  stat >> id >> comm >> state;
  return state == "Z";
}

fs::path temp_dir() {
  const fs::path dir = fs::temp_directory_path() / "minim_subprocess_test";
  fs::create_directories(dir);
  return dir;
}

TEST(SelfExePath, PointsAtARealExecutable) {
  const std::string self = minim::util::self_exe_path();
  ASSERT_FALSE(self.empty());
  EXPECT_TRUE(fs::exists(self)) << self;
}

TEST(ProcessPool, RunsABatchAndReportsExitCodes) {
  ProcessPool pool(2);
  const std::vector<WorkerOutcome> outcomes =
      pool.run_jobs({shell("exit 0"), shell("exit 3"), shell("exit 0")});
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_EQ(outcomes[1].exit_code, 3);
  EXPECT_EQ(outcomes[1].attempts, 1u);
  EXPECT_TRUE(outcomes[2].ok);
}

TEST(ProcessPool, CapturesStdoutAndStderrToTheCollectionFile) {
  const fs::path out = temp_dir() / "capture.log";
  fs::remove(out);
  WorkerJob job = shell("echo captured-out; echo captured-err >&2");
  job.log_path = out.string();
  ProcessPool pool(1);
  ASSERT_TRUE(pool.run_jobs({job})[0].ok);
  std::ifstream in(out);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("captured-out"), std::string::npos) << text;
  EXPECT_NE(text.find("captured-err"), std::string::npos) << text;
  fs::remove(out);
}

TEST(ProcessPool, KillsWorkersPastTheDeadline) {
  // The worker backgrounds a grandchild and waits on it: the deadline kill
  // must take the whole process group, or the grandchild outlives the
  // batch (and holds any pipe on the test's output open for 30 s).
  const fs::path pid_file = temp_dir() / "grandchild.pid";
  fs::remove(pid_file);
  WorkerJob slow =
      shell("sleep 30 & echo $! > " + pid_file.string() + "; wait");
  slow.timeout_s = 0.2;
  ProcessPool pool(1);
  const WorkerOutcome outcome = pool.run_jobs({slow})[0];
  EXPECT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_LT(outcome.wall_s, 10.0);  // killed, not waited out

  pid_t grandchild = 0;
  std::ifstream(pid_file) >> grandchild;
  ASSERT_GT(grandchild, 0);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (!gone(grandchild) && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(gone(grandchild))
      << "grandchild " << grandchild << " outlived the deadline kill";
  fs::remove(pid_file);
}

TEST(ProcessPool, RetriesUpToTheAttemptBudget) {
  // The worker fails until its marker file exists, then succeeds — the
  // shape of a transient shard failure.
  const fs::path marker = temp_dir() / "retry.marker";
  fs::remove(marker);
  WorkerJob flaky = shell("if [ ! -e " + marker.string() +
                          " ]; then touch " + marker.string() +
                          "; exit 1; fi; exit 0");
  flaky.max_attempts = 3;
  ProcessPool pool(1);
  const WorkerOutcome outcome = pool.run_jobs({flaky})[0];
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 2u);
  fs::remove(marker);
}

TEST(ProcessPool, ExhaustsTheAttemptBudgetAndReportsFailure) {
  WorkerJob hopeless = shell("exit 7");
  hopeless.max_attempts = 3;
  ProcessPool pool(2);
  const WorkerOutcome outcome = pool.run_jobs({hopeless})[0];
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_EQ(outcome.exit_code, 7);
}

TEST(ProcessPool, ObserverSeesTheLifecycle) {
  const fs::path marker = temp_dir() / "observer.marker";
  fs::remove(marker);
  WorkerJob flaky = shell("if [ ! -e " + marker.string() +
                          " ]; then touch " + marker.string() +
                          "; exit 1; fi; exit 0");
  flaky.max_attempts = 2;

  std::vector<WorkerPoolEvent::Kind> kinds;
  ProcessPool pool(1);
  pool.run_jobs({flaky}, [&kinds](const WorkerPoolEvent& event) {
    kinds.push_back(event.kind);
  });
  const std::vector<WorkerPoolEvent::Kind> expected{
      WorkerPoolEvent::Kind::kStart, WorkerPoolEvent::Kind::kRetry,
      WorkerPoolEvent::Kind::kStart, WorkerPoolEvent::Kind::kFinish};
  EXPECT_EQ(kinds, expected);
  fs::remove(marker);
}

TEST(ProcessPool, MissingExecutableIsAFailureNotACrash) {
  WorkerJob ghost;
  ghost.args = {"/nonexistent/minim-no-such-binary"};
  ProcessPool pool(1);
  const WorkerOutcome outcome = pool.run_jobs({ghost})[0];
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.exit_code, 127);  // exec failed
}

TEST(ProcessPool, EventsCarryPerAttemptWallClock) {
  // A deliberately slow worker: the kFinish event's wall_s must reflect the
  // real attempt duration, because that duration is what the straggler
  // policy (StragglerTracker) consumes.
  WorkerJob slow = shell("sleep 0.3");
  double finish_wall_s = -1.0;
  double start_wall_s = -1.0;
  ProcessPool pool(1);
  pool.run_jobs({slow}, [&](const WorkerPoolEvent& event) {
    if (event.kind == WorkerPoolEvent::Kind::kStart)
      start_wall_s = event.wall_s;
    if (event.kind == WorkerPoolEvent::Kind::kFinish)
      finish_wall_s = event.wall_s;
  });
  EXPECT_EQ(start_wall_s, 0.0);  // nothing has run at start time
  EXPECT_GE(finish_wall_s, 0.25);
  EXPECT_LT(finish_wall_s, 30.0);
}

TEST(ProcessPool, RunJobsAdaptsTheWorkerPoolInterface) {
  // Through the abstract WorkerPool face, so sim::Orchestrator can swap in
  // a RemotePool without caring which.
  const fs::path out = temp_dir() / "adapter.txt";
  fs::remove(out);
  WorkerJob good = shell("echo shard > " + out.string());
  good.out_path = out.string();
  WorkerJob bad = shell("exit 5");
  bad.max_attempts = 2;

  std::vector<WorkerPoolEvent::Kind> kinds;
  ProcessPool pool(1);
  minim::util::WorkerPool& face = pool;
  const std::vector<WorkerOutcome> outcomes = face.run_jobs(
      {good, bad},
      [&kinds](const WorkerPoolEvent& event) { kinds.push_back(event.kind); });
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_TRUE(fs::exists(out));
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_EQ(outcomes[1].exit_code, 5);
  EXPECT_EQ(outcomes[1].attempts, 2u);
  EXPECT_TRUE(outcomes[1].executor.empty());  // local process, no agent name
  using Kind = WorkerPoolEvent::Kind;
  EXPECT_EQ(std::count(kinds.begin(), kinds.end(), Kind::kRetry), 1);
  EXPECT_EQ(std::count(kinds.begin(), kinds.end(), Kind::kFinish), 2);
  fs::remove(out);
}

TEST(StragglerTracker, NoThresholdBelowMinSamples) {
  minim::util::StragglerTracker tracker(3.0, 0.5, 3);
  tracker.record(1.0);
  tracker.record(1.0);
  EXPECT_EQ(tracker.threshold(), 0.0);
  EXPECT_FALSE(tracker.is_straggler(1000.0));  // too little evidence yet
  tracker.record(1.0);
  EXPECT_GT(tracker.threshold(), 0.0);
}

TEST(StragglerTracker, ThresholdIsFactorTimesRunningMedian) {
  minim::util::StragglerTracker tracker(3.0, 0.1, 3);
  tracker.record(2.0);
  tracker.record(4.0);
  tracker.record(100.0);  // one outlier must not drag the threshold up
  EXPECT_DOUBLE_EQ(tracker.median(), 4.0);
  EXPECT_DOUBLE_EQ(tracker.threshold(), 12.0);
  EXPECT_FALSE(tracker.is_straggler(11.9));
  EXPECT_TRUE(tracker.is_straggler(12.1));
  // Even-count median averages the middle pair, out-of-order inserts fine.
  tracker.record(1.0);
  EXPECT_DOUBLE_EQ(tracker.median(), 3.0);
}

TEST(StragglerTracker, MinSecondsFloorsTheThreshold) {
  // Sub-millisecond medians (tiny smoke units) must not cause re-dispatch
  // storms: the floor wins when factor x median is small.
  minim::util::StragglerTracker tracker(3.0, 0.5, 1);
  tracker.record(0.001);
  EXPECT_DOUBLE_EQ(tracker.threshold(), 0.5);
  EXPECT_FALSE(tracker.is_straggler(0.4));
  EXPECT_TRUE(tracker.is_straggler(0.6));
}

}  // namespace
