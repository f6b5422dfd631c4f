// util::RemotePool: the fleet driver, tested against in-process agents
// (run_worker_agent on std::threads with synthetic JobRunners) so every
// scheduling decision is observable and failure injection is exact.  The
// production subprocess runner is covered end-to-end by the orchestrator
// fleet tests and the CI loopback gate; here the runners are scripted.

#include "util/remote_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "util/rpc.hpp"
#include "util/worker_pool.hpp"

namespace {

using namespace minim::util;
using namespace std::chrono_literals;

/// A per-test scratch directory, so unit_<i>.csv names never collide (or
/// leak state) across cases.
std::string fresh_dir(const std::string& name) {
  const std::string dir = std::string(testing::TempDir()) + "remote_pool_" +
                          name + "/";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// An in-process agent: run_worker_agent on a thread, joined on scope exit
/// (the pool's SHUTDOWN frame, or an injected death, ends the loop).
struct TestAgent {
  std::thread thread;
  TestAgent(std::uint16_t port, std::string name, std::uint32_t capacity,
            JobRunner runner, std::size_t die_after = 0,
            std::chrono::milliseconds connect_delay = 0ms) {
    thread = std::thread([=] {
      if (connect_delay.count() > 0) std::this_thread::sleep_for(connect_delay);
      AgentOptions options;
      options.port = port;
      options.capacity = capacity;
      options.name = std::move(name);
      options.die_after = die_after;
      run_worker_agent(options, runner);
    });
  }
  ~TestAgent() {
    if (thread.joinable()) thread.join();
  }
};

std::vector<WorkerJob> make_jobs(const std::string& dir, std::size_t count,
                                 std::size_t max_attempts = 1) {
  std::vector<WorkerJob> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    WorkerJob job;
    job.args = {"driver-binary", "--unit-out=" + dir + "unit_" +
                                     std::to_string(i) + ".csv",
                "--unit-id=" + std::to_string(i)};
    job.out_path = dir + "unit_" + std::to_string(i) + ".csv";
    job.max_attempts = max_attempts;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// The standard synthetic worker: succeed with bytes derived from the job
/// id (what a deterministic shard worker would produce).
JobResult ok_result(std::uint64_t job, const std::string& who = "x") {
  JobResult result;
  result.job = job;
  result.ok = true;
  result.exit_code = 0;
  result.bytes = "shard-" + std::to_string(job) + "-by-" + who + "\n";
  return result;
}

TEST(RemotePool, DispatchesAcrossAgentsAndWritesResults) {
  const std::string dir = fresh_dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  RemotePoolOptions options;
  options.hello_timeout_s = 10.0;
  RemotePool pool(options);

  JobRunner runner = [](const JobRequest& request) {
    return ok_result(request.job);
  };
  std::vector<WorkerPoolEvent::Kind> kinds;
  std::vector<WorkerOutcome> outcomes;
  {
    TestAgent a(pool.port(), "a", 1, runner);
    TestAgent b(pool.port(), "b", 1, runner);
    outcomes = pool.run_jobs(
        make_jobs(dir, 8),
        [&kinds](const WorkerPoolEvent& event) { kinds.push_back(event.kind); });
  }

  ASSERT_EQ(outcomes.size(), 8u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok) << "unit " << i;
    EXPECT_EQ(outcomes[i].attempts, 1u);
    EXPECT_FALSE(outcomes[i].executor.empty());
    EXPECT_EQ(read_file(dir + "unit_" + std::to_string(i) + ".csv"),
              "shard-" + std::to_string(i) + "-by-x\n");
  }
  EXPECT_EQ(pool.stats().agents_seen, 2u);
  EXPECT_EQ(pool.stats().agents_lost, 0u);
  // Two joins, eight starts, eight finishes (order interleaved).
  EXPECT_EQ(std::count(kinds.begin(), kinds.end(),
                       WorkerPoolEvent::Kind::kAgentJoin),
            2);
  EXPECT_EQ(
      std::count(kinds.begin(), kinds.end(), WorkerPoolEvent::Kind::kStart), 8);
  EXPECT_EQ(
      std::count(kinds.begin(), kinds.end(), WorkerPoolEvent::Kind::kFinish),
      8);
}

TEST(RemotePool, CapacityWeightedDispatchFavorsTheBiggerAgent) {
  const std::string dir = fresh_dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  RemotePoolOptions options;
  options.hello_timeout_s = 10.0;
  RemotePool pool(options);

  // Uniform 30ms jobs: the capacity-3 agent holds three slots whenever the
  // queue is nonempty, so it must finish strictly more of the 12 units
  // than the capacity-1 agent.
  JobRunner slow = [](const JobRequest& request) {
    std::this_thread::sleep_for(30ms);
    return ok_result(request.job);
  };
  std::vector<WorkerOutcome> outcomes;
  {
    TestAgent big(pool.port(), "big", 3, slow);
    TestAgent small(pool.port(), "small", 1, slow);
    outcomes = pool.run_jobs(make_jobs(dir, 12));
  }
  for (const WorkerOutcome& outcome : outcomes) EXPECT_TRUE(outcome.ok);

  std::size_t big_wins = 0;
  std::size_t small_wins = 0;
  const RemotePool::Stats& stats = pool.stats();
  for (std::size_t i = 0; i < stats.agent_names.size(); ++i) {
    if (stats.agent_names[i] == "big") big_wins = stats.agent_completed[i];
    if (stats.agent_names[i] == "small") small_wins = stats.agent_completed[i];
  }
  EXPECT_EQ(big_wins + small_wins, 12u);
  EXPECT_GT(big_wins, small_wins);
}

TEST(RemotePool, FailedJobRetriesUntilItSucceeds) {
  const std::string dir = fresh_dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  RemotePoolOptions options;
  options.hello_timeout_s = 10.0;
  RemotePool pool(options);

  // Unit 2 fails on its first execution, succeeds on the second.
  std::atomic<int> unit2_runs{0};
  JobRunner flaky = [&unit2_runs](const JobRequest& request) {
    if (request.job == 2 && unit2_runs.fetch_add(1) == 0) {
      JobResult result;
      result.job = request.job;
      result.ok = false;
      result.exit_code = 9;
      result.log = "synthetic failure";
      return result;
    }
    return ok_result(request.job);
  };

  std::size_t retries = 0;
  std::vector<WorkerOutcome> outcomes;
  {
    TestAgent a(pool.port(), "a", 1, flaky);
    outcomes = pool.run_jobs(make_jobs(dir, 4, /*max_attempts=*/3),
                             [&retries](const WorkerPoolEvent& event) {
                               if (event.kind == WorkerPoolEvent::Kind::kRetry)
                                 ++retries;
                             });
  }
  EXPECT_EQ(retries, 1u);
  for (const WorkerOutcome& outcome : outcomes) EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcomes[2].attempts, 2u);
}

TEST(RemotePool, ExhaustedRetryBudgetIsAFinalFailureNotAHang) {
  const std::string dir = fresh_dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  RemotePoolOptions options;
  options.hello_timeout_s = 10.0;
  RemotePool pool(options);

  JobRunner doomed = [](const JobRequest& request) {
    JobResult result;
    result.job = request.job;
    if (request.job == 1) {
      result.ok = false;
      result.exit_code = 1;
      return result;
    }
    return ok_result(request.job);
  };
  std::vector<WorkerOutcome> outcomes;
  {
    TestAgent a(pool.port(), "a", 1, doomed);
    outcomes = pool.run_jobs(make_jobs(dir, 3, /*max_attempts=*/2));
  }
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_EQ(outcomes[1].attempts, 2u);
  EXPECT_TRUE(outcomes[2].ok);
}

TEST(RemotePool, AgentDeathMidRunRequeuesAndCompletes) {
  const std::string dir = fresh_dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  RemotePoolOptions options;
  options.hello_timeout_s = 10.0;
  RemotePool pool(options);

  // "mayfly" drops the connection after its first result; "steady" must
  // absorb the requeued work.  Jobs sleep so mayfly reliably holds units
  // in flight when it dies.
  JobRunner slow = [](const JobRequest& request) {
    std::this_thread::sleep_for(20ms);
    return ok_result(request.job);
  };
  std::size_t lost = 0;
  std::vector<WorkerOutcome> outcomes;
  {
    TestAgent mayfly(pool.port(), "mayfly", 2, slow, /*die_after=*/1);
    TestAgent steady(pool.port(), "steady", 1, slow);
    outcomes = pool.run_jobs(
        make_jobs(dir, 8, /*max_attempts=*/3),
        [&lost](const WorkerPoolEvent& event) {
          if (event.kind == WorkerPoolEvent::Kind::kAgentLost) ++lost;
        });
  }
  EXPECT_EQ(lost, 1u);
  EXPECT_EQ(pool.stats().agents_lost, 1u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok) << "unit " << i;
    EXPECT_FALSE(read_file(dir + "unit_" + std::to_string(i) + ".csv").empty());
  }
}

TEST(RemotePool, StragglerGetsASpeculativeCopyAndFirstResultWins) {
  const std::string dir = fresh_dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  RemotePoolOptions options;
  options.hello_timeout_s = 10.0;
  options.straggler_factor = 3.0;
  options.straggler_min_s = 0.05;
  options.straggler_min_samples = 2;
  RemotePool pool(options);

  // Deterministic straggle: "tortoise" connects first and alone, so unit 0
  // is dispatched to it and blocks on the latch.  "hare" joins late, clears
  // every other unit (seeding the duration median), then sits idle — the
  // straggler scan must hand it a speculative copy of unit 0.  Hare's copy
  // releases the latch only after finishing, and tortoise then dawdles
  // another 200ms, so hare's bytes win the race by construction.
  std::promise<void> latch;
  std::shared_future<void> released(latch.get_future());
  JobRunner tortoise_runner = [released](const JobRequest& request) {
    if (request.job == 0) {
      released.wait();
      std::this_thread::sleep_for(200ms);
      return ok_result(request.job, "tortoise");
    }
    return ok_result(request.job, "tortoise");
  };
  JobRunner hare_runner = [&latch](const JobRequest& request) {
    if (request.job == 0) {
      JobResult result = ok_result(request.job, "hare");
      latch.set_value();
      return result;
    }
    std::this_thread::sleep_for(10ms);
    return ok_result(request.job, "hare");
  };

  std::size_t redispatches = 0;
  std::vector<WorkerOutcome> outcomes;
  {
    TestAgent tortoise(pool.port(), "tortoise", 1, tortoise_runner);
    TestAgent hare(pool.port(), "hare", 1, hare_runner, 0,
                   /*connect_delay=*/300ms);
    outcomes = pool.run_jobs(
        make_jobs(dir, 6),
        [&redispatches](const WorkerPoolEvent& event) {
          if (event.kind == WorkerPoolEvent::Kind::kRedispatch) ++redispatches;
        });
  }
  EXPECT_GE(redispatches, 1u);
  EXPECT_EQ(pool.stats().redispatched, redispatches);
  for (const WorkerOutcome& outcome : outcomes) EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcomes[0].executor, "hare");
  EXPECT_EQ(read_file(dir + "unit_0.csv"), "shard-0-by-hare\n");
  // The speculative copy never charged the retry budget.
  EXPECT_EQ(outcomes[0].attempts, 1u);
}

TEST(RemotePool, OverrunCopyIsChargedRequeuedAndFinishedElsewhere) {
  const std::string dir = fresh_dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  RemotePoolOptions options;
  options.hello_timeout_s = 10.0;
  RemotePool pool(options);

  // "sloth" (capacity 2) joins first, so unit 0 goes to it, and it sits on
  // the unit past the 0.3s deadline.  A remote copy cannot be killed: the
  // scheduler charges the attempt and requeues the unit.  Sloth and "hare"
  // then have one free slot each, and join order would pick sloth; but
  // sloth still holds the zombie, and a RESULT names only the unit, so the
  // retry must go to hare.
  std::atomic<int> sloth_runs{0};
  JobRunner sloth_runner = [&sloth_runs](const JobRequest& request) {
    if (sloth_runs.fetch_add(1) == 0) std::this_thread::sleep_for(800ms);
    return ok_result(request.job, "sloth");
  };
  JobRunner hare_runner = [](const JobRequest& request) {
    return ok_result(request.job, "hare");
  };

  std::size_t retries = 0;
  bool retry_timed_out = false;
  std::vector<std::string> starts;  // executor per kStart
  std::vector<WorkerOutcome> outcomes;
  {
    TestAgent sloth(pool.port(), "sloth", 2, sloth_runner);
    TestAgent hare(pool.port(), "hare", 1, hare_runner, 0,
                   /*connect_delay=*/100ms);
    std::vector<WorkerJob> jobs = make_jobs(dir, 1, /*max_attempts=*/2);
    jobs[0].timeout_s = 0.3;
    outcomes = pool.run_jobs(jobs, [&](const WorkerPoolEvent& event) {
      if (event.kind == WorkerPoolEvent::Kind::kStart)
        starts.push_back(event.detail);
      if (event.kind != WorkerPoolEvent::Kind::kRetry) return;
      ++retries;
      retry_timed_out = event.outcome->timed_out;
    });
  }
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].attempts, 2u);
  EXPECT_EQ(retries, 1u);
  EXPECT_TRUE(retry_timed_out);
  EXPECT_EQ(starts, (std::vector<std::string>{"sloth", "hare"}));
  EXPECT_EQ(outcomes[0].executor, "hare");
  EXPECT_EQ(read_file(dir + "unit_0.csv"), "shard-0-by-hare\n");
  EXPECT_EQ(sloth_runs.load(), 1);
}

TEST(RemotePool, FailedSendCostsTheJobNoAttempt) {
  const std::string dir = fresh_dir(::testing::UnitTest::GetInstance()->current_test_info()->name());
  RemotePoolOptions options;
  options.hello_timeout_s = 10.0;
  auto pool = std::make_unique<RemotePool>(options);

  // "doomed" says HELLO and, the moment the pool has admitted it, resets
  // its connection, so the unit's JOB frame cannot be sent.  The copy never
  // left: with a budget of one try, the unit must still run on "good".
  const int doomed = connect_tcp("127.0.0.1", pool->port());
  ASSERT_GE(doomed, 0);
  AgentHello hello;
  hello.capacity = 4;
  hello.name = "doomed";
  ASSERT_TRUE(send_frame(doomed, RpcType::kHello, encode_hello(hello)));

  JobRunner runner = [](const JobRequest& request) {
    return ok_result(request.job, "good");
  };
  std::size_t starts = 0;
  std::size_t lost = 0;
  std::vector<WorkerOutcome> outcomes;
  {
    TestAgent good(pool->port(), "good", 1, runner);
    outcomes = pool->run_jobs(
        make_jobs(dir, 1, /*max_attempts=*/1),
        [&](const WorkerPoolEvent& event) {
          if (event.kind == WorkerPoolEvent::Kind::kAgentJoin &&
              event.detail == "doomed") {
            const linger reset{1, 0};  // close with RST, not FIN
            ::setsockopt(doomed, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
            ::close(doomed);
          }
          starts += event.kind == WorkerPoolEvent::Kind::kStart;
        });
    lost = pool->stats().agents_lost;
    pool.reset();  // closing the listener frees "good" if never admitted
  }
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].attempts, 1u);
  EXPECT_EQ(outcomes[0].executor, "good");
  EXPECT_EQ(starts, 1u);  // the send that failed was no start
  EXPECT_EQ(lost, 1u);
}

TEST(RemotePool, ThrowsWhenNoAgentEverConnects) {
  RemotePoolOptions options;
  options.hello_timeout_s = 0.2;
  RemotePool pool(options);
  EXPECT_THROW(pool.run_jobs(make_jobs(testing::TempDir(), 2)),
               std::runtime_error);
}

TEST(RemotePool, EmptyBatchNeedsNoAgents) {
  RemotePoolOptions options;
  options.hello_timeout_s = 0.1;
  RemotePool pool(options);
  EXPECT_TRUE(pool.run_jobs({}).empty());
}

TEST(RemotePool, EphemeralPortIsBoundAtConstruction) {
  RemotePool pool(RemotePoolOptions{});
  EXPECT_GT(pool.port(), 0);
  // A second pool gets a different port: both are really bound.
  RemotePool other(RemotePoolOptions{});
  EXPECT_NE(pool.port(), other.port());
}

}  // namespace
