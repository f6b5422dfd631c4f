// util::schedule_jobs: the one scheduler under both worker pools, driven
// through a scripted in-process launcher so each policy decision — retry
// charging, deadline settlement, a zombie's late win, speculation — is
// observable without processes or sockets.  The pools' own suites
// (subprocess_test, remote_pool_test) cover the real launchers.

#include "util/worker_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace minim::util;
using namespace std::chrono_literals;
using Kind = WorkerPoolEvent::Kind;

/// Each slot runs one copy at a time; `script(index)` says how the copy of
/// job `index` starting now will end, and after how long.  An abandoned
/// copy keeps its slot and still reports, like a remote agent's zombie.
class ScriptedLauncher final : public WorkerLauncher {
 public:
  struct Plan {
    bool ok = true;
    std::chrono::milliseconds after{0};
    bool with_sibling = false;  ///< also waits for the job's next copy
  };
  using Script = std::function<Plan(std::size_t index)>;

  ScriptedLauncher(std::size_t slots, Script script)
      : busy_(slots, false), script_(std::move(script)) {}

  std::size_t free_slot(std::size_t) override {
    const auto it = std::find(busy_.begin(), busy_.end(), false);
    return it == busy_.end() ? kNoSlot
                             : static_cast<std::size_t>(it - busy_.begin());
  }

  std::string executor(std::size_t slot) const override {
    return "slot" + std::to_string(slot);
  }

  bool start(std::size_t copy, std::size_t slot, std::size_t index,
             const WorkerJob&) override {
    const Plan plan = script_(index);
    for (Flight& flight : flights_)
      if (flight.index == index) flight.waiting = false;
    busy_[slot] = true;
    flights_.push_back(Flight{copy, slot, index, plan.ok, plan.with_sibling,
                              Clock::now() + plan.after});
    return true;
  }

  void abandon(std::size_t copy) override { abandoned.push_back(copy); }

  void wait(Clock::time_point until, const std::function<bool(std::size_t)>&,
            std::vector<Ended>& ended) override {
    if (flights_.empty()) return;
    Clock::time_point next = until;
    for (const Flight& flight : flights_)
      if (!flight.waiting) next = std::min(next, flight.due);
    std::this_thread::sleep_until(next);
    for (auto it = flights_.begin(); it != flights_.end();) {
      if (it->waiting || it->due > Clock::now()) {
        ++it;
        continue;
      }
      busy_[it->slot] = false;
      ended.push_back(Ended{it->copy, it->ok, it->ok ? 0 : 1});
      it = flights_.erase(it);
    }
  }

  std::vector<std::size_t> abandoned;

 private:
  struct Flight {
    std::size_t copy;
    std::size_t slot;
    std::size_t index;
    bool ok;
    bool waiting;  ///< held until the job's next copy starts
    Clock::time_point due;
  };
  std::vector<bool> busy_;
  Script script_;
  std::vector<Flight> flights_;
};

struct Recorder {
  std::vector<Kind> kinds;
  std::vector<bool> retry_timed_out;
  WorkerPool::Observer observer() {
    return [this](const WorkerPoolEvent& event) {
      kinds.push_back(event.kind);
      if (event.kind == Kind::kRetry)
        retry_timed_out.push_back(event.outcome->timed_out);
    };
  }
  long count(Kind kind) const {
    return std::count(kinds.begin(), kinds.end(), kind);
  }
};

/// Job 0 finishes in 10ms and seeds the median; job 1's first copy runs
/// `first`, and any later copy of it succeeds after `rest`.
ScriptedLauncher::Script straggle(ScriptedLauncher::Plan first,
                                  std::chrono::milliseconds rest) {
  auto job1_copies = std::make_shared<std::size_t>(0);
  return [=](std::size_t index) {
    if (index == 0) return ScriptedLauncher::Plan{true, 10ms};
    return (*job1_copies)++ == 0 ? first : ScriptedLauncher::Plan{true, rest};
  };
}

TEST(WorkerScheduler, LateZombieSuccessWinsARequeuedJob) {
  // The first copy overruns its 100ms deadline: it is settled as a
  // timed-out attempt and requeued at once, but it keeps running as a
  // zombie and succeeds at 150ms — before the retry copy — so it wins.
  std::size_t starts = 0;
  ScriptedLauncher launcher(2, [&starts](std::size_t) {
    return ScriptedLauncher::Plan{true, starts++ == 0 ? 150ms : 1000ms};
  });
  std::vector<WorkerJob> jobs(1);
  jobs[0].timeout_s = 0.1;
  jobs[0].max_attempts = 3;
  Recorder recorder;
  const auto begin = std::chrono::steady_clock::now();
  const WorkerOutcome outcome =
      schedule_jobs(launcher, jobs, recorder.observer(), nullptr).front();
  EXPECT_LT(std::chrono::steady_clock::now() - begin, 900ms);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(outcome.executor, "slot0");
  EXPECT_EQ(launcher.abandoned, std::vector<std::size_t>{0});
  const std::vector<Kind> expected{Kind::kStart, Kind::kRetry, Kind::kStart,
                                   Kind::kFinish};
  EXPECT_EQ(recorder.kinds, expected);
  EXPECT_EQ(recorder.retry_timed_out, std::vector<bool>{true});
}

TEST(WorkerScheduler, SpeculatesOnAStragglerOnlyWhenGivenATracker) {
  std::vector<WorkerJob> jobs(2);
  {
    ScriptedLauncher launcher(2, straggle({true, 400ms}, 20ms));
    StragglerTracker tracker(2.0, 0.05, 1);
    Recorder recorder;
    const std::vector<WorkerOutcome> outcomes =
        schedule_jobs(launcher, jobs, recorder.observer(), &tracker);
    EXPECT_EQ(recorder.count(Kind::kRedispatch), 1);
    EXPECT_TRUE(outcomes[1].ok);
    EXPECT_EQ(outcomes[1].attempts, 1u);  // speculation charges nothing
    EXPECT_EQ(outcomes[1].executor, "slot0");
    EXPECT_LT(outcomes[1].wall_s, 0.3);
  }
  {
    ScriptedLauncher launcher(2, straggle({true, 200ms}, 20ms));
    Recorder recorder;
    const std::vector<WorkerOutcome> outcomes =
        schedule_jobs(launcher, jobs, recorder.observer(), nullptr);
    EXPECT_EQ(recorder.count(Kind::kRedispatch), 0);
    EXPECT_TRUE(outcomes[1].ok);
    EXPECT_EQ(outcomes[1].executor, "slot1");
  }
}

TEST(WorkerScheduler, FailedCopyLeavesTheJobToItsLiveSibling) {
  // Job 1 turns straggler at 100ms.  Its original copy fails the moment
  // the speculative copy starts, and that copy ends at the same instant
  // but is reported second, so the failure meets a live sibling however
  // late the scheduler wakes: no retry is charged, and the sibling decides.
  ScriptedLauncher launcher(2, straggle({false, 0ms, /*with_sibling=*/true}, 0ms));
  std::vector<WorkerJob> jobs(2);
  jobs[1].max_attempts = 3;
  StragglerTracker tracker(2.0, 0.1, 1);
  Recorder recorder;
  const std::vector<WorkerOutcome> outcomes =
      schedule_jobs(launcher, jobs, recorder.observer(), &tracker);
  EXPECT_EQ(recorder.count(Kind::kRedispatch), 1);
  EXPECT_EQ(recorder.count(Kind::kRetry), 0);
  EXPECT_TRUE(outcomes[1].ok);
  EXPECT_EQ(outcomes[1].attempts, 1u);
  EXPECT_EQ(outcomes[1].executor, "slot0");
}

}  // namespace
