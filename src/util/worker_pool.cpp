#include "util/worker_pool.hpp"

#include <climits>
#include <deque>

namespace minim::util {

namespace {

using Clock = WorkerLauncher::Clock;

Clock::duration after(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

}  // namespace

int WorkerLauncher::poll_timeout_ms(Clock::time_point until) {
  if (until == Clock::time_point::max()) return -1;
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(until - Clock::now());
  return static_cast<int>(
      std::clamp<std::chrono::milliseconds::rep>(left.count(), 0, INT_MAX));
}

std::vector<WorkerOutcome> schedule_jobs(WorkerLauncher& launcher,
                                         const std::vector<WorkerJob>& jobs,
                                         const WorkerPool::Observer& observer,
                                         StragglerTracker* speculation) {
  struct Copy {
    std::size_t job = 0;
    std::size_t slot = 0;
    Clock::time_point start;
    Clock::time_point deadline;  ///< time_point::max() when no timeout
  };
  struct JobState {
    std::size_t attempts = 0;       ///< charged copies (speculation is free)
    std::vector<std::size_t> live;  ///< copies still on the books
    bool done = false;
  };
  std::vector<WorkerOutcome> outcomes(jobs.size());
  std::vector<JobState> states(jobs.size());
  std::vector<Copy> copies;  ///< indexed by copy number
  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < jobs.size(); ++i) pending.push_back(i);
  std::size_t unfinished = jobs.size();

  auto notify = [&](WorkerPoolEvent::Kind kind, std::size_t index,
                    double wall_s, std::string detail) {
    if (!observer) return;
    WorkerPoolEvent event;
    event.kind = kind;
    event.index = index;
    event.attempt = states[index].attempts;
    event.wall_s = wall_s;
    if (kind == WorkerPoolEvent::Kind::kRetry ||
        kind == WorkerPoolEvent::Kind::kFinish)
      event.outcome = &outcomes[index];
    event.detail = std::move(detail);
    observer(event);
  };

  // A copy that never left costs nothing and leaves the job queued.
  auto start = [&](std::size_t index, std::size_t slot, bool speculative) {
    const Clock::time_point now = Clock::now();
    copies.push_back(Copy{index, slot, now,
                          jobs[index].timeout_s > 0.0
                              ? now + after(jobs[index].timeout_s)
                              : Clock::time_point::max()});
    if (!launcher.start(copies.size() - 1, slot, index, jobs[index])) {
      copies.pop_back();
      return false;
    }
    JobState& state = states[index];
    if (!speculative) ++state.attempts;
    state.live.push_back(copies.size() - 1);
    notify(speculative ? WorkerPoolEvent::Kind::kRedispatch
                       : WorkerPoolEvent::Kind::kStart,
           index, 0.0, launcher.executor(slot));
    return true;
  };

  // The single place a copy's end is judged: it finishes the job, requeues
  // it within the retry budget, or (a sibling copy still running, or the
  // job already decided) changes nothing.
  auto end = [&](std::size_t id, bool ok, int exit_code, bool timed_out) {
    const Copy& copy = copies[id];
    JobState& state = states[copy.job];
    const auto live = std::find(state.live.begin(), state.live.end(), id);
    const bool was_live = live != state.live.end();
    if (was_live) state.live.erase(live);
    // A zombie's failure was settled at its deadline; only success counts.
    if (state.done || (!ok && (!was_live || !state.live.empty()))) return;

    const double wall_s =
        std::chrono::duration<double>(Clock::now() - copy.start).count();
    WorkerOutcome& outcome = outcomes[copy.job];
    outcome = WorkerOutcome{ok,        state.attempts, wall_s,
                            timed_out, exit_code,      launcher.executor(copy.slot)};
    if (!ok && state.attempts < jobs[copy.job].max_attempts) {
      notify(WorkerPoolEvent::Kind::kRetry, copy.job, wall_s, outcome.executor);
      pending.push_back(copy.job);
      return;
    }
    if (ok && speculation != nullptr) speculation->record(wall_s);
    state.done = true;
    state.live.clear();  // losing copies become zombies; their ends are ignored
    --unfinished;
    notify(WorkerPoolEvent::Kind::kFinish, copy.job, wall_s, outcome.executor);
  };

  const std::function<bool(std::size_t)> wanted = [&](std::size_t id) {
    return !states[copies[id].job].done;
  };
  std::vector<WorkerLauncher::Ended> ended;
  std::vector<std::size_t> overrun;
  while (unfinished > 0) {
    // In queue order, each job takes a slot that will have it; after a
    // failed start the same job tries the next slot.
    for (auto it = pending.begin(); it != pending.end();) {
      if (states[*it].done) {  // a zombie's late success decided it
        it = pending.erase(it);
        continue;
      }
      const std::size_t slot = launcher.free_slot(*it);
      if (slot == WorkerLauncher::kNoSlot)
        ++it;
      else if (start(*it, slot, /*speculative=*/false))
        it = pending.erase(it);
    }

    // Wake at the next deadline, or when the next single-copy job turns
    // straggler.  Speculation waits for a drained queue: an idle slot
    // should take fresh work, not duplicate old work.
    Clock::time_point wake = Clock::time_point::max();
    const double threshold = speculation != nullptr && pending.empty()
                                 ? speculation->threshold()
                                 : 0.0;
    for (std::size_t i = 0; i < states.size(); ++i) {
      for (const std::size_t id : states[i].live)
        wake = std::min(wake, copies[id].deadline);
      if (threshold <= 0.0 || states[i].live.size() != 1) continue;
      const Clock::time_point due =
          copies[states[i].live.front()].start + after(threshold);
      if (Clock::now() <= due) {
        wake = std::min(wake, due);
        continue;
      }
      const std::size_t slot = launcher.free_slot(i);
      if (slot != WorkerLauncher::kNoSlot) start(i, slot, /*speculative=*/true);
    }

    ended.clear();
    launcher.wait(wake, wanted, ended);
    for (const WorkerLauncher::Ended& e : ended)
      end(e.copy, e.ok, e.exit_code, /*timed_out=*/false);

    overrun.clear();
    const Clock::time_point now = Clock::now();
    for (const JobState& state : states)
      for (const std::size_t id : state.live)
        if (now >= copies[id].deadline) overrun.push_back(id);
    for (const std::size_t id : overrun) {
      launcher.abandon(id);
      end(id, /*ok=*/false, -1, /*timed_out=*/true);
    }
  }
  return outcomes;
}

}  // namespace minim::util
