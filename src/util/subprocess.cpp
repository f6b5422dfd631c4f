#include "util/subprocess.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#define MINIM_HAVE_POSIX_SPAWNING 1
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif
#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace minim::util {

std::string self_exe_path() {
#if defined(__linux__)
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) return {};
  buffer[n] = '\0';
  return buffer;
#else
  return {};
#endif
}

ProcessPool::ProcessPool(std::size_t max_parallel)
    : max_parallel_(max_parallel == 0
                        ? std::max(1u, std::thread::hardware_concurrency())
                        : max_parallel) {}

#if MINIM_HAVE_POSIX_SPAWNING

int spawn_process(const std::vector<std::string>& args,
                  const std::string& log_path) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& arg : args)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid != 0) {
    // Both sides set the group, so a kill right after fork cannot miss it.
    if (pid > 0) ::setpgid(pid, pid);
    return pid;
  }
  ::setpgid(0, 0);
#if defined(__linux__)
  // Out of the terminal's process group, Ctrl-C no longer reaches the
  // worker; dying with the driver keeps it from outliving an interrupt.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  if (!log_path.empty()) {
    const int fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      if (fd > STDERR_FILENO) ::close(fd);
    }
  }
  ::execv(argv[0], argv.data());
  ::_exit(127);  // exec failed; 127 matches the shell's "command not found"
}

namespace {

/// Fork/exec on this machine: one slot per allowed child.  A deadline
/// kills the copy's process group; the killed child is reaped silently
/// and holds its slot until then.
class LocalLauncher final : public WorkerLauncher {
 public:
  explicit LocalLauncher(std::size_t max_parallel)
      : max_parallel_(max_parallel) {}

  /// Reached with children alive only when an observer threw.
  ~LocalLauncher() override {
    for (const Child& child : children_) {
      ::killpg(child.pid, SIGKILL);
      ::waitpid(child.pid, nullptr, 0);
    }
  }

  std::size_t free_slot(std::size_t) override {
    return children_.size() < max_parallel_ ? 0 : kNoSlot;
  }

  std::string executor(std::size_t) const override { return {}; }

  bool start(std::size_t copy, std::size_t, std::size_t,
             const WorkerJob& job) override {
    const pid_t pid = spawn_process(job.args, job.log_path);
    // A failed fork is a failed attempt, not an exception: a loaded box
    // running out of pids must not abort the whole batch.
    if (pid < 0)
      unstarted_.push_back(Ended{copy, false, -1});
    else
      children_.push_back(Child{pid, copy, false});
    return true;
  }

  void abandon(std::size_t copy) override {
    for (Child& child : children_) {
      if (child.copy != copy || child.killed) continue;
      child.killed = true;
      ::killpg(child.pid, SIGKILL);
    }
  }

  void wait(Clock::time_point until, const std::function<bool(std::size_t)>&,
            std::vector<Ended>& ended) override {
    if (unstarted_.empty() && !children_.empty()) {
      // One reap-poll step (5 ms), or less when `until` is sooner.
      const int left = poll_timeout_ms(until);
      ::poll(nullptr, 0, left < 0 ? 5 : std::min(5, left));
    }
    ended.insert(ended.end(), unstarted_.begin(), unstarted_.end());
    unstarted_.clear();
    for (auto it = children_.begin(); it != children_.end();) {
      int status = 0;
      if (::waitpid(it->pid, &status, WNOHANG) != it->pid) {
        ++it;
        continue;
      }
      if (!it->killed) {
        const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        ended.push_back(Ended{it->copy, code == 0, code});
      }
      it = children_.erase(it);
    }
  }

 private:
  struct Child {
    pid_t pid = -1;
    std::size_t copy = 0;
    bool killed = false;  ///< SIGKILLed past its deadline
  };

  std::size_t max_parallel_;
  std::vector<Child> children_;
  std::vector<Ended> unstarted_;  ///< fork failures, reported by `wait`
};

}  // namespace

std::vector<WorkerOutcome> ProcessPool::run_jobs(
    const std::vector<WorkerJob>& jobs, const Observer& observer) {
  LocalLauncher launcher(max_parallel_);
  return schedule_jobs(launcher, jobs, observer, /*speculation=*/nullptr);
}

#else  // !MINIM_HAVE_POSIX_SPAWNING

int spawn_process(const std::vector<std::string>&, const std::string&) {
  return -1;
}

std::vector<WorkerOutcome> ProcessPool::run_jobs(
    const std::vector<WorkerJob>&, const Observer&) {
  throw std::runtime_error(
      "util::ProcessPool requires a POSIX platform (fork/exec/waitpid)");
}

#endif

}  // namespace minim::util
