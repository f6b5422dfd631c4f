#include "util/remote_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#define MINIM_HAVE_POSIX_FLEET 1
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "util/rpc.hpp"
#include "util/subprocess.hpp"

namespace minim::util {

#if MINIM_HAVE_POSIX_FLEET

namespace {

using Clock = WorkerLauncher::Clock;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

/// One dispatched copy awaiting its RESULT (zombies included: an overrun
/// copy keeps its agent's slot until the agent answers).
struct Flight {
  std::size_t copy = 0;
  std::size_t job = 0;  ///< job index, the id that travels on the wire
  const WorkerJob* spec = nullptr;
  Clock::time_point start;
};

/// One connected worker agent; its slot number is its join order.
struct Agent {
  int fd = -1;
  std::string name;
  std::uint32_t capacity = 1;
  bool alive = true;
  std::vector<Flight> flights;
  std::size_t completed = 0;
  double busy_s = 0.0;
};

/// The TCP launcher: HELLO/accept, capacity-weighted slot choice, and the
/// RESULT bytes of each winning copy written to `out_path` by tmp+rename.
/// A lost agent fails its copies; an abandoned copy stays in flight as a
/// zombie whose late success may still win.
class TcpLauncher final : public WorkerLauncher {
 public:
  TcpLauncher(const RemotePoolOptions& options, int listen_fd,
              std::uint16_t port, RemotePool::Stats& stats,
              const WorkerPool::Observer& observer)
      : options_(options),
        listen_fd_(listen_fd),
        stats_(stats),
        observer_(observer) {
    if (options_.self_spawn == 0) return;
    const std::string self = self_exe_path();
    if (self.empty())
      throw std::runtime_error("fleet: cannot self-spawn agents without "
                               "self_exe_path()");
    std::filesystem::create_directories(options_.scratch_dir);
    for (std::size_t i = 0; i < options_.self_spawn; ++i) {
      const std::string stem = options_.scratch_dir + "/agent_" + std::to_string(i);
      std::vector<std::string> args{
          self, "--worker-agent=127.0.0.1:" + std::to_string(port),
          "--capacity=" + std::to_string(options_.agent_capacity),
          "--agent-scratch=" + stem};
      args.insert(args.end(), options_.agent_extra_args.begin(),
                  options_.agent_extra_args.end());
      if (i == 0)
        args.insert(args.end(), options_.first_agent_extra_args.begin(),
                    options_.first_agent_extra_args.end());
      const int pid = spawn_process(args, stem + ".log");
      if (pid < 0) throw_errno("fleet: fork agent");
      spawned_.push_back(pid);
    }
    say("fleet: spawned " + std::to_string(spawned_.size()) +
        " loopback agent(s) on port " + std::to_string(port));
  }

  ~TcpLauncher() override {
    for (Agent& agent : agents_) {
      if (agent.alive) {
        send_frame(agent.fd, RpcType::kShutdown, {});
        ::close(agent.fd);
      }
      stats_.agent_names.push_back(agent.name);
      stats_.agent_completed.push_back(agent.completed);
      stats_.agent_busy_s.push_back(agent.busy_s);
    }
    for (const int pid : spawned_) ::waitpid(pid, nullptr, 0);
  }

  /// Most free slots first, join order as the deterministic tie-break.  An
  /// agent still holding a copy of the job is skipped: RESULTs name only
  /// the job, so two copies there could not be told apart.
  std::size_t free_slot(std::size_t index) override {
    std::size_t best = kNoSlot;
    std::size_t best_free = 0;
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      const Agent& agent = agents_[i];
      if (!agent.alive || agent.flights.size() >= agent.capacity ||
          std::any_of(agent.flights.begin(), agent.flights.end(),
                      [index](const Flight& f) { return f.job == index; }))
        continue;
      const std::size_t free = agent.capacity - agent.flights.size();
      if (free > best_free) {
        best = i;
        best_free = free;
      }
    }
    return best;
  }

  std::string executor(std::size_t slot) const override {
    return agents_[slot].name;
  }

  bool start(std::size_t copy, std::size_t slot, std::size_t index,
             const WorkerJob& job) override {
    Agent& agent = agents_[slot];
    JobRequest request;
    request.job = index;
    // args[0] is the driver-side program path; the agent substitutes its
    // own binary (same build), so only the tail travels.
    request.args.assign(job.args.begin() + 1, job.args.end());
    if (!send_frame(agent.fd, RpcType::kJob, encode_job(request))) {
      lose(slot, "send failed");  // the copy never left
      return false;
    }
    agent.flights.push_back(Flight{copy, index, &job, Clock::now()});
    return true;
  }

  void abandon(std::size_t) override {}  // a remote worker cannot be killed

  void wait(Clock::time_point until,
            const std::function<bool(std::size_t)>& wanted,
            std::vector<Ended>& ended) override {
    if (ended_.empty()) poll_once(until, wanted);
    ended.insert(ended.end(), ended_.begin(), ended_.end());
    ended_.clear();
  }

 private:
  void say(const std::string& line) const {
    if (options_.log) options_.log(line);
  }

  void notify(WorkerPoolEvent::Kind kind, const std::string& agent) const {
    if (!observer_) return;
    WorkerPoolEvent event;
    event.kind = kind;
    event.detail = agent;
    observer_(event);
  }

  void poll_once(Clock::time_point until,
                 const std::function<bool(std::size_t)>& wanted) {
    const bool anyone = std::any_of(agents_.begin(), agents_.end(),
                                    [](const Agent& a) { return a.alive; });
    if (!anyone) {
      const Clock::time_point give_up =
          last_activity_ +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(options_.hello_timeout_s));
      if (Clock::now() > give_up)
        throw std::runtime_error(
            stats_.agents_seen == 0
                ? "fleet: no worker agent connected within " +
                      std::to_string(options_.hello_timeout_s) + "s"
                : "fleet: every worker agent disconnected with work pending");
      until = std::min(until, give_up);
    }

    std::vector<pollfd> polled{pollfd{listen_fd_, POLLIN, 0}};
    std::vector<std::size_t> owner{kNoSlot};  // agent per polled entry
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      if (!agents_[i].alive) continue;
      polled.push_back(pollfd{agents_[i].fd, POLLIN, 0});
      owner.push_back(i);
    }
    const int ready =
        ::poll(polled.data(), static_cast<nfds_t>(polled.size()),
                poll_timeout_ms(until));
    if (ready < 0 && errno != EINTR) throw_errno("fleet: poll");

    for (std::size_t p = 0; ready > 0 && p < polled.size(); ++p) {
      if (polled[p].revents == 0) continue;
      if (owner[p] == kNoSlot) {
        accept_agent();
        continue;
      }
      const std::size_t slot = owner[p];
      if (!agents_[slot].alive) continue;  // lost earlier this sweep
      RpcFrame frame;
      const RecvStatus status = recv_frame(agents_[slot].fd, frame);
      if (status != RecvStatus::kFrame) {
        lose(slot, status == RecvStatus::kClosed ? "disconnected" : "error");
        continue;
      }
      JobResult result;
      if (frame.type == RpcType::kResult &&
          decode_result(frame.payload, result))
        take_result(slot, result, wanted);
    }
  }

  void accept_agent() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    RpcFrame frame;
    AgentHello hello;
    if (recv_frame(fd, frame) != RecvStatus::kFrame ||
        frame.type != RpcType::kHello ||
        !decode_hello(frame.payload, hello) || hello.capacity == 0) {
      ::close(fd);
      return;
    }
    Agent agent;
    agent.fd = fd;
    agent.name = hello.name.empty()
                     ? "agent#" + std::to_string(agents_.size())
                     : hello.name;
    agent.capacity = hello.capacity;
    agents_.push_back(std::move(agent));
    ++stats_.agents_seen;
    last_activity_ = Clock::now();
    say("fleet: agent " + agents_.back().name + " joined (capacity " +
        std::to_string(agents_.back().capacity) + ")");
    notify(WorkerPoolEvent::Kind::kAgentJoin, agents_.back().name);
  }

  void take_result(std::size_t slot, const JobResult& result,
                   const std::function<bool(std::size_t)>& wanted) {
    Agent& agent = agents_[slot];
    last_activity_ = Clock::now();
    const auto it = std::find_if(
        agent.flights.begin(), agent.flights.end(),
        [&result](const Flight& f) { return f.job == result.job; });
    if (it == agent.flights.end()) return;  // corrupt job id: drop
    const Flight flight = *it;
    agent.flights.erase(it);

    bool ok = false;
    if (!wanted(flight.copy)) {
      // A speculation loser (or late zombie): the job already has bytes
      // identical to these, so they are discarded unread.
      ++stats_.results_ignored;
    } else if (result.ok) {
      // Tmp+rename so the shard validator can never observe a torn file.
      const std::string& out_path = flight.spec->out_path;
      const std::string tmp = out_path + ".tmp." + std::to_string(slot);
      {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        ok = static_cast<bool>(
            out.write(result.bytes.data(),
                      static_cast<std::streamsize>(result.bytes.size())));
      }
      ok = ok && std::rename(tmp.c_str(), out_path.c_str()) == 0;
      if (ok) {
        ++agent.completed;
        agent.busy_s +=
            std::chrono::duration<double>(Clock::now() - flight.start).count();
      } else {
        std::remove(tmp.c_str());
        say("fleet: cannot write " + out_path);
      }
    } else if (!result.log.empty()) {
      say("fleet: unit " + std::to_string(flight.job) + " failed on " +
          agent.name + " (exit " + std::to_string(result.exit_code) + ")");
    }
    ended_.push_back(Ended{flight.copy, ok, result.exit_code});
  }

  void lose(std::size_t slot, const char* why) {
    Agent& agent = agents_[slot];
    if (!agent.alive) return;
    agent.alive = false;
    ::close(agent.fd);
    agent.fd = -1;
    ++stats_.agents_lost;
    say("fleet: agent " + agent.name + " lost (" + why + ")");
    notify(WorkerPoolEvent::Kind::kAgentLost, agent.name);
    for (const Flight& flight : agent.flights)
      ended_.push_back(Ended{flight.copy, false, -1});
    agent.flights.clear();
  }

  const RemotePoolOptions& options_;
  int listen_fd_;
  RemotePool::Stats& stats_;
  const WorkerPool::Observer& observer_;
  std::vector<int> spawned_;
  std::vector<Agent> agents_;
  std::vector<Ended> ended_;  ///< answered or lost copies, for `wait`
  Clock::time_point last_activity_ = Clock::now();
};

}  // namespace

RemotePool::RemotePool(RemotePoolOptions options)
    : options_(std::move(options)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("fleet: socket");
  const auto fail = [this](const char* what) {
    const int error = errno;
    ::close(listen_fd_);
    errno = error;
    throw_errno(what);
  };
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_ANY);  // agents may be remote hosts
  address.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) != 0)
    fail("fleet: bind");
  if (::listen(listen_fd_, 64) != 0) fail("fleet: listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0)
    fail("fleet: getsockname");
  port_ = ntohs(bound.sin_port);
}

RemotePool::~RemotePool() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

std::vector<WorkerOutcome> RemotePool::run_jobs(
    const std::vector<WorkerJob>& jobs, const Observer& observer) {
  stats_ = Stats{};
  if (jobs.empty()) return {};
  const Observer observe = [&](const WorkerPoolEvent& event) {
    if (event.kind == WorkerPoolEvent::Kind::kRedispatch) {
      ++stats_.redispatched;
      if (options_.log)
        options_.log("fleet: speculative re-dispatch of unit " +
                     std::to_string(event.index) + " to " + event.detail);
    }
    if (observer) observer(event);
  };
  StragglerTracker tracker(options_.straggler_factor, options_.straggler_min_s,
                           options_.straggler_min_samples);
  TcpLauncher launcher(options_, listen_fd_, port_, stats_, observe);
  return schedule_jobs(launcher, jobs, observe, &tracker);
}

#else  // !MINIM_HAVE_POSIX_FLEET

RemotePool::RemotePool(RemotePoolOptions options)
    : options_(std::move(options)) {
  throw std::runtime_error("util::RemotePool requires POSIX sockets");
}

RemotePool::~RemotePool() = default;

std::vector<WorkerOutcome> RemotePool::run_jobs(const std::vector<WorkerJob>&,
                                                const Observer&) {
  throw std::runtime_error("util::RemotePool requires POSIX sockets");
}

#endif

}  // namespace minim::util
