#include "util/rpc.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define MINIM_HAVE_POSIX_SOCKETS 1
#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "util/fd_io.hpp"
#include "util/subprocess.hpp"

namespace minim::util {

// ----------------------------------------------------------------- encoding
//
// Explicit little-endian byte serialization: the format must not depend on
// host endianness, and writing the bytes by hand costs four shifts.

namespace {

void put_u32(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>(value & 0xffu));
  out.push_back(static_cast<char>((value >> 8) & 0xffu));
  out.push_back(static_cast<char>((value >> 16) & 0xffu));
  out.push_back(static_cast<char>((value >> 24) & 0xffu));
}

void put_u64(std::string& out, std::uint64_t value) {
  put_u32(out, static_cast<std::uint32_t>(value & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(value >> 32));
}

std::uint32_t peek_u32(const char* at) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(at);
  return static_cast<std::uint32_t>(bytes[0]) |
         (static_cast<std::uint32_t>(bytes[1]) << 8) |
         (static_cast<std::uint32_t>(bytes[2]) << 16) |
         (static_cast<std::uint32_t>(bytes[3]) << 24);
}

bool get_u32(const std::string& in, std::size_t& at, std::uint32_t& value) {
  if (at > in.size() || in.size() - at < 4) return false;
  value = peek_u32(in.data() + at);
  at += 4;
  return true;
}

bool get_u64(const std::string& in, std::size_t& at, std::uint64_t& value) {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  if (!get_u32(in, at, lo) || !get_u32(in, at, hi)) return false;
  value = static_cast<std::uint64_t>(lo) |
          (static_cast<std::uint64_t>(hi) << 32);
  return true;
}

void put_str(std::string& out, const std::string& value) {
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  out.append(value);
}

bool get_str(const std::string& in, std::size_t& at, std::string& value) {
  std::uint32_t size = 0;
  if (!get_u32(in, at, size)) return false;
  if (in.size() - at < size) return false;
  value.assign(in, at, size);
  at += size;
  return true;
}

}  // namespace

// ------------------------------------------------------------------ framing

bool send_frame(int fd, RpcType type, const std::string& payload) {
  std::string frame;
  frame.reserve(8 + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(type));
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame.append(payload);
  // One write_all per frame: concurrent senders (agent worker threads)
  // still need an external mutex, but a single frame is never interleaved
  // by the partial-write loop itself going through one call.
  return write_all(fd, frame.data(), frame.size());
}

RecvStatus recv_frame(int fd, RpcFrame& frame, std::size_t max_payload) {
  char header[8];
  const IoStatus head = read_exact(fd, header, sizeof header);
  if (head == IoStatus::kClosed) return RecvStatus::kClosed;
  if (head != IoStatus::kOk) return RecvStatus::kError;
  const std::uint32_t type = peek_u32(header);
  const std::uint32_t size = peek_u32(header + 4);
  if (type < static_cast<std::uint32_t>(RpcType::kHello) ||
      type > static_cast<std::uint32_t>(RpcType::kShutdown))
    return RecvStatus::kError;
  if (size > max_payload) return RecvStatus::kError;
  frame.type = static_cast<RpcType>(type);
  frame.payload.resize(size);
  if (size > 0 && read_exact(fd, frame.payload.data(), size) != IoStatus::kOk)
    return RecvStatus::kError;  // EOF mid-frame is truncation, not a close
  return RecvStatus::kFrame;
}

// ----------------------------------------------------------------- payloads

std::string encode_hello(const AgentHello& hello) {
  std::string payload;
  put_u32(payload, hello.capacity);
  put_str(payload, hello.name);
  return payload;
}

bool decode_hello(const std::string& payload, AgentHello& hello) {
  std::size_t at = 0;
  return get_u32(payload, at, hello.capacity) &&
         get_str(payload, at, hello.name) && at == payload.size();
}

std::string encode_job(const JobRequest& request) {
  std::string payload;
  put_u64(payload, request.job);
  put_u32(payload, static_cast<std::uint32_t>(request.args.size()));
  for (const std::string& arg : request.args) put_str(payload, arg);
  return payload;
}

bool decode_job(const std::string& payload, JobRequest& request) {
  std::size_t at = 0;
  std::uint32_t count = 0;
  if (!get_u64(payload, at, request.job) || !get_u32(payload, at, count))
    return false;
  request.args.clear();
  request.args.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string arg;
    if (!get_str(payload, at, arg)) return false;
    request.args.push_back(std::move(arg));
  }
  return at == payload.size();
}

std::string encode_result(const JobResult& result) {
  std::string payload;
  put_u64(payload, result.job);
  put_u32(payload, result.ok ? 1u : 0u);
  put_u32(payload, static_cast<std::uint32_t>(result.exit_code));
  put_str(payload, result.log);
  put_str(payload, result.bytes);
  return payload;
}

bool decode_result(const std::string& payload, JobResult& result) {
  std::size_t at = 0;
  std::uint32_t ok = 0;
  std::uint32_t exit_code = 0;
  if (!get_u64(payload, at, result.job) || !get_u32(payload, at, ok) ||
      !get_u32(payload, at, exit_code) || !get_str(payload, at, result.log) ||
      !get_str(payload, at, result.bytes) || at != payload.size())
    return false;
  result.ok = ok != 0;
  result.exit_code = static_cast<std::int32_t>(exit_code);
  return true;
}

#if MINIM_HAVE_POSIX_SOCKETS

// -------------------------------------------------------------- agent side

int connect_tcp(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &found) != 0)
    return -1;
  int fd = -1;
  for (addrinfo* at = found; at != nullptr && fd < 0; at = at->ai_next) {
    fd = ::socket(at->ai_family, at->ai_socktype, at->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, at->ai_addr, at->ai_addrlen) != 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ::freeaddrinfo(found);
  return fd;
}

int run_worker_agent(const AgentOptions& options, const JobRunner& runner) {
  auto say = [&options](const std::string& line) {
    if (options.log) options.log(line);
  };

  // Tolerate "agent launched a beat before the driver listens" (fleet
  // scripts start both sides concurrently): retry the connect briefly.
  int fd = -1;
  for (int attempt = 0; attempt < 100 && fd < 0; ++attempt) {
    fd = connect_tcp(options.host, options.port);
    if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (fd < 0) {
    say("agent: cannot connect to " + options.host + ":" +
        std::to_string(options.port));
    return 1;
  }

  AgentHello hello;
  hello.capacity = options.capacity != 0
                       ? options.capacity
                       : std::max(1u, std::thread::hardware_concurrency());
  if (options.name.empty()) {
    char hostname[256] = "agent";
    ::gethostname(hostname, sizeof hostname - 1);
    hello.name = std::string(hostname) + ":" + std::to_string(::getpid());
  } else {
    hello.name = options.name;
  }
  if (!send_frame(fd, RpcType::kHello, encode_hello(hello))) {
    ::close(fd);
    return 1;
  }
  say("agent " + hello.name + ": connected, capacity " +
      std::to_string(hello.capacity));

  // Worker threads share the socket for RESULT frames; `send_mutex` keeps
  // frames whole.  The main thread only reads after the HELLO, so reads
  // and writes never race on direction.
  std::mutex send_mutex;
  std::size_t results_sent = 0;  // guarded by send_mutex
  std::atomic<bool> dying{false};
  std::vector<std::thread> workers;

  int code = 1;  // connection lost unless we see a clean SHUTDOWN
  while (true) {
    RpcFrame frame;
    const RecvStatus status = recv_frame(fd, frame);
    if (status != RecvStatus::kFrame) {
      if (dying.load()) code = 0;  // the injected crash severed the socket
      break;
    }
    if (frame.type == RpcType::kShutdown) {
      code = 0;
      break;
    }
    if (frame.type != RpcType::kJob) continue;
    JobRequest request;
    if (!decode_job(frame.payload, request)) continue;
    workers.emplace_back([&, request] {
      if (options.delay_s > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(options.delay_s));
      JobResult result = runner(request);
      result.job = request.job;
      std::lock_guard<std::mutex> lock(send_mutex);
      if (dying.load()) return;  // mid-crash: the result dies with us
      if (send_frame(fd, RpcType::kResult, encode_result(result))) {
        ++results_sent;
        if (options.die_after != 0 && results_sent >= options.die_after) {
          // Injected crash: sever the socket.  SHUT_RDWR pops the main
          // thread out of recv_frame, which then drains the other workers
          // and exits — from the driver's side this is indistinguishable
          // from the agent process dying.
          dying.store(true);
          ::shutdown(fd, SHUT_RDWR);
        }
      }
    });
  }

  for (std::thread& worker : workers) worker.join();
  ::close(fd);
  say("agent " + hello.name +
      (code == 0 ? std::string(": done") : std::string(": connection lost")));
  return code;
}

JobRunner subprocess_job_runner(const std::string& scratch_dir) {
  std::filesystem::create_directories(scratch_dir);
  return [scratch_dir](const JobRequest& request) {
    JobResult result;
    result.job = request.job;
    const std::string self = self_exe_path();
    if (self.empty()) {
      result.log = "agent: self_exe_path() unavailable";
      return result;
    }

    const std::string stem =
        scratch_dir + "/job_" + std::to_string(request.job);
    const std::string out_path = stem + ".csv";
    const std::string log_path = stem + ".log";

    WorkerJob job;
    job.args.push_back(self);
    for (const std::string& arg : request.args) {
      // The driver names its own scratch file; this worker must write (and
      // we must read back) an agent-local path instead.
      if (arg.rfind("--unit-out=", 0) == 0)
        job.args.push_back("--unit-out=" + out_path);
      else
        job.args.push_back(arg);
    }
    job.out_path = out_path;
    job.log_path = log_path;  // one attempt: the driver owns the retry budget

    const WorkerOutcome outcome = ProcessPool(1).run_jobs({job}).front();
    result.exit_code = outcome.exit_code;

    {  // ship the worker's output tail back for failure diagnosis
      std::ifstream log(log_path, std::ios::binary | std::ios::ate);
      if (log) {
        const auto size = static_cast<std::size_t>(log.tellg());
        const std::size_t keep = std::min<std::size_t>(size, 8192);
        log.seekg(static_cast<std::streamoff>(size - keep));
        result.log.resize(keep);
        log.read(result.log.data(), static_cast<std::streamsize>(keep));
      }
    }

    if (outcome.ok) {
      std::ifstream artifact(out_path, std::ios::binary);
      if (artifact) {
        result.bytes.assign(std::istreambuf_iterator<char>(artifact),
                            std::istreambuf_iterator<char>());
        result.ok = true;
      } else {
        result.log += "\nagent: worker exited 0 but produced no result file";
      }
    }
    std::remove(out_path.c_str());
    std::remove(log_path.c_str());
    return result;
  };
}

#else  // !MINIM_HAVE_POSIX_SOCKETS

int connect_tcp(const std::string&, std::uint16_t) { return -1; }

int run_worker_agent(const AgentOptions&, const JobRunner&) { return 1; }

JobRunner subprocess_job_runner(const std::string&) {
  return [](const JobRequest& request) {
    JobResult result;
    result.job = request.job;
    result.log = "agent: POSIX sockets unavailable on this platform";
    return result;
  };
}

#endif

}  // namespace minim::util
