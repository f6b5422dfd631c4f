// serve-minim and serve-bbb-burst: one client over loopback TCP, closed
// loop.  A round builds a fresh engine and session, ramps it (set-up), then
// serves the steady transcript (measured); rounds repeat the same
// transcript until the run's seconds are spent, so every round must answer
// byte-identically.  The traced run replays the transcript through four
// paths — TCP session, in-memory session, engine, replica — and charges
// each layer the difference between adjacent paths.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <streambuf>
#include <thread>

#include "replica.hpp"
#include "serve/engine.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"
#include "strategies/bbb.hpp"
#include "strategies/factory.hpp"
#include "transcript.hpp"
#include "util/fd_io.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = minim::serve;
namespace strategies = minim::strategies;

struct ServeSpec {
  std::string strategy;
  std::size_t burst = 1;            ///< lines per closed-loop request
  std::size_t recolor_threads = 1;  ///< engine Params::recolor_threads
};

/// The conversation a round has with the session: ramp payloads, one
/// `stats` query, steady payloads.  Each payload is one closed-loop send.
struct Conversation {
  std::vector<std::string> ramp;
  std::vector<std::string> steady;
  std::vector<std::size_t> steady_sizes;  ///< lines per steady payload
  std::vector<std::size_t> ramp_sizes;
  std::size_t ramp_events = 0;
  std::size_t steady_events = 0;
};

void chunk(const std::vector<std::string>& lines, std::size_t burst,
           std::vector<std::string>& payloads, std::vector<std::size_t>& sizes) {
  for (std::size_t at = 0; at < lines.size(); at += burst) {
    const std::size_t take = std::min(burst, lines.size() - at);
    std::string payload;
    for (std::size_t i = 0; i < take; ++i) payload += lines[at + i] + "\n";
    payloads.push_back(std::move(payload));
    sizes.push_back(take);
  }
}

Conversation make_conversation(const ServeTranscript& t, std::size_t burst) {
  Conversation c;
  chunk(t.ramp_lines, burst, c.ramp, c.ramp_sizes);
  chunk(t.steady_lines, burst, c.steady, c.steady_sizes);
  c.ramp_events = t.ramp_lines.size();
  c.steady_events = t.steady_lines.size();
  return c;
}

/// Blocking line client for the loopback session.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    require(fd_ >= 0, "client socket: " + std::string(std::strerror(errno)));
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("client connect: " + std::string(std::strerror(errno)));
    }
  }
  ~LineClient() { close(); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void send(const std::string& payload) {
    require(minim::util::write_all(fd_, payload.data(), payload.size()),
            "client send failed");
  }

  /// Next reply line (without terminator); throws at end of stream.
  void read_line(std::string& line) {
    while (true) {
      const std::size_t newline = buffer_.find('\n', start_);
      if (newline != std::string::npos) {
        line.assign(buffer_, start_, newline - start_);
        start_ = newline + 1;
        if (start_ == buffer_.size()) {
          buffer_.clear();
          start_ = 0;
        }
        return;
      }
      char chunk[8192];
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got < 0 && errno == EINTR) continue;
      require(got > 0, "session closed the connection mid-conversation");
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t start_ = 0;
};

/// Runs `serve_session` on its own thread.  Destruction closes the client
/// first (the session then sees end of input) and joins.
class SessionThread {
 public:
  SessionThread(serve::AssignmentEngine& engine, serve::Transport& transport,
                serve::SessionOptions options, LineClient& client)
      : client_(client), thread_([this, &engine, &transport, options] {
          try {
            stats_ = serve::serve_session(engine, transport, options);
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~SessionThread() {
    client_.close();
    if (thread_.joinable()) thread_.join();
  }
  SessionThread(const SessionThread&) = delete;
  SessionThread& operator=(const SessionThread&) = delete;

  serve::SessionStats finish() {
    client_.close();
    thread_.join();
    if (error_) std::rethrow_exception(error_);
    return stats_;
  }

 private:
  LineClient& client_;
  serve::SessionStats stats_;
  std::exception_ptr error_;
  std::thread thread_;  // last: starts after the members it uses exist
};

std::uint64_t fnv1a(std::uint64_t hash, const std::string& text) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return (hash ^ '\n') * 1099511628211ull;
}

std::size_t field(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return 0;
  return static_cast<std::size_t>(
      std::strtoull(line.c_str() + at + std::strlen(key), nullptr, 10));
}

struct RoundResult {
  double setup_s = 0.0;
  double ramp_s = 0.0;    ///< the ramp's share of set-up
  double steady_s = 0.0;  ///< the measured phase
  LatencySamples latency;
  std::size_t errors = 0;
  double maxc_sum = 0.0;  ///< summed post-event max color (steady replies)
  std::size_t recodings_after_ramp = 0;
  std::uint64_t reply_hash = 1469598103934665603ull;
  serve::SessionStats stats;
  FinalState state;
};

/// Sends `payloads` closed-loop and reads one reply per line.  With
/// `latency` set, records each line's send-to-reply time.
void converse(LineClient& client, const std::vector<std::string>& payloads,
              const std::vector<std::size_t>& sizes, RoundResult& round,
              LatencySamples* latency) {
  std::string line;
  for (std::size_t p = 0; p < payloads.size(); ++p) {
    const std::uint64_t sent = now_ns();
    client.send(payloads[p]);
    for (std::size_t i = 0; i < sizes[p]; ++i) {
      client.read_line(line);
      if (latency != nullptr) {
        latency->add(static_cast<double>(now_ns() - sent) * 1e-3);
        round.maxc_sum += static_cast<double>(field(line, "maxc="));
      }
      if (line.rfind("ok ", 0) != 0) ++round.errors;
      round.reply_hash = fnv1a(round.reply_hash, line);
    }
  }
}

serve::AssignmentEngine::Params engine_params(const ServeSpec& spec) {
  serve::AssignmentEngine::Params params;
  params.recolor_threads = spec.recolor_threads;
  return params;
}

serve::SessionOptions session_options(const ServeSpec& spec) {
  serve::SessionOptions options;
  options.max_batch = spec.burst;
  return options;
}

RoundResult serve_round(const ServeSpec& spec, const Conversation& c) {
  RoundResult round;
  const auto start = Clock::now();
  const auto strategy = strategies::make_strategy(spec.strategy);
  serve::AssignmentEngine engine(*strategy, engine_params(spec));
  serve::TcpServerTransport transport(0);
  // The listening socket's backlog completes the connect before the
  // session thread reaches accept().
  LineClient client(transport.port());
  SessionThread session(engine, transport, session_options(spec), client);

  const auto ramp_start = Clock::now();
  converse(client, c.ramp, c.ramp_sizes, round, nullptr);
  round.ramp_s = seconds_since(ramp_start);
  std::string line;
  client.send("stats\n");
  client.read_line(line);
  round.recodings_after_ramp = field(line, "recodings=");
  round.setup_s = seconds_since(start);

  const auto steady_start = Clock::now();
  converse(client, c.steady, c.steady_sizes, round, &round.latency);
  round.steady_s = seconds_since(steady_start);

  round.stats = session.finish();
  const sim::Simulation& simulation = engine.simulation();
  sim::validate_assignment(simulation.network(), simulation.assignment());
  round.state = capture(simulation.network(), simulation.assignment(),
                        simulation.totals());
  return round;
}

/// Streambuf over a fixed sequence of chunks that exposes one chunk at a
/// time as "available": an in-memory session then drains exactly one
/// payload per burst, the batch boundaries the TCP client produces.
class ChunkBuffer final : public std::streambuf {
 public:
  explicit ChunkBuffer(std::vector<std::string> chunks) : chunks_(std::move(chunks)) {}

 protected:
  int_type underflow() override {
    if (gptr() != egptr()) return traits_type::to_int_type(*gptr());
    if (next_ == chunks_.size()) return traits_type::eof();
    std::string& chunk = chunks_[next_++];
    setg(chunk.data(), chunk.data(), chunk.data() + chunk.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::vector<std::string> chunks_;
  std::size_t next_ = 0;
};

std::vector<std::string> all_payloads(const Conversation& c) {
  std::vector<std::string> chunks = c.ramp;
  chunks.push_back("stats\n");
  chunks.insert(chunks.end(), c.steady.begin(), c.steady.end());
  return chunks;
}

/// Parsed events chunked exactly as the conversation.
std::vector<sim::Trace> event_chunks(const ServeTranscript& t, const Conversation& c) {
  const sim::Trace parsed = sim::parse_trace(t.text());
  std::vector<sim::Trace> chunks;
  std::size_t at = 0;
  for (const auto* sizes : {&c.ramp_sizes, &c.steady_sizes})
    for (const std::size_t size : *sizes) {
      chunks.emplace_back(parsed.begin() + static_cast<std::ptrdiff_t>(at),
                          parsed.begin() + static_cast<std::ptrdiff_t>(at + size));
      at += size;
    }
  return chunks;
}

ServeSpec spec_for(bool bbb) {
  return bbb ? ServeSpec{"bbb-bounded", 64, 2} : ServeSpec{"minim", 1, 1};
}

/// A fresh Simulation fed the transcript one event at a time.
FinalState sequential_reference(const ServeSpec& spec, const ServeTranscript& t) {
  const auto strategy = strategies::make_strategy(spec.strategy);
  sim::Simulation simulation(*strategy);
  sim::apply_trace(sim::parse_trace(t.text()), simulation);
  sim::validate_assignment(simulation.network(), simulation.assignment());
  return capture(simulation.network(), simulation.assignment(), simulation.totals());
}

/// A fresh Simulation fed the transcript in the conversation's batches.
FinalState batched_reference(const ServeSpec& spec, const ServeTranscript& t,
                             const Conversation& c) {
  const auto strategy = strategies::make_strategy(spec.strategy);
  sim::Simulation simulation(*strategy);
  std::vector<net::NodeId> by_join_order;
  sim::BatchResult result;
  for (const sim::Trace& chunk : event_chunks(t, c))
    simulation.apply_batch(chunk, by_join_order, result);
  sim::validate_assignment(simulation.network(), simulation.assignment());
  return capture(simulation.network(), simulation.assignment(), simulation.totals());
}

/// Checks every round against the first, and the first against the
/// references: codes and totals must equal a Simulation fed the same
/// batches, and a Simulation fed one event at a time — codes included when
/// nothing coalesces; live set, configurations and event totals when
/// bursts coalesce (bbb-bounded's fallbacks then reseed its maintained
/// order at different times, so codes may differ).  Returns the first
/// failure ("" when all pass).
std::string check_rounds(const ServeSpec& spec, const ServeTranscript& t,
                         const Conversation& c,
                         const std::vector<RoundResult>& rounds) {
  const RoundResult& first = rounds.front();
  for (const RoundResult& r : rounds) {
    if (r.errors != 0) return std::to_string(r.errors) + " err replies";
    if (r.reply_hash != first.reply_hash) return "rounds answered differently";
    const std::string diff = compare_states(first.state, r.state, true);
    if (!diff.empty()) return "round final states differ: " + diff;
    if (r.stats.events != c.ramp_events + c.steady_events)
      return "session applied " + std::to_string(r.stats.events) + " events";
    // Closed-loop bursts must coalesce whole, or batch boundaries (and
    // with them the net recoding counts) would depend on timing.
    if (spec.burst > 1 && r.stats.coalesced_events != r.stats.events)
      return "a burst was split across batches";
  }
  const bool coalesces = spec.burst > 1;
  std::string diff = compare_states(sequential_reference(spec, t), first.state, !coalesces);
  if (!diff.empty()) return "engine differs from one-at-a-time apply_trace: " + diff;
  if (coalesces) {
    diff = compare_states(batched_reference(spec, t, c), first.state, true);
    if (!diff.empty()) return "engine differs from Simulation::apply_batch: " + diff;
  }
  return "";
}

Report untraced(const RunArgs& args, const ServeSpec& spec,
                const std::vector<ServeTranscript>& transcripts) {
  std::vector<Conversation> conversations;
  for (const ServeTranscript& t : transcripts)
    conversations.push_back(make_conversation(t, spec.burst));
  const std::size_t count = transcripts.size();
  // Rounds cycle through the transcripts.  An unmeasured warm-up round
  // comes first: the CPU's clock settles under sustained load, and
  // measuring only after it does keeps runs comparable.
  std::vector<std::vector<RoundResult>> rounds(count);
  rounds[0].push_back(serve_round(spec, conversations[0]));
  // Latency is reported per round, and each time metric is taken over the
  // quickest tenth of rounds (see kQuickShare): a round disturbed by another
  // tenant of the machine then moves none.  Each round alone supports p99.
  // Samples are dropped once summarized, so the process's peak RSS does not
  // grow with the number of rounds a run fits in.
  std::vector<double> setups, walls, p50s, p99s;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < 2 * count || seconds_since(start) < args.seconds; ++i) {
    RoundResult round = serve_round(spec, conversations[i % count]);
    if (i == 0)
      require(print_latency("per event, client send to reply, first measured round",
                            round.latency),
              "too few samples per round to support p99");
    p50s.push_back(round.latency.quantile(0.5));
    p99s.push_back(round.latency.quantile(0.99));
    round.latency = LatencySamples();
    setups.push_back(round.setup_s);
    walls.push_back(round.steady_s);
    rounds[i % count].push_back(std::move(round));
  }

  Report report = blank_report(false);
  std::string failure;
  double recodings_per_event = 0.0, max_color = 0.0;
  std::size_t steady_events = 0, served = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const Conversation& c = conversations[k];
    for (const RoundResult& r : rounds[k]) {
      report.attempted += c.ramp_events + c.steady_events;
      report.failed += r.errors;
      ++served;
    }
    if (failure.empty())
      failure = check_rounds(spec, transcripts[k], c, rounds[k]);
    const RoundResult& first = rounds[k].front();
    const auto steady = static_cast<double>(c.steady_events);
    recodings_per_event +=
        static_cast<double>(first.state.totals.recodings - first.recodings_after_ramp) /
        steady / static_cast<double>(count);
    max_color += first.maxc_sum / steady / static_cast<double>(count);
    steady_events += c.steady_events;
  }
  if (!failure.empty()) {
    std::cout << "[check] FAIL: " << failure << "\n";
    report.correct = false;
    report.failed = report.attempted;
  } else {
    std::cout << "[check] PASS: " << served << " rounds over " << count
              << " transcripts; each transcript's rounds answered identically "
              << (spec.burst > 1
                      ? "and end in the codes and totals of Simulation::apply_batch "
                        "fed the same bursts, and in the live set and event totals "
                        "of a one-at-a-time apply_trace"
                      : "and end in the codes and totals of a one-at-a-time "
                        "apply_trace")
              << "; CA1/CA2 valid\n";
  }
  std::cout << "[latency] per-round p99 over " << p99s.size()
            << " rounds: min " << *std::min_element(p99s.begin(), p99s.end())
            << " us, median " << median(p99s) << " us, max "
            << *std::max_element(p99s.begin(), p99s.end())
            << " us; time metrics average each transcript's quickest tenth of rounds\n";

  // Round i served transcript i % count.  Transcripts differ in cost, and
  // the quickest rounds overall would all be the cheapest transcript's, so
  // a time metric is the mean over transcripts of the median of each one's
  // quickest tenth.  Every transcript has the same length.
  const auto per_transcript = [count](const std::vector<double>& values) {
    double sum = 0.0;
    for (std::size_t k = 0; k < count; ++k) {
      std::vector<double> own;
      for (std::size_t i = k; i < values.size(); i += count) own.push_back(values[i]);
      sum += quick_median(std::move(own));
    }
    return sum / static_cast<double>(count);
  };
  const double steady_per_round =
      static_cast<double>(steady_events) / static_cast<double>(count);
  const double round_s = per_transcript(walls);
  report.update("setup_s", per_transcript(setups));
  report.update("events_per_s", steady_per_round / round_s);
  report.update("p50_us", per_transcript(p50s));
  report.update("p99_us", per_transcript(p99s));
  report.update("wall_s", round_s);
  report.update("peak_rss_mb", peak_rss_mb());
  report.update("recodings_per_event", recodings_per_event);
  report.update("max_color", max_color);
  std::cout << "[serve] round steady seconds:";
  for (const double w : walls) std::cout << " " << w;
  std::cout << "\n[serve] " << walls.size() << " measured rounds of "
            << steady_per_round << " steady events (" << transcripts[0].storm_events
            << " storm events in the first transcript); error_rate "
            << static_cast<double>(report.failed) /
                   static_cast<double>(report.attempted)
            << "\n";
  return report;
}

// ------------------------------------------------------------------ traced

double span_mean_us(const std::map<std::string, SpanTotals>& totals,
                    const std::string& name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return it->second.total_ns * 1e-3 / static_cast<double>(it->second.count);
}

double span_total_s(const std::map<std::string, SpanTotals>& totals,
                    const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.total_ns * 1e-9;
}

}  // namespace

/// Network-layer footprint per live node, shared with churn-100k.
void report_network_bytes(Report& report, const net::AdhocNetwork& network) {
  const auto n = static_cast<double>(std::max<std::size_t>(1, network.node_count()));
  const auto digraph = static_cast<double>(network.graph().memory_bytes());
  const auto conflict = static_cast<double>(network.conflict_graph().memory_bytes());
  const auto total = static_cast<double>(network.memory_bytes());
  report.update("net.digraph_bytes_per_node", digraph / n);
  report.update("net.conflict_bytes_per_node", conflict / n);
  // The spatial grid plus per-node configuration bookkeeping: the rest of
  // AdhocNetwork::memory_bytes().
  report.update("net.grid_bytes_per_node", (total - digraph - conflict) / n);
  report.update("net.conflict_edges_per_node",
                static_cast<double>(network.conflict_graph().pair_count()) / n);
}

/// Per-kind mutate and repair means, and the shadow G' figures, from
/// replica spans; shared with churn-100k and paper-figures.
void report_replica_layers(Report& report, const std::map<std::string, SpanTotals>& spans,
                           const ShadowStats& shadow, const net::AdhocNetwork& network,
                           bool minim) {
  for (const char* kind : {"join", "leave", "move", "power"}) {
    report.update(std::string("net.mutate_us.") + kind,
                  span_mean_us(spans, std::string("net.mutate.") + kind));
    if (minim)
      report.update(std::string("strategies.minim_repair_us.") + kind,
                    span_mean_us(spans, std::string("strategies.repair.") + kind));
  }
  if (minim && shadow.events > 0) {
    const auto n = static_cast<double>(shadow.events);
    report.update("core.gprime_build_us", span_mean_us(spans, "core.gprime_build"));
    report.update("matching.hungarian_us", span_mean_us(spans, "matching.hungarian"));
    report.update("core.v1_size", shadow.v1_size / n);
    report.update("core.gprime_edges", shadow.gprime_edges / n);
    report.update("core.pool_colors", shadow.pool_colors / n);
  }
  report_network_bytes(report, network);
}

namespace {

/// Path 2: the conversation through serve_session on an in-memory stream
/// that releases one payload per burst.  Returns the seconds taken.
double session_path(const ServeSpec& spec, const Conversation& c, FinalState& state) {
  const auto strategy = strategies::make_strategy(spec.strategy);
  serve::AssignmentEngine engine(*strategy, engine_params(spec));
  ChunkBuffer buffer(all_payloads(c));
  std::istream in(&buffer);
  std::ostringstream out;
  serve::StreamTransport transport(in, out, "memory");
  const auto start = Clock::now();
  serve::serve_session(engine, transport, session_options(spec));
  const double seconds = seconds_since(start);
  const sim::Simulation& s = engine.simulation();
  state = capture(s.network(), s.assignment(), s.totals());
  return seconds;
}

/// Path 3: the engine alone, one apply_batch per payload.
double engine_path(const ServeSpec& spec, const std::vector<sim::Trace>& chunks,
                   FinalState& state) {
  const auto strategy = strategies::make_strategy(spec.strategy);
  serve::AssignmentEngine engine(*strategy, engine_params(spec));
  const auto start = Clock::now();
  for (const sim::Trace& chunk : chunks) engine.apply_batch(chunk);
  const double seconds = seconds_since(start);
  const sim::Simulation& s = engine.simulation();
  state = capture(s.network(), s.assignment(), s.totals());
  return seconds;
}

std::unique_ptr<core::RecodingStrategy> replica_strategy(const ServeSpec& spec) {
  auto strategy = strategies::make_strategy(spec.strategy);
  if (auto* bbb = dynamic_cast<minim::strategies::BbbStrategy*>(strategy.get()))
    bbb->set_recolor_threads(spec.recolor_threads);
  return strategy;
}

/// Path 4 untraced: the replica of Simulation's per-event step.
double replica_path(const ServeSpec& spec, const std::vector<sim::Trace>& chunks,
                    FinalState& state) {
  const auto strategy = replica_strategy(spec);
  Replica replica(*strategy, 100.0, 100.0, nullptr, false);
  const auto start = Clock::now();
  for (const sim::Trace& chunk : chunks) replica.apply_batch(chunk);
  const double seconds = seconds_since(start);
  state = capture(replica.network(), replica.assignment(), replica.totals());
  return seconds;
}

void report_bbb_counters(Report& report, const minim::strategies::BbbStrategy& bbb,
                         const std::map<std::string, SpanTotals>& spans,
                         std::size_t repairs, std::size_t events) {
  const auto& k = bbb.counters();
  const auto ev = static_cast<double>(std::max<std::uint64_t>(1, k.events));
  double repair_s = 0.0;
  for (const char* kind : {"batch", "join", "leave", "move", "power"})
    repair_s += span_total_s(spans, std::string("strategies.repair.") + kind);
  report.update("strategies.bbb_repair_us", repair_s * 1e6 / static_cast<double>(events));
  report.update("strategies.bbb_ranks_per_event",
                static_cast<double>(k.processed_ranks + k.full_ranks) / ev);
  report.update("strategies.bbb_fallback_frac",
                1.0 - static_cast<double>(k.bounded_events) / ev);
  report.update("strategies.bbb_parallel_frac",
                static_cast<double>(k.parallel_events) /
                    static_cast<double>(std::max<std::size_t>(1, repairs)));
  report.update("strategies.bbb_components_per_batch",
                k.parallel_events == 0 ? 0.0
                                       : static_cast<double>(k.parallel_components) /
                                             static_cast<double>(k.parallel_events));
  report.update("strategies.bbb_demotions", static_cast<double>(k.parallel_demotions));
  std::cout << "[bbb] repairs " << repairs << ", events " << k.events << ", bounded "
            << k.bounded_events << ", full " << k.full_events << ", parallel "
            << k.parallel_events << " (" << k.parallel_components
            << " components), demotions " << k.parallel_demotions << "\n";
}

Report traced(const ServeSpec& spec, const ServeTranscript& t) {
  constexpr int kRepeats = 5;  // runs of each untraced path
  const Conversation c = make_conversation(t, spec.burst);
  const std::vector<sim::Trace> chunks = event_chunks(t, c);
  const std::size_t events = c.ramp_events + c.steady_events;
  Report report = blank_report(true);
  std::string failure;
  const auto note = [&failure](const std::string& what, const std::string& diff) {
    if (failure.empty() && !diff.empty()) failure = what + ": " + diff;
  };

  // The four paths, untraced, interleaved.  Path 1's first round is the
  // untraced run every other path must end equal to.
  std::vector<double> t1s, t2s, t3s, t4s;
  RoundResult untraced_round;
  FinalState state;
  for (int rep = 0; rep < kRepeats; ++rep) {
    RoundResult round = serve_round(spec, c);
    t1s.push_back(round.ramp_s + round.steady_s);
    if (rep == 0) untraced_round = std::move(round);
    else note("TCP round", compare_states(untraced_round.state, round.state, true));
    t2s.push_back(session_path(spec, c, state));
    note("in-memory session", compare_states(untraced_round.state, state, true));
    t3s.push_back(engine_path(spec, chunks, state));
    note("engine path", compare_states(untraced_round.state, state, true));
    t4s.push_back(replica_path(spec, chunks, state));
    note("replica", compare_states(untraced_round.state, state, true));
  }
  // The fastest repeat is the path's cost with the least interference.
  const auto fastest = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  const double t1 = fastest(t1s), t2 = fastest(t2s), t3 = fastest(t3s), t4 = fastest(t4s);
  report.update("serve.coalesced_frac",
                static_cast<double>(untraced_round.stats.coalesced_events) /
                    static_cast<double>(untraced_round.stats.events));

  // The traced replica: spans per layer, the minim shadow, BBB counters.
  const bool minim = spec.strategy == "minim";
  Tracer tracer;
  const auto strategy = replica_strategy(spec);
  Replica replica(*strategy, 100.0, 100.0, &tracer, minim);
  for (const sim::Trace& chunk : chunks) replica.apply_batch(chunk);
  sim::validate_assignment(replica.network(), replica.assignment());
  note("traced replica",
       compare_states(untraced_round.state,
                      capture(replica.network(), replica.assignment(), replica.totals()),
                      true));
  const auto spans = tracer.totals();
  const double traced_s = span_total_s(spans, "replica.event") +
                          span_total_s(spans, "replica.batch") -
                          replica.shadow_ns() * 1e-9;
  report.update("trace.overhead_pct", 100.0 * (traced_s - t4) / t4);

  const double per_event = 1e6 / static_cast<double>(events);
  report.update("serve.transport_us", (t1 - t2) * per_event);
  report.update("serve.session_us", (t2 - t3) * per_event);
  report.update("serve.engine_us", (t3 - t4) * per_event);
  report_replica_layers(report, spans, replica.shadow(), replica.network(), minim);
  if (const auto* bbb = dynamic_cast<const minim::strategies::BbbStrategy*>(strategy.get()))
    report_bbb_counters(report, *bbb, spans, replica.repairs(), events);

  print_spans(spans);
  std::cout << "[paths] per event (us), fastest of " << kRepeats << ": tcp "
            << t1 * per_event << ", session " << t2 * per_event << ", engine "
            << t3 * per_event << ", replica " << t4 * per_event << ", traced replica "
            << traced_s * per_event << " (" << events << " events, " << tracer.size()
            << " spans)\n";
  report.attempted = (4 * kRepeats + 1) * events;
  if (!failure.empty()) {
    std::cout << "[check] FAIL: " << failure << "\n";
    report.correct = false;
    report.failed = report.attempted;
  } else {
    std::cout << "[check] PASS: every path, traced replica included, ends in the "
                 "untraced run's codes and totals\n";
  }
  return report;
}

}  // namespace

Report run_serve(const RunArgs& args, bool bbb) {
  // Several transcripts per run average over more networks than one seed's
  // would give; the traced run replays the first.
  constexpr std::size_t kTranscripts = 3;
  const ServeSpec spec = spec_for(bbb);
  std::vector<ServeTranscript> transcripts;
  for (std::size_t k = 0; k < (args.trace ? 1 : kTranscripts); ++k)
    transcripts.push_back(make_serve_transcript(args.seed, {}, k));
  std::cout << "[serve] strategy " << spec.strategy << ", burst " << spec.burst
            << ", recolor_threads " << spec.recolor_threads << "; "
            << transcripts.size() << " transcript(s) of "
            << transcripts[0].ramp.size() << " ramp joins + "
            << transcripts[0].steady.size() << " steady events\n";
  return args.trace ? traced(spec, transcripts[0])
                    : untraced(args, spec, transcripts);
}

}  // namespace perfbench
