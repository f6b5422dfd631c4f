#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file measure.hpp
/// \brief What every workload shares: clocks, the latency-reporting rule,
/// in-memory spans with self-time arithmetic, and the result line.
///
/// Latency rule: a timing is reported as its median and the highest
/// percentile that has at least `kMinBeyond` samples beyond it, always with
/// the sample count.  Spans follow the usual shape (name, start, end,
/// parent); they stay in memory until the run ends, and a span's self time
/// is its duration minus the part of its interval its children cover.

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (CLOCK_MONOTONIC on Linux, so stamps taken in two
/// processes of one machine are comparable).
std::uint64_t now_ns();

double seconds_since(Clock::time_point start);

double median(std::vector<double> values);

/// The share of a run's blocks (rounds, event blocks) that its time metrics
/// are taken over: the quickest tenth.  Other tenants of a shared host only
/// ever slow a block down, and how much swings by a quarter from one minute
/// to the next, so the least disturbed blocks are the steady estimate of the
/// program's own speed.  A slower program slows every block.
constexpr double kQuickShare = 0.1;

/// The median of the lowest `share` of `values` (at least one of them;
/// 0 when `values` is empty).
double quick_median(std::vector<double> values, double share = kQuickShare);

/// Exact-sample latency distribution (microseconds).
class LatencySamples {
 public:
  static constexpr std::size_t kMinBeyond = 10;

  void add(double us) { samples_.push_back(us); sorted_ = false; }
  void append(const LatencySamples& other);
  std::size_t count() const { return samples_.size(); }

  /// Nearest-rank quantile: the smallest sample with at least q*n samples
  /// at or below it.  Requires count() > 0.
  double quantile(double q) const;

  /// Samples strictly beyond the nearest-rank position of `q` among `n`.
  static std::size_t beyond(double q, std::size_t n);
  /// True when at least kMinBeyond samples lie beyond quantile `q`.
  static bool supported(double q, std::size_t n) {
    return beyond(q, n) >= kMinBeyond;
  }
  /// The highest of p50, p90, p99, p99.9, p99.99 that `n` samples support
  /// (0 when not even the median is).
  static double highest_supported(std::size_t n);

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// One recorded interval.  `parent` indexes the enclosing span (-1: root).
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;
};

struct SpanTotals {
  double total_ns = 0.0;  ///< summed durations
  double self_ns = 0.0;   ///< summed self times
  std::size_t count = 0;
};

/// Spans of one thread, kept in memory until `totals()` is read.
class Tracer {
 public:
  std::int32_t begin(const char* name, std::int32_t parent = -1);
  void end(std::int32_t id);
  /// Records an already-measured interval.
  std::int32_t add(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::int32_t parent = -1);

  std::size_t size() const { return spans_.size(); }

  /// Per span name: summed duration, summed self time, and count.  Child
  /// intervals are clipped to their parent and merged before subtracting,
  /// so overlapping children are not subtracted twice.
  std::map<std::string, SpanTotals> totals() const;

 private:
  std::vector<Span> spans_;
};

/// Prints `[spans] name count total_ms self_ms`, one line per span name.
void print_spans(const std::map<std::string, SpanTotals>& totals);

/// RAII span on a tracer; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int32_t parent = -1)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// The run's result: printed as the last stdout line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void set(const std::string& name, double value, const std::string& unit);
  /// Overwrites the value of an already-set metric (throws on a name the
  /// report does not carry, so a typo cannot add a metric).
  void update(const std::string& name, double value);
  /// One JSON object: correct, attempted, failed, metrics{name: {value, unit}}.
  std::string json() const;
};

/// Prints `[latency] ...` with the median, p99, their sample count and the
/// highest supported percentile; returns false when p99 lacks support.
bool print_latency(const std::string& label, const LatencySamples& samples);

/// max(own VmHWM, largest reaped child's maxrss), in MiB.
double peak_rss_mb();

/// Build facts (compiler, flags, build type) as a JSON object.
std::string build_fingerprint_json();

/// Throws std::runtime_error with `what` when `ok` is false.
void require(bool ok, const std::string& what);

}  // namespace perfbench
