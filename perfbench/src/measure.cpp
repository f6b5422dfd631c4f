#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double quick_median(std::vector<double> values, double share) {
  std::sort(values.begin(), values.end());
  const auto keep = static_cast<std::size_t>(share * static_cast<double>(values.size()));
  values.resize(std::min(values.size(), std::max<std::size_t>(keep, 1)));
  return median(std::move(values));
}

// ------------------------------------------------------------- latencies

void LatencySamples::append(const LatencySamples& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = false;
}

namespace {
/// Nearest-rank position (1-based) of quantile q among n samples.  The
/// epsilon keeps q*n that is integral in exact arithmetic (0.99 * 1000)
/// from rounding up past it.
std::size_t rank_of(double q, std::size_t n) {
  const double raw = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(raw, 1.0)),
                                 1, std::max<std::size_t>(n, 1));
}
}  // namespace

double LatencySamples::quantile(double q) const {
  require(!samples_.empty(), "quantile of an empty sample set");
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  return samples_[rank_of(q, samples_.size()) - 1];
}

std::size_t LatencySamples::beyond(double q, std::size_t n) {
  if (n == 0) return 0;
  return n - rank_of(q, n);
}

double LatencySamples::highest_supported(std::size_t n) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999})
    if (supported(q, n)) best = q;
  return best;
}

bool print_latency(const std::string& label, const LatencySamples& samples) {
  const std::size_t n = samples.count();
  if (n == 0) {
    std::cout << "[latency] " << label << ": no samples\n";
    return false;
  }
  const double best = LatencySamples::highest_supported(n);
  std::cout << "[latency] " << label << ": samples=" << n
            << " p50_us=" << samples.quantile(0.5)
            << " p99_us=" << samples.quantile(0.99)
            << " (beyond p99: " << LatencySamples::beyond(0.99, n)
            << ") highest supported percentile=p" << best * 100.0;
  if (best > 0.0) std::cout << " = " << samples.quantile(best) << " us";
  std::cout << "\n";
  return LatencySamples::supported(0.99, n);
}

// ------------------------------------------------------------------ spans

std::int32_t Tracer::begin(const char* name, std::int32_t parent) {
  const std::uint64_t start = now_ns();
  return add(name, start, start, parent);
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

std::int32_t Tracer::add(const char* name, std::uint64_t start_ns,
                         std::uint64_t end_ns, std::int32_t parent) {
  spans_.push_back(Span{name, start_ns, end_ns, parent});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  // Children grouped by parent, each group in start order.
  struct Child {
    std::int32_t parent;
    std::uint64_t start, end;
  };
  std::vector<Child> children;
  for (const Span& span : spans_)
    if (span.parent >= 0)
      children.push_back(Child{span.parent, span.start_ns, span.end_ns});
  std::sort(children.begin(), children.end(), [](const Child& a, const Child& b) {
    return a.parent != b.parent ? a.parent < b.parent : a.start < b.start;
  });

  std::vector<double> covered(spans_.size(), 0.0);
  for (std::size_t i = 0; i < children.size();) {
    const auto parent = static_cast<std::size_t>(children[i].parent);
    const Span& p = spans_[parent];
    std::uint64_t run_start = 0, run_end = 0;
    bool open = false;
    double cover = 0.0;
    for (; i < children.size() &&
           static_cast<std::size_t>(children[i].parent) == parent;
         ++i) {
      const std::uint64_t s = std::max(children[i].start, p.start_ns);
      const std::uint64_t e = std::min(children[i].end, p.end_ns);
      if (e <= s) continue;
      if (open && s <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) cover += static_cast<double>(run_end - run_start);
      run_start = s;
      run_end = e;
      open = true;
    }
    if (open) cover += static_cast<double>(run_end - run_start);
    covered[parent] = cover;
  }

  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const auto duration = static_cast<double>(span.end_ns - span.start_ns);
    SpanTotals& t = out[span.name];
    t.total_ns += duration;
    t.self_ns += duration - covered[i];
    ++t.count;
  }
  return out;
}

void print_spans(const std::map<std::string, SpanTotals>& totals) {
  std::cout << "[spans] name count total_ms self_ms\n";
  for (const auto& [name, t] : totals)
    std::cout << "[spans] " << name << " " << t.count << " " << t.total_ns * 1e-6
              << " " << t.self_ns * 1e-6 << "\n";
}

// ----------------------------------------------------------------- report

void Report::set(const std::string& name, double value, const std::string& unit) {
  for (auto& [key, entry] : metrics)
    if (key == name) {
      entry = {value, unit};
      return;
    }
  metrics.push_back({name, {value, unit}});
}

void Report::update(const std::string& name, double value) {
  for (auto& [key, entry] : metrics)
    if (key == name) {
      entry.first = value;
      return;
    }
  throw std::logic_error("report has no metric '" + name + "'");
}

namespace {
std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}
}  // namespace

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, entry] = metrics[i];
    os << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
       << number(entry.first) << ", \"unit\": \"" << entry.second << "\"}";
  }
  os << "}}";
  return os.str();
}

// ---------------------------------------------------------------- machine

double peak_rss_mb() {
  double self_kb = 0.0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::strtod(line.c_str() + 6, nullptr);
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self_kb, static_cast<double>(children.ru_maxrss)) / 1024.0;
}

std::string build_fingerprint_json() {
  std::ostringstream os;
  os << "{\"compiler\": \"" << PERFBENCH_COMPILER << "\", \"flags\": \""
     << PERFBENCH_FLAGS << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\"}";
  return os.str();
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

}  // namespace perfbench
