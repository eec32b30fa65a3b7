// Measurement plumbing of the benchmark: sample sets with the tail rule,
// the span recorder of traced runs, and the result record main.cpp writes.
//
// Spans are recorded only from the benchmark's own code, around calls into
// the library's public layers; the library itself is not instrumented for
// the benchmark.  Each thread that records owns one SpanBuffer, so
// recording takes no lock.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Values of one timing (or size); quantiles by nearest rank.
class Samples {
 public:
  void add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  void append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_ = false;
  }
  std::size_t size() const { return v_.size(); }

  double sum() const {
    double s = 0;
    for (const double v : v_) s += v;
    return s;
  }

  /// Nearest-rank quantile: the value at rank ceil(q * n); 0 when empty.
  double quantile(double q) const {
    if (v_.empty()) return 0.0;
    sort();
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v_.size())));
    return v_[std::clamp<std::size_t>(rank, 1, v_.size()) - 1];
  }

  /// Samples ranked above the q quantile.  A tail percentile is reported
  /// only when at least ten samples lie beyond it.
  std::size_t beyond(double q) const {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v_.size())));
    return v_.size() - std::min(rank, v_.size());
  }

 private:
  void sort() const {
    if (!sorted_) std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
};

/// One recorded span: a layer call made by the benchmark.
struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index in the same buffer, -1 for a root
  std::uint64_t request = 0;
};

/// The spans of one recording thread.  Spans nest: a span opened while
/// another is open on the same buffer becomes its child.
class SpanBuffer {
 public:
  static constexpr std::size_t kMaxSpans = 1 << 19;

  SpanBuffer(bool on, std::uint32_t tid, Clock::time_point epoch)
      : on_(on), tid_(tid), epoch_(epoch) {}

  std::uint32_t tid() const { return tid_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }

  /// Open a span; returns its index, or -1 when tracing is off or full.
  std::int64_t open(const char* name, std::uint64_t request) {
    if (!on_) return -1;
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return -1;
    }
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(SpanRecord{name, now_ns(), 0, parent, request});
    const auto idx = static_cast<std::int64_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }
  void close(std::int64_t idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

 private:
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }

  bool on_;
  std::uint32_t tid_;
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> stack_;
  std::size_t dropped_ = 0;
};

/// RAII span over one layer call.
class Span {
 public:
  Span(SpanBuffer& b, const char* name, std::uint64_t request = 0)
      : b_(b), idx_(b.open(name, request)) {}
  ~Span() { b_.close(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanBuffer& b_;
  std::int64_t idx_;
};

/// Owner of every thread's SpanBuffer (stable addresses), plus the two
/// reductions of a traced run: chrome-trace JSON and per-layer self time.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  /// A fresh buffer for the calling thread (one per recording thread).
  SpanBuffer& buffer() {
    std::lock_guard lock(mu_);
    bufs_.emplace_back(on_, static_cast<std::uint32_t>(bufs_.size()), epoch_);
    return bufs_.back();
  }

  /// Durations (seconds) of every closed span called `name`.
  Samples durations(const std::string& name) const;

  /// Per span name: total self time (duration minus the part covered by
  /// its children) in seconds, and the span count.
  std::map<std::string, std::pair<double, std::size_t>> self_times() const;

  std::size_t span_count() const;
  std::size_t dropped() const;

  /// chrome://tracing "trace event format" (complete "X" events).
  void write_chrome_json(const std::string& path) const;

 private:
  bool on_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::deque<SpanBuffer> bufs_;
};

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one run reports; main.cpp serializes it for run.py.
struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure descriptions
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::uint64_t> sample_counts;  // behind each timing
  std::map<std::string, std::uint64_t> pins;  // exact per workload and seed
  std::map<std::string, std::pair<double, std::size_t>> self_time;
  std::map<std::string, std::string> build;  // compiler and build switches

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Print one progress line, stamped with seconds since the process began.
void progress(const std::string& what);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Write `r` as one JSON object.
void write_result_json(const Result& r, const std::string& path);

}  // namespace perfbench
