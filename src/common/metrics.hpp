// Process-wide runtime telemetry: counters, gauges, log-bucketed latency
// histograms, and wall-clock trace spans.
//
// The registry is the real-time counterpart of the charged-cost meters
// (mpc::Stats counts rounds/words, CostReceipt amortizes one build): it
// measures what the serving tier actually does — queries per kind with
// latency percentiles, cache traffic, update classifications, journal fsync
// cost, recovery phases — and renders the lot as Prometheus text exposition
// or JSON.  TraceScope extends the charged-rounds PhaseScope idea to wall
// time and exports chrome://tracing-compatible JSON.
//
// Hot-path cost model: every mutation is a handful of relaxed atomic ops on
// a cache-line-aligned per-thread stripe — no locks, no allocation, no
// false sharing between recording threads.  Registration (find-or-create by
// name+labels) takes a mutex, so callers cache the returned reference;
// registered series live for the life of the process (a deque keeps their
// addresses stable), exactly the Prometheus default-registry contract.
//
// Two off switches:
//   - metrics_set_enabled(false): runtime flag, one relaxed load per
//     mutation (the in-binary overhead A/B of the benches);
//   - -DMPCMST_NO_METRICS: compile-out — every class below collapses to an
//     empty-bodied stub and the instrumentation folds to nothing.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace mpcmst {

/// What a histogram's raw values mean; render_prometheus() scales
/// kNanoseconds series to base-unit seconds, kCount passes through.
enum class MetricUnit : std::uint8_t { kNanoseconds, kCount };

/// Merged (or stubbed-out empty) view of one histogram: totals plus the 65
/// power-of-two buckets.  Plain data + pure math, defined in both build
/// modes so consumers (stats snapshots, bench JSON) compile unchanged.
struct HistogramSnapshot {
  /// Bucket 0 holds exact zeros; bucket i >= 1 holds values in
  /// [2^(i-1), 2^i - 1]; bucket 64 tops out the uint64 range.
  static constexpr std::size_t kBuckets = 65;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  /// Bucket index of a value: 0 for 0, else bit_width (so boundaries sit
  /// exactly at the powers of two).
  static std::size_t bucket_of(std::uint64_t v) {
    return v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v));
  }

  /// Inclusive upper bound of bucket i (the value a percentile reports).
  static std::uint64_t bucket_upper(std::size_t i) {
    if (i == 0) return 0;
    if (i >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

  /// Quantile q in [0, 1]: rank ceil(q * count) clamped to [1, count],
  /// walk the cumulative buckets, report the bucket's upper bound clamped
  /// to the recorded max (so a single sample reports itself exactly).
  /// Empty histograms report 0.
  std::uint64_t percentile(double q) const;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Fold another snapshot in (shard merge: counts add, maxes max).
  void merge(const HistogramSnapshot& other);
};

/// Everything the registry holds, frozen at one instant.  Keys are
/// "name" or "name{labels}" exactly as rendered.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  std::uint64_t counter_or(const std::string& key, std::uint64_t dflt = 0)
      const {
    const auto it = counters.find(key);
    return it == counters.end() ? dflt : it->second;
  }

  HistogramSnapshot histogram_or(const std::string& key) const {
    const auto it = histograms.find(key);
    return it == histograms.end() ? HistogramSnapshot{} : it->second;
  }
};

#ifndef MPCMST_NO_METRICS

inline constexpr bool kMetricsCompiledOut = false;

namespace metrics_detail {

inline std::atomic<bool> g_enabled{true};

/// Stable small ordinal per thread (assigned on first use); stripe index =
/// ordinal mod stripe count, so a thread always hits the same stripe and
/// two threads rarely share one.
std::size_t thread_ordinal();

}  // namespace metrics_detail

/// Runtime kill switch (also the benches' in-binary overhead A/B).  The
/// registry itself stays queryable while disabled; only mutations stop.
inline bool metrics_enabled() {
  return metrics_detail::g_enabled.load(std::memory_order_relaxed);
}
void metrics_set_enabled(bool on);

/// Monotonic wall clock in nanoseconds (steady_clock).
std::uint64_t metrics_now_ns();

/// Monotonically increasing counter.  inc() is one relaxed fetch_add on a
/// cache-line-private stripe.
class Counter {
 public:
  static constexpr std::size_t kStripes = 16;

  void inc(std::uint64_t n = 1) {
    if (!metrics_enabled()) return;
    stripe().fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const Stripe& s : stripes_) t += s.v.load(std::memory_order_relaxed);
    return t;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };

  std::atomic<std::uint64_t>& stripe() {
    return stripes_[metrics_detail::thread_ordinal() % kStripes].v;
  }

  std::array<Stripe, kStripes> stripes_;
};

/// Point-in-time signed value (queue depths, thread counts).  Single
/// atomic: gauges move at structural frequency, not per-query frequency.
/// add/sub ignore the runtime enable flag on purpose — paired moves must
/// stay balanced even if the flag flips between them, or the level drifts.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  void sub(std::int64_t d) { add(-d); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log-bucketed distribution (65 power-of-two buckets, see
/// HistogramSnapshot).  record() touches one per-thread stripe: a bucket
/// fetch_add, a sum fetch_add, and a max CAS that almost always short-
/// circuits.  snapshot() merges the stripes without stopping writers
/// (relaxed reads — totals are exact once writers quiesce).
class Histogram {
 public:
  static constexpr std::size_t kStripes = 8;

  void record(std::uint64_t v) { record_n(v, 1); }

  /// `count` samples of the same value `v` in one bucket add: the snapshot
  /// reads exactly as after `count` calls of record(v).
  void record_n(std::uint64_t v, std::uint64_t count) {
    if (count == 0 || !metrics_enabled()) return;
    Stripe& s = stripes_[metrics_detail::thread_ordinal() % kStripes];
    s.buckets[HistogramSnapshot::bucket_of(v)].fetch_add(
        count, std::memory_order_relaxed);
    s.sum.fetch_add(v * count, std::memory_order_relaxed);
    std::uint64_t cur = s.max.load(std::memory_order_relaxed);
    while (v > cur &&
           !s.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot snapshot() const;

  MetricUnit unit() const { return unit_; }

 private:
  friend class MetricsRegistry;

  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, HistogramSnapshot::kBuckets>
        buckets{};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };

  MetricUnit unit_ = MetricUnit::kNanoseconds;
  std::array<Stripe, kStripes> stripes_;
};

/// Process-wide singleton owning every registered series.  Lookups are
/// find-or-create by (name, labels); the same pair always returns the same
/// object, and the object is never freed — callers hold raw references.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// `labels` is the literal Prometheus label body, e.g. `kind="price"`
  /// (empty for an unlabeled series).  Series of one name must share one
  /// type — registering the same (name, labels) as two different types
  /// throws InvariantError.
  Counter& counter(const std::string& name, const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& labels = "");
  Histogram& histogram(const std::string& name,
                       const std::string& labels = "",
                       MetricUnit unit = MetricUnit::kNanoseconds);

  /// Prometheus text exposition format: # TYPE lines, labeled samples,
  /// cumulative _bucket/_sum/_count series for histograms (nanosecond
  /// series scaled to seconds).
  void render_prometheus(std::ostream& os) const;

  /// The same data as one JSON object {counters, gauges, histograms} with
  /// raw (unscaled) values plus derived mean/p50/p90/p99.
  void render_json(std::ostream& os) const;

  MetricsSnapshot snapshot() const;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry();
  ~MetricsRegistry();
  struct Impl;
  Impl* impl_;
};

/// RAII latency sample: records destructor-minus-constructor nanoseconds
/// into a histogram.  Skips the clock entirely while metrics are disabled.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& h)
      : h_(&h), t0_(metrics_enabled() ? metrics_now_ns() : 0) {}
  ~ScopedLatency() {
    if (t0_ != 0) h_->record(metrics_now_ns() - t0_);
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* h_;
  std::uint64_t t0_;
};

/// Bounded in-memory trace sink (chrome://tracing "trace event format",
/// complete "X" events).  Appends take a mutex — spans mark phases, not
/// per-query work, so the lock is cold; past the cap events are dropped
/// and counted rather than grown without bound.
class TraceBuffer {
 public:
  static constexpr std::size_t kMaxEvents = 1 << 16;

  static TraceBuffer& instance();

  void append(const std::string& name, std::uint64_t ts_us,
              std::uint64_t dur_us);

  /// {"traceEvents": [...]} — load via chrome://tracing or Perfetto.
  void render_chrome_json(std::ostream& os) const;

  void clear();
  std::size_t size() const;
  std::size_t dropped() const;

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

 private:
  TraceBuffer();
  ~TraceBuffer();
  struct Impl;
  Impl* impl_;
};

/// Wall-clock span: the real-time sibling of mpc::PhaseScope.  On
/// destruction emits one trace event, and optionally records the duration
/// into a histogram (so a span can be a percentile series at once).
class TraceScope {
 public:
  explicit TraceScope(std::string name, Histogram* also_record = nullptr)
      : name_(std::move(name)),
        hist_(also_record),
        t0_(metrics_enabled() ? metrics_now_ns() : 0) {}

  ~TraceScope() {
    if (t0_ == 0) return;
    const std::uint64_t dur = metrics_now_ns() - t0_;
    if (hist_ != nullptr) hist_->record(dur);
    TraceBuffer::instance().append(name_, t0_ / 1000, dur / 1000);
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  std::string name_;
  Histogram* hist_;
  std::uint64_t t0_;
};

#else  // MPCMST_NO_METRICS: the whole surface becomes free no-ops.

inline constexpr bool kMetricsCompiledOut = true;

inline bool metrics_enabled() { return false; }
inline void metrics_set_enabled(bool) {}
inline std::uint64_t metrics_now_ns() { return 0; }

class Counter {
 public:
  void inc(std::uint64_t = 1) {}
  std::uint64_t total() const { return 0; }
};

class Gauge {
 public:
  void set(std::int64_t) {}
  void add(std::int64_t) {}
  void sub(std::int64_t) {}
  std::int64_t value() const { return 0; }
};

class Histogram {
 public:
  void record(std::uint64_t) {}
  void record_n(std::uint64_t, std::uint64_t) {}
  HistogramSnapshot snapshot() const { return {}; }
  MetricUnit unit() const { return MetricUnit::kNanoseconds; }
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();
  Counter& counter(const std::string&, const std::string& = "");
  Gauge& gauge(const std::string&, const std::string& = "");
  Histogram& histogram(const std::string&, const std::string& = "",
                       MetricUnit = MetricUnit::kNanoseconds);
  void render_prometheus(std::ostream& os) const;
  void render_json(std::ostream& os) const;
  MetricsSnapshot snapshot() const { return {}; }
};

class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram&) {}
};

class TraceBuffer {
 public:
  static TraceBuffer& instance();
  void append(const std::string&, std::uint64_t, std::uint64_t) {}
  void render_chrome_json(std::ostream& os) const;
  void clear() {}
  std::size_t size() const { return 0; }
  std::size_t dropped() const { return 0; }
};

class TraceScope {
 public:
  explicit TraceScope(const std::string&, Histogram* = nullptr) {}
};

#endif  // MPCMST_NO_METRICS

}  // namespace mpcmst
