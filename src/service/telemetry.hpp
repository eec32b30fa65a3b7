// The serving tier's named metric bundle over common/metrics.hpp.
//
// Every series the service layer emits is registered once, here, under a
// stable name (catalogued in src/service/README.md "Observability"), and
// handed out as a struct of raw pointers — the hot paths index an array
// instead of hashing a metric name.  The bundle is process-wide like the
// registry itself: two QueryService instances in one process add into the
// same series, which is exactly the Prometheus default-registry contract
// (per-instance numbers stay available via QueryService::stats()).
//
// This header deliberately depends only on common/metrics.hpp: the query
// kinds and update classes appear as label tables indexed by the enums'
// underlying values, so journal.cpp can emit fsync timings without pulling
// in the backend headers (the journal layer stays decoupled from
// update.hpp by design).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/metrics.hpp"

namespace mpcmst::service {

/// Mirrors QueryKind (query.hpp) / UpdateClass (update.hpp) — static_asserts
/// in telemetry.cpp pin the orders together.
inline constexpr std::size_t kNumQueryKinds = 5;
inline constexpr std::size_t kNumUpdateClasses = 10;  // incl. no_change

/// Label value for query kind i, e.g. "price_change".
const char* query_kind_label(std::size_t kind);

/// Label value for update class c, e.g. "tree_swap".
const char* update_class_label(std::size_t cls);

/// All serving-tier series, registered on first use.
struct ServiceMetrics {
  // Query path.
  std::array<Counter*, kNumQueryKinds> queries;        // per-kind totals
  std::array<Histogram*, kNumQueryKinds> query_latency;  // per-kind ns
  Counter* batches;
  Histogram* batch_size;     // queries per answer_batch call (kCount)
  Histogram* batch_latency;  // whole-batch wall time

  // still_mst result cache (fed by LruCache via set_metric_counters).
  Counter* cache_hits;
  Counter* cache_misses;
  Counter* cache_evictions;

  // Update path.
  std::array<Counter*, kNumUpdateClasses> updates;         // per-class totals
  std::array<Histogram*, kNumUpdateClasses> update_latency;  // per-class ns
  Counter* update_rejects;  // resolution failures (unknown edge, ...)

  // Persistence.
  Histogram* journal_append;  // whole append() incl. fsync
  Histogram* journal_fsync;   // the fsync alone (kCommit mode)
  Histogram* snapshot_write;
  Histogram* snapshot_load;
  Counter* checkpoints;

  // Recovery (one sample per recovery).
  Counter* recoveries;
  Histogram* recovery_snapshot_load;
  Histogram* recovery_tail_scan;
  Histogram* recovery_replay;
};

/// The process-wide bundle (references into MetricsRegistry::instance()).
ServiceMetrics& service_metrics();

/// One histogram reduced to the operator-facing numbers.
struct LatencySummary {
  std::uint64_t count = 0;
  double mean_ns = 0.0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p90_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t max_ns = 0;
};

LatencySummary summarize(const HistogramSnapshot& h);

/// Registry slice served back through QueryService::stats(): process-wide
/// totals and percentiles for the serving tier (all zeros under
/// MPCMST_NO_METRICS).
struct TelemetrySnapshot {
  std::array<std::uint64_t, kNumQueryKinds> queries_by_kind{};
  std::array<LatencySummary, kNumQueryKinds> query_latency{};
  LatencySummary batch_size{};  // unit: queries, not ns
  std::array<std::uint64_t, kNumUpdateClasses> updates_by_class{};
  LatencySummary journal_append{};
  LatencySummary journal_fsync{};
  LatencySummary snapshot_write{};
  LatencySummary snapshot_load{};
  std::uint64_t checkpoints = 0;
  std::uint64_t recoveries = 0;
};

TelemetrySnapshot telemetry_snapshot();

}  // namespace mpcmst::service
