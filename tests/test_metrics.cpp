// Unit tests for the telemetry layer (src/common/metrics.hpp,
// src/service/telemetry.hpp): the log-bucket and percentile math of
// HistogramSnapshot (boundaries, empty, single sample, shard merge),
// exactness of the striped counters/histograms under thread fan-out,
// registry identity and type-conflict rules, a line-format validator for
// the Prometheus rendering, and the acceptance sweep — one mixed workload
// (batched queries, updates across the classification lattice, checkpoint,
// recover) after which every instrumented series must have moved.
//
// The pure-math suites run in both build modes; everything that reads the
// registry GTEST_SKIPs under -DMPCMST_NO_METRICS (the stubs legitimately
// report nothing).
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "graph/generators.hpp"
#include "service/service.hpp"
#include "service/telemetry.hpp"
#include "test_util.hpp"

namespace fs = std::filesystem;
namespace g = mpcmst::graph;
namespace svc = mpcmst::service;
using mpcmst::HistogramSnapshot;
using mpcmst::MetricsRegistry;
using mpcmst::MetricsSnapshot;

namespace {

/// One manually filled snapshot (so the math tests run identically in both
/// build modes — no live Histogram required).
HistogramSnapshot make_snapshot(const std::vector<std::uint64_t>& values) {
  HistogramSnapshot s;
  for (const std::uint64_t v : values) {
    ++s.buckets[HistogramSnapshot::bucket_of(v)];
    ++s.count;
    s.sum += v;
    s.max = std::max(s.max, v);
  }
  return s;
}

}  // namespace

// --- bucket math -----------------------------------------------------------

TEST(HistogramMath, BucketBoundariesSitAtPowersOfTwo) {
  EXPECT_EQ(HistogramSnapshot::bucket_of(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(1), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(2), 2u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(3), 2u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(4), 3u);
  for (std::size_t k = 1; k < 64; ++k) {
    const std::uint64_t lo = std::uint64_t{1} << (k - 1);
    const std::uint64_t hi = (std::uint64_t{1} << k) - 1;
    EXPECT_EQ(HistogramSnapshot::bucket_of(lo), k) << "k=" << k;
    EXPECT_EQ(HistogramSnapshot::bucket_of(hi), k) << "k=" << k;
  }
  EXPECT_EQ(HistogramSnapshot::bucket_of(~std::uint64_t{0}), 64u);

  EXPECT_EQ(HistogramSnapshot::bucket_upper(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(1), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(2), 3u);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(63),
            (std::uint64_t{1} << 63) - 1);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(64), ~std::uint64_t{0});
  // Every value lands in the bucket whose range contains it.
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 7ull, 8ull, 1000ull}) {
    const std::size_t b = HistogramSnapshot::bucket_of(v);
    EXPECT_LE(v, HistogramSnapshot::bucket_upper(b));
    if (b > 0) {
      EXPECT_GT(v, HistogramSnapshot::bucket_upper(b - 1));
    }
  }
}

TEST(HistogramMath, EmptyReportsZero) {
  const HistogramSnapshot s;
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.percentile(0.5), 0u);
  EXPECT_EQ(s.percentile(1.0), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(HistogramMath, SingleSampleReportsItselfExactly) {
  const auto s = make_snapshot({5});
  // Bucket 3's upper bound is 7, but the recorded max clamps it to 5.
  EXPECT_EQ(s.percentile(0.0), 5u);
  EXPECT_EQ(s.percentile(0.5), 5u);
  EXPECT_EQ(s.percentile(1.0), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(HistogramMath, PercentilesWalkCumulativeBuckets) {
  const auto s = make_snapshot({4, 8});
  // rank ceil(0.5 * 2) = 1 -> bucket of 4 (upper bound 7).
  EXPECT_EQ(s.percentile(0.5), 7u);
  // rank 2 -> bucket of 8 (upper 15), clamped to the recorded max.
  EXPECT_EQ(s.percentile(1.0), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 6.0);

  // 100 zeros and one large value: p50 is exactly 0, p100 the max.
  std::vector<std::uint64_t> values(100, 0);
  values.push_back(1 << 20);
  const auto t = make_snapshot(values);
  EXPECT_EQ(t.percentile(0.5), 0u);
  EXPECT_EQ(t.percentile(1.0), std::uint64_t{1} << 20);
}

TEST(HistogramMath, MergeAddsCountsAndKeepsMax) {
  auto a = make_snapshot({1, 2, 3});
  const auto b = make_snapshot({100, 200});
  a.merge(b);
  EXPECT_EQ(a.count, 5u);
  EXPECT_EQ(a.sum, 306u);
  EXPECT_EQ(a.max, 200u);
  EXPECT_EQ(a.percentile(1.0), 200u);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : a.buckets) bucket_total += c;
  EXPECT_EQ(bucket_total, a.count);
}

// --- live registry (full build only) ---------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStableIdentity) {
  if constexpr (mpcmst::kMetricsCompiledOut)
    GTEST_SKIP() << "MPCMST_NO_METRICS";
  auto& reg = MetricsRegistry::instance();
  auto& a = reg.counter("test_identity_total", "x=\"1\"");
  auto& b = reg.counter("test_identity_total", "x=\"1\"");
  auto& c = reg.counter("test_identity_total", "x=\"2\"");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  // One (name, labels) pair cannot be two types.
  EXPECT_THROW(reg.gauge("test_identity_total", "x=\"1\""),
               mpcmst::InvariantError);
}

TEST(MetricsRegistry, CounterExactUnderThreadFanOut) {
  if constexpr (mpcmst::kMetricsCompiledOut)
    GTEST_SKIP() << "MPCMST_NO_METRICS";
  mpcmst::metrics_set_enabled(true);
  auto& ctr = MetricsRegistry::instance().counter("test_fanout_total");
  const std::uint64_t before = ctr.total();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&ctr] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) ctr.inc();
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(ctr.total() - before, kThreads * kPerThread);
}

TEST(MetricsRegistry, HistogramExactAcrossStripeMerge) {
  if constexpr (mpcmst::kMetricsCompiledOut)
    GTEST_SKIP() << "MPCMST_NO_METRICS";
  mpcmst::metrics_set_enabled(true);
  auto& h = MetricsRegistry::instance().histogram("test_stripe_merge_ns");
  const auto before = h.snapshot();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&h, t] {
      // Distinct value per thread, so the merged sum pins each stripe's
      // contribution: sum = Sum_t (t+1) * kPerThread.
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        h.record(static_cast<std::uint64_t>(t) + 1);
    });
  for (auto& w : workers) w.join();
  const auto after = h.snapshot();
  EXPECT_EQ(after.count - before.count, kThreads * kPerThread);
  std::uint64_t want_sum = 0;
  for (int t = 0; t < kThreads; ++t)
    want_sum += (static_cast<std::uint64_t>(t) + 1) * kPerThread;
  EXPECT_EQ(after.sum - before.sum, want_sum);
  EXPECT_GE(after.max, static_cast<std::uint64_t>(kThreads));
}

TEST(MetricsRegistry, RecordNMatchesRepeatedRecord) {
  if constexpr (mpcmst::kMetricsCompiledOut)
    GTEST_SKIP() << "MPCMST_NO_METRICS";
  mpcmst::metrics_set_enabled(true);
  auto& reg = MetricsRegistry::instance();
  auto& bulk = reg.histogram("test_record_n_bulk_ns");
  auto& loop = reg.histogram("test_record_n_loop_ns");
  // Values on and between bucket boundaries, and a zero count (a no-op).
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> samples = {
      {0, 3}, {1, 5}, {7, 0}, {8, 11}, {1000, 97}, {1u << 20, 2}};
  for (const auto& [v, n] : samples) {
    bulk.record_n(v, n);
    for (std::uint64_t i = 0; i < n; ++i) loop.record(v);
  }
  const auto a = bulk.snapshot();
  const auto b = loop.snapshot();
  EXPECT_EQ(a.count, 3u + 5u + 11u + 97u + 2u);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
  for (const double p : {0.0, 0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(a.percentile(p), b.percentile(p)) << p;
}

TEST(MetricsRegistry, RuntimeDisableStopsMutations) {
  if constexpr (mpcmst::kMetricsCompiledOut)
    GTEST_SKIP() << "MPCMST_NO_METRICS";
  auto& ctr = MetricsRegistry::instance().counter("test_disable_total");
  mpcmst::metrics_set_enabled(false);
  const std::uint64_t before = ctr.total();
  ctr.inc(100);
  EXPECT_EQ(ctr.total(), before);
  mpcmst::metrics_set_enabled(true);
  ctr.inc(3);
  EXPECT_EQ(ctr.total(), before + 3);
}

// --- Prometheus text exposition validator ----------------------------------

namespace {

/// Minimal validator for the Prometheus text format: every line is a
/// comment or a sample, every sample's family has a preceding # TYPE,
/// histogram buckets are cumulative with a trailing +Inf that equals
/// _count.
void validate_prometheus(const std::string& text) {
  static const std::regex type_re(
      R"(^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$)");
  static const std::regex sample_re(
      R"(^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? )"
      R"(([-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|[-+]?Inf|NaN)$)");
  std::map<std::string, std::string> family_type;  // name -> type
  // (family, labels-minus-le) -> [(le, value)] in order of appearance.
  std::map<std::string, std::vector<std::pair<std::string, double>>> buckets;
  std::map<std::string, double> counts;  // same grouping, _count value

  std::istringstream in(text);
  std::string line;
  std::smatch m;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (std::regex_match(line, m, type_re)) family_type[m[1]] = m[2];
      continue;  // other comments are legal
    }
    ASSERT_TRUE(std::regex_match(line, m, sample_re)) << "bad line: " << line;
    std::string name = m[1];
    const std::string labels = m[2];
    const double value = std::stod(m[3]);
    // Histogram series sample under the family name + a suffix.
    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0 &&
          family_type.count(name.substr(0, name.size() - s.size())))
        family = name.substr(0, name.size() - s.size());
    }
    ASSERT_TRUE(family_type.count(family))
        << "sample before its # TYPE: " << line;
    ASSERT_GE(value, 0.0) << "negative sample in " << line;

    if (family_type[family] == "histogram") {
      // Group key: labels with the le="..." pair (and its separating
      // comma) removed; a now-empty {} collapses to no labels at all, so
      // _bucket lines group with their label-less _sum/_count.
      static const std::regex le_re(R"re(,?le="([^"]*)")re");
      std::string le;
      if (std::regex_search(labels, m, le_re)) le = m[1];
      std::string rest = std::regex_replace(labels, le_re, "");
      rest = std::regex_replace(rest, std::regex(R"(\{,)"), "{");
      if (rest == "{}") rest.clear();
      const std::string group = family + "|" + rest;
      if (name == family + "_bucket")
        buckets[group].emplace_back(le, value);
      else if (name == family + "_count")
        counts[group] = value;
    }
  }
  ASSERT_FALSE(family_type.empty()) << "no # TYPE lines at all";
  for (const auto& [group, series] : buckets) {
    ASSERT_FALSE(series.empty());
    for (std::size_t i = 1; i < series.size(); ++i)
      EXPECT_GE(series[i].second, series[i - 1].second)
          << "non-cumulative buckets in " << group;
    EXPECT_EQ(series.back().first, "+Inf")
        << "last bucket of " << group << " is not +Inf";
    ASSERT_TRUE(counts.count(group)) << "no _count for " << group;
    EXPECT_EQ(series.back().second, counts[group])
        << "+Inf bucket != _count in " << group;
  }
}

}  // namespace

TEST(Prometheus, RenderedRegistryParses) {
  if constexpr (mpcmst::kMetricsCompiledOut)
    GTEST_SKIP() << "MPCMST_NO_METRICS";
  mpcmst::metrics_set_enabled(true);
  auto& reg = MetricsRegistry::instance();
  reg.counter("test_prom_total", "kind=\"a\"").inc(3);
  reg.counter("test_prom_total", "kind=\"b\"").inc(1);
  reg.gauge("test_prom_depth").set(7);
  auto& h = reg.histogram("test_prom_latency_seconds");
  for (const std::uint64_t v : {0ull, 1ull, 900ull, 1500ull, 1048576ull})
    h.record(v);
  reg.histogram("test_prom_sizes", "op=\"batch\"", mpcmst::MetricUnit::kCount)
      .record(42);

  std::ostringstream os;
  reg.render_prometheus(os);
  validate_prometheus(os.str());
}

// --- acceptance: one mixed workload moves every instrumented series --------

namespace {

std::uint64_t hist_count_delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after,
                               const std::string& key) {
  return after.histogram_or(key).count - before.histogram_or(key).count;
}

std::uint64_t counter_delta(const MetricsSnapshot& before,
                            const MetricsSnapshot& after,
                            const std::string& key) {
  return after.counter_or(key) - before.counter_or(key);
}

}  // namespace

TEST(Telemetry, MixedWorkloadMovesEverySeries) {
  if constexpr (mpcmst::kMetricsCompiledOut)
    GTEST_SKIP() << "MPCMST_NO_METRICS";
  mpcmst::metrics_set_enabled(true);
  auto& reg = MetricsRegistry::instance();
  const MetricsSnapshot before = reg.snapshot();

  mpcmst::test::ScratchDir dir(
      (fs::path(::testing::TempDir()) / "mpcmst_metrics_workload").string());
  auto tree = g::random_recursive_tree(40, 91);
  g::assign_random_tree_weights(tree, 10, 60, 93);
  const auto inst = g::make_mst_instance(std::move(tree), 80, 95, /*slack=*/8);
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());

  svc::PersistenceConfig persist;
  persist.dir = dir.str();
  persist.sync_mode = svc::SyncMode::kCommit;  // every commit fsyncs
  // A 4-entry cache over ~40 distinct scenarios: evictions are certain.
  svc::ServiceOptions opts;
  opts.threads = 2;
  opts.cache_capacity = 4;
  auto service = svc::QueryService::open(
      {.engine = &eng, .instance = &inst, .live = true, .persist = persist,
       .options = opts});

  // Batched queries across all five kinds (cold), then the last two
  // scenarios again: they hit even in a 4-entry cache (scenarios are
  // claimed in order, and a straggling worker can evict at most one of the
  // last three inserted).
  auto probes = mpcmst::test::probe_queries(inst);
  for (std::size_t v = 0; v < inst.n(); ++v)
    if (static_cast<g::Vertex>(v) != inst.tree.root)
      probes.push_back(svc::Query::still_mst(
          {{static_cast<g::Vertex>(v), inst.tree.parent[v],
            inst.tree.weight[v] + 1}}));
  service->answer_batch(probes);
  service->answer_batch({probes.end() - 2, probes.end()});
  service->top_k_fragile(3);  // single-query path too

  // One update of every class, probed through the live backend so each
  // weight is chosen to force its classification.
  std::map<svc::UpdateClass, int> applied;
  auto apply_expecting = [&](g::Vertex u, g::Vertex v, g::Weight w,
                             svc::UpdateClass want) {
    const auto receipt = service->apply_update(u, v, w);
    ASSERT_EQ(receipt.report.status, svc::Status::kOk);
    EXPECT_EQ(receipt.report.cls, want)
        << "{" << u << "," << v << "} @ " << w;
    ++applied[receipt.report.cls];
  };
  {
    // Current live state (updates below change it, so snapshot once per
    // class and re-probe).
    auto live = [&] { return service->updatable_backend()->instance_snapshot(); };
    // no_change: re-apply a tree edge's current weight.
    const auto s0 = live();
    g::Vertex c0 = s0.tree.root == 0 ? 1 : 0;
    apply_expecting(c0, s0.tree.parent[static_cast<std::size_t>(c0)],
                    s0.tree.weight[static_cast<std::size_t>(c0)],
                    svc::UpdateClass::kNoChange);
    // tree_reweight / tree_swap: first tree edge with finite headroom.
    for (const svc::UpdateClass want :
         {svc::UpdateClass::kTreeReweight, svc::UpdateClass::kTreeSwap}) {
      const auto s = live();
      bool done = false;
      for (std::size_t v = 0; v < s.n() && !done; ++v) {
        if (static_cast<g::Vertex>(v) == s.tree.root) continue;
        const auto c = static_cast<g::Vertex>(v);
        const auto a = service->corridor_headroom(c, s.tree.parent[v]);
        if (a.status != svc::Status::kOk || a.headroom >= g::kPosInfW ||
            a.headroom <= 0)
          continue;
        const g::Weight w = s.tree.weight[v];
        const g::Weight new_w = want == svc::UpdateClass::kTreeReweight
                                    ? w + a.headroom      // tie keeps T
                                    : w + a.headroom + 1;  // forced swap
        apply_expecting(c, s.tree.parent[v], new_w, want);
        done = true;
      }
      ASSERT_TRUE(done) << "no tree edge with finite headroom";
    }
    // nontree_reweight: raising a non-tree edge never moves it.
    // nontree_swap: drop one below its covering path maximum.
    for (const svc::UpdateClass want : {svc::UpdateClass::kNonTreeReweight,
                                        svc::UpdateClass::kNonTreeSwap}) {
      const auto s = live();
      bool done = false;
      for (const g::WEdge& e : s.nontree) {
        const auto a = service->corridor_headroom(e.u, e.v);
        if (a.status != svc::Status::kOk) continue;
        if (want == svc::UpdateClass::kNonTreeSwap &&
            (a.headroom >= g::kPosInfW || a.headroom <= 0))
          continue;
        const g::Weight new_w = want == svc::UpdateClass::kNonTreeReweight
                                    ? e.w + 5
                                    : e.w - a.headroom - 1;
        apply_expecting(e.u, e.v, new_w, want);
        done = true;
        break;
      }
      ASSERT_TRUE(done) << "no usable non-tree edge";
    }
  }
  ASSERT_EQ(applied.size(), 5u) << "workload missed an update class";

  // Checkpoint, one more update (a journal tail), then recover in-process.
  service->checkpoint();
  {
    const auto s = service->updatable_backend()->instance_snapshot();
    service->apply_update(s.nontree[0].u, s.nontree[0].v, s.nontree[0].w + 7);
  }
  service.reset();  // release the journal before recovering
  svc::RecoveredInfo info;
  service = svc::QueryService::open(
      {.persist = persist, .recover_existing = true, .recovered = &info,
       .options = opts});
  EXPECT_GE(info.replayed_records, 1u);

  const MetricsSnapshot after = reg.snapshot();

  // Query latency histograms: all four kinds sampled.
  for (const char* kind : {"price_change", "replacement_edge", "top_k_fragile",
                           "corridor_headroom"}) {
    const std::string labels = std::string("{kind=\"") + kind + "\"}";
    EXPECT_GT(counter_delta(before, after, "mpcmst_queries_total" + labels),
              0u)
        << kind;
    EXPECT_GT(hist_count_delta(before, after,
                               "mpcmst_query_latency_seconds" + labels),
              0u)
        << kind;
  }
  EXPECT_GT(counter_delta(before, after, "mpcmst_query_batches_total"), 0u);
  EXPECT_GT(
      hist_count_delta(before, after, "mpcmst_query_batch_latency_seconds"),
      0u);

  // Cache traffic, including evictions (4-entry cache, ~40 scenarios).
  EXPECT_GT(counter_delta(before, after, "mpcmst_cache_hits_total"), 0u);
  EXPECT_GT(counter_delta(before, after, "mpcmst_cache_misses_total"), 0u);
  EXPECT_GT(counter_delta(before, after, "mpcmst_cache_evictions_total"), 0u);

  // Every update classification counted and timed.
  for (const char* cls : {"no_change", "tree_reweight", "tree_swap",
                          "nontree_reweight", "nontree_swap"}) {
    const std::string labels = std::string("{class=\"") + cls + "\"}";
    EXPECT_GT(counter_delta(before, after, "mpcmst_updates_total" + labels),
              0u)
        << cls;
    EXPECT_GT(hist_count_delta(before, after,
                               "mpcmst_update_latency_seconds" + labels),
              0u)
        << cls;
  }

  // Persistence: journaled appends, commit fsyncs, snapshot write + load,
  // the checkpoint counter, and all three recovery phases.
  EXPECT_GT(hist_count_delta(before, after, "mpcmst_journal_append_seconds"),
            0u);
  EXPECT_GT(hist_count_delta(before, after, "mpcmst_journal_fsync_seconds"),
            0u);
  EXPECT_GT(hist_count_delta(before, after, "mpcmst_snapshot_write_seconds"),
            0u);
  EXPECT_GT(hist_count_delta(before, after, "mpcmst_snapshot_load_seconds"),
            0u);
  EXPECT_GT(counter_delta(before, after, "mpcmst_checkpoints_total"), 0u);
  EXPECT_GT(counter_delta(before, after, "mpcmst_recoveries_total"), 0u);
  for (const char* phase : {"snapshot_load", "tail_scan", "replay"}) {
    const std::string key = std::string("mpcmst_recovery_phase_seconds") +
                            "{phase=\"" + phase + "\"}";
    EXPECT_GT(hist_count_delta(before, after, key), 0u) << phase;
  }

  // The service's own stats() surface carries the same slice.
  const auto stats = service->stats();
  EXPECT_GT(stats.telemetry.recoveries, 0u);
  EXPECT_GT(stats.telemetry.journal_fsync.count, 0u);
}
