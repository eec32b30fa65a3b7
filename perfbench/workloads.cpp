// The three workloads.  Each drives the library only through its public
// layers, as a closed loop from one process, and keeps correctness checks
// outside the timed calls.
//
//   query_skewed   in-process live monolith, n = 100k, deep caterpillar.
//                  Why: the result cache does most of the work (Zipf-skewed
//                  reuse, invalidated by a price tick every 128 requests),
//                  and set-up pays the deep tree's round count.  The update
//                  layer does almost nothing.
//   churn_persist  in-process live backend, 4 shards, fsync'd journal,
//                  n = 20k random recursive tree.  Why: classify -> repair
//                  or relabel -> fingerprint -> shard scatter -> journal
//                  append -> fsync does most of the work, and a write lands
//                  between every few read batches, so the cache is mostly
//                  bypassed.
//   net_tier       leader + two shard servers + front door over loopback
//                  TCP in one process, n = 100k shallow tree, uniform keys.
//                  Why: every read crosses wire encode/decode, the front
//                  door, the leader's <= 2-probe fan-out and a shard server,
//                  and every write ships patches; its shallow build at the
//                  same n as query_skewed separates the diameter's effect on
//                  set-up from everything else.
#include "workloads.hpp"

#include <array>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/metrics.hpp"
#include "inputs.hpp"
#include "mpc/engine.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "sensitivity/sensitivity.hpp"
#include "service/journal.hpp"
#include "service/service.hpp"
#include "service/shard.hpp"
#include "service/telemetry.hpp"
#include "verify/verifier.hpp"

namespace perfbench {

namespace {

namespace mpc = mpcmst::mpc;
namespace net = mpcmst::service::net;
using mpcmst::HistogramSnapshot;
using mpcmst::MetricsRegistry;
using mpcmst::MetricsSnapshot;

constexpr std::size_t kSetupReps = 3;  // set-up repeats per untraced run
// Each workload serves one fixed instance; --seed varies only the request
// and event streams.  Run-to-run spread then measures the program, not how
// deep one random tree happened to be, and the charged build cost is a
// single pinned pair per workload.
constexpr std::uint64_t kInstanceSeed = 1;

double now_s(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

std::unique_ptr<mpc::Engine> make_engine(const graph::Instance& inst) {
  return std::make_unique<mpc::Engine>(
      mpc::MpcConfig::scaled(inst.input_words(), 0.5, 64.0));
}

/// What the timed loops measured (seconds throughout).
struct LoopStats {
  Samples read, topk, scenario, update, update_inplace, update_swap;
  std::uint64_t point_queries = 0;
  std::uint64_t events = 0;   // acknowledged, applied events
  std::uint64_t swaps = 0;    // ... of which full relabels
  std::uint64_t patched = 0;  // labels of in-place repairs, summed
  double ingest_s = 0;        // wall time inside ingest calls
  std::size_t clients = 1;    // closed-loop clients that produced `read`

  /// Point queries per second of read-request time (per client, summed):
  /// the read path's own throughput, so rare multi-second scenarios and
  /// the ticks between reads do not move it.
  double point_qps() const {
    const double busy = read.sum();
    return busy > 0 ? static_cast<double>(point_queries * clients) / busy : 0;
  }

  void merge(const LoopStats& o) {
    read.append(o.read);
    topk.append(o.topk);
    scenario.append(o.scenario);
    update.append(o.update);
    update_inplace.append(o.update_inplace);
    update_swap.append(o.update_swap);
    point_queries += o.point_queries;
    events += o.events;
    swaps += o.swaps;
    patched += o.patched;
    ingest_s += o.ingest_s;
  }

};

/// A loop's stats split by request half.  A traced run records the spans
/// of half 1 only; the halves are a hash of the request index, so traced
/// and untraced requests interleave over the same workload state (and the
/// same mix of reads right after a write) and the halves' point_qps ratio
/// is the tracing overhead.
using ParityStats = std::array<LoopStats, 2>;

std::size_t half_of(std::uint64_t r) {
  r = (r ^ (r >> 30)) * 0xbf58476d1ce4e5b9ULL;
  r = (r ^ (r >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>((r ^ (r >> 31)) & 1);
}

LoopStats merged(const ParityStats& st) {
  LoopStats all = st[0];
  all.merge(st[1]);
  return all;
}

/// One acknowledged event: timing plus the receipt checks.  Returns whether
/// the event applied with the class its generator expected.
bool record_event(LoopStats& st, Result& r, const svc::UpdateReceipt& rc,
                  const Tick& t, double secs) {
  st.update.add(secs);
  st.ingest_s += secs;
  if (rc.report.status != svc::Status::kOk || rc.report.cls != t.cls) {
    r.fail("event " + std::to_string(static_cast<int>(t.ev.op)) + " {" +
           std::to_string(t.ev.u) + "," + std::to_string(t.ev.v) +
           "}: class " + std::to_string(static_cast<int>(rc.report.cls)) +
           ", expected " + std::to_string(static_cast<int>(t.cls)));
    return false;
  }
  ++st.events;
  if (rc.full_relabel) {
    ++st.swaps;
    st.update_swap.add(secs);
  } else {
    st.patched += rc.patched_tree_edges + rc.patched_nontree_edges;
    st.update_inplace.add(secs);
  }
  return true;
}

void check_answers(Result& r, const std::vector<svc::Answer>& as,
                   const char* what) {
  for (const svc::Answer& a : as)
    if (a.status != svc::Status::kOk) {
      r.fail(std::string(what) + ": answer status " +
             std::to_string(static_cast<int>(a.status)));
      return;
    }
}

/// Pins the update classes the receipts reported for the first `prefix`
/// acknowledged events of each stream (one stream per client), which every
/// run of a seed applies; a run that acknowledged fewer fails.
void pin_classes(Result& r,
                 const std::vector<const std::vector<svc::UpdateClass>*>& acked,
                 std::size_t prefix) {
  std::array<std::uint64_t, svc::kNumUpdateClasses> counts{};
  for (const auto* stream : acked) {
    if (stream->size() < prefix) {
      r.fail("only " + std::to_string(stream->size()) +
             " events acknowledged; the pinned prefix is " +
             std::to_string(prefix));
      return;
    }
    for (std::size_t i = 0; i < prefix; ++i)
      ++counts[static_cast<std::size_t>((*stream)[i])];
  }
  for (std::size_t c = 0; c < counts.size(); ++c)
    r.pins[std::string("update.class.") + svc::update_class_label(c)] =
        counts[c];
}

void pin_receipt(Result& r, const svc::CostReceipt& rc) {
  const std::uint64_t rounds = rc.build_rounds;
  const std::uint64_t words = rc.peak_global_words;
  if (r.pins.count("mpc_rounds") && (r.pins["mpc_rounds"] != rounds ||
                                     r.pins["peak_global_words"] != words))
    r.fail("charged build cost differs between set-ups of one run");
  r.pins["mpc_rounds"] = rounds;
  r.pins["peak_global_words"] = words;
}

HistogramSnapshot hist_delta(const MetricsSnapshot& before,
                             const MetricsSnapshot& after,
                             const std::string& key) {
  HistogramSnapshot d = after.histogram_or(key);
  const HistogramSnapshot b = before.histogram_or(key);
  d.count -= b.count;
  d.sum -= b.sum;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) d.buckets[i] -= b.buckets[i];
  return d;
}

std::uint64_t counter_delta(const MetricsSnapshot& before,
                            const MetricsSnapshot& after,
                            const std::string& key) {
  return after.counter_or(key) - before.counter_or(key);
}

std::string rpc_key(const char* series, const char* rpc,
                    const char* dir = nullptr) {
  std::string k = std::string(series) + "{rpc=\"" + rpc + "\"";
  if (dir) k += std::string(",dir=\"") + dir + "\"";
  return k + "}";
}

// ---------------------------------------------------------------------------
// End-to-end report (untraced runs).

void set_tail(Result& r, const std::string& name, const Samples& s, double q,
              double scale, const std::string& unit) {
  if (s.beyond(q) < 10)
    r.fail(name + ": only " + std::to_string(s.beyond(q)) +
           " samples beyond the percentile (need 10)");
  r.set(name, s.quantile(q) * scale, unit);
}

void report_end_to_end(Result& r, const LoopStats& st, const Samples& setup) {
  r.set("setup_s", setup.quantile(0.5), "s");
  r.set("point_qps", st.point_qps(), "queries/s");
  r.set("read_p50_us", st.read.quantile(0.5) * 1e6, "us");
  set_tail(r, "read_p99_us", st.read, 0.99, 1e6, "us");
  r.set("topk_p50_us", st.topk.quantile(0.5) * 1e6, "us");
  r.set("scenario_p50_ms", st.scenario.quantile(0.5) * 1e3, "ms");
  set_tail(r, "scenario_p90_ms", st.scenario, 0.9, 1e3, "ms");
  r.set("update_events_per_s",
        static_cast<double>(st.events) / std::max(st.ingest_s, 1e-12),
        "events/s");
  r.set("update_p50_ms", st.update.quantile(0.5) * 1e3, "ms");
  set_tail(r, "update_p90_ms", st.update, 0.9, 1e3, "ms");
  r.set("mpc_rounds", static_cast<double>(r.pins["mpc_rounds"]), "count");
  r.set("peak_global_words", static_cast<double>(r.pins["peak_global_words"]),
        "count");
  r.sample_counts["setup"] = setup.size();
  r.sample_counts["read"] = st.read.size();
  r.sample_counts["topk"] = st.topk.size();
  r.sample_counts["scenario"] = st.scenario.size();
  r.sample_counts["update"] = st.update.size();
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced runs).  Every probe is a span around one public
// call; the metric is read back from the recorded spans.

/// The build pipeline split at its public seams, on a fresh engine.
void probe_build(const graph::Instance& inst, SpanBuffer& tb, Result& r) {
  auto eng = make_engine(inst);
  Span root(tb, "probe.build");
  std::optional<mpcmst::verify::Artifacts> art;
  {
    Span s(tb, "verify.build_artifacts");
    art.emplace(mpcmst::verify::build_artifacts(*eng, inst));
  }
  {
    Span s(tb, "verify.verify_mst_mpc");
    if (!mpcmst::verify::verify_mst_mpc(inst, *art).is_mst)
      r.fail("verify_mst_mpc: the workload's tree is not an MST");
  }
  {
    Span s(tb, "sensitivity.mst_sensitivity_mpc");
    (void)mpcmst::sensitivity::mst_sensitivity_mpc(inst, *art);
  }
}

/// Host-side primitives of the update path on the current instance.
void probe_host(const graph::Instance& inst, SpanBuffer& tb) {
  Span root(tb, "probe.host");
  std::shared_ptr<const svc::SensitivityIndex> idx;
  {
    Span s(tb, "index.build_host");
    idx = svc::SensitivityIndex::build_host(inst);
  }
  {
    Span s(tb, "shard.split");
    (void)svc::ShardedSensitivityIndex::split(*idx, 4);
  }
  for (int i = 0; i < 5; ++i) {
    Span s(tb, "index.fingerprint_of");
    (void)svc::SensitivityIndex::fingerprint_of(inst);
  }
}

/// backend() calls on queries of the workload's own pools.
void probe_backend(const svc::IndexBackend& b,
                   const std::vector<svc::Query>& points,
                   const std::vector<svc::Query>& topks,
                   const std::vector<svc::Query>& scenarios, SpanBuffer& tb,
                   Result& r) {
  Span root(tb, "probe.backend");
  std::uint64_t id = 0;
  for (const svc::Query& q : points) {
    svc::Answer a;
    {
      Span s(tb, "backend.answer.point", ++id);
      a = b.answer(q);
    }
    ++r.attempted;
    if (a.status != svc::Status::kOk) r.fail("backend point answer");
    Span s(tb, "backend.find", id);
    (void)b.find(q.u, q.v);
  }
  for (const svc::Query& q : topks) {
    Span s(tb, "backend.answer.top_k", ++id);
    (void)b.answer(q);
  }
  for (const svc::Query& q : scenarios) {
    Span s(tb, "backend.answer.still_mst", ++id);
    (void)b.answer(q);
  }
}

/// answer_batch per query minus backend().answer per query, same queries.
double probe_service_self_ns(svc::QueryService& s,
                             const std::vector<std::vector<svc::Query>>& bs,
                             SpanBuffer& tb) {
  Span root(tb, "probe.service");
  Samples self;
  for (const auto& batch : bs) {
    const auto t0 = Clock::now();
    {
      Span sp(tb, "backend.answer.run");
      for (const svc::Query& q : batch) (void)s.backend().answer(q);
    }
    const auto t1 = Clock::now();
    {
      Span sp(tb, "service.answer_batch");
      (void)s.answer_batch(batch);
    }
    const auto t2 = Clock::now();
    self.add((seconds_between(t1, t2) - seconds_between(t0, t1)) * 1e9 /
             static_cast<double>(batch.size()));
  }
  return self.quantile(0.5);
}

double span_p50(const Tracer& tr, const char* name, double scale) {
  return tr.durations(name).quantile(0.5) * scale;
}

/// The per-layer metrics every workload reports.  Layers a workload does
/// not exercise (journal, network) read 0 there, as measured.
struct LayerInputs {
  std::uint64_t physical_passes = 0;
  MetricsSnapshot setup_before, setup_after;  // around the first set-up
  MetricsSnapshot loop_before, loop_after;    // around the timed loops
  svc::CacheStats cache_before, cache_after;
  double self_ns_per_query = 0;
  double journal_bytes = 0;  // journal growth over the loops
  double checkpoint_s = 0;
  double overhead_ratio = 1;
};

void report_layers(Result& r, const Tracer& tr, const LoopStats& st,
                   const LayerInputs& x) {
  r.set("mpc.physical_passes", static_cast<double>(x.physical_passes),
        "count");
  r.set("build.prelude_s", span_p50(tr, "verify.build_artifacts", 1), "s");
  r.set("build.verify_core_s", span_p50(tr, "verify.verify_mst_mpc", 1), "s");
  r.set("build.sensitivity_core_s",
        span_p50(tr, "sensitivity.mst_sensitivity_mpc", 1), "s");
  for (const char* phase : {"contraction", "depth", "interval-label", "lca",
                            "verify-core", "sensitivity-core"}) {
    const std::string key =
        std::string("mpcmst_build_phase_seconds{phase=\"") + phase + "\"}";
    r.set(std::string("build.phase_s.") + phase,
          static_cast<double>(
              hist_delta(x.setup_before, x.setup_after, key).sum) *
              1e-9,
          "s");
  }
  r.set("build.host_relabel_s", span_p50(tr, "index.build_host", 1), "s");
  r.set("shard.split_s", span_p50(tr, "shard.split", 1), "s");

  const std::uint64_t hits = x.cache_after.hits - x.cache_before.hits;
  const std::uint64_t lookups =
      hits + (x.cache_after.misses - x.cache_before.misses);
  r.set("cache.lookups", static_cast<double>(lookups), "count");
  r.set("cache.hit_ratio",
        lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                : 0.0,
        "ratio");
  r.set("cache.evictions",
        static_cast<double>(x.cache_after.evictions -
                            x.cache_before.evictions),
        "count");
  r.set("service.self_ns_per_query", x.self_ns_per_query, "ns");
  r.set("backend.point_ns_p50", span_p50(tr, "backend.answer.point", 1e9),
        "ns");
  r.set("backend.find_ns_p50", span_p50(tr, "backend.find", 1e9), "ns");
  r.set("backend.topk_us_p50", span_p50(tr, "backend.answer.top_k", 1e6),
        "us");
  r.set("backend.still_mst_ms_p50",
        span_p50(tr, "backend.answer.still_mst", 1e3), "ms");

  r.set("update.inplace_ms_p50", st.update_inplace.quantile(0.5) * 1e3, "ms");
  r.set("update.swap_ms_p50", st.update_swap.quantile(0.5) * 1e3, "ms");
  r.set("update.applied_events", static_cast<double>(st.events), "count");
  r.set("update.swap_share",
        st.events ? static_cast<double>(st.swaps) / st.events : 0.0, "ratio");
  const std::uint64_t inplace = st.events - st.swaps;
  r.set("update.patched_labels_mean",
        inplace ? static_cast<double>(st.patched) / inplace : 0.0,
        "count");
  r.set("update.fingerprint_ms", span_p50(tr, "index.fingerprint_of", 1e3),
        "ms");
  for (const auto& [name, count] : r.pins)
    if (name.rfind("update.class.", 0) == 0)
      r.set(name, static_cast<double>(count), "count");

  const auto loop_p50_us = [&](const std::string& key) {
    return static_cast<double>(
               hist_delta(x.loop_before, x.loop_after, key).percentile(0.5)) *
           1e-3;
  };
  r.set("journal.append_us_p50", loop_p50_us("mpcmst_journal_append_seconds"),
        "us");
  r.set("journal.fsync_us_p50", loop_p50_us("mpcmst_journal_fsync_seconds"),
        "us");
  r.set("journal.bytes_per_event",
        st.events ? x.journal_bytes / static_cast<double>(st.events) : 0.0,
        "bytes");
  r.set("snapshot.checkpoint_s", x.checkpoint_s, "s");

  for (const char* rpc : {"answer_run", "top_k", "certify", "patch"})
    r.set(std::string("net.rpc_us_p50.") + rpc,
          loop_p50_us(rpc_key("net_rpc_latency_ns", rpc)), "us");
  r.set("trace.overhead_ratio", x.overhead_ratio, "ratio");
  r.set("trace.spans", static_cast<double>(tr.span_count()), "count");
  r.sample_counts["trace_spans_dropped"] = tr.dropped();
}

// ---------------------------------------------------------------------------
// In-process workloads (query_skewed, churn_persist): one client thread.

/// A set-up: everything open() returned, plus the engine it built on.
struct InProcessEnv {
  std::unique_ptr<mpc::Engine> eng;
  std::unique_ptr<svc::QueryService> svc;
};

/// Closed-loop request schedule of one in-process workload.
struct Plan {
  std::vector<std::vector<svc::Query>> reads;  // read requests, cycled
  std::vector<svc::Query> topks;               // cycled
  std::vector<svc::Query> scenarios;           // cycled, all distinct
  std::size_t event_every = 256;  // request r ingests when r % every == every-1
  // Request r sends a top-k + scenario when r % every == 1, never on a
  // write request: right after a write, scenario times flipped between two
  // modes from run to run, and their median with them.
  std::size_t special_every = 64;
  std::size_t sample_every = 8192;  // correctness sample cadence
  std::size_t max_samples = 2;
  std::size_t pinned_events = 0;  // acknowledged prefix whose classes pin
  std::function<Tick()> next_event;  // called outside the timed calls
};

/// Served answers at a known generation, checked after the loop against a
/// host build of the instance the service reported at that generation.
struct GateSample {
  std::uint64_t generation = 0;
  graph::Instance instance;
  std::vector<svc::Query> queries;
  std::vector<svc::Answer> answers;
};

void take_sample(svc::QueryService& s, const Plan& p,
                 const std::vector<svc::Query>& batch,
                 std::vector<svc::Answer> answers, std::size_t r,
                 std::vector<GateSample>& out) {
  GateSample g;
  g.generation = s.backend().generation();
  g.instance = s.updatable_backend()->instance_snapshot();
  g.queries = batch;
  g.answers = std::move(answers);
  const svc::Query& tq = p.topks[r % p.topks.size()];
  const svc::Query& sq = p.scenarios[(r + 1) % p.scenarios.size()];
  for (const svc::Query* q : {&tq, &sq}) {
    g.queries.push_back(*q);
    g.answers.push_back(s.answer(*q));
  }
  if (s.backend().generation() != g.generation)
    throw std::logic_error("generation moved during a correctness sample");
  out.push_back(std::move(g));
}

void check_samples(const std::vector<GateSample>& samples, Result& r) {
  for (const GateSample& g : samples) {
    const auto idx = svc::SensitivityIndex::build_host(g.instance);
    for (std::size_t i = 0; i < g.queries.size(); ++i) {
      ++r.attempted;
      if (!(svc::answer_query(*idx, g.queries[i]) == g.answers[i]))
        r.fail("generation " + std::to_string(g.generation) +
               ": served answer differs from a host build: " +
               svc::to_string(g.queries[i]));
    }
  }
}

/// The timed closed loop, run for `seconds` of its own time.  `traced`
/// (null: untraced run) receives the spans of half 1; `acked` receives the
/// receipt class of every acknowledged event, in order.
ParityStats run_in_process_loop(svc::QueryService& s, const Plan& p,
                                double seconds, SpanBuffer* traced,
                                Result& res, std::vector<GateSample>& samples,
                                std::vector<svc::UpdateClass>& acked) {
  ParityStats all;
  SpanBuffer off(false, 0, Clock::now());
  double paused = 0;
  const auto t0 = Clock::now();
  for (std::size_t r = 0; now_s(t0) - paused < seconds; ++r) {
    const std::size_t half = half_of(r);
    SpanBuffer& tb = (half == 1 && traced) ? *traced : off;
    LoopStats& st = all[half];
    Span req(tb, "request", r);
    if (r % p.event_every == p.event_every - 1) {
      const auto tp = Clock::now();
      const Tick t = p.next_event();
      paused += now_s(tp);
      ++res.attempted;
      const auto ti = Clock::now();
      std::vector<svc::UpdateReceipt> rc;
      {
        Span sp(tb, "service.ingest", r);
        rc = s.ingest({t.ev});
      }
      const double secs = now_s(ti);
      if (rc.size() != 1)
        res.fail("ingest returned " + std::to_string(rc.size()) + " receipts");
      else if (record_event(st, res, rc.front(), t, secs))
        acked.push_back(rc.front().report.cls);
    }
    if (r % p.special_every == 1) {
      const std::size_t k = r / p.special_every;
      res.attempted += 2;
      auto ts = Clock::now();
      svc::Answer a;
      {
        Span sp(tb, "service.top_k_fragile", r);
        a = s.answer(p.topks[k % p.topks.size()]);
      }
      st.topk.add(now_s(ts));
      if (a.status != svc::Status::kOk) res.fail("top_k_fragile status");
      ts = Clock::now();
      {
        Span sp(tb, "service.still_mst", r);
        a = s.answer(p.scenarios[k % p.scenarios.size()]);
      }
      st.scenario.add(now_s(ts));
      if (a.status != svc::Status::kOk) res.fail("still_mst status");
    }
    const auto& batch = p.reads[r % p.reads.size()];
    ++res.attempted;
    const auto tr = Clock::now();
    std::vector<svc::Answer> answers;
    {
      Span sp(tb, "service.answer_batch", r);
      answers = s.answer_batch(batch);
    }
    st.read.add(now_s(tr));
    st.point_queries += batch.size();
    check_answers(res, answers, "answer_batch");
    if (r % p.sample_every == 0 && samples.size() < p.max_samples) {
      const auto tp = Clock::now();
      take_sample(s, p, batch, std::move(answers), r, samples);
      paused += now_s(tp);
    }
  }
  return all;
}

/// Shared runner of the in-process workloads: set-ups, loops, gates, and
/// the report.  `open` builds one set-up; `finish` runs workload-specific
/// gates after the loops (and before the service is torn down).
Result drive_in_process(
    const RunConfig& cfg, const graph::Instance& inst, Plan& plan,
    const std::function<InProcessEnv()>& open,
    const std::function<void(InProcessEnv&, LayerInputs&, Result&)>& finish,
    Result res) {
  progress("inputs generated");
  Tracer tracer(cfg.trace);
  SpanBuffer& tb = tracer.buffer();
  LayerInputs x;

  Samples setup;
  InProcessEnv env;
  const std::size_t reps = cfg.trace ? 1 : kSetupReps;
  for (std::size_t i = 0; i < reps; ++i) {
    env.svc.reset();  // the service before the engine it was built on
    env.eng.reset();
    if (i == 0) x.setup_before = MetricsRegistry::instance().snapshot();
    const auto t0 = Clock::now();
    {
      Span sp(tb, "setup");
      env = open();
    }
    setup.add(now_s(t0));
    if (i == 0) x.setup_after = MetricsRegistry::instance().snapshot();
    pin_receipt(res, env.svc->backend().receipt());
  }
  progress("set up");
  x.physical_passes = env.eng->stats().physical_passes;
  svc::QueryService& s = *env.svc;

  std::vector<GateSample> samples;
  std::vector<svc::UpdateClass> acked;
  x.cache_before = s.stats().cache;
  x.loop_before = MetricsRegistry::instance().snapshot();
  const ParityStats halves = run_in_process_loop(
      s, plan, cfg.seconds, cfg.trace ? &tb : nullptr, res, samples, acked);
  pin_classes(res, {&acked}, plan.pinned_events);
  x.overhead_ratio = halves[0].point_qps() / halves[1].point_qps();
  const LoopStats st = merged(halves);
  x.loop_after = MetricsRegistry::instance().snapshot();
  x.cache_after = s.stats().cache;

  progress("loop done");
  finish(env, x, res);
  check_samples(samples, res);
  progress("correctness checked");

  if (!cfg.trace) {
    report_end_to_end(res, st, setup);
  } else {
    const graph::Instance now = s.updatable_backend()->instance_snapshot();
    probe_build(inst, tb, res);
    probe_host(now, tb);
    std::vector<svc::Query> points;
    for (std::size_t i = 0; points.size() < 4096; ++i)
      for (const svc::Query& q : plan.reads[i % plan.reads.size()])
        points.push_back(q);
    const std::vector<svc::Query> topks(plan.topks.begin(),
                                        plan.topks.begin() + 64);
    const std::vector<svc::Query> scen(plan.scenarios.begin(),
                                       plan.scenarios.begin() + 16);
    probe_backend(s.backend(), points, topks, scen, tb, res);
    const std::vector<std::vector<svc::Query>> batches(
        plan.reads.begin(),
        plan.reads.begin() + std::min<std::size_t>(64, plan.reads.size()));
    x.self_ns_per_query = probe_service_self_ns(s, batches, tb);
    report_layers(res, tracer, st, x);
    res.self_time = tracer.self_times();
    tracer.write_chrome_json(cfg.work_dir + "/trace-" + cfg.workload + "-s" +
                             std::to_string(cfg.seed) + ".json");
  }
  return res;
}

Result query_skewed(const RunConfig& cfg) {
  Result res;
  const graph::Instance inst = deep_instance(100000, 512, kInstanceSeed);
  const std::vector<EdgeKey> edges = unique_edges(inst);
  Rng rng(cfg.seed * 7919 + 1);

  // Zipf-skewed picks over a seeded permutation of the edges.
  std::vector<std::size_t> perm(edges.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::shuffle(perm.begin(), perm.end(), rng);
  const Zipf zipf(edges.size(), 0.99);

  Plan plan;
  // A tick every 128th request: >= 100 ticks (the update p90's ten samples
  // beyond) within a 20 s run even on a slowed host.
  plan.event_every = 128;
  plan.reads.resize(1024);
  for (auto& batch : plan.reads) {
    batch.reserve(256);
    for (int i = 0; i < 256; ++i)
      batch.push_back(point_query(edges[perm[zipf(rng)]], rng, true));
  }
  for (int i = 0; i < 512; ++i)
    plan.topks.push_back(
        svc::Query::top_k_fragile(8 + static_cast<std::int64_t>(rng() % 57)));
  for (int i = 0; i < 4096; ++i)
    plan.scenarios.push_back(scenario_query(edges, 8, rng));
  const std::vector<Tick> ticks = make_ticks(edges, 8192, cfg.seed);
  plan.pinned_events = 64;  // a 20 s run acknowledges about 160
  std::size_t next_tick = 0;
  plan.next_event = [&] {
    if (next_tick == ticks.size())
      throw std::runtime_error("query_skewed: tick pool exhausted");
    return ticks[next_tick++];
  };

  const auto open = [&] {
    InProcessEnv env;
    env.eng = make_engine(inst);
    svc::ServiceConfig sc;
    sc.engine = env.eng.get();
    sc.instance = &inst;
    sc.live = true;
    sc.options.threads = 4;
    env.svc = svc::QueryService::open(sc);
    return env;
  };
  const auto finish = [&](InProcessEnv& env, LayerInputs& x, Result& r) {
    const auto t0 = Clock::now();
    env.svc->checkpoint();  // no persistence: measures the no-op
    x.checkpoint_s = now_s(t0);
    if (env.svc->backend().generation() != next_tick)
      r.fail("generation does not match the acknowledged ticks");
  };
  return drive_in_process(cfg, inst, plan, open, finish, std::move(res));
}

Result churn_persist(const RunConfig& cfg) {
  Result res;
  const graph::Instance inst = shallow_instance(20000, kInstanceSeed);
  const std::vector<EdgeKey> edges = unique_edges(inst);
  Rng rng(cfg.seed * 7919 + 2);

  // Reads name only reserved keys (a random half of the unique non-tree
  // edges); the stream never deletes them, so every read resolves.
  std::vector<EdgeKey> reserved;
  std::unordered_set<std::uint64_t> reserved_keys;
  for (const EdgeKey& e : edges)
    if (!e.tree && rng() % 2 == 0) {
      reserved.push_back(e);
      reserved_keys.insert(svc::endpoint_key(e.u, e.v));
    }

  Plan plan;
  plan.event_every = 4;    // one ingest, then read requests, alternating
  // A top-k and a scenario every 8th read (every 64th elsewhere): reads are
  // paced by a write every fourth request, and the scenario p90 still needs
  // ten samples beyond it within the run.
  plan.special_every = 8;
  plan.sample_every = 256;
  plan.max_samples = 8;
  plan.reads.resize(1024);
  for (auto& batch : plan.reads)
    for (int i = 0; i < 64; ++i)
      batch.push_back(point_query(reserved[rng() % reserved.size()], rng,
                                  /*allow_replacement=*/false));
  for (int i = 0; i < 512; ++i)
    plan.topks.push_back(
        svc::Query::top_k_fragile(8 + static_cast<std::int64_t>(rng() % 57)));
  for (int i = 0; i < 4096; ++i)
    plan.scenarios.push_back(scenario_query(reserved, 8, rng));

  // The first kHead events are generated up front; later ones are generated
  // on demand, still outside the timed calls.
  constexpr std::size_t kHead = 512;
  ChurnStream stream(inst, reserved_keys, cfg.seed);
  std::vector<Tick> head;
  for (std::size_t i = 0; i < kHead; ++i) head.push_back(stream.next());
  plan.pinned_events = 160;  // a 20 s run acknowledges about 450
  std::size_t consumed = 0;
  plan.next_event = [&] {
    return consumed < head.size() ? head[consumed++]
                                  : (++consumed, stream.next());
  };

  const std::string dir = cfg.work_dir + "/state-churn_persist";
  std::uintmax_t journal_start = 0;
  const auto open = [&] {
    std::filesystem::remove_all(dir);
    InProcessEnv env;
    env.eng = make_engine(inst);
    svc::ServiceConfig sc;
    sc.engine = env.eng.get();
    sc.instance = &inst;
    sc.live = true;
    sc.sharded = true;
    sc.num_shards = 4;
    // No compaction inside the loop: every event pays append + fsync only.
    sc.persist = svc::PersistenceConfig{dir, svc::SyncMode::kCommit, 0};
    sc.options.threads = 4;
    env.svc = svc::QueryService::open(sc);
    journal_start = std::filesystem::file_size(svc::journal_path(dir));
    return env;
  };
  const auto finish = [&](InProcessEnv& env, LayerInputs& x, Result& r) {
    x.journal_bytes = static_cast<double>(
        std::filesystem::file_size(svc::journal_path(dir)) - journal_start);
    // The canonical transform of the consumed prefix is the oracle.
    graph::Instance want;
    if (consumed >= head.size()) {
      want = stream.instance();
    } else {
      want = inst;
      for (std::size_t i = 0; i < consumed; ++i)
        (void)svc::apply_event_to_instance(want, head[i].ev);
    }
    ++r.attempted;
    if (env.svc->backend().fingerprint() !=
        svc::SensitivityIndex::fingerprint_of(want))
      r.fail("final fingerprint differs from the canonical transform");
    if (env.svc->backend().generation() != consumed)
      r.fail("generation does not match the acknowledged events");
    const auto t0 = Clock::now();
    env.svc->checkpoint();
    x.checkpoint_s = now_s(t0);
  };
  Result out = drive_in_process(cfg, inst, plan, open, finish, std::move(res));
  std::filesystem::remove_all(dir);
  return out;
}

// ---------------------------------------------------------------------------
// net_tier: two client threads against a loopback deployment.

struct NetEnv {
  std::unique_ptr<mpc::Engine> eng;
  std::vector<std::unique_ptr<net::ShardServer>> shards;
  std::shared_ptr<svc::QueryService> svc;
  std::unique_ptr<net::ServiceServer> front;

  NetEnv() = default;
  NetEnv(const NetEnv&) = delete;
  NetEnv& operator=(const NetEnv&) = delete;
  ~NetEnv() {
    if (front) front->stop();
    front.reset();
    svc.reset();
    for (auto& s : shards) s->stop();
  }
};

std::unique_ptr<NetEnv> open_net(const graph::Instance& inst) {
  auto env = std::make_unique<NetEnv>();
  std::vector<std::string> endpoints;
  for (int i = 0; i < 2; ++i) {
    env->shards.push_back(std::make_unique<net::ShardServer>(
        net::Listener::bind("127.0.0.1:0")));
    env->shards.back()->start();
    endpoints.push_back(env->shards.back()->endpoint());
  }
  env->eng = make_engine(inst);
  svc::ServiceConfig sc;
  sc.engine = env->eng.get();
  sc.instance = &inst;
  sc.live = true;
  sc.remote_shards = endpoints;
  sc.options.threads = 2;
  env->svc = svc::QueryService::open(sc);
  std::shared_ptr<svc::QueryService> s = env->svc;
  env->front = std::make_unique<net::ServiceServer>(
      net::Listener::bind("127.0.0.1:0"), [s] { return s; });
  env->front->set_ingest_handler(
      [s](const std::vector<svc::EdgeEvent>& evs) { return s->ingest(evs); });
  env->front->start();
  return env;
}

/// One served answer and the generations it may have been computed at.
/// `hi` is the stamp its reply carried (read after the answer).  `lo` is the
/// latest generation the client had seen before sending it: the stamp of its
/// previous reply or its own last acknowledged ingest, whichever is later.
struct NetSample {
  std::uint64_t lo = 0, hi = 0;
  svc::Query query;
  svc::Answer answer;
};

/// Per-client inputs and outputs.
struct NetClient {
  std::vector<svc::Query> reads, topks, scenarios;
  std::vector<Tick> ticks;
  // outputs
  ParityStats st;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::vector<NetSample> samples;
  std::vector<std::pair<std::uint64_t, svc::EdgeEvent>> events;  // by gen
  std::vector<svc::UpdateClass> acked;  // receipt classes, in order

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

svc::Answer query_rpc(net::ShardConn& conn, const svc::Query& q,
                      std::uint64_t& gen) {
  mpcmst::ByteWriter w;
  net::encode_query(w, q);
  const net::Frame f = conn.call(net::MsgType::kQuery, w);
  mpcmst::ByteReader rd(f.body.data(), f.body.size());
  svc::Answer a;
  net::WireStamp stamp;
  if (f.type != net::MsgType::kQueryReply || !net::decode_answer(rd, a) ||
      !net::decode_stamp(rd, stamp))
    throw std::runtime_error("malformed query reply");
  gen = stamp.generation;
  return a;
}

svc::UpdateReceipt ingest_rpc(net::ShardConn& conn, const svc::EdgeEvent& ev) {
  mpcmst::ByteWriter w;
  w.u64(1);
  net::encode_edge_event(w, ev);
  const net::Frame f = conn.call(net::MsgType::kIngest, w);
  mpcmst::ByteReader rd(f.body.data(), f.body.size());
  svc::UpdateReceipt rc;
  if (f.type != net::MsgType::kIngestReply || rd.u64() != 1 ||
      !net::decode_update_receipt(rd, rc))
    throw std::runtime_error("malformed ingest reply");
  return rc;
}

/// One client's closed loop; `traced` (null: untraced run) receives the
/// spans of half 1.
void net_client_loop(const std::string& front, NetClient& c,
                     const std::atomic<bool>& stop, SpanBuffer* traced) {
  net::NetOptions opts;
  opts.reconnect_attempts = 0;  // kIngest is not idempotent
  net::ShardConn conn(front, opts);
  SpanBuffer off(false, 0, Clock::now());
  std::size_t next_tick = 0;
  std::uint64_t seen = 0;  // latest generation this client has observed
  for (std::size_t r = 0; !stop.load(std::memory_order_relaxed); ++r) {
    const std::size_t half = half_of(r);
    SpanBuffer& tb = (half == 1 && traced) ? *traced : off;
    LoopStats& st = c.st[half];
    Span req(tb, "request", r);
    try {
      if (r % 256 == 255 && next_tick < c.ticks.size()) {
        const Tick& t = c.ticks[next_tick++];
        ++c.attempted;
        const auto ti = Clock::now();
        svc::UpdateReceipt rc;
        {
          Span sp(tb, "net.ingest", r);
          rc = ingest_rpc(conn, t.ev);
        }
        Result tmp;
        if (record_event(st, tmp, rc, t, now_s(ti))) {
          c.events.emplace_back(rc.generation, t.ev);
          c.acked.push_back(rc.report.cls);
          seen = std::max(seen, rc.generation);
        }
        for (const std::string& f : tmp.failures) c.fail(f);
      }
      if (r % 64 == 63) {
        const std::size_t k = r / 64;
        for (int which = 0; which < 2; ++which) {
          const svc::Query& q = which == 0 ? c.topks[k % c.topks.size()]
                                           : c.scenarios[k % c.scenarios.size()];
          ++c.attempted;
          std::uint64_t gen = 0;
          const auto ts = Clock::now();
          svc::Answer a;
          {
            Span sp(tb, which == 0 ? "net.query.top_k" : "net.query.still_mst",
                    r);
            a = query_rpc(conn, q, gen);
          }
          (which == 0 ? st.topk : st.scenario).add(now_s(ts));
          if (a.status != svc::Status::kOk) c.fail("special query status");
          if (k % 8 == 0) c.samples.push_back({seen, gen, q, std::move(a)});
          seen = std::max(seen, gen);
        }
      }
      const svc::Query& q = c.reads[r % c.reads.size()];
      ++c.attempted;
      std::uint64_t gen = 0;
      const auto tr = Clock::now();
      svc::Answer a;
      {
        Span sp(tb, "net.query.point", r);
        a = query_rpc(conn, q, gen);
      }
      st.read.add(now_s(tr));
      ++st.point_queries;
      if (a.status != svc::Status::kOk) c.fail("point query status");
      if (r % 32 == 0) c.samples.push_back({seen, gen, q, std::move(a)});
      seen = std::max(seen, gen);
    } catch (const std::exception& e) {
      c.fail(std::string("request failed: ") + e.what());
    }
  }
}

/// Drive both clients for `seconds`; spans go to `tracer` (null: untraced
/// run).
ParityStats run_net_loop(const std::string& front,
                         std::array<NetClient, 2>& cs, double seconds,
                         Tracer* tracer) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (NetClient& c : cs) {
    SpanBuffer* tb = tracer ? &tracer->buffer() : nullptr;
    threads.emplace_back([&front, &c, &stop, tb] {
      net_client_loop(front, c, stop, tb);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  ParityStats st;
  for (std::size_t parity = 0; parity < 2; ++parity) {
    for (NetClient& c : cs) st[parity].merge(c.st[parity]);
    st[parity].clients = cs.size();
  }
  return st;
}

/// The net gate: served answers must equal an in-process sharded live
/// backend fed the same events in generation order, at some generation in
/// the sample's [lo, hi] window (the other client's ingests may land
/// between the request and its stamp).
void check_net(const graph::Instance& inst, std::array<NetClient, 2>& cs,
               Result& r) {
  std::vector<std::pair<std::uint64_t, svc::EdgeEvent>> events;
  std::vector<const NetSample*> samples;
  for (const NetClient& c : cs) {
    events.insert(events.end(), c.events.begin(), c.events.end());
    for (const NetSample& s : c.samples) samples.push_back(&s);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < events.size(); ++i)
    if (events[i].first != i + 1) {
      r.fail("acknowledged generations are not contiguous");
      return;
    }
  std::sort(samples.begin(), samples.end(),
            [](const NetSample* a, const NetSample* b) { return a->lo < b->lo; });
  auto ref = std::make_shared<svc::LiveShardedBackend>(
      inst, svc::SensitivityIndex::build_host(inst), 2);
  const auto mismatch = [&r](const NetSample& s) {
    r.fail("net answer stamped " + std::to_string(s.hi) +
           " matches the reference at no generation since " +
           std::to_string(s.lo) + ": " + svc::to_string(s.query));
  };
  std::vector<const NetSample*> open;  // window reached, not yet matched
  std::size_t next = 0;
  for (std::uint64_t gen = 0;; ++gen) {
    while (next < samples.size() && samples[next]->lo <= gen)
      open.push_back(samples[next++]);
    std::vector<const NetSample*> still;
    for (const NetSample* s : open) {
      if (ref->answer(s->query) == s->answer) {
        ++r.attempted;
      } else if (s->hi <= gen) {
        ++r.attempted;
        mismatch(*s);
      } else {
        still.push_back(s);
      }
    }
    open.swap(still);
    if (gen == events.size()) break;
    (void)ref->ingest({events[gen].second});
  }
  for (const NetSample* s : open) {
    ++r.attempted;
    mismatch(*s);
  }
  for (; next < samples.size(); ++next) {
    ++r.attempted;
    mismatch(*samples[next]);
  }
}

Result net_tier(const RunConfig& cfg) {
  Result res;
  const graph::Instance inst = shallow_instance(100000, kInstanceSeed);
  const std::vector<EdgeKey> edges = unique_edges(inst);
  Rng rng(cfg.seed * 7919 + 3);

  // Ticks of the two clients touch disjoint edges, so both streams stay
  // non-swapping under any interleaving.
  std::array<std::vector<EdgeKey>, 2> tick_edges;
  for (std::size_t i = 0; i < edges.size(); ++i)
    tick_edges[i % 2].push_back(edges[i]);
  std::array<NetClient, 2> clients;
  for (std::size_t c = 0; c < 2; ++c) {
    NetClient& cl = clients[c];
    for (int i = 0; i < 65536; ++i)
      cl.reads.push_back(point_query(edges[rng() % edges.size()], rng, true));
    for (int i = 0; i < 256; ++i)
      cl.topks.push_back(svc::Query::top_k_fragile(
          8 + static_cast<std::int64_t>(rng() % 57)));
    for (int i = 0; i < 1024; ++i)
      cl.scenarios.push_back(scenario_query(edges, 8, rng));
    cl.ticks = make_ticks(tick_edges[c], 2048, cfg.seed * 2 + c);
  }
  progress("inputs generated");

  Tracer tracer(cfg.trace);
  SpanBuffer& tb = tracer.buffer();
  LayerInputs x;
  Samples setup;
  std::unique_ptr<NetEnv> env;
  double bootstrap_s = 0;
  const std::size_t reps = cfg.trace ? 1 : kSetupReps;
  for (std::size_t i = 0; i < reps; ++i) {
    env.reset();
    const MetricsSnapshot before = MetricsRegistry::instance().snapshot();
    if (i == 0) x.setup_before = before;
    const auto t0 = Clock::now();
    {
      Span sp(tb, "setup");
      env = open_net(inst);
    }
    setup.add(now_s(t0));
    const MetricsSnapshot after = MetricsRegistry::instance().snapshot();
    if (i == 0) x.setup_after = after;
    bootstrap_s = static_cast<double>(
                      hist_delta(before, after,
                                 rpc_key("net_rpc_latency_ns", "bootstrap"))
                          .sum) *
                  1e-9;
    pin_receipt(res, env->svc->backend().receipt());
  }
  progress("set up");
  x.physical_passes = env->eng->stats().physical_passes;
  svc::QueryService& s = *env->svc;
  const std::string front = env->front->endpoint();

  x.cache_before = s.stats().cache;
  x.loop_before = MetricsRegistry::instance().snapshot();
  const ParityStats halves = run_net_loop(front, clients, cfg.seconds,
                                          cfg.trace ? &tracer : nullptr);
  x.overhead_ratio = halves[0].point_qps() / halves[1].point_qps();
  const LoopStats st = merged(halves);
  x.loop_after = MetricsRegistry::instance().snapshot();
  x.cache_after = s.stats().cache;
  progress("loop done");
  for (NetClient& c : clients) {
    res.attempted += c.attempted;
    res.failed += c.failed;
    for (const std::string& f : c.failures)
      if (res.failures.size() < 16) res.failures.push_back(f);
  }
  // Each client's stream is fixed per seed, whatever the interleaving; a
  // 20 s run acknowledges about 100 events per client.
  pin_classes(res, {&clients[0].acked, &clients[1].acked}, 32);
  std::uint64_t acked = 0;
  for (const NetClient& c : clients) acked += c.events.size();
  if (s.backend().generation() != acked)
    res.fail("leader generation does not match the acknowledged ticks");

  if (!cfg.trace) {
    report_end_to_end(res, st, setup);
  } else {
    // RPCs and bytes a read request moved, and bytes per event shipped.
    std::uint64_t read_rpcs = 0, read_bytes = 0, event_bytes = 0;
    for (const char* rpc :
         {"answer_run", "top_k", "certify", "find_run", "nontree_info"}) {
      read_rpcs += counter_delta(x.loop_before, x.loop_after,
                                 rpc_key("net_rpc_calls", rpc));
      for (const char* dir : {"tx", "rx"})
        read_bytes += counter_delta(x.loop_before, x.loop_after,
                                    rpc_key("net_rpc_bytes", rpc, dir));
    }
    for (const char* dir : {"tx", "rx"}) {
      read_bytes += counter_delta(x.loop_before, x.loop_after,
                                  rpc_key("net_rpc_bytes", "query", dir));
      for (const char* rpc : {"ingest", "patch"})
        event_bytes += counter_delta(x.loop_before, x.loop_after,
                                     rpc_key("net_rpc_bytes", rpc, dir));
    }
    const std::uint64_t reads = counter_delta(
        x.loop_before, x.loop_after, rpc_key("net_rpc_calls", "query"));
    const double per_read = reads ? 1.0 / static_cast<double>(reads) : 0.0;
    const double per_event =
        st.events ? 1.0 / static_cast<double>(st.events) : 0.0;

    // Front-door round trip of an empty frame, and the leader's own
    // in-process answer of the same point queries the wire carried.
    {
      net::NetOptions opts;
      opts.reconnect_attempts = 0;
      net::ShardConn conn(front, opts);
      Span root(tb, "probe.net");
      for (int i = 0; i < 2000; ++i) {
        Span sp(tb, "net.ping");
        (void)conn.call(net::MsgType::kPing, mpcmst::ByteWriter{});
      }
      for (int i = 0; i < 2000; ++i) {
        Span sp(tb, "leader.answer");
        (void)s.answer(clients[0].reads[i]);
      }
    }
    const graph::Instance now = s.updatable_backend()->instance_snapshot();
    probe_build(inst, tb, res);
    probe_host(now, tb);
    const std::vector<svc::Query> points(clients[0].reads.begin(),
                                         clients[0].reads.begin() + 2048);
    const std::vector<svc::Query> topks(clients[0].topks.begin(),
                                        clients[0].topks.begin() + 64);
    const std::vector<svc::Query> scen(clients[0].scenarios.begin(),
                                       clients[0].scenarios.begin() + 16);
    probe_backend(s.backend(), points, topks, scen, tb, res);
    std::vector<std::vector<svc::Query>> batches(16);
    for (std::size_t b = 0; b < batches.size(); ++b)
      batches[b].assign(clients[1].reads.begin() + 256 * b,
                        clients[1].reads.begin() + 256 * (b + 1));
    x.self_ns_per_query = probe_service_self_ns(s, batches, tb);
    const auto t0 = Clock::now();
    s.checkpoint();  // no persistence on the leader: measures the no-op
    x.checkpoint_s = now_s(t0);

    report_layers(res, tracer, st, x);
    res.set("net.rtt_us_p50", span_p50(tracer, "net.ping", 1e6), "us");
    res.set("net.leader_answer_us_p50", span_p50(tracer, "leader.answer", 1e6),
            "us");
    res.set("net.rpcs_per_read", static_cast<double>(read_rpcs) * per_read,
            "count");
    res.set("net.bytes_per_read", static_cast<double>(read_bytes) * per_read,
            "bytes");
    res.set("net.bytes_per_event", static_cast<double>(event_bytes) * per_event,
            "bytes");
    res.set("net.bootstrap_s", bootstrap_s, "s");
    res.self_time = tracer.self_times();
    tracer.write_chrome_json(cfg.work_dir + "/trace-" + cfg.workload + "-s" +
                             std::to_string(cfg.seed) + ".json");
  }
  env.reset();  // stop every server thread before the gate's rebuild
  check_net(inst, clients, res);
  progress("correctness checked");
  return res;
}

/// In-process workloads read 0 for the network layer.
void zero_net_layers(Result& r) {
  for (const char* m : {"net.rtt_us_p50", "net.leader_answer_us_p50"})
    r.set(m, 0, "us");
  r.set("net.rpcs_per_read", 0, "count");
  r.set("net.bytes_per_read", 0, "bytes");
  r.set("net.bytes_per_event", 0, "bytes");
  r.set("net.bootstrap_s", 0, "s");
}

}  // namespace

Result run_workload(const RunConfig& cfg) {
  Result r;
  if (cfg.workload == "query_skewed") {
    r = query_skewed(cfg);
    if (cfg.trace) zero_net_layers(r);
  } else if (cfg.workload == "churn_persist") {
    r = churn_persist(cfg);
    if (cfg.trace) zero_net_layers(r);
  } else if (cfg.workload == "net_tier") {
    r = net_tier(cfg);
  } else {
    throw std::invalid_argument("unknown workload: " + cfg.workload);
  }
  r.workload = cfg.workload;
  r.seed = cfg.seed;
  r.trace = cfg.trace;
  return r;
}

}  // namespace perfbench
