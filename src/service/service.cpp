#include "service/service.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "common/check.hpp"
#include "net/client.hpp"
#include "service/snapshot.hpp"

namespace mpcmst::service {

namespace {

/// Fresh-tier persistence bootstrap: wipe/initialize the directory, attach,
/// and checkpoint the just-built generation-0 state so the tier is
/// recoverable before the first update ever lands.
void init_persistence(UpdatableBackend& backend,
                      std::optional<PersistenceConfig>& persist) {
  if (!persist) return;
  backend.attach_persistence(Persistence::create_fresh(*persist));
  backend.checkpoint();
}

}  // namespace

QueryService::QueryService(std::shared_ptr<const IndexBackend> backend,
                           ServiceOptions opts)
    : backend_(std::move(backend)),
      opts_(opts),
      cache_(opts.cache_capacity),
      pool_(opts.threads) {
  MPCMST_ASSERT(backend_ != nullptr, "QueryService: null backend");
  if (opts_.chunk_size == 0) opts_.chunk_size = 1;
  ServiceMetrics& tm = service_metrics();
  cache_.set_metric_counters(tm.cache_hits, tm.cache_misses,
                             tm.cache_evictions);
}

QueryService::~QueryService() = default;

QueryService::QueryService(std::shared_ptr<const SensitivityIndex> index,
                           ServiceOptions opts)
    : QueryService(std::make_shared<const MonolithicBackend>(std::move(index)),
                   opts) {}

QueryService::QueryService(std::shared_ptr<UpdatableBackend> backend,
                           ServiceOptions opts)
    : QueryService(std::shared_ptr<const IndexBackend>(backend), opts) {
  updatable_ = std::move(backend);
}

namespace {

/// open()'s recovery shape: reconstruct a persisted live tier from its
/// directory (newest valid snapshot + journal-tail replay through
/// replay_journal_record) and resume journaling.
std::unique_ptr<QueryService> open_recover(const ServiceConfig& sc) {
  const PersistenceConfig& cfg = *sc.persist;
  ServiceMetrics& tm = service_metrics();
  tm.recoveries->inc();
  TraceScope recover_span("recover");

  std::optional<TierImage> image;
  {
    TraceScope span("recover:snapshot-load", tm.recovery_snapshot_load);
    image = load_newest_snapshot(cfg.dir);
  }
  MPCMST_CHECK(image.has_value(),
               "recover: no valid snapshot in " << cfg.dir
                                                << " (never persisted, or "
                                                   "every file is torn)");

  // Truncate any torn tail first: everything after the last intact record
  // was never acknowledged, so dropping it is the correct outcome.
  Journal::Scan scan;
  {
    TraceScope span("recover:tail-scan", tm.recovery_tail_scan);
    scan = Journal::recover(journal_path(cfg.dir));
  }

  const std::uint64_t snapshot_generation = image->generation;
  std::shared_ptr<UpdatableBackend> backend =
      make_live_backend(std::move(*image));

  // Replay the journal tail through the ordinary update path, holding every
  // record to its own receipt: same resolution, same classification, same
  // fingerprint chain, same generation — or the directory is rejected.
  std::uint64_t replayed = 0;
  {
    TraceScope span("recover:replay", tm.recovery_replay);
    for (const JournalRecord& rec : scan.records) {
      if (rec.generation <= snapshot_generation) continue;  // in the snapshot
      MPCMST_CHECK(rec.generation == backend->generation() + 1,
                   "recover: journal generation gap at " << rec.generation);
      (void)replay_journal_record(*backend, rec);
      ++replayed;
    }
  }

  // Staleness floor: a fallback past an invalid newer snapshot is only
  // sound if the journal bridged the gap (it does when the crash hit
  // between a checkpoint's snapshot write and its journal reset).  Landing
  // below the highest generation any snapshot file ever named would
  // silently un-acknowledge committed updates — refuse instead.
  const auto floor_gen = newest_snapshot_generation(cfg.dir);
  MPCMST_CHECK(floor_gen && backend->generation() >= *floor_gen,
               "recover: reached generation "
                   << backend->generation() << " but " << cfg.dir
                   << " names generation "
                   << (floor_gen ? *floor_gen : 0)
                   << " — the newest snapshot is invalid and the journal "
                      "cannot bridge to it");

  if (sc.recovered) {
    sc.recovered->snapshot_generation = snapshot_generation;
    sc.recovered->replayed_records = replayed;
    sc.recovered->journal_was_torn = scan.torn;
  }

  backend->attach_persistence(Persistence::resume(cfg, replayed));
  // A long tail means the compaction policy fell behind (or the crash beat
  // it); fold the replayed records into a fresh snapshot now.
  if (cfg.snapshot_every_n > 0 && replayed >= cfg.snapshot_every_n)
    backend->checkpoint();
  return std::make_unique<QueryService>(std::move(backend), sc.options);
}

}  // namespace

std::unique_ptr<QueryService> QueryService::open(const ServiceConfig& cfg) {
  if (cfg.recover_existing) {
    MPCMST_CHECK(cfg.persist.has_value(),
                 "open: recover_existing requires a PersistenceConfig");
    MPCMST_CHECK(cfg.remote_shards.empty(),
                 "open: recovery of a networked leader is not supported — "
                 "recover in-process, then re-open with remote_shards");
    return open_recover(cfg);
  }

  if (!cfg.remote_shards.empty()) {
    if (!cfg.live) {
      // Read-only attach: the shard servers own their slices (started from
      // their own snapshots or bootstrapped by a leader elsewhere).
      return std::make_unique<QueryService>(
          net::make_remote_backend(cfg.remote_shards), cfg.options);
    }
    MPCMST_CHECK(cfg.engine != nullptr && cfg.instance != nullptr,
                 "open: a networked leader needs an engine and an instance");
    std::shared_ptr<UpdatableBackend> backend = net::make_leader_backend(
        *cfg.engine, *cfg.instance, cfg.remote_shards);
    std::optional<PersistenceConfig> persist = cfg.persist;
    init_persistence(*backend, persist);
    return std::make_unique<QueryService>(std::move(backend), cfg.options);
  }

  MPCMST_CHECK(cfg.engine != nullptr && cfg.instance != nullptr,
               "open: an in-process build needs an engine and an instance");
  mpc::Engine& eng = *cfg.engine;
  const graph::Instance& inst = *cfg.instance;

  if (!cfg.live) {
    MPCMST_CHECK(!cfg.persist.has_value(),
                 "open: persistence requires live = true (snapshot tiers are "
                 "immutable)");
    if (cfg.sharded)
      return std::make_unique<QueryService>(
          std::make_shared<const QueryRouter>(ShardedSensitivityIndex::build(
              eng, inst, clamp_shard_count(cfg.num_shards, inst.n()))),
          cfg.options);
    return std::make_unique<QueryService>(SensitivityIndex::build(eng, inst),
                                          cfg.options);
  }

  // One copy of the labels per process: an in-process live tier is the
  // monolith whatever `sharded` says.
  std::shared_ptr<UpdatableBackend> backend =
      LiveMonolithBackend::build(eng, inst);
  std::optional<PersistenceConfig> persist = cfg.persist;
  init_persistence(*backend, persist);
  return std::make_unique<QueryService>(std::move(backend), cfg.options);
}

void QueryService::checkpoint() {
  MPCMST_ASSERT(updatable_ != nullptr,
                "checkpoint: this service serves an immutable snapshot");
  updatable_->checkpoint();
}

UpdateReceipt QueryService::apply_update(Vertex u, Vertex v, Weight new_w) {
  MPCMST_ASSERT(updatable_ != nullptr,
                "apply_update: this service serves an immutable snapshot");
  return updatable_->apply_update(u, v, new_w);
}

UpdateReceipt QueryService::add_edge(Vertex u, Vertex v, Weight w) {
  MPCMST_ASSERT(updatable_ != nullptr,
                "add_edge: this service serves an immutable snapshot");
  return updatable_->add_edge(u, v, w);
}

UpdateReceipt QueryService::remove_edge(Vertex u, Vertex v) {
  MPCMST_ASSERT(updatable_ != nullptr,
                "remove_edge: this service serves an immutable snapshot");
  return updatable_->remove_edge(u, v);
}

std::vector<UpdateReceipt> QueryService::ingest(
    const std::vector<EdgeEvent>& events) {
  MPCMST_ASSERT(updatable_ != nullptr,
                "ingest: this service serves an immutable snapshot");
  // Chunked so one enormous stream cannot pin the writer lock (and the
  // readers out) for its whole duration; each chunk is one group commit.
  std::vector<UpdateReceipt> receipts;
  receipts.reserve(events.size());
  const std::size_t chunk = std::max<std::size_t>(opts_.chunk_size, 1);
  for (std::size_t lo = 0; lo < events.size(); lo += chunk) {
    const std::size_t hi = std::min(lo + chunk, events.size());
    std::vector<EdgeEvent> slice(events.begin() + static_cast<std::ptrdiff_t>(lo),
                                 events.begin() + static_cast<std::ptrdiff_t>(hi));
    auto part = updatable_->ingest(slice);
    receipts.insert(receipts.end(), part.begin(), part.end());
  }
  return receipts;
}

const SensitivityIndex& QueryService::index() const {
  const auto* mono = dynamic_cast<const MonolithicBackend*>(backend_.get());
  MPCMST_ASSERT(mono != nullptr,
                "QueryService::index(): backend is not monolithic — use "
                "backend() instead");
  return mono->index();
}

Answer QueryService::answer(const Query& q) {
  served_.fetch_add(1, std::memory_order_relaxed);
  ServiceMetrics& tm = service_metrics();
  const auto kind = static_cast<std::size_t>(q.kind) % kNumQueryKinds;
  tm.queries[kind]->inc();
  ScopedLatency lat(*tm.query_latency[kind]);
  return q.kind == QueryKind::kStillMst ? answer_cached(q)
                                        : backend_->answer(q);
}

Answer QueryService::answer_cached(const Query& q) {
  if (!cache_.enabled()) return backend_->answer(q);
  const std::uint64_t generation = backend_->generation();
  const CacheKey key{backend_->fingerprint(), q};
  if (auto hit = cache_.get(key)) return *std::move(hit);
  Answer a = backend_->answer(q);
  // Insert only if no update landed while the answer was computed: the
  // fingerprint alone cannot tell (an update plus a revert restores it),
  // the strictly increasing generation can.  A skipped insert is just a
  // cold entry; a poisoned key would be a wrong answer forever.
  if (backend_->generation() == generation) cache_.put(key, a);
  return a;
}

std::vector<Answer> QueryService::answer_batch(
    const std::vector<Query>& queries) {
  const std::size_t n = queries.size();
  std::vector<Answer> out(n);
  if (n == 0) return out;
  served_.fetch_add(n, std::memory_order_relaxed);
  ServiceMetrics& tm = service_metrics();
  tm.batches->inc();
  tm.batch_size->record(n);
  ScopedLatency batch_lat(*tm.batch_latency);

  // Counting-sort into buckets: one per backend shard hint, then one last
  // bucket for still_mst (the only cached kind).  Per-kind totals ride the
  // same pass, flushed as one striped add per kind.
  const std::size_t num_hints =
      std::max<std::size_t>(backend_->num_shards(), 1);
  const std::size_t cached_bucket = num_hints;
  std::array<std::uint64_t, kNumQueryKinds> kind_counts{};
  std::vector<std::uint32_t> bounds(num_hints + 2, 0);
  std::vector<std::uint32_t> bucket(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Query& q = queries[i];
    ++kind_counts[static_cast<std::size_t>(q.kind) % kNumQueryKinds];
    std::size_t b = 0;
    if (q.kind == QueryKind::kStillMst)
      b = cached_bucket;
    else if (num_hints > 1)
      b = backend_->shard_hint(q);
    bucket[i] = static_cast<std::uint32_t>(b);
    ++bounds[b + 1];
  }
  for (std::size_t k = 0; k < kNumQueryKinds; ++k)
    if (kind_counts[k] > 0) tm.queries[k]->inc(kind_counts[k]);
  for (std::size_t b = 0; b <= num_hints; ++b) bounds[b + 1] += bounds[b];
  std::vector<std::uint32_t> order(n);
  {
    std::vector<std::uint32_t> cursor(bounds.begin(), bounds.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
      order[cursor[bucket[i]]++] = static_cast<std::uint32_t>(i);
  }

  // Cut the runs.  Batched (remote) backends get whole shard-runs — one RPC
  // each; in-process backends get chunk_size slices of the shard-sorted
  // order, so each pool task stays inside (at most two) shards' working sets
  // and takes the backend's reader lock once.  Each still_mst is its own
  // run: milliseconds of certificate work apiece.
  const std::size_t cached_lo = bounds[cached_bucket];
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  if (backend_->batched_runs()) {
    for (std::size_t b = 0; b < num_hints; ++b)
      if (bounds[b + 1] > bounds[b])
        runs.emplace_back(bounds[b], bounds[b + 1]);
  } else {
    for (std::size_t lo = 0; lo < cached_lo;) {
      const std::size_t hi = lo + std::min(opts_.chunk_size, cached_lo - lo);
      runs.emplace_back(lo, hi);
      lo = hi;
    }
  }
  for (std::size_t r = cached_lo; r < n; ++r) runs.emplace_back(r, r + 1);

  // Telemetry once per run: its per-query mean, recorded once per kind with
  // that kind's count, so histogram counts still equal queries answered.
  // The enabled check is hoisted so a disabled registry costs nothing.
  const bool timed = metrics_enabled();
  pool_.run_tasks(runs.size(), [&](std::size_t t) {
    const auto [lo, hi] = runs[t];
    const std::uint64_t t0 = timed ? metrics_now_ns() : 0;
    std::array<std::uint64_t, kNumQueryKinds> run_kinds{};
    std::vector<Query> qs;
    qs.reserve(hi - lo);
    for (std::size_t r = lo; r < hi; ++r) {
      qs.push_back(queries[order[r]]);
      ++run_kinds[static_cast<std::size_t>(qs.back().kind) % kNumQueryKinds];
    }
    if (lo >= cached_lo) {
      out[order[lo]] = answer_cached(qs.front());
    } else {
      std::vector<Answer> ans = backend_->answer_many(qs);
      for (std::size_t r = lo; r < hi; ++r)
        out[order[r]] = std::move(ans[r - lo]);
    }
    if (!timed) return;
    const std::uint64_t mean = (metrics_now_ns() - t0) / (hi - lo);
    for (std::size_t k = 0; k < kNumQueryKinds; ++k)
      tm.query_latency[k]->record_n(mean, run_kinds[k]);
  });
  return out;
}

Answer QueryService::price_change(Vertex u, Vertex v, Weight delta) {
  return answer(Query::price_change(u, v, delta));
}

Answer QueryService::replacement_edge(Vertex u, Vertex v) {
  return answer(Query::replacement_edge(u, v));
}

Answer QueryService::top_k_fragile(std::int64_t k) {
  return answer(Query::top_k_fragile(k));
}

Answer QueryService::still_mst(std::vector<PriceChange> changes) {
  return answer(Query::still_mst(std::move(changes)));
}

Answer QueryService::corridor_headroom(Vertex u, Vertex v) {
  return answer(Query::corridor_headroom(u, v));
}

QueryService::Stats QueryService::stats() const {
  Stats s;
  s.queries_served = served_.load(std::memory_order_relaxed);
  s.generation = backend_->generation();
  s.cache = cache_.stats();
  s.telemetry = telemetry_snapshot();
  return s;
}

}  // namespace mpcmst::service
