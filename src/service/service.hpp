// QueryService: the serve-many half of the sensitivity engine.
//
// Owns a shared immutable IndexBackend (monolithic snapshot or sharded
// router — the pool is agnostic), a thread pool, and an LRU cache of
// still_mst answers keyed by (graph fingerprint, canonical query).  Point
// queries and top-k are answered straight from the labels: the precomputed
// index makes each one O(1)-ish host work, cheaper than any cache probe.
// Batches are counting-sorted into backend-shard runs and each run is
// answered with one IndexBackend::answer_many() on the pool — one reader
// lock per run on the live backends, one RPC per shard-run on remote ones.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/parallel.hpp"
#include "service/cache.hpp"
#include "service/index.hpp"
#include "service/journal.hpp"
#include "service/query.hpp"
#include "service/router.hpp"
#include "service/telemetry.hpp"
#include "service/update.hpp"

namespace mpcmst::service {

struct ServiceOptions {
  /// Total concurrency for batched queries (including the calling thread);
  /// 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Cached still_mst answers; 0 disables the cache.
  std::size_t cache_capacity = 1 << 16;
  /// Batch entries per worker task (tune against per-task overhead).
  std::size_t chunk_size = 256;
};

/// What a recovery found on disk (optional out-param for operators/tests).
struct RecoveredInfo {
  std::uint64_t snapshot_generation = 0;  // the snapshot replay started from
  std::uint64_t replayed_records = 0;     // journal tail applied on top
  bool journal_was_torn = false;          // a torn tail was truncated
};

/// One declarative description of a serving deployment, consumed by
/// QueryService::open() — the single factory every deployment shape funnels
/// through.  Call sites spell it with designated initializers, e.g.
/// `QueryService::open({.engine = &eng, .instance = &inst, .live = true})`.
///
/// Shapes, by flag:
///   - in-process snapshot:        engine+instance            (sharded?)
///   - in-process live:            engine+instance, live=true (persist?) —
///                                 always the monolith: one copy of the
///                                 labels per process; `sharded` and
///                                 `num_shards` are ignored here
///   - recovery:                   recover_existing=true, persist required
///   - networked, read-only:       remote_shards non-empty, live=false —
///                                 attach to already-running shard servers
///   - networked, leader:          remote_shards non-empty, live=true,
///                                 engine+instance — build here, bootstrap
///                                 the servers, drive them with patches
struct ServiceConfig {
  /// Build inputs (required unless recover_existing or a read-only remote
  /// attach).
  mpc::Engine* engine = nullptr;
  const graph::Instance* instance = nullptr;

  // Static (live = false) tier only: a QueryRouter over vertex-range shards
  // vs one monolith.  Clamped to [1, n]; see effective_shards.
  bool sharded = false;
  std::size_t num_shards = 1;
  bool live = false;           // updatable generation layer

  std::optional<PersistenceConfig> persist;
  bool recover_existing = false;       // reconstruct from persist->dir
  RecoveredInfo* recovered = nullptr;  // out-param for recoveries (optional)

  /// Non-empty: the networked shard tier.  One endpoint per shard, in shard
  /// order ("host:port" or "unix:/path"); `sharded`/`num_shards` are implied
  /// by the list.
  std::vector<std::string> remote_shards;

  ServiceOptions options;
};

class QueryService {
 public:
  /// Serve any backend: a MonolithicBackend or a QueryRouter over shards.
  explicit QueryService(std::shared_ptr<const IndexBackend> backend,
                        ServiceOptions opts = {});
  /// Convenience: wrap a monolithic snapshot (keeps index() available).
  explicit QueryService(std::shared_ptr<const SensitivityIndex> index,
                        ServiceOptions opts = {});
  /// Serve an updatable backend: queries flow as usual, and apply_update()
  /// absorbs confirmed changes into the same backend.
  explicit QueryService(std::shared_ptr<UpdatableBackend> backend,
                        ServiceOptions opts = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// THE factory: open the deployment `cfg` describes (see ServiceConfig).
  /// Throws ModelError (or ServiceError for network faults) when the config
  /// is inconsistent or the deployment cannot be reached/recovered.
  ///
  /// A live tier with `persist` is crash-consistent: the directory starts
  /// with a generation-0 snapshot and every applied update is journaled
  /// before its generation is visible.  Recovery (recover_existing) loads
  /// the newest valid snapshot, truncates any torn journal tail, replays the
  /// rest through the ordinary update path (each step's fingerprint chain
  /// and classification checked against its record) and resumes journaling;
  /// the result answers byte-identically to a tier that never crashed.
  static std::unique_ptr<QueryService> open(const ServiceConfig& cfg);

  /// Answer one query inline on the calling thread (still_mst through the
  /// cache, every other kind straight from the backend).
  Answer answer(const Query& q);

  /// Answer a batch; answers align with queries by position, and each one is
  /// byte-identical to what answer() would have returned for that query.
  /// Queries are counting-sorted by backend().shard_hint() and cut into
  /// runs — whole shard-runs when backend().batched_runs(), chunk_size
  /// slices of the sorted order otherwise — each answered by one
  /// answer_many() on the pool.  still_mst entries run one per task through
  /// the same cache as answer().
  std::vector<Answer> answer_batch(const std::vector<Query>& queries);

  // Typed shorthands for the five query families.
  Answer price_change(Vertex u, Vertex v, Weight delta);
  Answer replacement_edge(Vertex u, Vertex v);
  Answer top_k_fragile(std::int64_t k);
  Answer corridor_headroom(Vertex u, Vertex v);
  /// Batched verification (the scenario query): is T still an MST when all
  /// of `changes` land at once — and if not, which edges certify it?
  Answer still_mst(std::vector<PriceChange> changes);

  /// The answer source (works for every backend).
  const IndexBackend& backend() const { return *backend_; }

  /// Was this service built over an updatable backend?
  bool updatable() const { return updatable_ != nullptr; }

  /// The updatable view of the backend (null for immutable snapshots).
  const UpdatableBackend* updatable_backend() const {
    return updatable_.get();
  }
  UpdatableBackend* updatable_backend() { return updatable_.get(); }

  /// Absorb one confirmed change (asserts updatable()).  The backend rotates
  /// its fingerprint, so cached still_mst answers of the previous generation
  /// can never be served for the new one — they stop matching and age out.
  UpdateReceipt apply_update(Vertex u, Vertex v, Weight new_w);

  /// Insert a brand-new edge / delete an existing one (asserts updatable();
  /// see UpdatableBackend for the class and refusal semantics).
  UpdateReceipt add_edge(Vertex u, Vertex v, Weight w);
  UpdateReceipt remove_edge(Vertex u, Vertex v);

  /// Absorb a raw event stream (asserts updatable()).  Events are applied in
  /// order in chunks of opts.chunk_size, each chunk group-committed with one
  /// journal append + fsync; receipts align with events by position.
  std::vector<UpdateReceipt> ingest(const std::vector<EdgeEvent>& events);

  /// Force a snapshot + journal compaction now (asserts updatable(); no-op
  /// on tiers built without a PersistenceConfig).
  void checkpoint();

  /// The monolithic snapshot; only valid when the service was constructed
  /// from one (asserts otherwise) — sharded callers go through backend().
  const SensitivityIndex& index() const;

  struct Stats {
    std::uint64_t queries_served = 0;  // this service instance
    std::uint64_t generation = 0;      // backend generation at snapshot time
    CacheStats cache;                  // this instance's still_mst cache
                                       // (incl. evictions)
    TelemetrySnapshot telemetry;       // process-wide registry slice
  };
  Stats stats() const;

  std::size_t num_threads() const { return pool_.size(); }

 private:
  /// Cache key: the graph fingerprint pins every entry to the instance it
  /// answered, so the cache survives incremental updates — entries of a
  /// superseded generation stop matching (and an update sequence that lands
  /// back on a byte-identical instance legitimately re-validates them).
  struct CacheKey {
    std::uint64_t fingerprint = 0;
    Query query;

    friend bool operator==(const CacheKey&, const CacheKey&) = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const noexcept {
      return static_cast<std::size_t>(
          hash_combine(k.fingerprint, QueryHash{}(k.query)));
    }
  };

  /// still_mst through the cache, gated on the generation (see answer()).
  Answer answer_cached(const Query& q);

  std::shared_ptr<const IndexBackend> backend_;
  std::shared_ptr<UpdatableBackend> updatable_;  // same object, if updatable
  ServiceOptions opts_;
  LruCache<CacheKey, Answer, CacheKeyHash> cache_;
  std::atomic<std::uint64_t> served_{0};
  ThreadPool pool_;
};

}  // namespace mpcmst::service
