// Backend abstraction and query routing for the serving layer.
//
// QueryService (service.hpp) owns worker threads and a still_mst cache;
// neither cares where answers come from.  IndexBackend is that seam: a
// thread-safe, immutable answer source with the metadata the serving layer
// and the CLI surfaces need.  Two implementations:
//   - MonolithicBackend — adapts the single-host SensitivityIndex;
//   - QueryRouter — serves the same four-query API over a
//     ShardedSensitivityIndex: point queries resolve by endpoint-map lookup
//     in at most two shards (a tree entry lives with its child, which may be
//     either endpoint), and top_k_fragile runs a k-way heap merge over the
//     per-shard fragility orders.
// Both delegate answer assembly to the shared helpers in query.hpp, so a
// query answered through any backend returns byte-identical bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "service/index.hpp"
#include "service/query.hpp"
#include "service/shard.hpp"

namespace mpcmst::service {

/// What the serving layer needs from an index, monolithic or sharded.  All
/// implementations are safe to call from concurrent workers: the snapshot
/// backends below are immutable after construction, and the updatable ones
/// (update.hpp) synchronize internally and advance `generation()` on every
/// applied change.
class IndexBackend {
 public:
  virtual ~IndexBackend() = default;

  /// Evaluate one query (pure; the service caches only still_mst answers).
  virtual Answer answer(const Query& q) const = 0;

  virtual std::size_t n() const = 0;
  virtual std::size_t num_nontree() const = 0;
  virtual bool is_mst() const = 0;
  virtual std::size_t violations() const = 0;
  virtual std::uint64_t fingerprint() const = 0;
  virtual const CostReceipt& receipt() const = 0;
  virtual std::size_t num_shards() const = 0;

  /// Strictly increasing update counter; constant 0 for immutable snapshot
  /// backends.  The service uses it to revalidate still_mst cache inserts:
  /// an answer is cached only if no update landed while it was computed (the
  /// fingerprint alone is not enough — an update plus a revert restores the
  /// fingerprint but not the moment in time).
  virtual std::uint64_t generation() const { return 0; }

  /// Which shard's data a point query will touch (always 0 on monolithic
  /// backends).  A routing *hint* only — used by the batch fast path to sort
  /// a batch into shard-runs so consecutive queries stay cache-local; it
  /// never affects answers.  Must be callable without taking backend locks.
  virtual std::size_t shard_hint(const Query&) const { return 0; }

  /// Should a batch be cut into whole shard-runs?  Remote backends
  /// (net/client.hpp) say yes: answer_batch then issues one answer_many()
  /// per counting-sorted shard-run — one RPC per shard instead of one per
  /// query.  In-process backends keep the default and get chunk_size slices
  /// of the shard-sorted order instead, one answer_many() each.
  virtual bool batched_runs() const { return false; }

  /// Answer a run of queries (answers align by position, each byte-identical
  /// to answer() of that query).  The default is the plain loop; the live
  /// backends (update.hpp) override it to take their reader lock once per
  /// run, remote backends to send one batched RPC.
  virtual std::vector<Answer> answer_many(const std::vector<Query>& qs) const {
    std::vector<Answer> out;
    out.reserve(qs.size());
    for (const Query& q : qs) out.push_back(answer(q));
    return out;
  }

  /// Resolve an edge by endpoints (order-insensitive; same precedence rules
  /// on every backend: tree wins, then the lightest duplicate).
  virtual std::optional<EdgeRef> find(Vertex u, Vertex v) const = 0;

  /// Non-tree edge labels by orig_id (display paths, e.g. printing the
  /// endpoints of a replacement edge).
  virtual std::optional<NonTreeEdgeInfo> nontree_info(
      std::int64_t orig_id) const = 0;
};

/// The single-host snapshot behind the backend seam.
class MonolithicBackend final : public IndexBackend {
 public:
  explicit MonolithicBackend(std::shared_ptr<const SensitivityIndex> index);

  const SensitivityIndex& index() const { return *index_; }
  std::shared_ptr<const SensitivityIndex> index_ptr() const { return index_; }

  Answer answer(const Query& q) const override;
  std::size_t n() const override { return index_->n(); }
  std::size_t num_nontree() const override { return index_->num_nontree(); }
  bool is_mst() const override { return index_->is_mst(); }
  std::size_t violations() const override { return index_->violations(); }
  std::uint64_t fingerprint() const override { return index_->fingerprint(); }
  const CostReceipt& receipt() const override { return index_->receipt(); }
  std::size_t num_shards() const override { return 1; }
  std::optional<EdgeRef> find(Vertex u, Vertex v) const override {
    return index_->find(u, v);
  }
  std::optional<NonTreeEdgeInfo> nontree_info(
      std::int64_t orig_id) const override;

 private:
  std::shared_ptr<const SensitivityIndex> index_;
};

/// The shard a point query's first probe lands on (0 for top-k and
/// out-of-range endpoints): pure partition arithmetic, no shard data read —
/// safe to call concurrently with in-place updates.
std::size_t point_query_shard(const ShardedSensitivityIndex& index,
                              const Query& q);

/// The four-query API over vertex-range shards.
class QueryRouter final : public IndexBackend {
 public:
  explicit QueryRouter(std::shared_ptr<const ShardedSensitivityIndex> index);

  const ShardedSensitivityIndex& sharded() const { return *index_; }

  Answer answer(const Query& q) const override;
  std::size_t n() const override { return index_->n(); }
  std::size_t num_nontree() const override { return index_->num_nontree(); }
  bool is_mst() const override { return index_->is_mst(); }
  std::size_t violations() const override { return index_->violations(); }
  std::uint64_t fingerprint() const override { return index_->fingerprint(); }
  const CostReceipt& receipt() const override { return index_->receipt(); }
  std::size_t num_shards() const override { return index_->num_shards(); }
  std::size_t shard_hint(const Query& q) const override {
    return point_query_shard(*index_, q);
  }
  std::optional<EdgeRef> find(Vertex u, Vertex v) const override;
  std::optional<NonTreeEdgeInfo> nontree_info(
      std::int64_t orig_id) const override {
    return index_->nontree_info(orig_id);
  }

 private:
  std::shared_ptr<const ShardedSensitivityIndex> index_;
};

// Shared shard-routing evaluators: QueryRouter serves them over an immutable
// sharded snapshot, LiveShardedBackend (update.hpp) over a mutating one
// (under its own lock).  Keeping one implementation guarantees the two
// backends can never drift.

/// Evaluate one query against a sharded index: point queries resolve by
/// endpoint-map lookup in at most two shards, top-k goes to merge_top_k.
Answer route_query(const ShardedSensitivityIndex& index, const Query& q);

/// k-way merge over the per-shard fragility orders; (sens, child)
/// tie-breaking reproduces the monolithic global order exactly.  The merge
/// runs behind an epoch barrier: every consumed shard must carry the index's
/// current generation stamp, checked again after the merge — a torn update
/// (some shards patched, some not) can therefore never leak into one
/// combined answer.
Answer merge_top_k(const ShardedSensitivityIndex& index, const Query& q);

/// still_mst over shards: every change resolves through the endpoint maps
/// (≤2 probes each), then each shard certifies its own non-tree roster
/// against the batch (tree weights served from the owning shard's columns,
/// global path questions from the router-resident topology) and the router
/// merges the per-shard certificate lists into ascending orig_id — the
/// monolith's scan order, so answers stay byte-identical.  Runs behind the
/// same epoch barrier as merge_top_k.
Answer merge_still_mst(const ShardedSensitivityIndex& index, const Query& q);

}  // namespace mpcmst::service
