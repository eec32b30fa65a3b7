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

/// The four-query API over vertex-range shards (the static sharded tier).
/// Point queries resolve by endpoint-map lookup in at most two shards;
/// top-k is a k-way merge over the per-shard fragility orders, whose
/// (sens, child) tie-breaking reproduces the monolithic global order
/// exactly; still_mst resolves the batch through the endpoint maps, each
/// shard certifies its own non-tree roster (tree weights from the owning
/// shard's columns, global path questions from the router-resident
/// topology), and the certificates merge into ascending orig_id — the
/// monolith's scan order, so answers stay byte-identical.
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
  std::size_t shard_hint(const Query& q) const override;
  std::optional<EdgeRef> find(Vertex u, Vertex v) const override;
  std::optional<NonTreeEdgeInfo> nontree_info(
      std::int64_t orig_id) const override {
    return index_->nontree_info(orig_id);
  }

 private:
  std::shared_ptr<const ShardedSensitivityIndex> index_;
};

}  // namespace mpcmst::service
