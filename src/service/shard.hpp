// Sharded sensitivity snapshot: the SensitivityIndex partitioned by vertex
// range, so one logical index can span machines.
//
// The MPC layer computes every label with machines that hold only an
// O(n^δ)-word slice of the instance; a monolithic snapshot abandons that
// memory model at the serving layer.  ShardedSensitivityIndex restores it:
// shard i holds only the labels for child vertices in its range [lo, hi) —
//   - tree-edge infos for children in [lo, hi) (dense, offset by lo);
//   - the non-tree edges whose resolved EdgeRef lands in the range (an edge
//     is assigned to the shard owning its canonical min endpoint);
//   - the endpoint-map entries resolving to those edges (a tree entry lives
//     with its child, a non-tree entry with its min endpoint, so the shard
//     that resolves a key always owns the referenced labels);
//   - a locally-sorted fragility order (ascending sensitivity, ties by id);
//   - a per-shard cost receipt (resident words — the per-machine footprint).
// The fingerprint and the distributed build receipt are shared across shards.
//
// Two ways in: split() partitions an existing monolithic index; build() goes
// straight from the distributed run (verify::build_artifacts +
// mst_sensitivity_mpc) through per-range verify::ArtifactSlice views, never
// materializing the full endpoint map or fragility order on one host.  Both
// construct byte-identical shards; the QueryRouter (router.hpp) serves the
// four-query API over them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "service/index.hpp"

namespace mpcmst::service {

/// The serving-tier shard-count policy: a shard must own at least one
/// vertex to own any labels.  Shared by every serving entry point
/// (QueryService's sharded router, LiveShardedBackend) so the clamp can
/// never drift between them; the raw ShardedSensitivityIndex build/split
/// below stay unclamped for callers that want the explicit
/// empty-trailing-shard regime.
inline std::size_t clamp_shard_count(std::size_t num_shards, std::size_t n) {
  return std::clamp<std::size_t>(num_shards, 1, std::max<std::size_t>(1, n));
}

/// Per-shard footprint receipt: what one participant of the sharded serving
/// tier holds, in entries and (approximate) machine words.
struct ShardCost {
  std::size_t tree_edges = 0;        // non-root children in range
  std::size_t nontree_edges = 0;     // resolved non-tree edges assigned here
  std::size_t endpoint_entries = 0;  // endpoint-map entries
  std::size_t resident_words = 0;    // total words resident on this shard
};

/// One vertex-range slice [lo, hi) of the sensitivity snapshot.  Immutable
/// after construction (only ShardedSensitivityIndex builds it); all
/// accessors are const and thread-safe.
///
/// Labels are struct-of-arrays like the monolith's: tree columns dense over
/// [lo, hi), non-tree columns parallel to the sorted `nontree_ids` roster
/// (binary-searched on lookup — the ids are stable between swaps, and swaps
/// rebuild the whole shard anyway), so point queries touch only the columns
/// they read and the fragility scan streams flat arrays.
struct IndexShard {
  Vertex lo = 0;
  Vertex hi = 0;  // exclusive; lo == hi for an empty trailing shard
  TreeLabels tree;  // indexed by child - lo (root slot unused)
  std::vector<std::int64_t> nontree_ids;  // sorted orig_ids assigned here
  NonTreeLabels nontree;                  // parallel to nontree_ids
  std::unordered_map<std::uint64_t, EdgeRef> by_endpoints;
  std::vector<Vertex> fragile_order;  // children by (sens, id) ascending
  std::size_t violations = 0;         // non-tree edges lighter than their path
  std::uint64_t generation = 0;       // epoch stamp (matches the index's)
  ShardCost cost;

  bool owns(Vertex v) const { return v >= lo && v < hi; }

  /// `child` must be owned by this shard.
  TreeEdgeInfo tree_edge(Vertex child) const {
    return tree.get(static_cast<std::size_t>(child - lo));
  }

  /// Sensitivity of an owned tree edge without assembling the full record
  /// (the top-k merge's inner loop).
  Weight tree_sens(Vertex child) const {
    return tree.sens[static_cast<std::size_t>(child - lo)];
  }

  /// Slot of `orig_id` in the non-tree columns, or -1 if not assigned here.
  std::ptrdiff_t nontree_slot(std::int64_t orig_id) const {
    const auto it =
        std::lower_bound(nontree_ids.begin(), nontree_ids.end(), orig_id);
    if (it == nontree_ids.end() || *it != orig_id) return -1;
    return it - nontree_ids.begin();
  }

  /// Empty if `orig_id` is not assigned to this shard.
  std::optional<NonTreeEdgeInfo> nontree_edge(std::int64_t orig_id) const {
    const std::ptrdiff_t slot = nontree_slot(orig_id);
    if (slot < 0) return std::nullopt;
    return nontree.get(static_cast<std::size_t>(slot));
  }

  /// Shard-local endpoint resolution (no bounds checks — the router owns
  /// those and probes at most two shards per key).
  std::optional<EdgeRef> find(std::uint64_t key) const {
    const auto it = by_endpoints.find(key);
    if (it == by_endpoints.end()) return std::nullopt;
    return it->second;
  }
};

// In-place patch primitives over one shard's slice: how a shard host
// (ShardHost::apply_patch, net/server.hpp) applies one committed update.
// Each host derives from the patch which entries it owns.

/// Overwrite the labels of owned tree edge {child, p(child)}, repositioning
/// the child inside the shard-local fragility order when its sensitivity
/// moved.  `child` must be owned by `s`.
void shard_patch_tree(IndexShard& s, Vertex child, const TreeEdgeInfo& info);

/// Reconcile non-tree edge `id` with this shard: when `owned`, upsert it
/// into the sorted roster (labels overwritten in place when the slot already
/// exists); otherwise erase any stale slot (the edge moved to another
/// shard).  Returns true if the roster membership changed.
bool shard_patch_nontree(IndexShard& s, bool owned, std::int64_t id,
                         const NonTreeEdgeInfo& info);

/// Upsert one endpoint-map entry; a ref with is_tree == false && id < 0 is
/// the erase marker (see ChangedSet in update.hpp).  The caller routes the
/// key to the shard owning its high vertex (key >> 32).
void shard_patch_endpoint(IndexShard& s, std::uint64_t key, const EdgeRef& ref);

/// Recompute the shard's cost receipt from its current sizes — a pure
/// function of the slice, so refreshing an untouched shard is a no-op (the
/// same formula as ShardedSensitivityIndex's finalize()).
void shard_refresh_cost(IndexShard& s);

/// The sensitivity snapshot as a set of vertex-range shards.  Same answers
/// as the monolithic SensitivityIndex (byte-identical, see QueryRouter), but
/// no single shard ever holds more than its range's slice of the labeling.
class ShardedSensitivityIndex {
 public:
  /// Run the distributed pipeline once and write the labels straight into
  /// shards via per-range verify::ArtifactSlice views — the full index is
  /// never materialized on one host.
  static std::shared_ptr<const ShardedSensitivityIndex> build(
      mpc::Engine& eng, const graph::Instance& inst, std::size_t num_shards);

  /// Partition an existing monolithic snapshot (e.g. to migrate a serving
  /// tier without re-running the distributed build).
  static std::shared_ptr<const ShardedSensitivityIndex> split(
      const SensitivityIndex& full, std::size_t num_shards);

  std::size_t n() const { return n_; }
  std::size_t num_nontree() const { return num_nontree_; }
  Vertex root() const { return root_; }
  bool is_mst() const { return violations_ == 0; }
  std::size_t violations() const { return violations_; }
  std::uint64_t fingerprint() const { return fingerprint_; }
  const CostReceipt& receipt() const { return receipt_; }

  /// Update epoch: 0 for a freshly built index.  A loaded snapshot image
  /// carries the generation it was written at; the sharded live tier stamps
  /// the slices it ships to its hosts.  The top-k merge refuses to combine
  /// shards carrying different stamps (the barrier that keeps one merged
  /// answer from mixing generations).
  std::uint64_t generation() const { return generation_; }

  std::size_t num_shards() const { return shards_.size(); }
  const IndexShard& shard(std::size_t i) const { return shards_[i]; }

  /// Vertices per shard range (partition arithmetic; the networked tier
  /// mirrors shard_of() client-side from this and num_shards()).
  std::size_t stride() const { return stride_; }

  /// Which shard owns vertex `v` (0 <= v < n)?  O(1): ranges are uniform
  /// stride-sized blocks (trailing shards may be empty).
  std::size_t shard_of(Vertex v) const {
    return std::min(static_cast<std::size_t>(v) / stride_,
                    shards_.size() - 1);
  }

  /// Resolved edge plus the shard holding its labels.  By construction the
  /// entry-owning shard always owns the referenced info, so a resolution
  /// never needs a second hop.
  struct Resolved {
    EdgeRef ref;
    const IndexShard* shard = nullptr;
  };

  /// Resolve {u, v} (order-insensitive) by probing the shards of both
  /// endpoints — a tree entry lives with its child, which may be either one.
  std::optional<Resolved> resolve(Vertex u, Vertex v) const;

  /// `child` must be a valid vertex; routes to the owning shard.
  TreeEdgeInfo tree_edge(Vertex child) const {
    return shards_[shard_of(child)].tree_edge(child);
  }

  /// Lookup by orig_id scans the shards (display paths only — point queries
  /// resolve by endpoints and stay on one shard).
  std::optional<NonTreeEdgeInfo> nontree_info(std::int64_t orig_id) const;

  /// Largest per-shard footprint — the words one machine of the serving
  /// tier must hold (the quantity sharding exists to bound).
  std::size_t max_shard_words() const;

  /// Weight-agnostic topology view of the whole tree (see
  /// SensitivityIndex::topology).  Router-resident, not per-shard: the
  /// still_mst certificate merge asks global path questions the per-range
  /// label slices cannot answer alone, and the view costs O(n) words of
  /// structure (no labels) — the router already holds O(1) per-shard state.
  const verify::TreeTopology& topology() const { return topo_; }

 private:
  friend struct SnapshotCodec;      // snapshot.cpp (de)serializes the shards

  ShardedSensitivityIndex() = default;

  /// Carve [0, n) into `num_shards` stride-sized ranges.
  void init_partition(std::size_t n, std::size_t num_shards);
  /// Per-shard fragility sort, cost accounting, violation totals.
  void finalize();
  /// Reassemble topo_ from the per-shard parent columns (deserialization —
  /// the builds capture it from their prelude instead).  False if the
  /// columns do not form a rooted tree (corrupt snapshot).
  bool rebuild_topology();

  std::size_t n_ = 0;
  std::size_t num_nontree_ = 0;
  std::size_t stride_ = 1;
  std::size_t violations_ = 0;
  Vertex root_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t generation_ = 0;
  CostReceipt receipt_;
  verify::TreeTopology topo_;
  std::vector<IndexShard> shards_;
};

}  // namespace mpcmst::service
