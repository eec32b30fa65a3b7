// SensitivityIndex: the precompute-once half of the query service.
//
// One distributed run (verify::build_artifacts + verify_mst_mpc +
// mst_sensitivity_mpc over a shared prelude) is snapshotted into an
// immutable, host-side index:
//   - per tree edge {v, p(v)}: weight, mc (min covering non-tree weight,
//     Observation 4.3) and the concrete replacement edge achieving it;
//   - per non-tree edge: weight, maxpath (covering maximum, Observation 4.2);
//   - an endpoint map resolving {u, v} to either side;
//   - the fragility order (tree edges by ascending sensitivity);
//   - a cost receipt of the distributed build (rounds, memory, stats).
// Every subsequent what-if question is O(1) (or O(k)) local work against
// this snapshot — the serve-many half lives in service.hpp.
//
// The replacement edges are not part of the MPC output (the paper computes
// mc values, not argmins); the build derives them with the sequential
// covering relaxation [Tar82] and cross-checks w(replacement) == mc against
// the distributed result, so the index is self-validating on MST inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/instance.hpp"
#include "mpc/engine.hpp"
#include "sensitivity/sensitivity.hpp"
#include "verify/verifier.hpp"

namespace mpcmst::service {

using graph::Vertex;
using graph::Weight;

class LiveCore;  // update.hpp: the mutable generation layer (friended below)

/// Host-side scratch for the service builds' radix sorts (this layer has no
/// engine to lease from); thread_local so concurrent builds, parallel shard
/// slices and the update path's relabels never share buffers.
ScratchArena& host_scratch_arena();

/// Exact (not hashed) order-insensitive endpoint key; vertex ids fit in 32
/// bits for every instance that fits in memory.  Shared by the monolithic
/// endpoint map and the per-shard maps (both must agree byte-for-byte).
std::uint64_t endpoint_key(Vertex u, Vertex v);

/// Argmin covering non-tree edge per tree edge (keyed by child vertex): the
/// covering relaxation of [Tar82], same scheme as seq::sensitivity which only
/// keeps the weight.  -1 where uncovered.  Shared by the monolithic and the
/// sharded index builds, which both cross-check it against the distributed
/// mc values; the topology view can come straight from the distributed
/// prelude (verify::TreeTopology::from_artifacts) or from the raw tree.
std::vector<std::int64_t> replacement_edges(const graph::Instance& inst,
                                            const verify::TreeTopology& topo);

/// Resolved edge handle: a tree edge is keyed by its child endpoint, a
/// non-tree edge by its position in Instance::nontree.
struct EdgeRef {
  bool is_tree = false;
  std::int64_t id = -1;  // child vertex (tree) or orig_id (non-tree)

  friend bool operator==(const EdgeRef&, const EdgeRef&) = default;
};

/// Tree edge {v, p(v)}, indexed by child v (the root slot is unused).
struct TreeEdgeInfo {
  Vertex parent = -1;
  Weight w = 0;
  Weight mc = graph::kPosInfW;    // kPosInfW: uncovered (bridge in G)
  Weight sens = graph::kPosInfW;  // mc - w
  std::int64_t replacement = -1;  // orig_id of the argmin cover, -1 if none

  friend bool operator==(const TreeEdgeInfo&, const TreeEdgeInfo&) = default;
};

/// Non-tree edge, indexed by orig_id.
struct NonTreeEdgeInfo {
  Vertex u = 0;
  Vertex v = 0;
  Weight w = 0;
  Weight maxpath = graph::kNegInfW;  // kNegInfW: covers nothing (self loop)
  Weight sens = graph::kPosInfW;     // w - maxpath (kPosInfW if no cover)

  friend bool operator==(const NonTreeEdgeInfo&,
                         const NonTreeEdgeInfo&) = default;
};

// Label storage is struct-of-arrays: each field lives in its own contiguous
// array, so a point query touches only the cache lines of the fields it
// reads and the fragility scan streams one flat weight array instead of
// striding through 40-byte records.  TreeEdgeInfo / NonTreeEdgeInfo remain
// the value types of the query API — get()/set() assemble and scatter them.

/// SoA tree-edge labels, indexed by child vertex (or child - lo in a shard).
struct TreeLabels {
  std::vector<Vertex> parent;
  std::vector<Weight> w;
  std::vector<Weight> mc;
  std::vector<Weight> sens;
  std::vector<std::int64_t> replacement;

  std::size_t size() const { return parent.size(); }

  /// Resize to `n` children, every slot holding TreeEdgeInfo{} defaults.
  void assign(std::size_t n) {
    parent.assign(n, -1);
    w.assign(n, 0);
    mc.assign(n, graph::kPosInfW);
    sens.assign(n, graph::kPosInfW);
    replacement.assign(n, -1);
  }

  TreeEdgeInfo get(std::size_t i) const {
    return TreeEdgeInfo{parent[i], w[i], mc[i], sens[i], replacement[i]};
  }

  void set(std::size_t i, const TreeEdgeInfo& e) {
    parent[i] = e.parent;
    w[i] = e.w;
    mc[i] = e.mc;
    sens[i] = e.sens;
    replacement[i] = e.replacement;
  }

  /// Append the slice [lo, hi) of `src` (bulk column copies).
  void append_slice(const TreeLabels& src, std::size_t lo, std::size_t hi) {
    parent.insert(parent.end(), src.parent.begin() + lo,
                  src.parent.begin() + hi);
    w.insert(w.end(), src.w.begin() + lo, src.w.begin() + hi);
    mc.insert(mc.end(), src.mc.begin() + lo, src.mc.begin() + hi);
    sens.insert(sens.end(), src.sens.begin() + lo, src.sens.begin() + hi);
    replacement.insert(replacement.end(), src.replacement.begin() + lo,
                       src.replacement.begin() + hi);
  }

  friend bool operator==(const TreeLabels&, const TreeLabels&) = default;
};

/// SoA non-tree-edge labels, indexed by orig_id (or shard-local slot).
struct NonTreeLabels {
  std::vector<Vertex> u;
  std::vector<Vertex> v;
  std::vector<Weight> w;
  std::vector<Weight> maxpath;
  std::vector<Weight> sens;

  std::size_t size() const { return u.size(); }

  void assign(std::size_t n) {
    u.assign(n, 0);
    v.assign(n, 0);
    w.assign(n, 0);
    maxpath.assign(n, graph::kNegInfW);
    sens.assign(n, graph::kPosInfW);
  }

  void reserve(std::size_t n) {
    u.reserve(n);
    v.reserve(n);
    w.reserve(n);
    maxpath.reserve(n);
    sens.reserve(n);
  }

  NonTreeEdgeInfo get(std::size_t i) const {
    return NonTreeEdgeInfo{u[i], v[i], w[i], maxpath[i], sens[i]};
  }

  void set(std::size_t i, const NonTreeEdgeInfo& e) {
    u[i] = e.u;
    v[i] = e.v;
    w[i] = e.w;
    maxpath[i] = e.maxpath;
    sens[i] = e.sens;
  }

  void push_back(const NonTreeEdgeInfo& e) {
    u.push_back(e.u);
    v.push_back(e.v);
    w.push_back(e.w);
    maxpath.push_back(e.maxpath);
    sens.push_back(e.sens);
  }

  /// Insert a row at position `i` (a shard patch moving a slot between
  /// shards keeps its roster sorted, so inserts land mid-column).
  void insert(std::size_t i, const NonTreeEdgeInfo& e) {
    u.insert(u.begin() + static_cast<std::ptrdiff_t>(i), e.u);
    v.insert(v.begin() + static_cast<std::ptrdiff_t>(i), e.v);
    w.insert(w.begin() + static_cast<std::ptrdiff_t>(i), e.w);
    maxpath.insert(maxpath.begin() + static_cast<std::ptrdiff_t>(i), e.maxpath);
    sens.insert(sens.begin() + static_cast<std::ptrdiff_t>(i), e.sens);
  }

  /// Remove the row at position `i`.
  void erase(std::size_t i) {
    u.erase(u.begin() + static_cast<std::ptrdiff_t>(i));
    v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
    w.erase(w.begin() + static_cast<std::ptrdiff_t>(i));
    maxpath.erase(maxpath.begin() + static_cast<std::ptrdiff_t>(i));
    sens.erase(sens.begin() + static_cast<std::ptrdiff_t>(i));
  }

  friend bool operator==(const NonTreeLabels&, const NonTreeLabels&) = default;
};

/// What the one-time distributed build cost (served back with every
/// stats() call so operators can amortize it against query volume).
struct CostReceipt {
  std::size_t build_rounds = 0;       // total MPC rounds of the build
  std::size_t peak_global_words = 0;  // measured global memory g
  std::size_t input_words = 0;
  std::size_t lca_contraction_steps = 0;
  // Shards actually built.  The serving entry points (QueryService's
  // sharded router, LiveShardedBackend) clamp requests above the vertex
  // count, so through them this never exceeds n; the raw
  // ShardedSensitivityIndex build/split keep the explicit empty-trailing-
  // shard regime for callers that want it.
  std::size_t effective_shards = 1;
  verify::CoreStats verify_core;
  sensitivity::SensitivityStats sens_stats;
};

/// Immutable snapshot of one mst_sensitivity_mpc run.  Thread-safe by
/// construction: all accessors are const and the service shares it read-only.
class SensitivityIndex {
 public:
  /// Run the distributed pipeline on `eng` and snapshot the result.
  /// Verification rides on the same prelude: `is_mst()` records whether the
  /// tree really is an MST (sensitivity values are only meaningful if so).
  static std::shared_ptr<const SensitivityIndex> build(
      mpc::Engine& eng, const graph::Instance& inst);

  /// Snapshot the same labeling without an engine: sequential oracles
  /// (seq::sensitivity + the [Tar82] relaxation) fill the label arrays the
  /// distributed run would have produced — the two pipelines agree value-for-
  /// value on every input (the cross-check in build() enforces it), so the
  /// resulting index is byte-identical.  This is the relabel primitive of the
  /// incremental update path: swaps repair through it instead of paying the
  /// distributed pass again.  `receipt` carries forward the cost of the
  /// original distributed build (this call adds no rounds).
  static std::shared_ptr<const SensitivityIndex> build_host(
      const graph::Instance& inst, CostReceipt receipt = {});

  std::size_t n() const { return tree_.size(); }
  std::size_t num_nontree() const { return nontree_.size(); }
  Vertex root() const { return root_; }
  bool is_mst() const { return violations_ == 0; }
  std::size_t violations() const { return violations_; }

  /// 64-bit fingerprint of the underlying instance (cache key component).
  std::uint64_t fingerprint() const { return fingerprint_; }

  const CostReceipt& receipt() const { return receipt_; }

  /// `child` must be a non-root vertex.  Assembled from the SoA columns;
  /// returned by value (two cache lines of gathered fields).
  TreeEdgeInfo tree_edge(Vertex child) const {
    return tree_.get(static_cast<std::size_t>(child));
  }
  NonTreeEdgeInfo nontree_edge(std::int64_t orig_id) const {
    return nontree_.get(static_cast<std::size_t>(orig_id));
  }

  /// Raw SoA columns, for hot readers (top-k scans, shard splitting).
  const TreeLabels& tree_labels() const { return tree_; }
  const NonTreeLabels& nontree_labels() const { return nontree_; }

  /// Resolve an edge by endpoints (order-insensitive).  Tree edges win when
  /// both a tree and a non-tree edge join u and v (parallel edges); a
  /// non-tree duplicate resolves to the lightest one.
  std::optional<EdgeRef> find(Vertex u, Vertex v) const;

  /// Tree edges (as child vertices) by ascending sensitivity, ties by id.
  const std::vector<Vertex>& fragile_order() const { return fragile_order_; }

  /// Weight-agnostic topology view of the snapshotted tree (the path-repair
  /// primitive).  Captured by both build paths from the same prelude the
  /// labels came from; stays valid across reweights because it caches no
  /// weights, and is replaced wholesale on structure changes (the update
  /// path's swap relabels go through build_host, which installs a fresh one).
  const verify::TreeTopology& topology() const { return topo_; }

  /// Compute the instance fingerprint without building an index.
  static std::uint64_t fingerprint_of(const graph::Instance& inst);

 private:
  friend class LiveCore;      // the mutable generation layer patches snapshots
  friend struct SnapshotCodec;  // snapshot.cpp (de)serializes the columns

  SensitivityIndex() = default;

  /// Shared tail of both builds: replacement edges (+ cross-check against
  /// the mc labels already in tree_), endpoint map, fragility order.
  static void finish(SensitivityIndex& idx, const graph::Instance& inst,
                     const verify::TreeTopology& topo);

  Vertex root_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::size_t violations_ = 0;
  TreeLabels tree_;
  NonTreeLabels nontree_;
  std::vector<Vertex> fragile_order_;
  std::unordered_map<std::uint64_t, EdgeRef> by_endpoints_;
  verify::TreeTopology topo_;
  CostReceipt receipt_;
};

}  // namespace mpcmst::service
