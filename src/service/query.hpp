// Query and answer types of the sensitivity service, plus the stateless
// single-query evaluator.
//
// Every query is answered in O(1) (or O(k) for top-k) host-side work against
// an immutable SensitivityIndex; the tie convention follows Definition 1.2
// throughout (a weight change that creates a tie keeps T optimal).
//
// Queries are value types with a canonical form (endpoints are
// order-insensitive), so equal questions hash equally — the property the
// result cache keys on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "service/index.hpp"
#include "service/status.hpp"
#include "verify/still_mst.hpp"

namespace mpcmst::service {

enum class QueryKind : std::uint8_t {
  kPriceChange,       // edge {u, v}, delta: does T stay optimal?
  kReplacementEdge,   // tree edge {u, v}: cheapest swap-in cover
  kTopKFragile,       // k tree edges with least sensitivity
  kCorridorHeadroom,  // edge {u, v}: its sensitivity (Definition 1.2)
  kStillMst,          // batch of absolute reweights: is T still an MST?
};

/// One entry of a still_mst batch: edge {u, v} priced at `new_w` (absolute,
/// not a delta — a scenario fixes prices, it does not accumulate shocks).
struct PriceChange {
  Vertex u = -1;
  Vertex v = -1;
  Weight new_w = 0;

  friend bool operator==(const PriceChange&, const PriceChange&) = default;
};

struct Query {
  QueryKind kind = QueryKind::kCorridorHeadroom;
  Vertex u = -1;
  Vertex v = -1;
  Weight delta = 0;
  std::int64_t k = 0;
  std::vector<PriceChange> changes;  // kStillMst only, canonicalized

  static Query price_change(Vertex u, Vertex v, Weight delta);
  static Query replacement_edge(Vertex u, Vertex v);
  static Query top_k_fragile(std::int64_t k);
  static Query corridor_headroom(Vertex u, Vertex v);
  /// Canonicalizes the batch: endpoints ordered within each change, weights
  /// clamped to the sentinel band, duplicates of one edge collapsed to the
  /// last occurrence (a scenario's final word on that price), entries sorted
  /// by endpoints.  Permuted-but-equal change sets therefore compare — and
  /// hash — equal, which is what the result cache keys on.
  static Query still_mst(std::vector<PriceChange> changes);

  friend bool operator==(const Query&, const Query&) = default;
};

struct QueryHash {
  std::size_t operator()(const Query& q) const noexcept {
    HashStream h(static_cast<std::uint64_t>(q.kind));
    h.mix(static_cast<std::uint64_t>(q.u))
        .mix(static_cast<std::uint64_t>(q.v))
        .mix(static_cast<std::uint64_t>(q.delta))
        .mix(static_cast<std::uint64_t>(q.k));
    for (const PriceChange& c : q.changes)
      h.mix(hash_combine(static_cast<std::uint64_t>(c.u),
                         static_cast<std::uint64_t>(c.v),
                         static_cast<std::uint64_t>(c.new_w)));
    return static_cast<std::size_t>(h.digest());
  }
};

/// Per-answer verdicts are the first four values of the one status
/// taxonomy (status.hpp): kOk, kUnknownEdge, kNotApplicable and
/// kWouldDisconnect.
using Status = ServiceStatus;

/// One row of a top-k answer.
struct FragileEntry {
  Vertex child = -1;              // tree edge {child, p(child)}
  Vertex parent = -1;
  Weight w = 0;
  Weight sens = graph::kPosInfW;  // kPosInfW: no cover, infinitely robust
  std::int64_t replacement = -1;  // orig_id of the swap-in edge, -1 if none

  friend bool operator==(const FragileEntry&, const FragileEntry&) = default;
};

struct Answer {
  Status status = Status::kOk;
  EdgeRef edge;                   // resolved edge (edge queries)
  bool still_optimal = true;      // price_change / still_mst: T still optimal?
  Weight headroom = graph::kPosInfW;     // sensitivity of the queried edge
  Weight swap_cost = graph::kPosInfW;    // mc (tree) / maxpath (non-tree)
  std::int64_t replacement = -1;  // orig_id of the swap-in edge, -1 if none
  std::vector<FragileEntry> fragile;     // top_k_fragile only
  // still_mst only: the violating edges (ascending orig_id) — exactly the
  // violation set a fresh build on the reweighted instance would report.
  std::vector<verify::ViolationCert> certificates;

  friend bool operator==(const Answer&, const Answer&) = default;
};

/// Evaluate one query against the index.  Pure and thread-safe (the index is
/// immutable); the service wraps this with caching and a worker pool.
Answer answer_query(const SensitivityIndex& index, const Query& q);

// Backend-shared answer assembly: every evaluator (the monolithic
// answer_query above, the shard-routing QueryRouter) resolves an EdgeRef in
// its own way and delegates here, so all backends produce byte-identical
// answers for the same resolved edge.

/// One top-k row for the tree edge {child, p(child)}.
FragileEntry make_fragile_entry(Vertex child, const TreeEdgeInfo& e);

/// Answer a resolved point query on a tree edge (Definition 1.2, tree side).
Answer answer_for_tree_edge(const Query& q, EdgeRef ref, const TreeEdgeInfo& e);

/// Answer a resolved point query on a non-tree edge (Definition 1.2,
/// non-tree side; replacement_edge answers kNotApplicable).
Answer answer_for_nontree_edge(const Query& q, EdgeRef ref,
                               const NonTreeEdgeInfo& e);

/// Resolve a still_mst batch against any EdgeRef resolver, in batch order.
/// Returns kUnknownEdge (and clears `out`) if any change resolves nowhere —
/// a scenario naming a nonexistent edge has no well-defined answer.  Every
/// change resolves against the PRE-batch state with the index's precedence
/// (tree edge first, then the lightest duplicate), matching the oracle's
/// "apply all k, then rebuild" reading of a simultaneous batch.
template <typename FindFn>
Status resolve_changes(FindFn&& find, const std::vector<PriceChange>& batch,
                       std::vector<verify::ResolvedChange>& out) {
  out.clear();
  out.reserve(batch.size());
  for (const PriceChange& c : batch) {
    const std::optional<EdgeRef> ref = find(c.u, c.v);
    if (!ref) {
      out.clear();
      return Status::kUnknownEdge;
    }
    out.push_back(verify::ResolvedChange{ref->is_tree, ref->id, c.new_w});
  }
  return Status::kOk;
}

/// Human-readable one-liners for the REPL / logs.
std::string to_string(const Query& q);
std::string to_string(const Answer& a);

}  // namespace mpcmst::service
