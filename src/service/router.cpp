#include "service/router.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "common/check.hpp"

namespace mpcmst::service {

MonolithicBackend::MonolithicBackend(
    std::shared_ptr<const SensitivityIndex> index)
    : index_(std::move(index)) {
  MPCMST_ASSERT(index_ != nullptr, "MonolithicBackend: null index");
}

Answer MonolithicBackend::answer(const Query& q) const {
  return answer_query(*index_, q);
}

std::optional<NonTreeEdgeInfo> MonolithicBackend::nontree_info(
    std::int64_t orig_id) const {
  if (orig_id < 0 ||
      orig_id >= static_cast<std::int64_t>(index_->num_nontree()))
    return std::nullopt;
  return index_->nontree_edge(orig_id);
}

namespace {

Answer merge_top_k(const ShardedSensitivityIndex& index, const Query& q) {
  Answer a;
  const std::size_t total = index.n() ? index.n() - 1 : 0;
  const std::size_t k =
      std::min<std::size_t>(static_cast<std::size_t>(q.k), total);
  a.fragile.reserve(k);
  if (k == 0) return a;

  // One heap entry per non-empty shard: its next unconsumed fragility rank.
  struct Head {
    Weight sens;
    Vertex child;
    std::size_t shard;
    std::size_t pos;
  };
  const auto after = [](const Head& x, const Head& y) {
    return x.sens != y.sens ? x.sens > y.sens : x.child > y.child;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(after)> heap(after);
  for (std::size_t i = 0; i < index.num_shards(); ++i) {
    const IndexShard& s = index.shard(i);
    if (s.fragile_order.empty()) continue;
    const Vertex child = s.fragile_order.front();
    heap.push(Head{s.tree_sens(child), child, i, 0});
  }
  while (a.fragile.size() < k && !heap.empty()) {
    const Head head = heap.top();
    heap.pop();
    const IndexShard& s = index.shard(head.shard);
    a.fragile.push_back(
        make_fragile_entry(head.child, s.tree_edge(head.child)));
    const std::size_t next = head.pos + 1;
    if (next < s.fragile_order.size()) {
      const Vertex child = s.fragile_order[next];
      heap.push(Head{s.tree_sens(child), child, head.shard, next});
    }
  }
  return a;
}

Answer merge_still_mst(const ShardedSensitivityIndex& index, const Query& q) {
  Answer a;
  std::vector<verify::ResolvedChange> resolved;
  a.status = resolve_changes(
      [&index](Vertex u, Vertex v) -> std::optional<EdgeRef> {
        const auto res = index.resolve(u, v);
        if (!res) return std::nullopt;
        return res->ref;
      },
      q.changes, resolved);
  if (a.status != Status::kOk) return a;

  const verify::BatchCertifier cert(
      index.topology(),
      [&index](Vertex child) {
        const IndexShard& s = index.shard(index.shard_of(child));
        return s.tree.w[static_cast<std::size_t>(child - s.lo)];
      },
      resolved);
  for (std::size_t i = 0; i < index.num_shards(); ++i) {
    const IndexShard& s = index.shard(i);
    for (std::size_t r = 0; r < s.nontree_ids.size(); ++r)
      if (const auto viol =
              cert.certify(s.nontree_ids[r], s.nontree.u[r], s.nontree.v[r],
                           s.nontree.w[r], s.nontree.maxpath[r]))
        a.certificates.push_back(*viol);
  }
  // Per-shard rosters ascend in orig_id but interleave across shards; the
  // monolith scans ascending globally, so merge to that order.
  std::sort(a.certificates.begin(), a.certificates.end(),
            [](const verify::ViolationCert& x, const verify::ViolationCert& y) {
              return x.orig_id < y.orig_id;
            });
  a.still_optimal = a.certificates.empty();
  return a;
}

Answer route_query(const ShardedSensitivityIndex& index, const Query& q) {
  if (q.kind == QueryKind::kTopKFragile) return merge_top_k(index, q);
  if (q.kind == QueryKind::kStillMst) return merge_still_mst(index, q);
  const auto res = index.resolve(q.u, q.v);
  if (!res) {
    Answer a;
    a.status = Status::kUnknownEdge;
    return a;
  }
  // The entry-owning shard always owns the referenced labels (a tree entry
  // lives with its child, a non-tree entry with its min endpoint), so the
  // whole point query is one shard-local lookup.
  if (res->ref.is_tree)
    return answer_for_tree_edge(q, res->ref,
                                res->shard->tree_edge(res->ref.id));
  const std::optional<NonTreeEdgeInfo> e =
      res->shard->nontree_edge(res->ref.id);
  MPCMST_ASSERT(e.has_value(), "router: resolved non-tree edge "
                                   << res->ref.id << " missing from shard");
  return answer_for_nontree_edge(q, res->ref, *e);
}

}  // namespace

QueryRouter::QueryRouter(std::shared_ptr<const ShardedSensitivityIndex> index)
    : index_(std::move(index)) {
  MPCMST_ASSERT(index_ != nullptr, "QueryRouter: null sharded index");
}

std::optional<EdgeRef> QueryRouter::find(Vertex u, Vertex v) const {
  const auto res = index_->resolve(u, v);
  if (!res) return std::nullopt;
  return res->ref;
}

Answer QueryRouter::answer(const Query& q) const {
  return route_query(*index_, q);
}

std::size_t QueryRouter::shard_hint(const Query& q) const {
  if (q.kind == QueryKind::kTopKFragile || q.kind == QueryKind::kStillMst)
    return 0;  // fan-out queries touch every shard; no single-shard hint
  const Vertex a = std::min(q.u, q.v);
  if (a < 0 || a >= static_cast<Vertex>(index_->n())) return 0;
  return index_->shard_of(a);
}

}  // namespace mpcmst::service
