#include "service/query.hpp"

#include <algorithm>
#include <sstream>

namespace mpcmst::service {

namespace {

/// Sentinel-aware weight formatting (kPosInfW is "unbounded", never a price).
std::string weight_str(Weight w) {
  if (w >= graph::kPosInfW) return "inf";
  if (w <= graph::kNegInfW) return "-inf";
  return std::to_string(w);
}

Query edge_query(QueryKind kind, Vertex u, Vertex v) {
  Query q;
  q.kind = kind;
  q.u = std::min(u, v);  // canonical: equal questions hash equally
  q.v = std::max(u, v);
  return q;
}

}  // namespace

Query Query::price_change(Vertex u, Vertex v, Weight delta) {
  Query q = edge_query(QueryKind::kPriceChange, u, v);
  // Clamp to the sentinel band: weights live well below kPosInfW (see
  // graph/types.hpp), so w + delta cannot overflow and any delta at the
  // band answers the same as the band edge.  Also canonicalizes cache keys.
  q.delta = std::clamp(delta, graph::kNegInfW, graph::kPosInfW);
  return q;
}

Query Query::replacement_edge(Vertex u, Vertex v) {
  return edge_query(QueryKind::kReplacementEdge, u, v);
}

Query Query::top_k_fragile(std::int64_t k) {
  Query q;
  q.kind = QueryKind::kTopKFragile;
  q.k = std::max<std::int64_t>(k, 0);
  return q;
}

Query Query::corridor_headroom(Vertex u, Vertex v) {
  return edge_query(QueryKind::kCorridorHeadroom, u, v);
}

Query Query::still_mst(std::vector<PriceChange> changes) {
  Query q;
  q.kind = QueryKind::kStillMst;
  for (PriceChange& c : changes) {
    if (c.u > c.v) std::swap(c.u, c.v);
    // Same sentinel-band clamp as price_change: weights live well inside the
    // band, so every clamped scenario answers like the band edge.
    c.new_w = std::clamp(c.new_w, graph::kNegInfW, graph::kPosInfW);
  }
  // Canonical form: sorted by endpoints, one entry per edge.  The sort is
  // stable so "last occurrence wins" survives it — a scenario that restates
  // a price means the restatement.
  std::stable_sort(changes.begin(), changes.end(),
                   [](const PriceChange& a, const PriceChange& b) {
                     return a.u != b.u ? a.u < b.u : a.v < b.v;
                   });
  std::size_t out = 0;
  for (std::size_t i = 0; i < changes.size(); ++i) {
    if (out > 0 && changes[out - 1].u == changes[i].u &&
        changes[out - 1].v == changes[i].v)
      changes[out - 1].new_w = changes[i].new_w;  // last write wins
    else
      changes[out++] = changes[i];
  }
  changes.resize(out);
  q.changes = std::move(changes);
  return q;
}

FragileEntry make_fragile_entry(Vertex child, const TreeEdgeInfo& e) {
  return FragileEntry{child, e.parent, e.w, e.sens, e.replacement};
}

Answer answer_for_tree_edge(const Query& q, EdgeRef ref,
                            const TreeEdgeInfo& e) {
  Answer a;
  a.edge = ref;
  a.headroom = e.sens;
  a.swap_cost = e.mc;
  a.replacement = e.replacement;
  if (q.kind == QueryKind::kPriceChange) {
    // Definition 1.2, tree side: T stays optimal iff the new weight does
    // not exceed the cheapest cover (a tie keeps T optimal).  A bridge
    // (mc == kPosInfW) stays optimal at any price — including deltas
    // clamped to the sentinel band, where w + delta would exceed mc.
    a.still_optimal = e.mc >= graph::kPosInfW || e.w + q.delta <= e.mc;
  }
  return a;
}

Answer answer_for_nontree_edge(const Query& q, EdgeRef ref,
                               const NonTreeEdgeInfo& e) {
  Answer a;
  a.edge = ref;
  a.headroom = e.sens;
  a.swap_cost = e.maxpath;
  if (q.kind == QueryKind::kPriceChange) {
    // Non-tree side: the edge stays out iff it is no lighter than the
    // covering maximum of its path (ties keep T optimal).
    a.still_optimal = e.w + q.delta >= e.maxpath;
  } else if (q.kind == QueryKind::kReplacementEdge) {
    a.status = Status::kNotApplicable;  // nothing to replace: not in T
  }
  return a;
}

Answer answer_query(const SensitivityIndex& index, const Query& q) {
  if (q.kind == QueryKind::kStillMst) {
    Answer a;
    std::vector<verify::ResolvedChange> resolved;
    a.status = resolve_changes(
        [&index](Vertex u, Vertex v) { return index.find(u, v); }, q.changes,
        resolved);
    if (a.status != Status::kOk) return a;
    const std::vector<Weight>& tw = index.tree_labels().w;
    const verify::BatchCertifier cert(
        index.topology(),
        [&tw](Vertex child) { return tw[static_cast<std::size_t>(child)]; },
        resolved);
    // One pass over the non-tree labels: k O(1) covers() probes per edge,
    // path re-walks only where the batch actually crosses — verification,
    // never recomputation.  Certificates land in ascending orig_id.
    const NonTreeLabels& nt = index.nontree_labels();
    for (std::size_t i = 0; i < nt.size(); ++i)
      if (const auto viol = cert.certify(static_cast<std::int64_t>(i), nt.u[i],
                                         nt.v[i], nt.w[i], nt.maxpath[i]))
        a.certificates.push_back(*viol);
    a.still_optimal = a.certificates.empty();
    return a;
  }
  if (q.kind == QueryKind::kTopKFragile) {
    Answer a;
    const auto& order = index.fragile_order();
    const std::size_t k =
        std::min<std::size_t>(static_cast<std::size_t>(q.k), order.size());
    a.fragile.reserve(k);
    for (std::size_t i = 0; i < k; ++i)
      a.fragile.push_back(
          make_fragile_entry(order[i], index.tree_edge(order[i])));
    return a;
  }

  const auto ref = index.find(q.u, q.v);
  if (!ref) {
    Answer a;
    a.status = Status::kUnknownEdge;
    return a;
  }
  if (ref->is_tree)
    return answer_for_tree_edge(q, *ref, index.tree_edge(ref->id));
  return answer_for_nontree_edge(q, *ref, index.nontree_edge(ref->id));
}

std::string to_string(const Query& q) {
  std::ostringstream os;
  switch (q.kind) {
    case QueryKind::kPriceChange:
      os << "price_change({" << q.u << "," << q.v << "}, " << q.delta << ")";
      break;
    case QueryKind::kReplacementEdge:
      os << "replacement_edge({" << q.u << "," << q.v << "})";
      break;
    case QueryKind::kTopKFragile:
      os << "top_k_fragile(" << q.k << ")";
      break;
    case QueryKind::kCorridorHeadroom:
      os << "corridor_headroom({" << q.u << "," << q.v << "})";
      break;
    case QueryKind::kStillMst:
      os << "still_mst(" << q.changes.size() << " changes)";
      break;
  }
  return os.str();
}

std::string to_string(const Answer& a) {
  std::ostringstream os;
  switch (a.status) {
    case Status::kUnknownEdge:
      return "unknown edge";
    case Status::kNotApplicable:
      return "not applicable (non-tree edge)";
    case Status::kWouldDisconnect:
      return "refused: would disconnect";
    default:
      break;
  }
  if (!a.certificates.empty()) {
    os << "no longer an MST: " << a.certificates.size()
       << " violating edge(s):";
    for (const verify::ViolationCert& c : a.certificates)
      os << " #" << c.orig_id << "{" << c.u << "," << c.v
         << "} w=" << weight_str(c.w) << " < path_max=" << weight_str(c.maxpath);
    return os.str();
  }
  if (!a.fragile.empty() || a.edge.id < 0) {
    os << a.fragile.size() << " fragile edges:";
    for (const FragileEntry& f : a.fragile)
      os << " {" << f.child << "," << f.parent << "} w=" << f.w
         << " headroom=" << weight_str(f.sens);
    return os.str();
  }
  os << (a.edge.is_tree ? "tree" : "non-tree") << " edge, "
     << (a.still_optimal ? "still optimal" : "optimum changes")
     << ", headroom=" << weight_str(a.headroom)
     << ", swap_cost=" << weight_str(a.swap_cost);
  if (a.replacement >= 0) os << ", replacement=#" << a.replacement;
  return os.str();
}

}  // namespace mpcmst::service
