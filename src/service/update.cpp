#include "service/update.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/check.hpp"
#include "mpc/dist.hpp"
#include "sensitivity/sensitivity.hpp"
#include "service/snapshot.hpp"
#include "service/status.hpp"
#include "service/telemetry.hpp"

namespace mpcmst::service {

namespace {

using graph::kNegInfW;
using graph::kPosInfW;

/// (weight, orig_id) pairs order both the duplicate resolution and the
/// replacement argmin; -1 ids only meet real ids at mc == kPosInfW.
using WeightId = std::pair<Weight, std::int64_t>;

/// Child of the heaviest tree edge on the path u..v (ties: smallest child
/// id) — the edge a swapped-in non-tree edge evicts.
Vertex heaviest_path_child(const graph::Instance& inst,
                           const verify::TreeTopology& topo, Vertex u,
                           Vertex v) {
  Vertex best = -1;
  Weight best_w = kNegInfW;
  for (Vertex x : topo.path_children(u, v)) {
    const Weight w = inst.tree.weight[static_cast<std::size_t>(x)];
    if (w > best_w || (w == best_w && x < best)) {
      best_w = w;
      best = x;
    }
  }
  return best;
}

/// The canonical exchange: tree edge {child_out, p(child_out)} leaves T, the
/// non-tree edge in `slot_in` enters.  The parent chain from the in-subtree
/// endpoint up to child_out is reversed (each edge keeps its weight, stored
/// at its new child), the promoted edge gets `promoted_w`, and the demoted
/// edge is written as {child_out, old parent, demoted_w} into the vacated
/// slot — orig_ids of every other edge stay put.  `topo` must describe the
/// pre-exchange tree.
void exchange_edges(graph::Instance& inst, const verify::TreeTopology& topo,
                    Vertex child_out, std::int64_t slot_in, Weight promoted_w,
                    Weight demoted_w) {
  const graph::WEdge in = inst.nontree[static_cast<std::size_t>(slot_in)];
  MPCMST_ASSERT(topo.covers(child_out, in.u, in.v),
                "exchange: slot " << slot_in << " does not cross the cut of "
                                  << child_out);
  const Vertex a = topo.is_ancestor(child_out, in.u) ? in.u : in.v;
  const Vertex b = (a == in.u) ? in.v : in.u;
  const Vertex old_parent = inst.tree.parent[static_cast<std::size_t>(
      child_out)];
  Vertex x = a;
  Vertex prev_parent = b;
  Weight prev_w = promoted_w;
  for (;;) {
    const Vertex px = inst.tree.parent[static_cast<std::size_t>(x)];
    const Weight wx = inst.tree.weight[static_cast<std::size_t>(x)];
    inst.tree.parent[static_cast<std::size_t>(x)] = prev_parent;
    inst.tree.weight[static_cast<std::size_t>(x)] = prev_w;
    prev_parent = x;
    prev_w = wx;
    if (x == child_out) break;
    x = px;
  }
  inst.nontree[static_cast<std::size_t>(slot_in)] =
      graph::WEdge{child_out, old_parent, demoted_w};
}

/// Resolve {u, v} against the raw instance with the index's precedence:
/// tree edge first, then the lightest duplicate (strict <, ascending id).
std::optional<EdgeRef> resolve_in_instance(const graph::Instance& inst,
                                           Vertex u, Vertex v) {
  const auto n = static_cast<Vertex>(inst.n());
  if (u < 0 || v < 0 || u >= n || v >= n) return std::nullopt;
  for (Vertex c : {u, v}) {
    const Vertex other = (c == u) ? v : u;
    if (c != inst.tree.root &&
        inst.tree.parent[static_cast<std::size_t>(c)] == other)
      return EdgeRef{true, c};
  }
  const std::uint64_t key = endpoint_key(u, v);
  WeightId best{kPosInfW, -1};
  // Deliberately O(m): this is the stateless oracle the churn tests rebuild
  // from scratch; the live path resolves through the index's endpoint map
  // and per-key duplicate buckets instead.
  for (std::size_t i = 0; i < inst.nontree.size(); ++i) {
    const graph::WEdge& e = inst.nontree[i];
    if (e.u == e.v) continue;  // tombstoned slot
    if (endpoint_key(e.u, e.v) != key) continue;
    best = std::min(best, WeightId{e.w, static_cast<std::int64_t>(i)});
  }
  if (best.second < 0) return std::nullopt;
  return EdgeRef{false, best.second};
}

/// Lowest dead (u == v) non-tree slot, or -1: the canonical slot allocation
/// both the raw transform and LiveCore's free list replicate.
std::int64_t lowest_dead_slot(const graph::Instance& inst) {
  for (std::size_t i = 0; i < inst.nontree.size(); ++i)
    if (inst.nontree[i].u == inst.nontree[i].v)
      return static_cast<std::int64_t>(i);
  return -1;
}

}  // namespace

UpdateReport apply_update_to_instance(graph::Instance& inst, Vertex u,
                                      Vertex v, Weight new_w) {
  MPCMST_ASSERT(new_w > kNegInfW && new_w < kPosInfW,
                "apply_update: new weight " << new_w
                                            << " outside the price band");
  UpdateReport rep;
  rep.new_w = new_w;
  const auto ref = resolve_in_instance(inst, u, v);
  if (!ref) {
    rep.status = Status::kUnknownEdge;
    return rep;
  }
  rep.edge = *ref;
  if (ref->is_tree) {
    const auto c = static_cast<std::size_t>(ref->id);
    rep.old_w = inst.tree.weight[c];
    if (new_w == rep.old_w) return rep;  // kNoChange
    const verify::TreeTopology topo(inst.tree);
    WeightId best{kPosInfW, -1};  // cheapest cover of {c, p(c)}
    for (std::size_t i = 0; i < inst.nontree.size(); ++i) {
      const graph::WEdge& e = inst.nontree[i];
      if (e.u == e.v || !topo.covers(ref->id, e.u, e.v)) continue;
      best = std::min(best, WeightId{e.w, static_cast<std::int64_t>(i)});
    }
    if (new_w <= best.first) {  // covers the uncovered case (mc == inf)
      rep.cls = UpdateClass::kTreeReweight;
      inst.tree.weight[c] = new_w;
    } else {
      rep.cls = UpdateClass::kTreeSwap;
      rep.swapped_out = ref->id;
      rep.swapped_in = best.second;
      exchange_edges(inst, topo, ref->id, best.second,
                     /*promoted_w=*/best.first, /*demoted_w=*/new_w);
    }
  } else {
    const auto i = static_cast<std::size_t>(ref->id);
    graph::WEdge& e = inst.nontree[i];
    rep.old_w = e.w;
    if (new_w == rep.old_w) return rep;  // kNoChange
    Weight maxpath = kNegInfW;
    std::unique_ptr<verify::TreeTopology> topo;
    if (e.u != e.v) {
      topo = std::make_unique<verify::TreeTopology>(inst.tree);
      for (Vertex x : topo->path_children(e.u, e.v))
        maxpath = std::max(maxpath,
                           inst.tree.weight[static_cast<std::size_t>(x)]);
    }
    if (new_w >= maxpath) {  // self loops always stay out
      rep.cls = UpdateClass::kNonTreeReweight;
      e.w = new_w;
    } else {
      rep.cls = UpdateClass::kNonTreeSwap;
      const Vertex d = heaviest_path_child(inst, *topo, e.u, e.v);
      rep.swapped_out = d;
      rep.swapped_in = ref->id;
      exchange_edges(inst, *topo, d, ref->id, /*promoted_w=*/new_w,
                     /*demoted_w=*/
                     inst.tree.weight[static_cast<std::size_t>(d)]);
    }
  }
  return rep;
}

UpdateReport add_edge_to_instance(graph::Instance& inst, Vertex u, Vertex v,
                                  Weight w) {
  MPCMST_ASSERT(w > kNegInfW && w < kPosInfW,
                "add_edge: weight " << w << " outside the price band");
  UpdateReport rep;
  rep.old_w = w;  // insert convention: old_w == new_w == the insert price
  rep.new_w = w;
  const auto n = static_cast<Vertex>(inst.n());
  if (u == v) {  // self loops are never inserted (they would be dead slots)
    rep.status = Status::kNotApplicable;
    return rep;
  }
  const bool u_fresh = (u == n), v_fresh = (v == n);
  if (u_fresh != v_fresh) {
    // Vertex attach: the fresh endpoint (the next unused id, n) joins T as a
    // leaf — a leaf edge is the unique edge of its cut, so it is in the MST.
    const Vertex anchor = u_fresh ? v : u;
    if (anchor < 0 || anchor >= n) {
      rep.status = Status::kUnknownEdge;
      return rep;
    }
    rep.cls = UpdateClass::kVertexAttach;
    rep.edge = EdgeRef{true, n};
    inst.tree.n += 1;
    inst.tree.parent.push_back(anchor);
    inst.tree.weight.push_back(w);
    return rep;
  }
  if (u < 0 || v < 0 || u >= n || v >= n) {
    rep.status = Status::kUnknownEdge;
    return rep;
  }
  // Both endpoints live: the new edge closes a cycle with its tree path.
  const verify::TreeTopology topo(inst.tree);
  const Vertex d = heaviest_path_child(inst, topo, u, v);
  const Weight maxpath = inst.tree.weight[static_cast<std::size_t>(d)];
  const std::int64_t dead = lowest_dead_slot(inst);
  std::int64_t slot = dead;
  if (dead >= 0) {
    inst.nontree[static_cast<std::size_t>(dead)] = graph::WEdge{u, v, w};
  } else {
    slot = static_cast<std::int64_t>(inst.nontree.size());
    inst.nontree.push_back(graph::WEdge{u, v, w});
  }
  rep.edge = EdgeRef{false, slot};
  if (w >= maxpath) {  // a tie stays out (Definition 1.2)
    rep.cls = UpdateClass::kNonTreeInsert;
  } else {
    rep.cls = UpdateClass::kInsertSwap;
    rep.swapped_out = d;
    rep.swapped_in = slot;
    exchange_edges(inst, topo, d, slot, /*promoted_w=*/w,
                   /*demoted_w=*/maxpath);
  }
  return rep;
}

UpdateReport remove_edge_from_instance(graph::Instance& inst, Vertex u,
                                       Vertex v) {
  UpdateReport rep;
  const auto ref = resolve_in_instance(inst, u, v);
  if (!ref) {
    rep.status = Status::kUnknownEdge;
    return rep;
  }
  rep.edge = *ref;
  if (!ref->is_tree) {
    const auto i = static_cast<std::size_t>(ref->id);
    rep.cls = UpdateClass::kNonTreeDelete;
    rep.old_w = inst.nontree[i].w;
    rep.new_w = 0;
    inst.nontree[i] = graph::WEdge{0, 0, 0};  // tombstone the slot
    return rep;
  }
  const Vertex c = static_cast<Vertex>(ref->id);
  rep.old_w = inst.tree.weight[static_cast<std::size_t>(c)];
  rep.new_w = 0;
  const verify::TreeTopology topo(inst.tree);
  // Argmin covering non-tree edge of the cut — the edge that must be
  // promoted for T minus {c, p(c)} to stay spanning.
  WeightId best{kPosInfW, -1};
  for (std::size_t i = 0; i < inst.nontree.size(); ++i) {
    const graph::WEdge& e = inst.nontree[i];
    if (e.u == e.v || !topo.covers(c, e.u, e.v)) continue;
    best = std::min(best, WeightId{e.w, static_cast<std::int64_t>(i)});
  }
  if (best.second < 0) {  // bridge in G: refuse, mutate nothing
    rep.status = Status::kWouldDisconnect;
    return rep;
  }
  rep.cls = UpdateClass::kTreeDeletePromote;
  rep.swapped_out = c;
  rep.swapped_in = best.second;
  exchange_edges(inst, topo, c, best.second, /*promoted_w=*/best.first,
                 /*demoted_w=*/0);
  // The exchange parked the deleted edge in the promoted slot; tombstone it
  // — the removed edge is written nowhere.
  inst.nontree[static_cast<std::size_t>(best.second)] = graph::WEdge{0, 0, 0};
  return rep;
}

UpdateReport apply_event_to_instance(graph::Instance& inst,
                                     const EdgeEvent& ev) {
  switch (ev.op) {
    case UpdateOp::kReweight:
      return apply_update_to_instance(inst, ev.u, ev.v, ev.w);
    case UpdateOp::kAddEdge:
      return add_edge_to_instance(inst, ev.u, ev.v, ev.w);
    case UpdateOp::kRemoveEdge:
      return remove_edge_from_instance(inst, ev.u, ev.v);
  }
  MPCMST_CHECK(false, "apply_event: unknown op "
                          << static_cast<int>(ev.op));
  return {};
}

LiveCore::LiveCore(graph::Instance inst,
                   std::shared_ptr<const SensitivityIndex> snapshot)
    : inst_(std::move(inst)), idx_(*snapshot) {
  MPCMST_ASSERT(idx_.fingerprint_ == SensitivityIndex::fingerprint_of(inst_),
                "LiveCore: snapshot does not match the instance");
  rebuild_slot_caches();
}

void LiveCore::rebuild_slot_caches() {
  free_slots_.clear();
  dup_of_key_.clear();
  const NonTreeLabels& nt = idx_.nontree_;
  for (std::size_t i = 0; i < nt.size(); ++i) {
    if (nt.u[i] == nt.v[i])  // dead slot — both vectors come out ascending
      free_slots_.push_back(static_cast<std::int64_t>(i));
    else
      dup_of_key_[endpoint_key(nt.u[i], nt.v[i])].push_back(
          static_cast<std::int64_t>(i));
  }
}

std::int64_t LiveCore::allocate_nontree_slot(const graph::WEdge& e) {
  std::int64_t slot;
  if (!free_slots_.empty()) {  // lowest dead slot, like lowest_dead_slot()
    slot = free_slots_.front();
    free_slots_.erase(free_slots_.begin());
  } else {
    slot = static_cast<std::int64_t>(inst_.nontree.size());
    inst_.nontree.push_back(graph::WEdge{});
    idx_.nontree_.push_back(NonTreeEdgeInfo{});
  }
  inst_.nontree[static_cast<std::size_t>(slot)] = e;
  idx_.nontree_.set(static_cast<std::size_t>(slot),
                    NonTreeEdgeInfo{e.u, e.v, e.w, kNegInfW, kPosInfW});
  auto& bucket = dup_of_key_[endpoint_key(e.u, e.v)];
  bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), slot), slot);
  return slot;
}

Weight LiveCore::path_max_excluding(Vertex u, Vertex v, Vertex skip) const {
  Weight best = kNegInfW;
  for (Vertex x : topo().path_children(u, v))
    if (x != skip)
      best = std::max(best, inst_.tree.weight[static_cast<std::size_t>(x)]);
  return best;
}

void LiveCore::reposition(Vertex child, Weight old_sens) {
  auto& order = idx_.fragile_order_;
  const auto& sens = idx_.tree_.sens;
  // The vector is sorted with `child` still keyed at its old sensitivity;
  // locate it there, then reinsert under the new one.
  const auto old_it = std::lower_bound(
      order.begin(), order.end(), std::pair<Weight, Vertex>{old_sens, child},
      [&](Vertex a, const std::pair<Weight, Vertex>& key) {
        const Weight sa = (a == child) ? old_sens : sens[a];
        return sa != key.first ? sa < key.first : a < key.second;
      });
  MPCMST_ASSERT(old_it != order.end() && *old_it == child,
                "reposition: child " << child << " not found at old rank");
  order.erase(old_it);
  const Weight new_sens = sens[static_cast<std::size_t>(child)];
  const auto new_it = std::lower_bound(
      order.begin(), order.end(), std::pair<Weight, Vertex>{new_sens, child},
      [&](Vertex a, const std::pair<Weight, Vertex>& key) {
        const Weight sa = sens[a];
        return sa != key.first ? sa < key.first : a < key.second;
      });
  order.insert(new_it, child);
}

void LiveCore::set_mc(Vertex child, Weight mc, std::int64_t repl,
                      ChangedSet& changed) {
  const auto c = static_cast<std::size_t>(child);
  TreeLabels& t = idx_.tree_;
  if (t.mc[c] == mc && t.replacement[c] == repl) return;
  const Weight old_sens = t.sens[c];
  t.mc[c] = mc;
  t.replacement[c] = repl;
  t.sens[c] = sensitivity::tree_sens(mc, t.w[c]);
  if (t.sens[c] != old_sens) reposition(child, old_sens);
  changed.tree_children.push_back(child);
}

void LiveCore::re_resolve_key(Vertex u, Vertex v, ChangedSet& changed) {
  const std::uint64_t key = endpoint_key(u, v);
  const auto it = idx_.by_endpoints_.find(key);
  if (it != idx_.by_endpoints_.end() && it->second.is_tree)
    return;  // a tree entry shadows every non-tree duplicate
  const NonTreeLabels& nt = idx_.nontree_;
  WeightId best{kPosInfW, -1};
  const auto bucket = dup_of_key_.find(key);
  if (bucket != dup_of_key_.end())
    for (const std::int64_t i : bucket->second)
      best = std::min(best, WeightId{nt.w[static_cast<std::size_t>(i)], i});
#ifndef NDEBUG
  {
    // Parity with the O(m) scan the duplicate bucket replaced.
    WeightId scanned{kPosInfW, -1};
    for (std::size_t i = 0; i < nt.size(); ++i) {
      if (nt.u[i] == nt.v[i] || endpoint_key(nt.u[i], nt.v[i]) != key)
        continue;
      scanned = std::min(scanned,
                         WeightId{nt.w[i], static_cast<std::int64_t>(i)});
    }
    MPCMST_ASSERT(scanned == best,
                  "re_resolve_key: duplicate bucket (" << best.second
                      << ") disagrees with the scan (" << scanned.second
                      << ") for {" << u << "," << v << "}");
  }
#endif
  if (best.second < 0) {
    // The last duplicate of the key disappeared: drop the entry.
    if (it == idx_.by_endpoints_.end()) return;
    idx_.by_endpoints_.erase(it);
    changed.endpoints.emplace_back(key, EdgeRef{false, -1});  // erase marker
    return;
  }
  const EdgeRef ref{false, best.second};
  if (it == idx_.by_endpoints_.end()) {
    idx_.by_endpoints_.emplace(key, ref);
    changed.endpoints.emplace_back(key, ref);
  } else if (it->second != ref) {
    it->second = ref;
    changed.endpoints.emplace_back(key, ref);
  }
}

void LiveCore::tree_reweight(Vertex c, Weight new_w, ChangedSet& changed) {
  const auto ci = static_cast<std::size_t>(c);
  TreeLabels& t = idx_.tree_;
  const Weight old_sens = t.sens[ci];
  inst_.tree.weight[ci] = new_w;
  t.w[ci] = new_w;
  t.sens[ci] = sensitivity::tree_sens(t.mc[ci], new_w);
  if (t.sens[ci] != old_sens) reposition(c, old_sens);
  changed.tree_children.push_back(c);
  // The reweighted edge lies on the covered path of exactly the non-tree
  // edges straddling its cut; their covering maxima are the only other
  // labels its weight can reach (mc values only read non-tree weights).
  NonTreeLabels& nt = idx_.nontree_;
  for (std::size_t i = 0; i < nt.size(); ++i) {
    if (nt.u[i] == nt.v[i] || !topo().covers(c, nt.u[i], nt.v[i])) continue;
    const Weight mp = std::max(new_w, path_max_excluding(nt.u[i], nt.v[i], c));
    if (mp == nt.maxpath[i]) continue;
    nt.maxpath[i] = mp;
    nt.sens[i] = sensitivity::nontree_sens(nt.w[i], mp);
    changed.nontree_ids.push_back(static_cast<std::int64_t>(i));
  }
}

void LiveCore::nontree_reweight(std::int64_t id, Weight new_w,
                                ChangedSet& changed) {
  const auto fi = static_cast<std::size_t>(id);
  NonTreeLabels& nt = idx_.nontree_;
  const Weight old_w = nt.w[fi];
  const Vertex fu = nt.u[fi], fv = nt.v[fi];
  inst_.nontree[fi].w = new_w;
  nt.w[fi] = new_w;
  nt.sens[fi] = sensitivity::nontree_sens(new_w, nt.maxpath[fi]);
  changed.nontree_ids.push_back(id);
  if (fu != fv) {
    // The edge's covering contribution moved: cheaper offers are taken on
    // the spot, path edges that leaned on it as argmin recompute below.
    std::vector<Vertex> recompute;
    for (Vertex x : topo().path_children(fu, fv)) {
      const auto xi = static_cast<std::size_t>(x);
      if (idx_.tree_.replacement[xi] == id) {
        if (new_w <= old_w)
          set_mc(x, new_w, id, changed);
        else
          recompute.push_back(x);
      } else if (WeightId{new_w, id} <
                 WeightId{idx_.tree_.mc[xi], idx_.tree_.replacement[xi]}) {
        set_mc(x, new_w, id, changed);
      }
    }
    if (!recompute.empty()) {
      std::vector<WeightId> best(recompute.size(), WeightId{kPosInfW, -1});
      for (std::size_t j = 0; j < nt.size(); ++j) {
        if (nt.u[j] == nt.v[j]) continue;
        for (std::size_t r = 0; r < recompute.size(); ++r)
          if (topo().covers(recompute[r], nt.u[j], nt.v[j]))
            best[r] = std::min(
                best[r], WeightId{nt.w[j], static_cast<std::int64_t>(j)});
      }
      for (std::size_t r = 0; r < recompute.size(); ++r)
        set_mc(recompute[r], best[r].first, best[r].second, changed);
    }
  }
  re_resolve_key(fu, fv, changed);
}

void LiveCore::relabel(ChangedSet& changed) {
  changed.full = true;
  const CostReceipt receipt = idx_.receipt_;
  idx_ = *SensitivityIndex::build_host(inst_, receipt);
  MPCMST_ASSERT(idx_.violations_ == 0,
                "apply_update: exchange left a violated instance");
  rebuild_slot_caches();
}

LiveCore::Outcome LiveCore::apply(Vertex u, Vertex v, Weight new_w) {
  MPCMST_ASSERT(new_w > kNegInfW && new_w < kPosInfW,
                "apply_update: new weight " << new_w
                                            << " outside the price band");
  MPCMST_ASSERT(idx_.violations_ == 0,
                "apply_update: the live index must hold an MST");
  Outcome out;
  out.report.new_w = new_w;
  const auto ref = idx_.find(u, v);
  if (!ref) {
    out.report.status = Status::kUnknownEdge;
    return out;
  }
  out.report.edge = *ref;
  if (ref->is_tree) {
    const Vertex c = static_cast<Vertex>(ref->id);
    const auto ci = static_cast<std::size_t>(c);
    const Weight e_w = idx_.tree_.w[ci];
    const Weight e_mc = idx_.tree_.mc[ci];
    out.report.old_w = e_w;
    if (new_w == e_w) return out;  // kNoChange
    if (new_w <= e_mc) {           // a tie at the headroom edge stays (1.2)
      out.report.cls = UpdateClass::kTreeReweight;
      tree_reweight(c, new_w, out.changed);
    } else {
      const std::int64_t repl = idx_.tree_.replacement[ci];
      out.report.cls = UpdateClass::kTreeSwap;
      out.report.swapped_out = c;
      out.report.swapped_in = repl;
      exchange_edges(inst_, topo(), c, repl,
                     /*promoted_w=*/
                     inst_.nontree[static_cast<std::size_t>(repl)].w,
                     /*demoted_w=*/new_w);
      relabel(out.changed);
    }
  } else {
    const std::int64_t id = ref->id;
    const auto ei = static_cast<std::size_t>(id);
    const Weight e_w = idx_.nontree_.w[ei];
    const Weight e_maxpath = idx_.nontree_.maxpath[ei];
    const Vertex e_u = idx_.nontree_.u[ei], e_v = idx_.nontree_.v[ei];
    out.report.old_w = e_w;
    if (new_w == e_w) return out;  // kNoChange
    if (new_w >= e_maxpath) {      // covers kNegInfW (self loop) and ties
      out.report.cls = UpdateClass::kNonTreeReweight;
      nontree_reweight(id, new_w, out.changed);
    } else {
      out.report.cls = UpdateClass::kNonTreeSwap;
      const Vertex d = heaviest_path_child(inst_, topo(), e_u, e_v);
      out.report.swapped_out = d;
      out.report.swapped_in = id;
      exchange_edges(inst_, topo(), d, id, /*promoted_w=*/new_w,
                     /*demoted_w=*/
                     inst_.tree.weight[static_cast<std::size_t>(d)]);
      relabel(out.changed);
    }
  }
  idx_.fingerprint_ = SensitivityIndex::fingerprint_of(inst_);
  return out;
}

LiveCore::Outcome LiveCore::add_edge(Vertex u, Vertex v, Weight w) {
  MPCMST_ASSERT(w > kNegInfW && w < kPosInfW,
                "add_edge: weight " << w << " outside the price band");
  MPCMST_ASSERT(idx_.violations_ == 0,
                "add_edge: the live index must hold an MST");
  Outcome out;
  out.report.old_w = w;  // insert convention: old_w == new_w == insert price
  out.report.new_w = w;
  const auto n = static_cast<Vertex>(inst_.n());
  if (u == v) {
    out.report.status = Status::kNotApplicable;
    return out;
  }
  const bool u_fresh = (u == n), v_fresh = (v == n);
  if (u_fresh != v_fresh) {
    const Vertex anchor = u_fresh ? v : u;
    if (anchor < 0 || anchor >= n) {
      out.report.status = Status::kUnknownEdge;
      return out;
    }
    // Vertex attach: a leaf tree edge.  n changed, so every dense structure
    // (tree columns, topology view, shard ranges) is rebuilt via relabel.
    out.report.cls = UpdateClass::kVertexAttach;
    out.report.edge = EdgeRef{true, n};
    inst_.tree.n += 1;
    inst_.tree.parent.push_back(anchor);
    inst_.tree.weight.push_back(w);
    relabel(out.changed);
    idx_.fingerprint_ = SensitivityIndex::fingerprint_of(inst_);
    return out;
  }
  if (u < 0 || v < 0 || u >= n || v >= n) {
    out.report.status = Status::kUnknownEdge;
    return out;
  }
  const Vertex d = heaviest_path_child(inst_, topo(), u, v);
  const Weight maxpath = inst_.tree.weight[static_cast<std::size_t>(d)];
  const std::int64_t slot = allocate_nontree_slot(graph::WEdge{u, v, w});
  out.report.edge = EdgeRef{false, slot};
  if (w >= maxpath) {  // a tie stays out (Definition 1.2)
    out.report.cls = UpdateClass::kNonTreeInsert;
    const auto si = static_cast<std::size_t>(slot);
    NonTreeLabels& nt = idx_.nontree_;
    nt.maxpath[si] = maxpath;
    nt.sens[si] = sensitivity::nontree_sens(w, maxpath);
    out.changed.nontree_ids.push_back(slot);
    // Covering offer along the tree path: a strict (w, id) improvement on a
    // cut's argmin takes it, exactly the build's replacement order.
    for (Vertex x : topo().path_children(u, v)) {
      const auto xi = static_cast<std::size_t>(x);
      if (WeightId{w, slot} <
          WeightId{idx_.tree_.mc[xi], idx_.tree_.replacement[xi]})
        set_mc(x, w, slot, out.changed);
    }
    re_resolve_key(u, v, out.changed);
  } else {
    out.report.cls = UpdateClass::kInsertSwap;
    out.report.swapped_out = d;
    out.report.swapped_in = slot;
    exchange_edges(inst_, topo(), d, slot, /*promoted_w=*/w,
                   /*demoted_w=*/maxpath);
    relabel(out.changed);
  }
  idx_.fingerprint_ = SensitivityIndex::fingerprint_of(inst_);
  return out;
}

LiveCore::Outcome LiveCore::remove_edge(Vertex u, Vertex v) {
  MPCMST_ASSERT(idx_.violations_ == 0,
                "remove_edge: the live index must hold an MST");
  Outcome out;
  const auto ref = idx_.find(u, v);
  if (!ref) {
    out.report.status = Status::kUnknownEdge;
    return out;
  }
  out.report.edge = *ref;
  if (!ref->is_tree) {
    const auto i = static_cast<std::size_t>(ref->id);
    NonTreeLabels& nt = idx_.nontree_;
    const Vertex fu = nt.u[i], fv = nt.v[i];
    out.report.cls = UpdateClass::kNonTreeDelete;
    out.report.old_w = nt.w[i];
    out.report.new_w = 0;
    // Tombstone the slot in the instance, the labels and the slot caches.
    inst_.nontree[i] = graph::WEdge{0, 0, 0};
    nt.set(i, NonTreeEdgeInfo{0, 0, 0, kNegInfW, kPosInfW});
    out.changed.nontree_ids.push_back(ref->id);
    const std::uint64_t key = endpoint_key(fu, fv);
    const auto bucket = dup_of_key_.find(key);
    MPCMST_ASSERT(bucket != dup_of_key_.end(),
                  "remove_edge: slot " << ref->id << " missing from bucket");
    auto& slots = bucket->second;
    slots.erase(std::find(slots.begin(), slots.end(), ref->id));
    if (slots.empty()) dup_of_key_.erase(bucket);
    free_slots_.insert(
        std::lower_bound(free_slots_.begin(), free_slots_.end(), ref->id),
        ref->id);
    // Tree edges that leaned on the deleted edge as their argmin cover
    // recompute it (a removal can only worsen mc, never improve it).
    std::vector<Vertex> recompute;
    for (Vertex x : topo().path_children(fu, fv))
      if (idx_.tree_.replacement[static_cast<std::size_t>(x)] == ref->id)
        recompute.push_back(x);
    if (!recompute.empty()) {
      std::vector<WeightId> best(recompute.size(), WeightId{kPosInfW, -1});
      for (std::size_t j = 0; j < nt.size(); ++j) {
        if (nt.u[j] == nt.v[j]) continue;
        for (std::size_t r = 0; r < recompute.size(); ++r)
          if (topo().covers(recompute[r], nt.u[j], nt.v[j]))
            best[r] = std::min(
                best[r], WeightId{nt.w[j], static_cast<std::int64_t>(j)});
      }
      for (std::size_t r = 0; r < recompute.size(); ++r)
        set_mc(recompute[r], best[r].first, best[r].second, out.changed);
    }
    re_resolve_key(fu, fv, out.changed);
    idx_.fingerprint_ = SensitivityIndex::fingerprint_of(inst_);
    return out;
  }
  // Tree delete: promote the precomputed replacement, or refuse.
  const Vertex c = static_cast<Vertex>(ref->id);
  const auto ci = static_cast<std::size_t>(c);
  out.report.old_w = idx_.tree_.w[ci];
  out.report.new_w = 0;
  const std::int64_t repl = idx_.tree_.replacement[ci];
  if (repl < 0) {  // bridge in G: refuse before any mutation
    out.report.status = Status::kWouldDisconnect;
    return out;
  }
  out.report.cls = UpdateClass::kTreeDeletePromote;
  out.report.swapped_out = c;
  out.report.swapped_in = repl;
  exchange_edges(inst_, topo(), c, repl,
                 /*promoted_w=*/
                 inst_.nontree[static_cast<std::size_t>(repl)].w,
                 /*demoted_w=*/0);
  inst_.nontree[static_cast<std::size_t>(repl)] = graph::WEdge{0, 0, 0};
  relabel(out.changed);
  idx_.fingerprint_ = SensitivityIndex::fingerprint_of(inst_);
  return out;
}

LiveCore::Outcome LiveCore::apply_event(const EdgeEvent& ev) {
  switch (ev.op) {
    case UpdateOp::kReweight:
      return apply(ev.u, ev.v, ev.w);
    case UpdateOp::kAddEdge:
      return add_edge(ev.u, ev.v, ev.w);
    case UpdateOp::kRemoveEdge:
      return remove_edge(ev.u, ev.v);
  }
  MPCMST_CHECK(false, "apply_event: unknown op "
                          << static_cast<int>(ev.op));
  return {};
}

namespace {

// Commit-path building blocks of LiveBackend::ingest.

/// Receipt assembly for one applied outcome (the caller stamps the
/// generation after deciding whether the epoch advances).
UpdateReceipt make_update_receipt(const LiveCore& core,
                                  const LiveCore::Outcome& out,
                                  std::uint64_t old_fingerprint) {
  UpdateReceipt r;
  r.report = out.report;
  r.old_fingerprint = old_fingerprint;
  r.new_fingerprint = core.index().fingerprint();
  r.full_relabel = out.changed.full;
  r.patched_tree_edges = out.changed.full
                             ? (core.index().n() ? core.index().n() - 1 : 0)
                             : out.changed.tree_children.size();
  r.patched_nontree_edges = out.changed.full
                                ? core.index().num_nontree()
                                : out.changed.nontree_ids.size();
  return r;
}

/// Does this report advance the epoch (kOk and not kNoChange)?
bool advances_epoch(const UpdateReport& rep) {
  return rep.status == Status::kOk && rep.cls != UpdateClass::kNoChange;
}

/// The journal record for one applied event: the submitted inputs (replay
/// re-dispatches them against the identical pre-state) plus the fingerprint
/// chain and the epoch the change produced.
JournalRecord make_journal_record(std::uint64_t epoch, const UpdateReceipt& r,
                                  const EdgeEvent& ev) {
  JournalRecord rec;
  rec.generation = epoch;
  rec.old_fingerprint = r.old_fingerprint;
  rec.new_fingerprint = r.new_fingerprint;
  rec.u = ev.u;
  rec.v = ev.v;
  rec.new_w = ev.w;
  rec.cls = static_cast<std::uint8_t>(r.report.cls);
  rec.op = static_cast<std::uint8_t>(ev.op);
  return rec;
}

/// Per-classification totals and latency (duration_ns == 0: clock skipped).
void record_update_telemetry(const UpdateReceipt& r,
                             std::uint64_t duration_ns) {
  ServiceMetrics& tm = service_metrics();
  if (r.report.status != Status::kOk) {
    tm.update_rejects->inc();
    return;
  }
  const auto cls = static_cast<std::size_t>(r.report.cls) % kNumUpdateClasses;
  tm.updates[cls]->inc();
  if (duration_ns != 0) tm.update_latency[cls]->record(duration_ns);
}

}  // namespace

UpdateReceipt replay_journal_record(UpdatableBackend& backend,
                                    const JournalRecord& rec) {
  MPCMST_CHECK(backend.fingerprint() == rec.old_fingerprint,
               "replay: journal record " << rec.generation
                                         << " does not chain from the "
                                            "current fingerprint");
  // Dispatch on the journaled op (v2 frames; v1 upgrades carry op = 0 =
  // reweight, the only op that existed then).
  UpdateReceipt r;
  switch (static_cast<UpdateOp>(rec.op)) {
    case UpdateOp::kReweight:
      r = backend.apply_update(rec.u, rec.v, rec.new_w);
      break;
    case UpdateOp::kAddEdge:
      r = backend.add_edge(rec.u, rec.v, rec.new_w);
      break;
    case UpdateOp::kRemoveEdge:
      r = backend.remove_edge(rec.u, rec.v);
      break;
    default:
      MPCMST_CHECK(false, "replay: journal record "
                              << rec.generation << " carries unknown op "
                              << static_cast<int>(rec.op));
  }
  MPCMST_CHECK(r.report.status == Status::kOk &&
                   static_cast<std::uint8_t>(r.report.cls) == rec.cls &&
                   r.new_fingerprint == rec.new_fingerprint &&
                   r.generation == rec.generation,
               "replay: record " << rec.generation
                                 << " diverged from the journal");
  return r;
}


// ---------------------------------------------------------------------------
// LiveBackend: the one commit path

LiveBackend::LiveBackend(graph::Instance inst,
                         std::shared_ptr<const SensitivityIndex> snapshot,
                         std::uint64_t initial_generation)
    : core_(std::move(inst), std::move(snapshot)),
      receipt_(core_.index().receipt()),
      generation_(initial_generation) {}

std::size_t LiveBackend::n() const {
  std::shared_lock lock(mu_);
  return core_.index().n();
}

std::size_t LiveBackend::num_nontree() const {
  std::shared_lock lock(mu_);
  return core_.index().num_nontree();
}

bool LiveBackend::is_mst() const {
  std::shared_lock lock(mu_);
  return core_.index().is_mst();
}

std::size_t LiveBackend::violations() const {
  std::shared_lock lock(mu_);
  return core_.index().violations();
}

std::uint64_t LiveBackend::fingerprint() const {
  std::shared_lock lock(mu_);
  return core_.index().fingerprint();
}

std::optional<EdgeRef> LiveBackend::find(Vertex u, Vertex v) const {
  std::shared_lock lock(mu_);
  return core_.index().find(u, v);
}

std::optional<NonTreeEdgeInfo> LiveBackend::nontree_info(
    std::int64_t orig_id) const {
  std::shared_lock lock(mu_);
  if (orig_id < 0 ||
      orig_id >= static_cast<std::int64_t>(core_.index().num_nontree()))
    return std::nullopt;
  return core_.index().nontree_edge(orig_id);
}

graph::Instance LiveBackend::instance_snapshot() const {
  std::shared_lock lock(mu_);
  return core_.instance();
}

void LiveBackend::check_not_poisoned() const {
  if (poisoned_.load(std::memory_order_acquire)) {
    throw ServiceError(
        ServiceStatus::kPoisoned,
        "live backend is poisoned: a journal commit failed after the "
        "state mutated; recover the tier from its persistence dir");
  }
}

std::vector<UpdateReceipt> LiveBackend::ingest(
    const std::vector<EdgeEvent>& events) {
  const bool timed = metrics_enabled();
  std::vector<UpdateReceipt> receipts;
  std::vector<std::uint64_t> durations;
  receipts.reserve(events.size());
  durations.reserve(events.size());
  std::unique_lock lock(mu_);
  check_not_poisoned();
  before_apply();
  std::uint64_t epoch = generation_.load(std::memory_order_relaxed);
  std::vector<JournalRecord> staged;
  // Group commit: apply and publish the whole batch under one writer
  // section, stage the journal records, then make them durable with ONE
  // append + fsync.  The epoch store comes after the commit, so nothing is
  // acknowledged (and no new generation is visible) until the batch is on
  // disk; any throw before that poisons the backend — applied-but-
  // unjournaled state (or labels published ahead of the epoch) must not
  // serve.  publish() itself must not throw on a remote peer's fault: the
  // leader marks the shard for re-bootstrap instead.
  try {
    for (const EdgeEvent& ev : events) {
      const std::uint64_t t0 = timed ? metrics_now_ns() : 0;
      const std::uint64_t old_fp = core_.index().fingerprint();
      const auto out = core_.apply_event(ev);
      UpdateReceipt r = make_update_receipt(core_, out, old_fp);
      if (advances_epoch(r.report)) {
        ++epoch;
        staged.push_back(make_journal_record(epoch, r, ev));
        publish(out.changed, epoch);
      }
      r.generation = epoch;
      receipts.push_back(std::move(r));
      durations.push_back(timed ? metrics_now_ns() - t0 : 0);
    }
    if (persist_ && !staged.empty()) persist_->commit_batch(staged);
  } catch (...) {
    poisoned_.store(true, std::memory_order_release);
    throw;
  }
  generation_.store(epoch, std::memory_order_release);
  // Journal shipping tap: the batch is durable and published — stream it to
  // any subscribed replica hub before the writer section ends, so shipped
  // records leave in commit order.
  if (commit_listener_ && !staged.empty()) commit_listener_(staged);
  try {
    if (persist_ && persist_->checkpoint_due())
      persist_->checkpoint(epoch, core_.index());
  } catch (...) {
    poisoned_.store(true, std::memory_order_release);
    throw;
  }
  lock.unlock();
  for (std::size_t i = 0; i < receipts.size(); ++i)
    record_update_telemetry(receipts[i], durations[i]);
  return receipts;
}

void LiveBackend::attach_persistence(std::shared_ptr<Persistence> p) {
  std::unique_lock lock(mu_);
  persist_ = std::move(p);
}

void LiveBackend::checkpoint() {
  std::unique_lock lock(mu_);
  check_not_poisoned();
  if (!persist_) return;
  persist_->checkpoint(generation_.load(std::memory_order_relaxed),
                       core_.index());
}

// ---------------------------------------------------------------------------
// LiveMonolithBackend

LiveMonolithBackend::LiveMonolithBackend(
    graph::Instance inst, std::shared_ptr<const SensitivityIndex> snapshot,
    std::uint64_t initial_generation)
    : LiveBackend(std::move(inst), std::move(snapshot), initial_generation) {}

std::shared_ptr<LiveMonolithBackend> LiveMonolithBackend::build(
    mpc::Engine& eng, const graph::Instance& inst) {
  return std::make_shared<LiveMonolithBackend>(
      inst, SensitivityIndex::build(eng, inst));
}

Answer LiveMonolithBackend::answer(const Query& q) const {
  check_not_poisoned();
  std::shared_lock lock(mu_);
  return answer_query(core_.index(), q);
}

std::vector<Answer> LiveMonolithBackend::answer_many(
    const std::vector<Query>& qs) const {
  check_not_poisoned();
  std::shared_lock lock(mu_);
  std::vector<Answer> out;
  out.reserve(qs.size());
  for (const Query& q : qs) out.push_back(answer_query(core_.index(), q));
  return out;
}

std::shared_ptr<LiveBackend> make_live_backend(TierImage image) {
  return std::make_shared<LiveMonolithBackend>(
      std::move(image.instance), std::move(image.index), image.generation);
}

}  // namespace mpcmst::service
