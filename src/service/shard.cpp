#include "service/shard.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/radix.hpp"
#include "mpc/dist.hpp"

namespace mpcmst::service {

void ShardedSensitivityIndex::init_partition(std::size_t n,
                                             std::size_t num_shards) {
  const std::size_t s = std::max<std::size_t>(1, num_shards);
  stride_ = n ? (n + s - 1) / s : 1;
  shards_.resize(s);
  for (std::size_t i = 0; i < s; ++i) {
    shards_[i].lo = static_cast<Vertex>(std::min(i * stride_, n));
    shards_[i].hi = static_cast<Vertex>(std::min((i + 1) * stride_, n));
  }
}

void ShardedSensitivityIndex::finalize() {
  violations_ = 0;
  receipt_.effective_shards = shards_.size();
  // Shards are independent: sort and account each in its own pool task.
  ThreadPool::shared().run_tasks(shards_.size(), [&](std::size_t i) {
    IndexShard& s = shards_[i];
    s.generation = generation_;
    // Local fragility order: same (sens, id) order as the monolithic sort,
    // so the k-way merge in the router reproduces the global order exactly
    // (stable radix over the ascending-id roster → ties by id for free).
    s.fragile_order.clear();
    s.fragile_order.reserve(s.tree.size());
    for (Vertex v = s.lo; v < s.hi; ++v)
      if (v != root_) s.fragile_order.push_back(v);
    radix_sort_records(s.fragile_order.data(), s.fragile_order.size(),
                       host_scratch_arena(),
                       [&s](Vertex child) { return s.tree_sens(child); });
    s.cost.tree_edges = s.fragile_order.size();
    s.cost.nontree_edges = s.nontree.size();
    s.cost.endpoint_entries = s.by_endpoints.size();
    // Words resident on this shard: dense tree columns, non-tree columns
    // (+1 word per orig_id roster entry), endpoint entries (+1 word per
    // key), and the fragility order.
    s.cost.resident_words =
        s.tree.size() * mpc::words_per<TreeEdgeInfo>() +
        s.nontree.size() * (mpc::words_per<NonTreeEdgeInfo>() + 1) +
        s.by_endpoints.size() * (mpc::words_per<EdgeRef>() + 1) +
        s.fragile_order.size();
  });
  for (const IndexShard& s : shards_) violations_ += s.violations;
}

std::shared_ptr<const ShardedSensitivityIndex> ShardedSensitivityIndex::build(
    mpc::Engine& eng, const graph::Instance& inst, std::size_t num_shards) {
  MPCMST_ASSERT(inst.tree.well_formed(), "sharded build: input is not a tree");
  auto idx =
      std::shared_ptr<ShardedSensitivityIndex>(new ShardedSensitivityIndex());
  idx->root_ = inst.tree.root;
  idx->fingerprint_ = SensitivityIndex::fingerprint_of(inst);
  idx->n_ = inst.n();
  idx->num_nontree_ = inst.nontree.size();
  idx->init_partition(inst.n(), num_shards);

  // One distributed run, shared by every shard (same pipeline as the
  // monolithic build — the receipt is the price of the whole fleet).
  const mpc::RoundMeter meter(eng);
  const auto artifacts = verify::build_artifacts(eng, inst);
  const auto sens = sensitivity::mst_sensitivity_mpc(inst, artifacts);
  idx->receipt_.build_rounds = meter.delta();
  idx->receipt_.peak_global_words = eng.stats().peak_global_words;
  idx->receipt_.input_words = inst.input_words();
  idx->receipt_.lca_contraction_steps = artifacts.lca_contraction_steps;
  idx->receipt_.verify_core = sens.verify_core;
  idx->receipt_.sens_stats = sens.stats;

  // Tree skeleton per shard from its range-restricted artifact slice — each
  // shard only ever sees the prelude records for its own children (the
  // slices are carved out of the artifacts in one pass).
  std::vector<Vertex> starts;
  starts.reserve(idx->shards_.size() + 1);
  for (const IndexShard& s : idx->shards_) starts.push_back(s.lo);
  starts.push_back(idx->shards_.back().hi);
  const auto slices = verify::slice_artifacts(artifacts, starts);

  // Bucket the non-tree label records by owning shard (an edge lives with
  // its canonical min endpoint) so the per-shard slices below are
  // independent pool tasks.
  std::vector<std::vector<const sensitivity::NonTreeEdgeSens*>> nt_of(
      idx->shards_.size());
  for (const sensitivity::NonTreeEdgeSens& rec : sens.nontree.local()) {
    const graph::WEdge& we = inst.nontree[rec.orig_id];
    nt_of[idx->shard_of(std::min(we.u, we.v))].push_back(&rec);
  }
  // Tree label records land densely in their child's shard; bucket them too.
  std::vector<std::vector<const sensitivity::TreeEdgeSens*>> t_of(
      idx->shards_.size());
  for (const sensitivity::TreeEdgeSens& t : sens.tree.local())
    t_of[idx->shard_of(t.v)].push_back(&t);

  // Topology view from the shared prelude: retained for the router's
  // still_mst certificate merge, and lent to the [Tar82] replacement
  // relaxation below; shards themselves only retain their own label range.
  idx->topo_ = verify::TreeTopology::from_artifacts(artifacts);
  const std::vector<std::int64_t> repl = replacement_edges(inst, idx->topo_);

  const auto is_tree_edge = [&inst](Vertex a, Vertex b) {
    return (a != inst.tree.root && inst.tree.parent[a] == b) ||
           (b != inst.tree.root && inst.tree.parent[b] == a);
  };

  // Violations must be totalled before the cross-check runs, so the slices
  // proceed in two waves: fill labels, then check + endpoint maps.
  ThreadPool& pool = ThreadPool::shared();
  pool.run_tasks(idx->shards_.size(), [&](std::size_t i) {
    IndexShard& s = idx->shards_[i];
    s.tree.assign(static_cast<std::size_t>(s.hi - s.lo));
    for (const treeops::TreeRec& r : slices[i].tree) {
      const auto slot = static_cast<std::size_t>(r.v - s.lo);
      s.tree.parent[slot] = r.parent;
      s.tree.w[slot] = r.w;
    }
    for (const sensitivity::TreeEdgeSens* t : t_of[i]) {
      const auto slot = static_cast<std::size_t>(t->v - s.lo);
      s.tree.w[slot] = t->w;
      s.tree.mc[slot] = t->mc;
      s.tree.sens[slot] = t->sens;
    }
    // Non-tree columns: sort the assigned records by orig_id (the roster is
    // binary-searched), then fill the parallel arrays.
    auto& recs = nt_of[i];
    radix_sort_records(
        recs.data(), recs.size(), host_scratch_arena(),
        [](const sensitivity::NonTreeEdgeSens* r) {
          return r->orig_id;
        });
    s.nontree_ids.reserve(recs.size());
    s.nontree.reserve(recs.size());
    for (const sensitivity::NonTreeEdgeSens* rec : recs) {
      const graph::WEdge& we = inst.nontree[rec->orig_id];
      s.nontree_ids.push_back(rec->orig_id);
      s.nontree.push_back(
          NonTreeEdgeInfo{we.u, we.v, rec->w, rec->maxpath, rec->sens});
      if (rec->w < rec->maxpath) ++s.violations;
    }
  });
  std::size_t total_violations = 0;
  for (const IndexShard& s : idx->shards_) total_violations += s.violations;

  pool.run_tasks(idx->shards_.size(), [&](std::size_t i) {
    IndexShard& s = idx->shards_[i];
    // Scatter the replacement argmins and cross-check this shard's range.
    for (Vertex v = s.lo; v < s.hi; ++v) {
      if (v == inst.tree.root) continue;
      const auto slot = static_cast<std::size_t>(v - s.lo);
      s.tree.replacement[slot] = repl[v];
      if (total_violations == 0) {
        const Weight rw =
            repl[v] < 0 ? graph::kPosInfW : inst.nontree[repl[v]].w;
        MPCMST_ASSERT(rw == s.tree.mc[slot],
                      "sharded build: replacement weight "
                          << rw << " != mc " << s.tree.mc[slot]
                          << " for tree edge child " << v);
      }
    }
    // Endpoint map.  A tree entry lives with its child; a non-tree entry
    // with its min endpoint.  Tree edges shadow parallel non-tree edges and
    // duplicate non-tree edges resolve to the lightest (ascending orig_id,
    // strict <) — the same precedence the monolithic build applies globally,
    // reproduced shard-locally because all duplicates of a key share their
    // min endpoint and therefore their shard.
    s.by_endpoints.reserve(2 * (s.tree.size() + s.nontree.size()));
    for (Vertex v = s.lo; v < s.hi; ++v) {
      if (v == idx->root_) continue;
      s.by_endpoints.emplace(
          endpoint_key(v, s.tree.parent[static_cast<std::size_t>(v - s.lo)]),
          EdgeRef{true, v});
    }
    for (std::size_t r = 0; r < s.nontree_ids.size(); ++r) {
      const std::int64_t id = s.nontree_ids[r];
      const graph::WEdge& e = inst.nontree[static_cast<std::size_t>(id)];
      if (e.u == e.v) continue;              // tombstoned slot (update.hpp)
      if (is_tree_edge(e.u, e.v)) continue;  // shadowed: the tree entry wins
      auto [it, inserted] =
          s.by_endpoints.try_emplace(endpoint_key(e.u, e.v),
                                     EdgeRef{false, id});
      if (!inserted && !it->second.is_tree &&
          e.w < inst.nontree[static_cast<std::size_t>(it->second.id)].w)
        it->second.id = id;
    }
  });

  idx->finalize();
  return idx;
}

std::shared_ptr<const ShardedSensitivityIndex> ShardedSensitivityIndex::split(
    const SensitivityIndex& full, std::size_t num_shards) {
  auto idx =
      std::shared_ptr<ShardedSensitivityIndex>(new ShardedSensitivityIndex());
  idx->root_ = full.root();
  idx->fingerprint_ = full.fingerprint();
  idx->receipt_ = full.receipt();
  idx->n_ = full.n();
  idx->num_nontree_ = full.num_nontree();
  idx->topo_ = full.topology();
  idx->init_partition(full.n(), num_shards);

  // Bucket non-tree ids by owning shard first, so the per-shard fill below
  // runs as independent pool tasks (ids ascend within each bucket).
  const NonTreeLabels& nt = full.nontree_labels();
  std::vector<std::vector<std::int64_t>> ids_of(idx->shards_.size());
  for (std::size_t i = 0; i < nt.size(); ++i)
    ids_of[idx->shard_of(std::min(nt.u[i], nt.v[i]))].push_back(
        static_cast<std::int64_t>(i));

  ThreadPool::shared().run_tasks(idx->shards_.size(), [&](std::size_t si) {
    IndexShard& s = idx->shards_[si];
    // Tree columns: bulk slice copies out of the monolith's columns.
    s.tree.append_slice(full.tree_labels(), static_cast<std::size_t>(s.lo),
                        static_cast<std::size_t>(s.hi));
    s.by_endpoints.reserve(2 * (s.tree.size() + ids_of[si].size()));
    for (Vertex v = s.lo; v < s.hi; ++v) {
      if (v == idx->root_) continue;
      s.by_endpoints.emplace(
          endpoint_key(v, s.tree.parent[static_cast<std::size_t>(v - s.lo)]),
          EdgeRef{true, v});
    }
    s.nontree_ids = std::move(ids_of[si]);
    s.nontree.reserve(s.nontree_ids.size());
    for (const std::int64_t i : s.nontree_ids) {
      const NonTreeEdgeInfo info = nt.get(static_cast<std::size_t>(i));
      s.nontree.push_back(info);
      if (info.w < info.maxpath) ++s.violations;
      // The monolith already resolved shadowing and duplicates; reuse its
      // verdict (every duplicate of a key maps to the same resolved ref).
      const auto ref = full.find(info.u, info.v);
      if (ref && !ref->is_tree)
        s.by_endpoints.emplace(endpoint_key(info.u, info.v), *ref);
    }
  });

  idx->finalize();
  return idx;
}

std::optional<ShardedSensitivityIndex::Resolved>
ShardedSensitivityIndex::resolve(Vertex u, Vertex v) const {
  if (u < 0 || v < 0 || u >= static_cast<Vertex>(n_) ||
      v >= static_cast<Vertex>(n_))
    return std::nullopt;
  const std::uint64_t key = endpoint_key(u, v);
  const IndexShard* first = &shards_[shard_of(u)];
  if (const auto ref = first->find(key)) return Resolved{*ref, first};
  const IndexShard* second = &shards_[shard_of(v)];
  if (second != first)
    if (const auto ref = second->find(key)) return Resolved{*ref, second};
  return std::nullopt;
}

std::optional<NonTreeEdgeInfo> ShardedSensitivityIndex::nontree_info(
    std::int64_t orig_id) const {
  for (const IndexShard& s : shards_)
    if (const auto e = s.nontree_edge(orig_id)) return e;
  return std::nullopt;
}

bool ShardedSensitivityIndex::rebuild_topology() {
  graph::RootedTree tree;
  tree.n = n_;
  tree.root = root_;
  tree.parent.assign(n_, -1);
  tree.weight.assign(n_, 0);
  if (root_ < 0 || static_cast<std::size_t>(root_) >= std::max<std::size_t>(
                                                         n_, 1))
    return false;
  for (const IndexShard& s : shards_)
    for (Vertex v = s.lo; v < s.hi; ++v) {
      const auto slot = static_cast<std::size_t>(v - s.lo);
      tree.parent[static_cast<std::size_t>(v)] = s.tree.parent[slot];
      tree.weight[static_cast<std::size_t>(v)] = s.tree.w[slot];
    }
  tree.parent[static_cast<std::size_t>(root_)] = root_;
  if (!tree.well_formed()) return false;
  topo_ = verify::TreeTopology(tree);
  return true;
}

std::size_t ShardedSensitivityIndex::max_shard_words() const {
  std::size_t best = 0;
  for (const IndexShard& s : shards_)
    best = std::max(best, s.cost.resident_words);
  return best;
}

// ---------------------------------------------------------------------------
// In-place patch primitives (applied by ShardHost::apply_patch).

void shard_patch_tree(IndexShard& s, Vertex child, const TreeEdgeInfo& info) {
  MPCMST_ASSERT(s.owns(child),
                "shard_patch_tree: child " << child << " outside [" << s.lo
                                           << ", " << s.hi << ")");
  const auto slot = static_cast<std::size_t>(child - s.lo);
  if (s.tree.sens[slot] != info.sens) {
    // Reposition inside the shard-local fragility order, in place.
    const auto old_it =
        std::find(s.fragile_order.begin(), s.fragile_order.end(), child);
    MPCMST_ASSERT(old_it != s.fragile_order.end(),
                  "shard_patch_tree: child " << child
                                             << " missing from shard order");
    s.fragile_order.erase(old_it);
    s.tree.set(slot, info);
    const auto new_it = std::lower_bound(
        s.fragile_order.begin(), s.fragile_order.end(), child,
        [&s](Vertex a, Vertex b) {
          const Weight sa = s.tree_sens(a);
          const Weight sb = s.tree_sens(b);
          return sa != sb ? sa < sb : a < b;
        });
    s.fragile_order.insert(new_it, child);
  } else {
    s.tree.set(slot, info);
  }
}

bool shard_patch_nontree(IndexShard& s, bool owned, std::int64_t id,
                         const NonTreeEdgeInfo& info) {
  const std::ptrdiff_t slot = s.nontree_slot(id);
  if (!owned) {
    // The edge's owner is another shard (it moved, or was never here):
    // drop any stale slot.
    if (slot < 0) return false;
    s.nontree_ids.erase(s.nontree_ids.begin() + slot);
    s.nontree.erase(static_cast<std::size_t>(slot));
    return true;
  }
  if (slot >= 0) {
    s.nontree.set(static_cast<std::size_t>(slot), info);
    return false;
  }
  const auto it =
      std::lower_bound(s.nontree_ids.begin(), s.nontree_ids.end(), id);
  const auto at = static_cast<std::size_t>(it - s.nontree_ids.begin());
  s.nontree_ids.insert(it, id);
  s.nontree.insert(at, info);
  return true;
}

void shard_patch_endpoint(IndexShard& s, std::uint64_t key,
                          const EdgeRef& ref) {
  if (!ref.is_tree && ref.id < 0) {
    // Erase marker (see ChangedSet): the key no longer resolves.
    s.by_endpoints.erase(key);
  } else {
    s.by_endpoints[key] = ref;
  }
}

void shard_refresh_cost(IndexShard& s) {
  s.cost.tree_edges = s.fragile_order.size();
  s.cost.nontree_edges = s.nontree.size();
  s.cost.endpoint_entries = s.by_endpoints.size();
  s.cost.resident_words =
      s.tree.size() * mpc::words_per<TreeEdgeInfo>() +
      s.nontree.size() * (mpc::words_per<NonTreeEdgeInfo>() + 1) +
      s.by_endpoints.size() * (mpc::words_per<EdgeRef>() + 1) +
      s.fragile_order.size();
}

}  // namespace mpcmst::service
