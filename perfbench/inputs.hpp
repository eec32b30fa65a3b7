// Deterministic inputs of the three workloads.  Everything here is a pure
// function of the seed, and all of it is generated before any timing
// starts (the churn stream is extended lazily, but always outside the timed
// calls).
#pragma once

#include <cstdint>
#include <random>
#include <unordered_set>
#include <vector>

#include "graph/instance.hpp"
#include "service/query.hpp"
#include "service/update.hpp"

namespace perfbench {

namespace graph = mpcmst::graph;
namespace svc = mpcmst::service;
using Rng = std::mt19937_64;

/// High-diameter instance: a caterpillar with a `spine`-vertex spine, ids
/// relabelled at random, and 3n layered non-tree edges (T is an MST).
graph::Instance deep_instance(std::size_t n, std::size_t spine,
                              std::uint64_t seed);

/// Shallow instance: a random recursive tree (height ~ log n) and 3n
/// layered non-tree edges.
graph::Instance shallow_instance(std::size_t n, std::uint64_t seed);

/// An edge a query or tick may name: its key resolves to exactly this edge
/// (every tree edge; a non-tree edge only when no other edge shares its
/// endpoints), carrying the weight it had when the inputs were made.
struct EdgeKey {
  graph::Vertex u = 0;
  graph::Vertex v = 0;
  graph::Weight w = 0;
  bool tree = false;
};
std::vector<EdgeKey> unique_edges(const graph::Instance& inst);

/// Zipf(s) ranks over [0, k): rank r is drawn with weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t k, double s);
  std::size_t operator()(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One point query on `e`: price_change, corridor_headroom, or (tree edges
/// only, when allowed) replacement_edge — so every answer is kOk.
svc::Query point_query(const EdgeKey& e, Rng& rng, bool allow_replacement);

/// A still_mst scenario of k absolute reprices on distinct edges of `pool`.
svc::Query scenario_query(const std::vector<EdgeKey>& pool, std::size_t k,
                          Rng& rng);

/// One event with the class the canonical transform gives it.
struct Tick {
  svc::EdgeEvent ev;
  svc::UpdateClass cls = svc::UpdateClass::kNoChange;
};

/// `count` price ticks that can never swap: a tree-edge price cut (new
/// weight below the old, hence within headroom) or a non-tree price rise
/// (new weight above the old, hence still out).  Weights are tracked per
/// edge, so ticks drawn from disjoint edge sets stay non-swapping under any
/// interleaving of their streams.
std::vector<Tick> make_ticks(const std::vector<EdgeKey>& edges,
                             std::size_t count, std::uint64_t seed);

/// The churn event stream: reweights, inserts, deletes and vertex attaches,
/// each generated against (and applied to) the canonical transform of the
/// instance (apply_event_to_instance), so every event applies.  Event kinds
/// are drawn so that swap-type classes (a full relabel: tree_swap,
/// nontree_swap, insert_swap, vertex_attach, tree_delete_promote) stay
/// within one event of 30% of the stream at every prefix; the rest
/// are in-place (tree_reweight, nontree_reweight, nontree_insert,
/// nontree_delete).  Deletes never touch a key in `reserved`, so queries on
/// reserved keys always resolve.
class ChurnStream {
 public:
  ChurnStream(graph::Instance initial, std::unordered_set<std::uint64_t> reserved,
              std::uint64_t seed);

  Tick next();
  const graph::Instance& instance() const { return sim_; }

 private:
  bool try_in_place(svc::EdgeEvent& ev);
  bool try_swap(svc::EdgeEvent& ev);
  graph::Vertex random_child();
  bool tree_key(graph::Vertex u, graph::Vertex v) const;

  graph::Instance sim_;
  std::unordered_set<std::uint64_t> reserved_;
  Rng rng_;
  std::size_t emitted_ = 0;
  std::size_t swaps_ = 0;
  std::size_t max_n_;
  graph::Weight heavy_;  // strictly increasing: above every live weight
};

/// Is this class a full relabel (swap-type) rather than an in-place repair?
bool is_swap_class(svc::UpdateClass c);

}  // namespace perfbench
