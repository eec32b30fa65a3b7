#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "graph/generators.hpp"
#include "service/index.hpp"

namespace perfbench {

namespace {

constexpr graph::Weight kBand = 1000000;  // make_layered_instance's default
constexpr double kSwapShare = 0.3;        // churn: full-relabel share

/// Independent sub-seeds of one workload seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + k * 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

graph::Instance deep_instance(std::size_t n, std::size_t spine,
                              std::uint64_t seed) {
  auto tree = graph::relabel_random(
      graph::caterpillar_tree(n, spine, sub_seed(seed, 1)), sub_seed(seed, 2));
  return graph::make_layered_instance(std::move(tree), 3 * n,
                                      sub_seed(seed, 3));
}

graph::Instance shallow_instance(std::size_t n, std::uint64_t seed) {
  auto tree = graph::random_recursive_tree(n, sub_seed(seed, 1));
  return graph::make_layered_instance(std::move(tree), 3 * n,
                                      sub_seed(seed, 3));
}

std::vector<EdgeKey> unique_edges(const graph::Instance& inst) {
  std::unordered_map<std::uint64_t, std::uint32_t> uses;
  uses.reserve(2 * inst.m());
  for (std::size_t c = 0; c < inst.n(); ++c)
    if (static_cast<graph::Vertex>(c) != inst.tree.root)
      ++uses[svc::endpoint_key(static_cast<graph::Vertex>(c),
                               inst.tree.parent[c])];
  for (const graph::WEdge& e : inst.nontree)
    if (e.u != e.v) ++uses[svc::endpoint_key(e.u, e.v)];

  std::vector<EdgeKey> out;
  out.reserve(inst.m());
  for (std::size_t c = 0; c < inst.n(); ++c)
    if (static_cast<graph::Vertex>(c) != inst.tree.root)
      out.push_back(EdgeKey{static_cast<graph::Vertex>(c), inst.tree.parent[c],
                            inst.tree.weight[c], true});
  for (const graph::WEdge& e : inst.nontree)
    if (e.u != e.v && uses[svc::endpoint_key(e.u, e.v)] == 1)
      out.push_back(EdgeKey{e.u, e.v, e.w, false});
  return out;
}

Zipf::Zipf(std::size_t k, double s) : cdf_(k) {
  double acc = 0;
  for (std::size_t r = 0; r < k; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t Zipf::operator()(Rng& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

svc::Query point_query(const EdgeKey& e, Rng& rng, bool allow_replacement) {
  switch (rng() % 3) {
    case 0:
      return svc::Query::price_change(
          e.u, e.v, static_cast<graph::Weight>(rng() % 2001) - 1000);
    case 1:
      return svc::Query::corridor_headroom(e.u, e.v);
    default:
      if (allow_replacement && e.tree)
        return svc::Query::replacement_edge(e.u, e.v);
      return svc::Query::corridor_headroom(e.v, e.u);
  }
}

svc::Query scenario_query(const std::vector<EdgeKey>& pool, std::size_t k,
                          Rng& rng) {
  std::vector<svc::PriceChange> changes;
  std::unordered_set<std::size_t> picked;
  while (changes.size() < k) {
    const std::size_t i = rng() % pool.size();
    if (!picked.insert(i).second) continue;
    const EdgeKey& e = pool[i];
    const auto shift =
        static_cast<graph::Weight>(rng() % (kBand / 2)) - kBand / 4;
    changes.push_back({e.u, e.v, std::max<graph::Weight>(1, e.w + shift)});
  }
  return svc::Query::still_mst(std::move(changes));
}

std::vector<Tick> make_ticks(const std::vector<EdgeKey>& edges,
                             std::size_t count, std::uint64_t seed) {
  Rng rng(sub_seed(seed, 7));
  std::vector<graph::Weight> w(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) w[i] = edges[i].w;
  std::vector<Tick> out;
  out.reserve(count);
  while (out.size() < count) {
    const std::size_t i = rng() % edges.size();
    const EdgeKey& e = edges[i];
    if (e.tree) {
      if (w[i] < 2) continue;
      w[i] -= 1 + static_cast<graph::Weight>(
                      rng() % static_cast<std::uint64_t>(
                                  std::min<graph::Weight>(16, w[i] - 1)));
      out.push_back({{svc::UpdateOp::kReweight, e.u, e.v, w[i]},
                     svc::UpdateClass::kTreeReweight});
    } else {
      w[i] += 1 + static_cast<graph::Weight>(rng() % 16);
      out.push_back({{svc::UpdateOp::kReweight, e.u, e.v, w[i]},
                     svc::UpdateClass::kNonTreeReweight});
    }
  }
  return out;
}

bool is_swap_class(svc::UpdateClass c) {
  switch (c) {
    case svc::UpdateClass::kTreeSwap:
    case svc::UpdateClass::kNonTreeSwap:
    case svc::UpdateClass::kInsertSwap:
    case svc::UpdateClass::kVertexAttach:
    case svc::UpdateClass::kTreeDeletePromote:
      return true;
    default:
      return false;
  }
}

ChurnStream::ChurnStream(graph::Instance initial,
                         std::unordered_set<std::uint64_t> reserved,
                         std::uint64_t seed)
    : sim_(std::move(initial)),
      reserved_(std::move(reserved)),
      rng_(sub_seed(seed, 11)),
      max_n_(sim_.n() + sim_.n() / 4),
      heavy_(graph::Weight{1} << 40) {}

graph::Vertex ChurnStream::random_child() {
  graph::Vertex c;
  do {
    c = static_cast<graph::Vertex>(rng_() % sim_.n());
  } while (c == sim_.tree.root);
  return c;
}

bool ChurnStream::tree_key(graph::Vertex u, graph::Vertex v) const {
  const auto& t = sim_.tree;
  return (u != t.root && t.parent[static_cast<std::size_t>(u)] == v) ||
         (v != t.root && t.parent[static_cast<std::size_t>(v)] == u);
}

bool ChurnStream::try_in_place(svc::EdgeEvent& ev) {
  const auto& nt = sim_.nontree;
  switch (rng_() % 4) {
    case 0: {  // tree price cut: stays within headroom
      const graph::Vertex c = random_child();
      const graph::Weight w = sim_.tree.weight[static_cast<std::size_t>(c)];
      if (w < 2) return false;
      ev = {svc::UpdateOp::kReweight, c,
            sim_.tree.parent[static_cast<std::size_t>(c)],
            w - 1 -
                static_cast<graph::Weight>(
                    rng_() % static_cast<std::uint64_t>(
                                 std::min<graph::Weight>(16, w - 1)))};
      return true;
    }
    case 1: {  // non-tree price rise: stays out
      const graph::WEdge& e = nt[rng_() % nt.size()];
      if (e.u == e.v || tree_key(e.u, e.v)) return false;
      ev = {svc::UpdateOp::kReweight, e.u, e.v,
            e.w + 1 + static_cast<graph::Weight>(rng_() % 16)};
      return true;
    }
    case 2: {  // insert heavier than every live edge: stays out
      const auto u = static_cast<graph::Vertex>(rng_() % sim_.n());
      const auto v = static_cast<graph::Vertex>(rng_() % sim_.n());
      if (u == v) return false;
      ev = {svc::UpdateOp::kAddEdge, u, v, heavy_++};
      return true;
    }
    default: {  // delete a non-tree edge outside the reserved keys
      const graph::WEdge& e = nt[rng_() % nt.size()];
      if (e.u == e.v || tree_key(e.u, e.v) ||
          reserved_.count(svc::endpoint_key(e.u, e.v)))
        return false;
      ev = {svc::UpdateOp::kRemoveEdge, e.u, e.v, 0};
      return true;
    }
  }
}

bool ChurnStream::try_swap(svc::EdgeEvent& ev) {
  const auto n = static_cast<graph::Vertex>(sim_.n());
  const auto& nt = sim_.nontree;
  switch (rng_() % 5) {
    case 0:  // a fresh vertex attaches as a leaf
      if (sim_.n() >= max_n_) return false;
      ev = {svc::UpdateOp::kAddEdge, n,
            static_cast<graph::Vertex>(rng_() % sim_.n()),
            1 + static_cast<graph::Weight>(rng_() % kBand)};
      return true;
    case 1: {  // tree edge priced past any cover: exchange
      const graph::Vertex c = random_child();
      ev = {svc::UpdateOp::kReweight, c,
            sim_.tree.parent[static_cast<std::size_t>(c)], heavy_++};
      return true;
    }
    case 2: {  // non-tree edge undercuts its path: exchange
      const graph::WEdge& e = nt[rng_() % nt.size()];
      if (e.u == e.v || tree_key(e.u, e.v)) return false;
      ev = {svc::UpdateOp::kReweight, e.u, e.v, 1};
      return true;
    }
    case 3: {  // new edge undercuts its path: exchange
      const auto u = static_cast<graph::Vertex>(rng_() % sim_.n());
      const auto v = static_cast<graph::Vertex>(rng_() % sim_.n());
      if (u == v || tree_key(u, v)) return false;
      ev = {svc::UpdateOp::kAddEdge, u, v, 1};
      return true;
    }
    default: {  // tree delete: the replacement is promoted (bridges refuse)
      const graph::Vertex c = random_child();
      const graph::Vertex p = sim_.tree.parent[static_cast<std::size_t>(c)];
      if (reserved_.count(svc::endpoint_key(c, p))) return false;
      ev = {svc::UpdateOp::kRemoveEdge, c, p, 0};
      return true;
    }
  }
}

Tick ChurnStream::next() {
  for (int attempt = 0; attempt < 100000; ++attempt) {
    const bool want_swap =
        static_cast<double>(swaps_ + 1) <=
        kSwapShare * static_cast<double>(emitted_ + 1);
    svc::EdgeEvent ev;
    if (!(want_swap ? try_swap(ev) : try_in_place(ev))) continue;
    const svc::UpdateReport rep = svc::apply_event_to_instance(sim_, ev);
    if (rep.status != svc::Status::kOk ||
        rep.cls == svc::UpdateClass::kNoChange)
      continue;
    ++emitted_;
    if (is_swap_class(rep.cls)) ++swaps_;
    return Tick{ev, rep.cls};
  }
  throw std::runtime_error("churn stream: no applicable event found");
}

}  // namespace perfbench
