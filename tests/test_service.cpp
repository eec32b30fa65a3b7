// Tests for the sensitivity query service (src/service/): index snapshot
// against the sequential oracles, replacement-edge correctness, Definition
// 1.2 tie semantics end-to-end (mutate + re-verify), randomized agreement
// across generator families (incl. duplicate weights and partial cover),
// still_mst cache behavior, and batched concurrency.
#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "graph/generators.hpp"
#include "seq/oracles.hpp"
#include "service/service.hpp"
#include "test_util.hpp"

namespace g = mpcmst::graph;
namespace seq = mpcmst::seq;
namespace svc = mpcmst::service;

namespace {

std::shared_ptr<const svc::SensitivityIndex> build_index(
    const g::Instance& inst) {
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  return svc::SensitivityIndex::build(eng, inst);
}

/// Expected headroom under the Definition 1.2 sentinels.
g::Weight tree_headroom(const seq::SensitivityResult& brute, g::Vertex child,
                        g::Weight w) {
  const g::Weight mc = brute.tree_mc[child];
  return mc == g::kPosInfW ? g::kPosInfW : mc - w;
}

/// Does non-tree edge `e` cover the tree edge {child, p(child)}?
bool covers(const seq::SeqTreeIndex& idx, const g::WEdge& e, g::Vertex child) {
  if (e.u == e.v) return false;
  const g::Vertex a = idx.lca(e.u, e.v);
  return idx.depth(child) > idx.depth(a) &&
         (idx.is_ancestor(child, e.u) || idx.is_ancestor(child, e.v));
}

class ServiceShapes
    : public ::testing::TestWithParam<mpcmst::test::ShapeCase> {};

TEST_P(ServiceShapes, IndexMatchesBruteForce) {
  auto tree = GetParam().tree;
  g::assign_random_tree_weights(tree, 1, 40, 61);
  const auto inst = g::make_mst_instance(tree, 3 * tree.n, 63, 6);
  ASSERT_TRUE(seq::verify_mst(inst));
  const auto index = build_index(inst);
  EXPECT_TRUE(index->is_mst());
  const auto brute = seq::sensitivity_brute(inst);
  const seq::SeqTreeIndex seq_idx(inst.tree);

  for (std::size_t v = 0; v < inst.n(); ++v) {
    if (static_cast<g::Vertex>(v) == inst.tree.root) continue;
    const auto& t = index->tree_edge(static_cast<g::Vertex>(v));
    EXPECT_EQ(t.mc, brute.tree_mc[v]) << "child " << v;
    EXPECT_EQ(t.parent, inst.tree.parent[v]);
    if (t.mc == g::kPosInfW) {
      EXPECT_EQ(t.replacement, -1) << "child " << v;
      EXPECT_EQ(t.sens, g::kPosInfW);
    } else {
      // The replacement must achieve the mc and actually cover the edge.
      ASSERT_GE(t.replacement, 0) << "child " << v;
      const g::WEdge& r = inst.nontree[t.replacement];
      EXPECT_EQ(r.w, t.mc) << "child " << v;
      EXPECT_TRUE(covers(seq_idx, r, static_cast<g::Vertex>(v)))
          << "child " << v << " replacement " << t.replacement;
    }
  }
  for (std::size_t i = 0; i < inst.nontree.size(); ++i) {
    const auto& e = index->nontree_edge(static_cast<std::int64_t>(i));
    EXPECT_EQ(e.maxpath, brute.nontree_maxpath[i]) << "nontree " << i;
    EXPECT_EQ(e.sens, e.w - e.maxpath);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, ServiceShapes,
    ::testing::ValuesIn(mpcmst::test::shape_catalog(127)),
    [](const ::testing::TestParamInfo<mpcmst::test::ShapeCase>& inf) {
      return inf.param.name;
    });

// --- randomized agreement: >= 10k queries over >= 4 generator families, ---
// --- duplicate-weight (tie) and partial-cover regimes included          ---

struct AgreementCase {
  std::string name;
  g::Instance inst;
};

std::vector<AgreementCase> agreement_catalog() {
  std::vector<AgreementCase> out;
  std::uint64_t seed = 101;
  auto add = [&](std::string name, g::RootedTree tree, std::size_t extra,
                 g::Weight wlo, g::Weight whi, g::Weight slack) {
    g::assign_random_tree_weights(tree, wlo, whi, ++seed);
    out.push_back(
        {std::move(name), g::make_mst_instance(std::move(tree), extra,
                                               ++seed, slack)});
  };
  const std::size_t n = 150;
  // Four tree families x three weight/cover regimes:
  //   wide   — generic weights, dense cover;
  //   ties   — duplicate weights everywhere, slack 0 (Definition 1.2 ties);
  //   sparse — n/4 non-tree edges, most tree edges uncovered.
  for (auto& [fam, tree] :
       std::vector<std::pair<std::string, g::RootedTree>>{
           {"recursive", g::random_recursive_tree(n, 77)},
           {"caterpillar", g::caterpillar_tree(n, n / 3, 78)},
           {"kary8", g::kary_tree(n, 8)},
           {"path", g::path_tree(n)}}) {
    add(fam + "_wide", tree, 3 * n, 1, 500, 8);
    add(fam + "_ties", tree, 2 * n, 1, 4, 0);
    add(fam + "_sparse", tree, n / 4, 1, 60, 3);
  }
  return out;
}

TEST(ServiceAgreement, RandomizedQueriesMatchOracles) {
  std::size_t total_queries = 0;
  for (auto& ac : agreement_catalog()) {
    SCOPED_TRACE(ac.name);
    const g::Instance& inst = ac.inst;
    ASSERT_TRUE(seq::verify_mst(inst));
    const auto brute = seq::sensitivity_brute(inst);
    svc::QueryService service(build_index(inst),
                              {.threads = 4, .chunk_size = 64});

    std::mt19937_64 rng(0xabcd ^ inst.n() ^ inst.nontree.size());
    std::uniform_int_distribution<int> kind(0, 3);
    std::uniform_int_distribution<std::size_t> tree_pick(0, inst.n() - 1);
    std::uniform_int_distribution<std::size_t> nontree_pick(
        0, inst.nontree.size() - 1);
    std::uniform_int_distribution<g::Weight> delta(-30, 30);

    // Replicate the endpoint resolution rule (tree wins, then the lightest
    // duplicate): random non-tree pairs may collide with tree edges or each
    // other, and the expectation must follow the resolved edge.
    auto ekey = [](g::Vertex u, g::Vertex v) {
      if (u > v) std::swap(u, v);
      return (std::uint64_t(u) << 32) | std::uint64_t(v);
    };
    std::unordered_map<std::uint64_t, svc::EdgeRef> resolve;
    for (std::size_t v = 0; v < inst.n(); ++v)
      if (static_cast<g::Vertex>(v) != inst.tree.root)
        resolve[ekey(static_cast<g::Vertex>(v), inst.tree.parent[v])] =
            svc::EdgeRef{true, static_cast<std::int64_t>(v)};
    for (std::size_t i = 0; i < inst.nontree.size(); ++i) {
      const g::WEdge& ne = inst.nontree[i];
      auto [it, inserted] = resolve.try_emplace(
          ekey(ne.u, ne.v), svc::EdgeRef{false, static_cast<std::int64_t>(i)});
      if (!inserted && !it->second.is_tree &&
          ne.w < inst.nontree[it->second.id].w)
        it->second.id = static_cast<std::int64_t>(i);
    }
    auto expected_for = [&](g::Vertex u, g::Vertex v) {
      svc::Answer e;
      e.edge = resolve.at(ekey(u, v));
      if (e.edge.is_tree) {
        e.headroom = tree_headroom(brute, e.edge.id,
                                   inst.tree.weight[e.edge.id]);
        e.swap_cost = brute.tree_mc[e.edge.id];
      } else {
        e.headroom =
            inst.nontree[e.edge.id].w - brute.nontree_maxpath[e.edge.id];
        e.swap_cost = brute.nontree_maxpath[e.edge.id];
      }
      return e;
    };

    std::vector<svc::Query> queries;
    std::vector<svc::Answer> expected;
    const std::size_t rounds = 1000;  // 12 instances x 1000 >= 10k total
    for (std::size_t r = 0; r < rounds; ++r) {
      auto fill_optimal = [&](svc::Answer& e, g::Weight d) {
        if (e.edge.is_tree)
          e.still_optimal =
              inst.tree.weight[e.edge.id] + d <= brute.tree_mc[e.edge.id];
        else
          e.still_optimal = inst.nontree[e.edge.id].w + d >=
                            brute.nontree_maxpath[e.edge.id];
      };
      switch (kind(rng)) {
        case 0: {  // tree-edge price change
          g::Vertex c = static_cast<g::Vertex>(tree_pick(rng));
          if (c == inst.tree.root) c = (c + 1) % inst.n();
          const g::Weight d = delta(rng);
          queries.push_back(
              svc::Query::price_change(c, inst.tree.parent[c], d));
          svc::Answer e = expected_for(c, inst.tree.parent[c]);
          fill_optimal(e, d);
          expected.push_back(std::move(e));
          break;
        }
        case 1: {  // non-tree price change (may resolve to a parallel edge)
          const g::WEdge& ne = inst.nontree[nontree_pick(rng)];
          const g::Weight d = delta(rng);
          queries.push_back(svc::Query::price_change(ne.u, ne.v, d));
          svc::Answer e = expected_for(ne.u, ne.v);
          fill_optimal(e, d);
          expected.push_back(std::move(e));
          break;
        }
        case 2: {  // corridor headroom, tree side
          g::Vertex c = static_cast<g::Vertex>(tree_pick(rng));
          if (c == inst.tree.root) c = (c + 1) % inst.n();
          queries.push_back(
              svc::Query::corridor_headroom(inst.tree.parent[c], c));
          expected.push_back(expected_for(c, inst.tree.parent[c]));
          break;
        }
        default: {  // replacement edge
          g::Vertex c = static_cast<g::Vertex>(tree_pick(rng));
          if (c == inst.tree.root) c = (c + 1) % inst.n();
          queries.push_back(
              svc::Query::replacement_edge(c, inst.tree.parent[c]));
          expected.push_back(expected_for(c, inst.tree.parent[c]));
          break;
        }
      }
    }
    const std::vector<svc::Answer> answers = service.answer_batch(queries);
    ASSERT_EQ(answers.size(), expected.size());
    for (std::size_t i = 0; i < answers.size(); ++i) {
      const svc::Answer& a = answers[i];
      const svc::Answer& e = expected[i];
      ASSERT_EQ(a.status, svc::Status::kOk) << to_string(queries[i]);
      EXPECT_EQ(a.edge, e.edge) << to_string(queries[i]);
      EXPECT_EQ(a.headroom, e.headroom) << to_string(queries[i]);
      EXPECT_EQ(a.swap_cost, e.swap_cost) << to_string(queries[i]);
      if (queries[i].kind == svc::QueryKind::kPriceChange) {
        EXPECT_EQ(a.still_optimal, e.still_optimal) << to_string(queries[i]);
      }
      if (a.edge.is_tree && a.replacement >= 0) {
        EXPECT_EQ(inst.nontree[a.replacement].w, a.swap_cost);
      }
    }
    total_queries += queries.size();

    // End-to-end spot checks: apply the priced change to a copy of the
    // instance and re-verify with the independent sequential oracle.
    std::size_t checked = 0;
    for (std::size_t i = 0; i < queries.size() && checked < 8; ++i) {
      const svc::Query& q = queries[i];
      if (q.kind != svc::QueryKind::kPriceChange) continue;
      g::Instance mutated = inst;
      if (answers[i].edge.is_tree)
        mutated.tree.weight[answers[i].edge.id] += q.delta;
      else
        mutated.nontree[answers[i].edge.id].w += q.delta;
      EXPECT_EQ(seq::verify_mst(mutated), answers[i].still_optimal)
          << ac.name << " " << to_string(q);
      ++checked;
    }
  }
  EXPECT_GE(total_queries, 10000u);
}

TEST(Service, TopKFragileMatchesBruteOrder) {
  auto tree = g::random_recursive_tree(200, 91);
  g::assign_random_tree_weights(tree, 1, 25, 93);
  const auto inst = g::make_mst_instance(tree, 150, 95, 4);  // partial cover
  const auto brute = seq::sensitivity_brute(inst);
  svc::QueryService service(build_index(inst), {.threads = 2});

  std::vector<g::Vertex> order;
  for (std::size_t v = 0; v < inst.n(); ++v)
    if (static_cast<g::Vertex>(v) != inst.tree.root)
      order.push_back(static_cast<g::Vertex>(v));
  std::sort(order.begin(), order.end(), [&](g::Vertex a, g::Vertex b) {
    const g::Weight sa = tree_headroom(brute, a, inst.tree.weight[a]);
    const g::Weight sb = tree_headroom(brute, b, inst.tree.weight[b]);
    return sa != sb ? sa < sb : a < b;
  });
  for (std::int64_t k : {0, 1, 7, 50, 1000}) {
    const svc::Answer a = service.top_k_fragile(k);
    ASSERT_EQ(a.status, svc::Status::kOk);
    ASSERT_EQ(a.fragile.size(),
              std::min<std::size_t>(static_cast<std::size_t>(k),
                                    order.size()));
    for (std::size_t i = 0; i < a.fragile.size(); ++i) {
      EXPECT_EQ(a.fragile[i].child, order[i]) << "k=" << k << " i=" << i;
      EXPECT_EQ(a.fragile[i].sens,
                tree_headroom(brute, order[i], inst.tree.weight[order[i]]));
    }
  }
}

TEST(Service, TieKeepsTreeOptimalEndToEnd) {
  // Raise a covered tree edge exactly to its mc: Definition 1.2 says the
  // tie keeps T optimal; one unit more flips it.
  auto tree = g::random_recursive_tree(80, 11);
  g::assign_random_tree_weights(tree, 5, 20, 13);
  const auto inst = g::make_mst_instance(tree, 200, 15, 5);
  svc::QueryService service(build_index(inst), {.threads = 1});
  std::size_t checked = 0;
  for (std::size_t v = 0; v < inst.n() && checked < 5; ++v) {
    const auto c = static_cast<g::Vertex>(v);
    if (c == inst.tree.root) continue;
    const auto& t = service.index().tree_edge(c);
    if (t.mc == g::kPosInfW) continue;
    const auto at_tie = service.price_change(c, t.parent, t.sens);
    EXPECT_TRUE(at_tie.still_optimal);
    const auto past_tie = service.price_change(c, t.parent, t.sens + 1);
    EXPECT_FALSE(past_tie.still_optimal);
    g::Instance mutated = inst;
    mutated.tree.weight[v] += t.sens;
    EXPECT_TRUE(seq::verify_mst(mutated));
    mutated.tree.weight[v] += 1;
    EXPECT_FALSE(seq::verify_mst(mutated));
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(Service, UncoveredInstanceIsInfinitelyRobust) {
  // No non-tree edges at all: every tree edge is a bridge.
  g::Instance inst;
  inst.tree = g::path_tree(32);
  for (std::size_t v = 1; v < 32; ++v) inst.tree.weight[v] = 3;
  svc::QueryService service(build_index(inst), {.threads = 1});
  EXPECT_TRUE(service.index().is_mst());
  const auto a = service.price_change(4, 5, 1000000);
  EXPECT_EQ(a.status, svc::Status::kOk);
  EXPECT_TRUE(a.still_optimal);
  EXPECT_EQ(a.headroom, g::kPosInfW);
  EXPECT_EQ(a.replacement, -1);
  // Even a delta clamped to the sentinel band cannot price out a bridge.
  EXPECT_TRUE(service.price_change(4, 5, g::kPosInfW).still_optimal);
  EXPECT_TRUE(
      service.price_change(4, 5, std::numeric_limits<g::Weight>::max())
          .still_optimal);
  const auto top = service.top_k_fragile(5);
  ASSERT_EQ(top.fragile.size(), 5u);
  for (const auto& f : top.fragile) EXPECT_EQ(f.sens, g::kPosInfW);
}

TEST(Service, UnknownAndNotApplicableEdges) {
  auto tree = g::kary_tree(60, 3);
  g::assign_random_tree_weights(tree, 1, 9, 17);
  const auto inst = g::make_mst_instance(tree, 100, 19, 2);
  svc::QueryService service(build_index(inst), {.threads = 1});
  EXPECT_EQ(service.corridor_headroom(-1, 3).status,
            svc::Status::kUnknownEdge);
  EXPECT_EQ(service.corridor_headroom(2, 2).status, svc::Status::kUnknownEdge);
  // Some pair that is neither a tree nor a non-tree edge.
  bool found = false;
  for (g::Vertex u = 0; u < 60 && !found; ++u)
    for (g::Vertex v = u + 1; v < 60 && !found; ++v)
      if (!service.index().find(u, v)) {
        EXPECT_EQ(service.replacement_edge(u, v).status,
                  svc::Status::kUnknownEdge);
        found = true;
      }
  EXPECT_TRUE(found);
  // replacement_edge of a non-tree edge answers kNotApplicable.
  const g::WEdge& ne = inst.nontree.front();
  const auto ref = service.index().find(ne.u, ne.v);
  ASSERT_TRUE(ref.has_value());
  if (!ref->is_tree) {
    EXPECT_EQ(service.replacement_edge(ne.u, ne.v).status,
              svc::Status::kNotApplicable);
  }
}

TEST(Service, EndpointResolutionPrefersTreeThenLightest) {
  // Parallel edges: {1,2} duplicated as a non-tree edge, plus a non-tree
  // pair {0,3} duplicated at different weights (and flipped order).
  g::Instance inst;
  inst.tree = g::path_tree(5);
  for (std::size_t v = 1; v < 5; ++v) inst.tree.weight[v] = 2;
  inst.nontree = {{1, 2, 7}, {0, 3, 9}, {3, 0, 6}, {0, 3, 8}};
  const auto index = build_index(inst);
  const auto tree_ref = index->find(2, 1);
  ASSERT_TRUE(tree_ref.has_value());
  EXPECT_TRUE(tree_ref->is_tree);
  EXPECT_EQ(tree_ref->id, 2);
  const auto light = index->find(0, 3);
  ASSERT_TRUE(light.has_value());
  EXPECT_FALSE(light->is_tree);
  EXPECT_EQ(light->id, 2);  // the w=6 duplicate wins
}

TEST(Service, CacheHitsRepeatAnswersExactly) {
  auto tree = g::caterpillar_tree(120, 40, 21);
  g::assign_random_tree_weights(tree, 1, 30, 23);
  const auto inst = g::make_mst_instance(tree, 300, 25, 5);
  svc::QueryService service(build_index(inst),
                            {.threads = 2, .cache_capacity = 1024});
  const g::WEdge& e = inst.nontree[0];
  const g::Vertex c = inst.tree.root == 1 ? 2 : 1;
  const g::Vertex p = inst.tree.parent[c];
  const auto first = service.still_mst({{e.u, e.v, 1}, {c, p, 40}});
  const auto second = service.still_mst({{e.u, e.v, 1}, {c, p, 40}});
  EXPECT_EQ(first, second);
  // Order-insensitive canonicalization: the flipped, permuted scenario hits
  // too.
  const auto flipped = service.still_mst({{p, c, 40}, {e.v, e.u, 1}});
  EXPECT_EQ(first, flipped);
  const auto stats = service.stats();
  EXPECT_EQ(stats.queries_served, 3u);
  EXPECT_GE(stats.cache.hits, 2u);

  // A cache-disabled service answers identically.
  svc::QueryService uncached(build_index(inst),
                             {.threads = 1, .cache_capacity = 0});
  EXPECT_EQ(uncached.still_mst({{e.u, e.v, 1}, {c, p, 40}}), first);
  EXPECT_EQ(uncached.stats().cache.hits, 0u);
}

TEST(Service, PointQueriesBypassTheCache) {
  auto tree = g::random_recursive_tree(150, 33);
  g::assign_random_tree_weights(tree, 1, 40, 35);
  const auto inst = g::make_mst_instance(tree, 450, 37, 6);
  svc::QueryService service(build_index(inst),
                            {.threads = 4, .chunk_size = 16});
  const auto queries = mpcmst::test::probe_queries(inst);
  const auto before = service.stats().cache;
  // Twice each: a cached kind would hit on the second pass.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& q : queries) (void)service.answer(q);
    (void)service.answer_batch(queries);
  }
  const auto after = service.stats().cache;
  EXPECT_EQ(after.hits + after.misses, before.hits + before.misses);
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(service.stats().queries_served, 4 * queries.size());
}

TEST(Service, LruEvictsAtCapacity) {
  svc::LruCache<int, int> cache(4);
  for (int i = 0; i < 16; ++i) cache.put(i, 10 * i);
  const auto stats = cache.stats();
  EXPECT_LE(stats.entries, 4u);
  EXPECT_GE(stats.evictions, 12u);
  // Recency: a touched key survives an insertion.
  svc::LruCache<int, int> one(2);
  one.put(1, 11);
  one.put(2, 22);
  ASSERT_TRUE(one.get(1).has_value());  // 1 becomes most-recent
  one.put(3, 33);                       // evicts 2
  EXPECT_TRUE(one.get(1).has_value());
  EXPECT_FALSE(one.get(2).has_value());
  EXPECT_TRUE(one.get(3).has_value());
}

TEST(Service, ConcurrentBatchMatchesSequential) {
  auto tree = g::random_recursive_tree(300, 27);
  g::assign_random_tree_weights(tree, 1, 50, 29);
  const auto inst = g::make_mst_instance(tree, 900, 31, 7);
  const auto index = build_index(inst);
  svc::QueryService parallel(index, {.threads = 8, .chunk_size = 32});
  svc::QueryService sequential(index, {.threads = 1, .cache_capacity = 0});

  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<std::size_t> pick(1, inst.n() - 1);
  std::uniform_int_distribution<g::Weight> delta(-20, 20);
  std::vector<svc::Query> queries;
  queries.reserve(8000);
  std::uint64_t scenarios = 0;
  for (std::size_t i = 0; i < 8000; ++i) {
    const auto c = static_cast<g::Vertex>(pick(rng));
    if (c == inst.tree.root) {
      queries.push_back(svc::Query::top_k_fragile(5));
    } else if (i % 16 == 15) {
      queries.push_back(svc::Query::still_mst(
          {{c, inst.tree.parent[c], inst.tree.weight[c] + delta(rng)}}));
      ++scenarios;
    } else if (i % 3 == 0) {
      queries.push_back(
          svc::Query::price_change(c, inst.tree.parent[c], delta(rng)));
    } else if (i % 3 == 1) {
      queries.push_back(svc::Query::replacement_edge(inst.tree.parent[c], c));
    } else {
      queries.push_back(svc::Query::corridor_headroom(c, inst.tree.parent[c]));
    }
  }
  const auto par = parallel.answer_batch(queries);
  ASSERT_EQ(par.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    ASSERT_EQ(par[i], sequential.answer(queries[i])) << i;
  // Re-serving the same batch serves every scenario from the cache.
  (void)parallel.answer_batch(queries);
  const auto stats = parallel.stats();
  EXPECT_EQ(stats.queries_served, 2 * queries.size());
  EXPECT_GE(stats.cache.hits, scenarios);
}

TEST(Service, FingerprintAndReceipt) {
  auto tree = g::kary_tree(90, 4);
  g::assign_random_tree_weights(tree, 1, 12, 33);
  const auto inst = g::make_mst_instance(tree, 180, 35, 3);
  const auto index = build_index(inst);
  EXPECT_EQ(index->fingerprint(),
            svc::SensitivityIndex::fingerprint_of(inst));
  auto changed = inst;
  changed.nontree[0].w += 1;
  EXPECT_NE(index->fingerprint(),
            svc::SensitivityIndex::fingerprint_of(changed));
  const auto& receipt = index->receipt();
  EXPECT_GT(receipt.build_rounds, 0u);
  EXPECT_EQ(receipt.input_words, inst.input_words());
  EXPECT_GT(receipt.peak_global_words, 0u);
}

TEST(Service, NonMstInputIsFlagged) {
  auto tree = g::random_recursive_tree(100, 37);
  g::assign_random_tree_weights(tree, 5, 30, 39);
  auto inst = g::make_mst_instance(tree, 250, 41, 6);
  ASSERT_GT(g::inject_violations(inst, 3, 43), 0u);
  ASSERT_FALSE(seq::verify_mst(inst));
  const auto index = build_index(inst);
  EXPECT_FALSE(index->is_mst());
  EXPECT_GT(index->violations(), 0u);
}

}  // namespace
