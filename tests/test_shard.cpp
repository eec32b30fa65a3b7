// Tests for the sharded index and query router (src/service/shard.hpp,
// src/service/router.hpp): byte-identical answers against the monolithic
// SensitivityIndex across shard counts and all four query families
// (including top_k_fragile under duplicate sensitivities), shard-boundary
// behavior (edges straddling two shards, empty vertex ranges), direct
// range-restricted builds vs splitting a monolith, per-shard footprint
// bounds, and the QueryService running over a QueryRouter backend.
#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "graph/generators.hpp"
#include "seq/oracles.hpp"
#include "service/router.hpp"
#include "service/service.hpp"
#include "service/shard.hpp"
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

std::shared_ptr<const svc::ShardedSensitivityIndex> build_sharded(
    const g::Instance& inst, std::size_t shards) {
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  return svc::ShardedSensitivityIndex::build(eng, inst, shards);
}

/// Every point query on every edge (tree and non-tree, both endpoint
/// orders), some unknown pairs, and a spread of top-k sizes — the exhaustive
/// workload the parity tests replay against two backends.
std::vector<svc::Query> exhaustive_queries(const g::Instance& inst) {
  std::vector<svc::Query> out;
  for (std::size_t v = 0; v < inst.n(); ++v) {
    if (static_cast<g::Vertex>(v) == inst.tree.root) continue;
    const g::Vertex c = static_cast<g::Vertex>(v);
    const g::Vertex p = inst.tree.parent[v];
    out.push_back(svc::Query::corridor_headroom(c, p));
    out.push_back(svc::Query::corridor_headroom(p, c));
    out.push_back(svc::Query::replacement_edge(c, p));
    out.push_back(
        svc::Query::price_change(c, p, static_cast<g::Weight>(v % 7)));
    out.push_back(svc::Query::price_change(c, p, g::kPosInfW));
  }
  for (const g::WEdge& e : inst.nontree) {
    out.push_back(svc::Query::corridor_headroom(e.u, e.v));
    out.push_back(svc::Query::replacement_edge(e.u, e.v));
    out.push_back(svc::Query::price_change(e.u, e.v, -3));
  }
  // Unknown / out-of-range edges.
  out.push_back(svc::Query::corridor_headroom(-1, 2));
  out.push_back(svc::Query::corridor_headroom(
      0, static_cast<g::Vertex>(inst.n()) + 5));
  out.push_back(svc::Query::price_change(0, 0, 4));
  for (const std::int64_t k : {0L, 1L, 3L, static_cast<long>(inst.n() / 2),
                               static_cast<long>(inst.n()) + 10}) {
    out.push_back(svc::Query::top_k_fragile(k));
  }
  return out;
}

void expect_identical_answers(const svc::IndexBackend& expected,
                              const svc::IndexBackend& actual,
                              const std::vector<svc::Query>& queries) {
  for (const svc::Query& q : queries) {
    const svc::Answer a = expected.answer(q);
    const svc::Answer b = actual.answer(q);
    ASSERT_EQ(a, b) << to_string(q) << "\n  expected: " << to_string(a)
                    << "\n  actual:   " << to_string(b);
  }
}

struct ShardCase {
  std::string name;
  g::Instance inst;
};

/// The four tree families of the service agreement suite, each in a generic
/// and a duplicate-weight (tie) regime — ties are what make top_k merge
/// stability interesting.
std::vector<ShardCase> shard_catalog() {
  std::vector<ShardCase> out;
  std::uint64_t seed = 501;
  auto add = [&](std::string name, g::RootedTree tree, std::size_t extra,
                 g::Weight wlo, g::Weight whi, g::Weight slack) {
    g::assign_random_tree_weights(tree, wlo, whi, ++seed);
    out.push_back({std::move(name),
                   g::make_mst_instance(std::move(tree), extra, ++seed,
                                        slack)});
  };
  const std::size_t n = 120;
  for (auto& [fam, tree] :
       std::vector<std::pair<std::string, g::RootedTree>>{
           {"recursive", g::random_recursive_tree(n, 171)},
           {"caterpillar", g::caterpillar_tree(n, n / 3, 172)},
           {"kary8", g::kary_tree(n, 8)},
           {"path", g::path_tree(n)}}) {
    add(fam + "_wide", tree, 3 * n, 1, 400, 8);
    add(fam + "_ties", tree, 2 * n, 1, 4, 0);
  }
  return out;
}

class ShardParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardParity, ShardsMatchMonolithAcrossFamilies) {
  const std::size_t shards = GetParam();
  for (auto& sc : shard_catalog()) {
    SCOPED_TRACE(sc.name);
    const auto mono = build_index(sc.inst);
    const svc::MonolithicBackend expected(mono);
    const svc::QueryRouter actual(
        svc::ShardedSensitivityIndex::split(*mono, shards));
    EXPECT_EQ(actual.num_shards(), shards);
    EXPECT_EQ(actual.fingerprint(), expected.fingerprint());
    EXPECT_EQ(actual.is_mst(), expected.is_mst());
    EXPECT_EQ(actual.violations(), expected.violations());
    expect_identical_answers(expected, actual, exhaustive_queries(sc.inst));
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardParity,
                         ::testing::Values(1, 2, 3, 8),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "shards" + std::to_string(i.param);
                         });

TEST(Shard, DirectBuildMatchesSplit) {
  // Building straight from the distributed artifacts (range-restricted
  // slices, no monolithic index in between) must produce shard-for-shard
  // identical content to splitting the monolith.
  for (auto& sc : shard_catalog()) {
    SCOPED_TRACE(sc.name);
    const auto mono = build_index(sc.inst);
    const auto from_split = svc::ShardedSensitivityIndex::split(*mono, 8);
    const auto direct = build_sharded(sc.inst, 8);
    ASSERT_EQ(direct->num_shards(), from_split->num_shards());
    EXPECT_EQ(direct->fingerprint(), from_split->fingerprint());
    EXPECT_EQ(direct->violations(), from_split->violations());
    EXPECT_EQ(direct->receipt().build_rounds,
              from_split->receipt().build_rounds);
    for (std::size_t i = 0; i < direct->num_shards(); ++i) {
      const svc::IndexShard& a = direct->shard(i);
      const svc::IndexShard& b = from_split->shard(i);
      ASSERT_EQ(a.lo, b.lo) << "shard " << i;
      ASSERT_EQ(a.hi, b.hi) << "shard " << i;
      EXPECT_EQ(a.tree, b.tree) << "shard " << i;
      EXPECT_EQ(a.fragile_order, b.fragile_order) << "shard " << i;
      EXPECT_EQ(a.violations, b.violations) << "shard " << i;
      ASSERT_EQ(a.nontree.size(), b.nontree.size()) << "shard " << i;
      EXPECT_EQ(a.nontree_ids, b.nontree_ids) << "shard " << i;
      for (std::size_t r = 0; r < a.nontree_ids.size(); ++r) {
        const std::int64_t id = a.nontree_ids[r];
        const auto other = b.nontree_edge(id);
        ASSERT_TRUE(other.has_value()) << "shard " << i << " orig_id " << id;
        EXPECT_EQ(a.nontree.get(r), *other)
            << "shard " << i << " orig_id " << id;
      }
      ASSERT_EQ(a.by_endpoints.size(), b.by_endpoints.size())
          << "shard " << i;
      for (const auto& [key, ref] : a.by_endpoints) {
        const auto other = b.find(key);
        ASSERT_TRUE(other.has_value()) << "shard " << i << " key " << key;
        EXPECT_EQ(ref, *other) << "shard " << i << " key " << key;
      }
    }
  }
}

TEST(Shard, EdgesStraddlingTwoShards) {
  // Path tree: with stride 8 every eighth tree edge {8k-1, 8k} has its
  // endpoints in different shards; the entry lives with the child, so
  // resolution must probe the second shard.  A long non-tree chord straddles
  // too and is owned by its min endpoint's shard.
  g::Instance inst;
  inst.tree = g::path_tree(64);
  for (std::size_t v = 1; v < 64; ++v) inst.tree.weight[v] = 5;
  inst.nontree = {{3, 60, 9}, {15, 16, 9}, {8, 7, 9}, {40, 33, 9}};
  ASSERT_TRUE(seq::verify_mst(inst));

  const auto mono = build_index(inst);
  const auto sharded = svc::ShardedSensitivityIndex::split(*mono, 8);
  const svc::QueryRouter router(sharded);

  std::size_t straddlers = 0;
  for (std::size_t v = 1; v < 64; ++v) {
    const g::Vertex c = static_cast<g::Vertex>(v);
    const g::Vertex p = inst.tree.parent[v];
    if (sharded->shard_of(c) != sharded->shard_of(p)) ++straddlers;
    const auto res = sharded->resolve(p, c);  // parent-first order
    ASSERT_TRUE(res.has_value()) << "tree edge {" << c << "," << p << "}";
    EXPECT_TRUE(res->ref.is_tree);
    EXPECT_EQ(res->ref.id, c);
    EXPECT_TRUE(res->shard->owns(c));  // entry lives with the child
  }
  EXPECT_EQ(straddlers, 7u);  // children 8, 16, ..., 56

  for (const g::WEdge& e : inst.nontree) {
    const auto res = sharded->resolve(e.u, e.v);
    const auto expected_ref = mono->find(e.u, e.v);
    ASSERT_TRUE(res.has_value() && expected_ref.has_value())
        << "{" << e.u << "," << e.v << "}";
    EXPECT_EQ(res->ref, *expected_ref) << "{" << e.u << "," << e.v << "}";
    // {8, 7} is parallel to a tree edge and must resolve to it (living with
    // its child); a real non-tree edge lives with its min endpoint.
    if (res->ref.is_tree)
      EXPECT_TRUE(res->shard->owns(res->ref.id));
    else
      EXPECT_TRUE(res->shard->owns(std::min(e.u, e.v)));
  }
  // {3, 60} straddles shards 0 and 7; {15, 16} straddles 1 and 2.
  EXPECT_NE(sharded->shard_of(3), sharded->shard_of(60));
  EXPECT_NE(sharded->shard_of(15), sharded->shard_of(16));

  const svc::MonolithicBackend expected(mono);
  expect_identical_answers(expected, router, exhaustive_queries(inst));
}

TEST(Shard, EmptyShardRanges) {
  // More shards than vertices: trailing shards own empty ranges, and the
  // root-only shard of a star tree holds no tree edges at all.
  g::Instance inst;
  inst.tree = g::star_tree(5);  // root 0, children 1..4
  for (std::size_t v = 1; v < 5; ++v)
    inst.tree.weight[v] = static_cast<g::Weight>(v);
  inst.nontree = {{1, 2, 7}, {3, 4, 9}};
  ASSERT_TRUE(seq::verify_mst(inst));

  const auto mono = build_index(inst);
  const auto sharded = svc::ShardedSensitivityIndex::split(*mono, 8);
  ASSERT_EQ(sharded->num_shards(), 8u);
  EXPECT_EQ(sharded->shard(0).cost.tree_edges, 0u);  // root only
  for (std::size_t i = 5; i < 8; ++i) {
    EXPECT_EQ(sharded->shard(i).lo, sharded->shard(i).hi) << "shard " << i;
    EXPECT_EQ(sharded->shard(i).cost.resident_words, 0u) << "shard " << i;
  }
  const svc::QueryRouter router(sharded);
  const svc::MonolithicBackend expected(mono);
  expect_identical_answers(expected, router, exhaustive_queries(inst));
  // The k-way merge must skip the empty shards cleanly.
  const auto top = router.answer(svc::Query::top_k_fragile(10));
  ASSERT_EQ(top.fragile.size(), 4u);
}

TEST(Shard, TopKTieBreakingStableAcrossShardCounts) {
  // Duplicate sensitivities everywhere (slack 0, tiny weight range): the
  // global fragility order is fixed by the (sens, child id) tie-break, and
  // every shard count must reproduce it entry-for-entry.
  auto tree = g::random_recursive_tree(90, 311);
  g::assign_random_tree_weights(tree, 1, 3, 313);
  const auto inst = g::make_mst_instance(std::move(tree), 180, 317, 0);
  const auto mono = build_index(inst);
  const svc::MonolithicBackend expected(mono);

  bool saw_duplicate_sens = false;
  const auto full = expected.answer(svc::Query::top_k_fragile(
      static_cast<std::int64_t>(inst.n())));
  for (std::size_t i = 1; i < full.fragile.size(); ++i) {
    if (full.fragile[i].sens == full.fragile[i - 1].sens)
      saw_duplicate_sens = true;
    // Global order is strictly increasing on the (sens, child) pair.
    EXPECT_TRUE(full.fragile[i - 1].sens < full.fragile[i].sens ||
                full.fragile[i - 1].child < full.fragile[i].child);
  }
  EXPECT_TRUE(saw_duplicate_sens) << "tie regime produced no ties";

  for (const std::size_t shards : {1u, 2u, 5u, 8u, 90u}) {
    SCOPED_TRACE(shards);
    const svc::QueryRouter router(
        svc::ShardedSensitivityIndex::split(*mono, shards));
    for (const std::int64_t k : {1L, 7L, 45L, 89L, 90L}) {
      const auto a = expected.answer(svc::Query::top_k_fragile(k));
      const auto b = router.answer(svc::Query::top_k_fragile(k));
      ASSERT_EQ(a, b) << "k=" << k;
    }
  }
}

TEST(Shard, PerShardFootprintIsBounded) {
  auto tree = g::random_recursive_tree(400, 401);
  g::assign_random_tree_weights(tree, 1, 90, 403);
  const auto inst = g::make_mst_instance(std::move(tree), 1200, 407, 6);
  const auto mono = build_index(inst);
  const auto sharded = svc::ShardedSensitivityIndex::split(*mono, 8);

  std::size_t tree_total = 0, nontree_total = 0, words_total = 0;
  for (std::size_t i = 0; i < sharded->num_shards(); ++i) {
    const svc::ShardCost& c = sharded->shard(i).cost;
    tree_total += c.tree_edges;
    nontree_total += c.nontree_edges;
    words_total += c.resident_words;
    EXPECT_LE(c.tree_edges, (inst.n() + 7) / 8) << "shard " << i;
  }
  EXPECT_EQ(tree_total, inst.n() - 1);
  EXPECT_EQ(nontree_total, inst.nontree.size());
  // The point of sharding: no single participant holds more than a fraction
  // of the labeling (dense ranges are exactly balanced; the non-tree side is
  // randomized, so allow generous slack).
  EXPECT_LT(sharded->max_shard_words(), words_total / 4);
}

TEST(Shard, NonMstInstanceAgreesOnViolations) {
  auto tree = g::random_recursive_tree(100, 431);
  g::assign_random_tree_weights(tree, 5, 30, 433);
  auto inst = g::make_mst_instance(std::move(tree), 250, 437, 6);
  ASSERT_GT(g::inject_violations(inst, 3, 439), 0u);
  ASSERT_FALSE(seq::verify_mst(inst));
  const auto mono = build_index(inst);
  const auto sharded = svc::ShardedSensitivityIndex::split(*mono, 4);
  EXPECT_FALSE(sharded->is_mst());
  EXPECT_EQ(sharded->violations(), mono->violations());
  expect_identical_answers(svc::MonolithicBackend(mono),
                           svc::QueryRouter(sharded),
                           exhaustive_queries(inst));
}

TEST(Shard, ServiceOverRouterMatchesMonolithicService) {
  // The full serving stack (worker pool + still_mst cache) over a sharded
  // backend against the monolithic service, under real batch concurrency —
  // the merge and routing paths the sanitizer jobs watch.
  auto tree = g::caterpillar_tree(300, 90, 443);
  g::assign_random_tree_weights(tree, 1, 60, 449);
  const auto inst = g::make_mst_instance(std::move(tree), 900, 457, 5);
  const auto mono = build_index(inst);
  svc::QueryService monolithic(mono, {.threads = 2, .cache_capacity = 0});
  svc::QueryService routed(
      std::make_shared<const svc::QueryRouter>(
          svc::ShardedSensitivityIndex::split(*mono, 8)),
      {.threads = 8, .chunk_size = 32});
  EXPECT_EQ(routed.backend().num_shards(), 8u);
  EXPECT_EQ(routed.backend().fingerprint(), mono->fingerprint());

  std::mt19937_64 rng(0xf00d);
  std::uniform_int_distribution<std::size_t> pick(1, inst.n() - 1);
  std::uniform_int_distribution<std::size_t> nontree_pick(
      0, inst.nontree.size() - 1);
  std::uniform_int_distribution<g::Weight> delta(-25, 25);
  std::vector<svc::Query> queries;
  queries.reserve(6000);
  std::uint64_t scenarios = 0;
  for (std::size_t i = 0; i < 6000; ++i) {
    const auto c = static_cast<g::Vertex>(pick(rng));
    switch (i % 6) {
      case 0:
        queries.push_back(
            svc::Query::price_change(c, inst.tree.parent[c], delta(rng)));
        break;
      case 1: {
        const g::WEdge& e = inst.nontree[nontree_pick(rng)];
        queries.push_back(svc::Query::price_change(e.u, e.v, delta(rng)));
        break;
      }
      case 2:
        queries.push_back(
            svc::Query::replacement_edge(inst.tree.parent[c], c));
        break;
      case 3:
        queries.push_back(svc::Query::top_k_fragile(1 + (i % 13)));
        break;
      case 4: {
        const g::WEdge& e = inst.nontree[nontree_pick(rng)];
        queries.push_back(svc::Query::still_mst(
            {{c, inst.tree.parent[c], inst.tree.weight[c] + delta(rng)},
             {e.u, e.v, e.w + delta(rng)}}));
        ++scenarios;
        break;
      }
      default:
        queries.push_back(
            svc::Query::corridor_headroom(c, inst.tree.parent[c]));
    }
  }
  const auto routed_answers = routed.answer_batch(queries);
  ASSERT_EQ(routed_answers.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    ASSERT_EQ(routed_answers[i], monolithic.answer(queries[i]))
        << i << ": " << to_string(queries[i]);
  // Warm pass serves every scenario from the cache and stays identical.
  EXPECT_EQ(routed.answer_batch(queries), routed_answers);
  EXPECT_GE(routed.stats().cache.hits, scenarios);
}

TEST(Shard, BuildShardedServiceEndToEnd) {
  auto tree = g::kary_tree(80, 4);
  g::assign_random_tree_weights(tree, 1, 15, 461);
  const auto inst = g::make_mst_instance(std::move(tree), 160, 463, 3);
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  const auto service = svc::QueryService::open(
      {.engine = &eng, .instance = &inst, .sharded = true, .num_shards = 4});
  EXPECT_EQ(service->backend().num_shards(), 4u);
  EXPECT_TRUE(service->backend().is_mst());
  EXPECT_GT(service->backend().receipt().build_rounds, 0u);

  const auto mono = build_index(inst);
  EXPECT_EQ(service->backend().fingerprint(), mono->fingerprint());
  for (std::size_t v = 1; v < inst.n(); ++v) {
    if (static_cast<g::Vertex>(v) == inst.tree.root) continue;
    const auto a = service->corridor_headroom(static_cast<g::Vertex>(v),
                                              inst.tree.parent[v]);
    const auto e = answer_query(
        *mono, svc::Query::corridor_headroom(static_cast<g::Vertex>(v),
                                             inst.tree.parent[v]));
    ASSERT_EQ(a, e) << "child " << v;
  }
}

}  // namespace
