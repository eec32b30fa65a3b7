// Tests for the answer_batch fast path (shard-sorted runs answered in
// parallel, still_mst through the generation-gated cache): randomized oracle
// agreement against per-query answers on the monolith and shard counts
// {1, 3, 8}, duplicate queries inside one batch, the empty batch, and
// batches racing / spanning an apply_update.  The Debug CI jobs run all of
// this under ASan/UBSan — the run cutting and the pool's cursor are what
// they watch.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>

#include "graph/generators.hpp"
#include "service/service.hpp"
#include "test_util.hpp"

namespace g = mpcmst::graph;
namespace svc = mpcmst::service;

namespace {

g::Instance make_instance(std::size_t n, std::uint64_t seed) {
  auto tree = g::random_recursive_tree(n, seed);
  g::assign_random_tree_weights(tree, 1, 60, seed + 1);
  return g::make_mst_instance(std::move(tree), 3 * n, seed + 2, 6);
}

/// Mixed workload over all five query families, intentionally including
/// out-of-range endpoints (kUnknownEdge answers must survive the fast path).
std::vector<svc::Query> make_workload(const g::Instance& inst,
                                      std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(1, inst.n() - 1);
  std::uniform_int_distribution<std::size_t> nontree_pick(
      0, inst.nontree.size() - 1);
  std::uniform_int_distribution<g::Weight> delta(-30, 30);
  std::vector<svc::Query> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto c = static_cast<g::Vertex>(pick(rng));
    switch (i % 7) {
      case 0:
        out.push_back(
            svc::Query::price_change(c, inst.tree.parent[c], delta(rng)));
        break;
      case 1: {
        const g::WEdge& e = inst.nontree[nontree_pick(rng)];
        out.push_back(svc::Query::price_change(e.u, e.v, delta(rng)));
        break;
      }
      case 2:
        out.push_back(svc::Query::replacement_edge(inst.tree.parent[c], c));
        break;
      case 3:
        out.push_back(svc::Query::top_k_fragile(1 + (i % 17)));
        break;
      case 4:
        out.push_back(svc::Query::corridor_headroom(c, inst.tree.parent[c]));
        break;
      case 5: {
        // A two-change scenario: one tree edge, one non-tree edge.
        const g::WEdge& e = inst.nontree[nontree_pick(rng)];
        out.push_back(svc::Query::still_mst(
            {{c, inst.tree.parent[c], inst.tree.weight[c] + delta(rng)},
             {e.u, e.v, e.w + delta(rng)}}));
        break;
      }
      default:
        // Unknown edges: both endpoints valid but (almost surely) not
        // adjacent, plus occasional out-of-range vertices.
        out.push_back(svc::Query::corridor_headroom(
            c, (i % 12 == 5) ? static_cast<g::Vertex>(inst.n() + 7) : c));
    }
  }
  return out;
}

}  // namespace

TEST(Batch, AgreesWithPerQueryAcrossBackends) {
  const auto inst = make_instance(400, 1009);
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  const auto index = svc::SensitivityIndex::build(eng, inst);
  // Reference answers from a pool-of-1, cache-off service.
  svc::QueryService reference(index, {.threads = 1, .cache_capacity = 0});
  const auto workload = make_workload(inst, 5000, 1013);
  const auto num_scenarios = static_cast<std::uint64_t>(
      std::count_if(workload.begin(), workload.end(), [](const auto& q) {
        return q.kind == svc::QueryKind::kStillMst;
      }));
  ASSERT_GT(num_scenarios, 0u);
  std::vector<svc::Answer> expected;
  expected.reserve(workload.size());
  for (const auto& q : workload) expected.push_back(reference.answer(q));

  for (const std::size_t shards : {std::size_t{0}, std::size_t{1},
                                   std::size_t{3}, std::size_t{8}}) {
    SCOPED_TRACE(shards == 0 ? "monolith"
                             : "shards=" + std::to_string(shards));
    std::shared_ptr<const svc::IndexBackend> backend;
    if (shards == 0) {
      backend = std::make_shared<const svc::MonolithicBackend>(index);
    } else {
      backend = std::make_shared<const svc::QueryRouter>(
          svc::ShardedSensitivityIndex::split(*index, shards));
    }
    svc::QueryService service(backend, {.threads = 4, .chunk_size = 64});
    // Cold batch (still_mst all misses), then warm batch (still_mst all
    // hits) — both must equal the per-query reference byte for byte.
    const auto cold = service.answer_batch(workload);
    ASSERT_EQ(cold.size(), workload.size());
    for (std::size_t i = 0; i < workload.size(); ++i)
      ASSERT_EQ(cold[i], expected[i]) << i << ": " << to_string(workload[i]);
    const auto warm = service.answer_batch(workload);
    EXPECT_EQ(warm, cold);
    EXPECT_GE(service.stats().cache.hits, num_scenarios);
  }
}

TEST(Batch, DuplicateQueriesInOneBatch) {
  const auto inst = make_instance(120, 2027);
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  svc::QueryService service(svc::SensitivityIndex::build(eng, inst),
                            {.threads = 4, .chunk_size = 8});
  // A batch that is mostly duplicates of a handful of distinct questions,
  // shuffled so copies land in different chunks.
  const auto distinct = make_workload(inst, 12, 2029);
  std::vector<svc::Query> batch;
  for (std::size_t i = 0; i < 600; ++i) batch.push_back(distinct[i % 12]);
  std::mt19937_64 rng(2031);
  std::shuffle(batch.begin(), batch.end(), rng);
  const auto answers = service.answer_batch(batch);
  ASSERT_EQ(answers.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    ASSERT_EQ(answers[i], service.answer(batch[i]))
        << i << ": " << to_string(batch[i]);
  // Every copy of the same question got the same bytes.
  for (std::size_t d = 0; d < distinct.size(); ++d) {
    const svc::Answer* first = nullptr;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!(batch[i] == distinct[d])) continue;
      if (!first)
        first = &answers[i];
      else
        EXPECT_EQ(answers[i], *first) << "duplicate " << d << " at " << i;
    }
  }
}

TEST(Batch, EmptyBatch) {
  const auto inst = make_instance(60, 3001);
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  svc::QueryService service(svc::SensitivityIndex::build(eng, inst), {});
  const auto before = service.stats();
  EXPECT_TRUE(service.answer_batch({}).empty());
  EXPECT_EQ(service.stats().queries_served, before.queries_served);
}

TEST(Batch, SequentialBatchesSpanningAnUpdate) {
  // batch -> apply_update -> batch: the second batch must answer from the
  // new generation (no stale hit can survive the fingerprint rotation), and
  // both batches must equal their generation's per-query answers.
  const auto inst = make_instance(200, 4007);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                   std::size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto eng = mpcmst::test::make_engine(64 * inst.input_words());
    auto service = svc::QueryService::open(
        {.engine = &eng, .instance = &inst, .sharded = true,
         .num_shards = shards, .live = true,
         .options = {.threads = 4, .chunk_size = 32}});
    auto eng2 = mpcmst::test::make_engine(64 * inst.input_words());
    auto oracle = svc::QueryService::open(
        {.engine = &eng2, .instance = &inst, .sharded = true,
         .num_shards = shards, .live = true,
         .options = {.threads = 1, .cache_capacity = 0}});

    const auto workload = make_workload(inst, 2000, 4013);
    const auto before = service->answer_batch(workload);
    for (std::size_t i = 0; i < workload.size(); ++i)
      ASSERT_EQ(before[i], oracle->answer(workload[i])) << i;

    // One confirmed change through both services.
    const g::Vertex c = inst.tree.root == 1 ? 2 : 1;
    const auto r1 = service->apply_update(c, inst.tree.parent[c],
                                          inst.tree.weight[c] + 1);
    const auto r2 = oracle->apply_update(c, inst.tree.parent[c],
                                         inst.tree.weight[c] + 1);
    ASSERT_EQ(r1.new_fingerprint, r2.new_fingerprint);
    if (r1.report.cls == svc::UpdateClass::kNoChange) continue;

    const auto after = service->answer_batch(workload);
    for (std::size_t i = 0; i < workload.size(); ++i)
      ASSERT_EQ(after[i], oracle->answer(workload[i])) << i;
  }
}

TEST(Batch, ConcurrentBatchRacingUpdates) {
  // answer_batch racing apply_update: every answer must match the pre- or
  // the post-update oracle (generation gating may skip inserts, but can
  // never serve a mixed or stale answer for a cached key).  The toggled
  // update is a guaranteed within-headroom reweight in both directions, so
  // exactly two generations ever exist.
  const auto inst = make_instance(150, 5003);
  const auto pre = svc::SensitivityIndex::build_host(inst);
  g::Vertex c = -1;
  for (const g::Vertex child : pre->fragile_order()) {
    const auto t = pre->tree_edge(child);
    if (t.sens >= 1 && t.sens < g::kPosInfW) {
      c = child;
      break;
    }
  }
  ASSERT_GE(c, 0) << "no tree edge with headroom in the test instance";
  const g::Weight old_w = inst.tree.weight[c];
  auto post_inst = inst;
  const auto rep = svc::apply_update_to_instance(post_inst, c,
                                                 inst.tree.parent[c],
                                                 old_w + 1);
  ASSERT_EQ(rep.cls, svc::UpdateClass::kTreeReweight);
  const auto post = svc::SensitivityIndex::build_host(post_inst);

  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  auto service = svc::QueryService::open(
      {.engine = &eng, .instance = &inst, .sharded = true, .num_shards = 3,
       .live = true, .options = {.threads = 4, .chunk_size = 16}});
  const auto workload = make_workload(inst, 3000, 5009);
  std::vector<svc::Answer> got;
  std::thread updater([&] {
    for (int round = 0; round < 24; ++round) {
      (void)service->apply_update(c, inst.tree.parent[c],
                                  round % 2 ? old_w : old_w + 1);
      std::this_thread::yield();
    }
  });
  for (int pass = 0; pass < 6; ++pass) got = service->answer_batch(workload);
  updater.join();
  for (std::size_t i = 0; i < workload.size(); ++i) {
    const auto a = answer_query(*pre, workload[i]);
    const auto b = answer_query(*post, workload[i]);
    EXPECT_TRUE(got[i] == a || got[i] == b)
        << i << ": " << to_string(workload[i]);
  }
}
