// Churn-oracle suite for the incremental update layer
// (src/service/update.hpp): after every applied update the live backends
// must answer byte-identically to a fresh full rebuild of the canonical
// post-update instance — on the monolith and on shard counts {1, 3, 8},
// through 200 random confirmed changes covering reweights, swaps in both
// directions, and exact ties at the headroom edge.  The whole sequence runs
// journaled (persistence attached to every backend), and every 50 steps each
// tier is recovered from disk and held to the same oracle: fingerprint and
// generation continuity plus byte-identical answers.  The sharded tiers are
// LiveShardedBackend over in-memory shard hosts.  Plus: still_mst
// cache-generation safety (a pre-update answer can never be served post-
// update; entries of a byte-identical generation still hit), the shard-count
// clamp, the sharded tier's epoch barrier, and concurrent queries during
// updates on the monolith and the sharded tier (the paths the sanitizer CI
// jobs watch).
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "net/client.hpp"
#include "seq/oracles.hpp"
#include "service/journal.hpp"
#include "service/router.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "service/update.hpp"
#include "test_util.hpp"

namespace g = mpcmst::graph;
namespace seq = mpcmst::seq;
namespace svc = mpcmst::service;

namespace {

std::shared_ptr<const svc::SensitivityIndex> fresh_build(
    const g::Instance& inst) {
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  return svc::SensitivityIndex::build(eng, inst);
}

/// Scratch persistence root for the journaled soak.
mpcmst::test::ScratchDir soak_dir(const std::string& name) {
  return mpcmst::test::ScratchDir(
      (std::filesystem::path(::testing::TempDir()) / ("mpcmst_update_" + name))
          .string());
}

/// Every point query on every current edge (both endpoint orders), unknown
/// pairs, and a spread of top-k sizes — regenerated per churn step because
/// swaps move edges between the tree and the non-tree set.
std::vector<svc::Query> exhaustive_queries(const g::Instance& inst) {
  std::vector<svc::Query> out;
  for (std::size_t v = 0; v < inst.n(); ++v) {
    if (static_cast<g::Vertex>(v) == inst.tree.root) continue;
    const g::Vertex c = static_cast<g::Vertex>(v);
    const g::Vertex p = inst.tree.parent[v];
    out.push_back(svc::Query::corridor_headroom(c, p));
    out.push_back(svc::Query::replacement_edge(p, c));
    out.push_back(
        svc::Query::price_change(c, p, static_cast<g::Weight>(v % 9) - 4));
  }
  for (const g::WEdge& e : inst.nontree) {
    out.push_back(svc::Query::corridor_headroom(e.u, e.v));
    out.push_back(svc::Query::replacement_edge(e.u, e.v));
    out.push_back(svc::Query::price_change(e.u, e.v, -2));
  }
  out.push_back(svc::Query::corridor_headroom(-1, 3));
  out.push_back(
      svc::Query::corridor_headroom(0, static_cast<g::Vertex>(inst.n()) + 7));
  for (const std::int64_t k :
       {0L, 1L, 5L, static_cast<long>(inst.n() / 2),
        static_cast<long>(inst.n()) + 3})
    out.push_back(svc::Query::top_k_fragile(k));
  return out;
}

void expect_instances_equal(const g::Instance& a, const g::Instance& b,
                            std::size_t step) {
  ASSERT_EQ(a.tree.root, b.tree.root) << "step " << step;
  ASSERT_EQ(a.tree.parent, b.tree.parent) << "step " << step;
  ASSERT_EQ(a.tree.weight, b.tree.weight) << "step " << step;
  ASSERT_EQ(a.nontree, b.nontree) << "step " << step;
}

void expect_reports_equal(const svc::UpdateReport& a,
                          const svc::UpdateReport& b, std::size_t step) {
  ASSERT_EQ(a.status, b.status) << "step " << step;
  ASSERT_EQ(a.cls, b.cls) << "step " << step;
  ASSERT_EQ(a.edge, b.edge) << "step " << step;
  ASSERT_EQ(a.old_w, b.old_w) << "step " << step;
  ASSERT_EQ(a.swapped_out, b.swapped_out) << "step " << step;
  ASSERT_EQ(a.swapped_in, b.swapped_in) << "step " << step;
}

TEST(Update, ChurnOracleSoak) {
  auto tree = g::random_recursive_tree(48, 901);
  g::assign_random_tree_weights(tree, 1, 40, 903);
  const auto base = g::make_mst_instance(std::move(tree), 96, 907,
                                         /*slack=*/4);

  auto eng = mpcmst::test::make_engine(64 * base.input_words());
  auto mono = svc::LiveMonolithBackend::build(eng, base);
  const auto snapshot = fresh_build(base);
  std::vector<std::shared_ptr<svc::LiveShardedBackend>> sharded;
  for (const std::size_t shards : {1u, 3u, 8u})
    sharded.push_back(
        std::make_shared<svc::LiveShardedBackend>(base, snapshot, shards));

  // Journal every tier through the whole soak: the monolith commit-synced
  // with compaction disabled (recovery replays the full history), the shard
  // tiers OS-buffered with a mid-soak compaction policy (recovery replays a
  // short tail over a fresher snapshot) — both regimes must land identically.
  const auto persist_root = soak_dir("churn");
  std::vector<std::pair<svc::PersistenceConfig, svc::UpdatableBackend*>>
      persisted;
  {
    svc::PersistenceConfig cfg{persist_root.sub("mono"), svc::SyncMode::kCommit,
                               /*snapshot_every_n=*/0};
    mono->attach_persistence(svc::Persistence::create_fresh(cfg));
    mono->checkpoint();
    persisted.emplace_back(cfg, mono.get());
  }
  for (std::size_t b = 0; b < sharded.size(); ++b) {
    svc::PersistenceConfig cfg{persist_root.sub("shard" + std::to_string(b)),
                               svc::SyncMode::kNever, /*snapshot_every_n=*/25};
    sharded[b]->attach_persistence(svc::Persistence::create_fresh(cfg));
    sharded[b]->checkpoint();
    persisted.emplace_back(cfg, sharded[b].get());
  }

  g::Instance oracle_inst = base;  // mutated by the pure canonical transform
  std::mt19937_64 rng(0xc0ffee);
  std::size_t swaps_seen = 0, tie_reweights = 0;
  for (std::size_t step = 0; step < 200; ++step) {
    // --- pick a target edge of the CURRENT instance and a new weight ---
    g::Vertex u, v;
    if (rng() % 2 == 0) {
      do {
        u = static_cast<g::Vertex>(rng() % oracle_inst.n());
      } while (u == oracle_inst.tree.root);
      v = oracle_inst.tree.parent[static_cast<std::size_t>(u)];
      if (rng() % 2) std::swap(u, v);
    } else {
      const g::WEdge& e =
          oracle_inst.nontree[rng() % oracle_inst.nontree.size()];
      u = e.u;
      v = e.v;
    }
    const svc::Answer probe =
        mono->answer(svc::Query::corridor_headroom(u, v));
    ASSERT_EQ(probe.status, svc::Status::kOk) << "step " << step;
    const g::Weight pivot = probe.swap_cost;  // mc (tree) / maxpath (other)
    const bool pivot_real =
        pivot > g::kNegInfW && pivot < g::kPosInfW;
    g::Weight new_w;
    switch (pivot_real ? rng() % 5 : 0) {
      case 1:  // exact tie at the headroom edge: must stay, never swap
        new_w = pivot;
        ++tie_reweights;
        break;
      case 2:  // past the pivot: tree edges swap out, non-tree edges stay
        new_w = pivot + 1 + static_cast<g::Weight>(rng() % 5);
        break;
      case 3:  // below the pivot: non-tree edges swap in, tree edges stay
        new_w = pivot - 1 - static_cast<g::Weight>(rng() % 5);
        break;
      case 4:  // fresh uniform price
        new_w = 1 + static_cast<g::Weight>(rng() % 60);
        break;
      default:  // local jiggle around the current price
        new_w = probe.headroom < g::kPosInfW && rng() % 4 == 0
                    ? pivot
                    : static_cast<g::Weight>(rng() % 50) - 5;
        break;
    }

    // --- one canonical transform, applied everywhere ---
    const svc::UpdateReport expected_rep =
        svc::apply_update_to_instance(oracle_inst, u, v, new_w);
    ASSERT_EQ(expected_rep.status, svc::Status::kOk) << "step " << step;
    if (expected_rep.cls == svc::UpdateClass::kTreeSwap ||
        expected_rep.cls == svc::UpdateClass::kNonTreeSwap)
      ++swaps_seen;

    const svc::UpdateReceipt mono_receipt = mono->apply_update(u, v, new_w);
    expect_reports_equal(mono_receipt.report, expected_rep, step);
    for (auto& backend : sharded)
      expect_reports_equal(backend->apply_update(u, v, new_w).report,
                           expected_rep, step);

    // The live instances must equal the canonical transform byte-for-byte.
    expect_instances_equal(mono->instance_snapshot(), oracle_inst, step);
    expect_instances_equal(sharded.back()->instance_snapshot(), oracle_inst,
                           step);

    // --- fresh full rebuild of the post-update instance: the oracle ---
    const auto oracle_idx = fresh_build(oracle_inst);
    ASSERT_TRUE(oracle_idx->is_mst()) << "step " << step;
    const svc::MonolithicBackend oracle(oracle_idx);
    ASSERT_EQ(mono->fingerprint(), oracle_idx->fingerprint())
        << "step " << step;
    ASSERT_TRUE(mono->is_mst()) << "step " << step;
    for (auto& backend : sharded) {
      ASSERT_EQ(backend->fingerprint(), oracle_idx->fingerprint())
          << "step " << step;
      ASSERT_EQ(backend->violations(), 0u) << "step " << step;
    }
    const auto queries = exhaustive_queries(oracle_inst);
    for (const svc::Query& q : queries) {
      const svc::Answer want = oracle.answer(q);
      const svc::Answer got = mono->answer(q);
      ASSERT_EQ(got, want) << "step " << step << " monolith "
                           << to_string(q) << "\n  want: " << to_string(want)
                           << "\n  got:  " << to_string(got);
      for (std::size_t b = 0; b < sharded.size(); ++b) {
        const svc::Answer s = sharded[b]->answer(q);
        ASSERT_EQ(s, want) << "step " << step << " sharded[" << b << "] "
                           << to_string(q) << "\n  want: " << to_string(want)
                           << "\n  got:  " << to_string(s);
      }
    }

    // --- every 50 steps: bounce every tier through journal + recover ---
    // The recovered service must show fingerprint/generation continuity with
    // the live tier it mirrors and answer the whole exhaustive set exactly
    // like the fresh-rebuild oracle.
    if (step % 50 == 49) {
      for (auto& [cfg, live] : persisted) {
        svc::RecoveredInfo info;
        auto rec = svc::QueryService::open(
            {.persist = cfg, .recover_existing = true, .recovered = &info});
        ASSERT_EQ(rec->backend().generation(), live->generation())
            << "step " << step << " " << cfg.dir;
        ASSERT_EQ(rec->backend().fingerprint(), live->fingerprint())
            << "step " << step << " " << cfg.dir;
        ASSERT_EQ(info.snapshot_generation + info.replayed_records,
                  rec->backend().generation())
            << "step " << step << " " << cfg.dir;
        for (const svc::Query& q : queries)
          ASSERT_EQ(rec->backend().answer(q), oracle.answer(q))
              << "step " << step << " recovered " << cfg.dir << " "
              << to_string(q);
      }
    }
  }
  // The soak must actually have exercised the interesting regimes.
  EXPECT_GT(swaps_seen, 10u);
  EXPECT_GT(tie_reweights, 5u);
  EXPECT_EQ(mono->generation(), sharded.front()->generation());
}

TEST(Update, CacheGenerationSafety) {
  auto tree = g::caterpillar_tree(80, 30, 411);
  g::assign_random_tree_weights(tree, 10, 90, 413);
  const auto inst = g::make_mst_instance(std::move(tree), 200, 417,
                                         /*slack=*/6);
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  auto service = svc::QueryService::open(
      {.engine = &eng, .instance = &inst, .live = true,
       .options = {.threads = 2, .cache_capacity = 1 << 12}});
  ASSERT_TRUE(service->updatable());

  // A covered tree edge with real headroom (sens >= 1) that is a maximum of
  // its replacement edge r's tree path (maxpath(r) == w), so a +1 reweight
  // is a within-headroom patch that raises r's covering maximum: every
  // scenario below that reprices r to at most w changes its answer.
  const auto order =
      service->top_k_fragile(static_cast<std::int64_t>(inst.n()));
  std::size_t rank = 0;
  std::optional<svc::NonTreeEdgeInfo> r;
  for (; rank < order.fragile.size(); ++rank) {
    const svc::FragileEntry& f = order.fragile[rank];
    if (f.sens < 1 || f.sens >= g::kPosInfW || f.replacement < 0) continue;
    r = service->backend().nontree_info(f.replacement);
    // r's endpoints must resolve to r itself (not a tree edge or a lighter
    // duplicate), or the scenarios would reprice a different edge.
    const auto ref = r ? service->backend().find(r->u, r->v) : std::nullopt;
    if (r && r->maxpath == f.w && ref && !ref->is_tree &&
        ref->id == f.replacement)
      break;
  }
  ASSERT_LT(rank, order.fragile.size());
  const g::Vertex c = order.fragile[rank].child;
  const g::Vertex p = order.fragile[rank].parent;
  const g::Weight old_w = order.fragile[rank].w;

  // Generation 0: r at old_w ties its maximum (no certificate), below it
  // violates with maxpath old_w; generation 1 raises that maximum to old_w+1.
  const std::vector<svc::Query> kinds = {
      svc::Query::still_mst({{r->u, r->v, old_w}}),
      svc::Query::still_mst({{r->u, r->v, old_w - 1}}),
      svc::Query::still_mst({{r->v, r->u, old_w / 2}}),
      svc::Query::still_mst({{r->u, r->v, 1}})};

  // Pre-warm generation 0: second pass must be all hits.
  std::vector<svc::Answer> gen0;
  for (const auto& q : kinds) gen0.push_back(service->answer(q));
  const auto warm0 = service->stats().cache;
  for (std::size_t i = 0; i < kinds.size(); ++i)
    EXPECT_EQ(service->answer(kinds[i]), gen0[i]);
  const auto warm1 = service->stats().cache;
  EXPECT_EQ(warm1.hits - warm0.hits, kinds.size());

  // One confirmed reweight within headroom rotates the fingerprint.
  const auto receipt = service->apply_update(c, p, old_w + 1);
  ASSERT_EQ(receipt.report.cls, svc::UpdateClass::kTreeReweight);
  ASSERT_NE(receipt.old_fingerprint, receipt.new_fingerprint);

  // No scenario may return its pre-update answer: every answer must match
  // a fresh rebuild of the updated instance, and none may be served from
  // the warmed generation-0 entries (all four miss).
  const auto oracle_idx =
      fresh_build(service->updatable_backend()->instance_snapshot());
  const svc::MonolithicBackend oracle(oracle_idx);
  const auto before = service->stats().cache;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const svc::Answer got = service->answer(kinds[i]);
    EXPECT_EQ(got, oracle.answer(kinds[i])) << to_string(kinds[i]);
    EXPECT_NE(got, gen0[i]) << to_string(kinds[i]);
  }
  const auto after = service->stats().cache;
  EXPECT_EQ(after.misses - before.misses, kinds.size());
  EXPECT_EQ(after.hits, before.hits);

  // The new generation warms normally.
  const auto rewarm0 = service->stats().cache;
  for (const auto& q : kinds) (void)service->answer(q);
  EXPECT_EQ(service->stats().cache.hits - rewarm0.hits, kinds.size());

  // Reverting the price restores a byte-identical instance, so the
  // generation-0 entries are valid again — and they still hit: entries of
  // an untouched (re-validated) generation survive updates to others.
  const auto revert = service->apply_update(c, p, old_w);
  ASSERT_EQ(revert.new_fingerprint, receipt.old_fingerprint);
  const auto back0 = service->stats().cache;
  for (std::size_t i = 0; i < kinds.size(); ++i)
    EXPECT_EQ(service->answer(kinds[i]), gen0[i]) << to_string(kinds[i]);
  const auto back1 = service->stats().cache;
  EXPECT_EQ(back1.hits - back0.hits, kinds.size());
}

TEST(Update, BuildShardedClampsShardCount) {
  auto tree = g::kary_tree(30, 3);
  g::assign_random_tree_weights(tree, 1, 20, 433);
  const auto inst = g::make_mst_instance(std::move(tree), 60, 437, 3);

  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  const auto service = svc::QueryService::open(
      {.engine = &eng, .instance = &inst, .sharded = true, .num_shards = 1000});
  // Regression: 1000 requested shards on 30 vertices used to build 970
  // empty ranges; now the count is clamped and reported.
  EXPECT_EQ(service->backend().num_shards(), 30u);
  EXPECT_EQ(service->backend().receipt().effective_shards, 30u);

  // An in-process live tier keeps one copy of the labels: `sharded` is a
  // static-tier option, so this opens the monolith.
  auto eng2 = mpcmst::test::make_engine(64 * inst.input_words());
  const auto live = svc::QueryService::open(
      {.engine = &eng2, .instance = &inst, .sharded = true, .num_shards = 99,
       .live = true});
  EXPECT_EQ(live->backend().num_shards(), 1u);
  EXPECT_EQ(live->backend().receipt().effective_shards, 1u);

  // The clamp holds on the sharded live tier's own entry point.
  auto eng4 = mpcmst::test::make_engine(64 * inst.input_words());
  const auto direct = svc::LiveShardedBackend::build(eng4, inst, 500);
  EXPECT_EQ(direct->num_shards(), 30u);
  EXPECT_EQ(direct->receipt().effective_shards, 30u);

  // Clamped backends still answer exactly like the monolith.
  const auto mono = fresh_build(inst);
  const svc::MonolithicBackend expected(mono);
  for (const auto& q : exhaustive_queries(inst)) {
    ASSERT_EQ(service->backend().answer(q), expected.answer(q))
        << to_string(q);
    ASSERT_EQ(live->backend().answer(q), expected.answer(q)) << to_string(q);
    ASSERT_EQ(direct->answer(q), expected.answer(q)) << to_string(q);
  }

  // Sane requests are untouched.
  auto eng3 = mpcmst::test::make_engine(64 * inst.input_words());
  const auto four = svc::QueryService::open(
      {.engine = &eng3, .instance = &inst, .sharded = true, .num_shards = 4});
  EXPECT_EQ(four->backend().num_shards(), 4u);
  EXPECT_EQ(four->backend().receipt().effective_shards, 4u);
}

TEST(Update, NoChangeAndUnknownEdgeLeaveGenerationAlone) {
  auto tree = g::path_tree(24);
  for (std::size_t v = 1; v < 24; ++v)
    tree.weight[v] = static_cast<g::Weight>(3 * v % 17 + 1);
  const auto inst = g::make_mst_instance(std::move(tree), 40, 443, 5);
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  auto backend = svc::LiveMonolithBackend::build(eng, inst);
  const std::uint64_t fp = backend->fingerprint();

  const auto same =
      backend->apply_update(1, inst.tree.parent[1], inst.tree.weight[1]);
  EXPECT_EQ(same.report.cls, svc::UpdateClass::kNoChange);
  EXPECT_EQ(same.report.status, svc::Status::kOk);
  EXPECT_EQ(backend->generation(), 0u);
  EXPECT_EQ(backend->fingerprint(), fp);

  const auto unknown = backend->apply_update(0, 23, 7);  // not an edge
  EXPECT_EQ(unknown.report.status, svc::Status::kUnknownEdge);
  EXPECT_EQ(backend->generation(), 0u);
  EXPECT_EQ(backend->fingerprint(), fp);
}

TEST(Update, EpochBarrierStampsEveryShard) {
  auto tree = g::random_recursive_tree(60, 451);
  g::assign_random_tree_weights(tree, 1, 30, 453);
  const auto inst = g::make_mst_instance(std::move(tree), 120, 457, 4);
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  auto backend = svc::LiveShardedBackend::build(eng, inst, 5);
  ASSERT_EQ(backend->num_shards(), 5u);
  const std::uint64_t retries0 =
      svc::net::net_counter("epoch_retries").total();
  const std::uint64_t reboots0 =
      svc::net::net_counter("shard_rebootstraps").total();

  std::mt19937_64 rng(19);
  for (std::size_t i = 0; i < 10; ++i) {
    g::Vertex u;
    do {
      u = static_cast<g::Vertex>(rng() % inst.n());
    } while (u == inst.tree.root);
    const auto snapshot = backend->instance_snapshot();
    (void)backend->apply_update(
        u, snapshot.tree.parent[static_cast<std::size_t>(u)],
        1 + static_cast<g::Weight>(rng() % 25));
  }
  EXPECT_GT(backend->generation(), 0u);
  // The barrier holds, so the merge serves — and still matches a rebuild.
  const auto oracle_idx = fresh_build(backend->instance_snapshot());
  const svc::MonolithicBackend oracle(oracle_idx);
  const auto q = svc::Query::top_k_fragile(20);
  EXPECT_EQ(backend->answer(q), oracle.answer(q));
  // Every shard host carried the committed epoch: the top-k read merged on
  // its first pin, and no host had to be re-bootstrapped.
  EXPECT_EQ(svc::net::net_counter("epoch_retries").total() - retries0, 0u);
  EXPECT_EQ(svc::net::net_counter("shard_rebootstraps").total() - reboots0,
            0u);
}

/// The locking the sanitizer jobs watch: batched queries race confirmed
/// updates; every served answer must belong to SOME generation (the sharded
/// tier's reads merge only replies stamped with the epoch they pinned), and
/// the final state must match a rebuild.
void run_concurrent_queries_during_updates(
    const g::Instance& inst, std::unique_ptr<svc::QueryService> service) {
  std::vector<svc::Query> workload;
  std::mt19937_64 rng(0xabc);
  for (std::size_t i = 0; i < 600; ++i) {
    const auto c = static_cast<g::Vertex>(1 + rng() % (inst.n() - 1));
    if (i % 3 == 0)
      workload.push_back(svc::Query::top_k_fragile(1 + i % 9));
    else
      workload.push_back(svc::Query::corridor_headroom(
          c, inst.tree.parent[static_cast<std::size_t>(c)]));
  }

  std::thread updater([&] {
    std::mt19937_64 r2(0xdef);
    for (std::size_t i = 0; i < 40; ++i) {
      const auto snapshot = service->updatable_backend()->instance_snapshot();
      g::Vertex u;
      do {
        u = static_cast<g::Vertex>(r2() % snapshot.n());
      } while (u == snapshot.tree.root);
      (void)service->apply_update(
          u, snapshot.tree.parent[static_cast<std::size_t>(u)],
          1 + static_cast<g::Weight>(r2() % 60));
    }
  });
  for (int round = 0; round < 5; ++round)
    (void)service->answer_batch(workload);
  updater.join();

  const auto oracle_idx =
      fresh_build(service->updatable_backend()->instance_snapshot());
  const svc::MonolithicBackend oracle(oracle_idx);
  for (const auto& q : workload)
    ASSERT_EQ(service->backend().answer(q), oracle.answer(q))
        << to_string(q);
}

TEST(Update, ConcurrentQueriesDuringUpdates) {
  auto tree = g::random_recursive_tree(90, 461);
  g::assign_random_tree_weights(tree, 1, 50, 463);
  const auto inst = g::make_mst_instance(std::move(tree), 180, 467, 5);
  const svc::ServiceOptions opts{
      .threads = 4, .cache_capacity = 1 << 10, .chunk_size = 16};
  {
    // open() serves an in-process live tier from the monolith.
    SCOPED_TRACE("open({.sharded = true, .live = true})");
    auto eng = mpcmst::test::make_engine(64 * inst.input_words());
    run_concurrent_queries_during_updates(
        inst, svc::QueryService::open({.engine = &eng,
                                       .instance = &inst,
                                       .sharded = true,
                                       .num_shards = 4,
                                       .live = true,
                                       .options = opts}));
  }
  {
    // The leader's pin / re-pin reads racing ingest, in-process.
    SCOPED_TRACE("sharded, 4 in-memory shard hosts");
    auto eng = mpcmst::test::make_engine(64 * inst.input_words());
    run_concurrent_queries_during_updates(
        inst, std::make_unique<svc::QueryService>(
                  std::shared_ptr<svc::UpdatableBackend>(
                      svc::LiveShardedBackend::build(eng, inst, 4)),
                  opts));
  }
}

}  // namespace
