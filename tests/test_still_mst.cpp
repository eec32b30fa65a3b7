// still_mst batch-verification suite: every answer must equal the
// apply-then-rebuild oracle (apply all k changes to a scratch instance,
// rebuild host-side, compare violation sets) — on the monolith and on shard
// counts {1, 3, 8}, including ties, correlated shocks along one tree path,
// batches mixing tree and non-tree edges, duplicate entries (last write
// wins) and permuted-but-equal change sets (canonicalization).  Negative
// certificates are re-verified against the sequential oracle: each certified
// edge must actually violate the cycle rule on the reweighted instance, by
// seq::SeqTreeIndex path maxima.  500-batch fuzz per backend; the suite runs
// in the ASan/UBSan CI legs like every other test.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "graph/generators.hpp"
#include "net/client.hpp"
#include "seq/oracles.hpp"
#include "service/router.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "service/update.hpp"
#include "test_util.hpp"

namespace g = mpcmst::graph;
namespace seq = mpcmst::seq;
namespace svc = mpcmst::service;
namespace verify = mpcmst::verify;

namespace {

/// The apply-then-rebuild oracle: resolve every change against the PRE-batch
/// index (tree edge first, then the lightest duplicate — the service's
/// precedence), write the weights into a scratch instance in batch order
/// (later entries overwrite earlier ones, the service's last-write-wins),
/// rebuild host-side, and read the violation set off the fresh labels.
svc::Answer oracle_still_mst(const g::Instance& base,
                             const svc::SensitivityIndex& pre,
                             const std::vector<svc::PriceChange>& batch) {
  svc::Answer expected;
  g::Instance scratch = base;
  for (const svc::PriceChange& c : batch) {
    const auto ref = pre.find(c.u, c.v);
    if (!ref) {
      expected.status = svc::Status::kUnknownEdge;
      return expected;
    }
    const g::Weight w =
        std::clamp(c.new_w, g::kNegInfW, g::kPosInfW);
    if (ref->is_tree)
      scratch.tree.weight[static_cast<std::size_t>(ref->id)] = w;
    else
      scratch.nontree[static_cast<std::size_t>(ref->id)].w = w;
  }
  const auto rebuilt = svc::SensitivityIndex::build_host(scratch);
  const svc::NonTreeLabels& nt = rebuilt->nontree_labels();
  for (std::size_t i = 0; i < nt.size(); ++i)
    if (nt.w[i] < nt.maxpath[i])
      expected.certificates.push_back(verify::ViolationCert{
          static_cast<std::int64_t>(i), nt.u[i], nt.v[i], nt.w[i],
          nt.maxpath[i]});
  expected.still_optimal = expected.certificates.empty();
  // Independent cross-check: the certificate set is empty iff the reweighted
  // instance passes sequential MSF-weight verification.
  EXPECT_EQ(expected.still_optimal, seq::verify_mst_by_weight(scratch));
  return expected;
}

/// Every certified edge must actually violate the cycle rule on the
/// reweighted instance, checked by an independent sequential path-max oracle.
void check_certificates_violate(const g::Instance& base,
                                const svc::SensitivityIndex& pre,
                                const std::vector<svc::PriceChange>& batch,
                                const svc::Answer& a) {
  g::Instance scratch = base;
  for (const svc::PriceChange& c : batch) {
    const auto ref = pre.find(c.u, c.v);
    ASSERT_TRUE(ref.has_value());
    const g::Weight w = std::clamp(c.new_w, g::kNegInfW, g::kPosInfW);
    if (ref->is_tree)
      scratch.tree.weight[static_cast<std::size_t>(ref->id)] = w;
    else
      scratch.nontree[static_cast<std::size_t>(ref->id)].w = w;
  }
  const seq::SeqTreeIndex seq_index(scratch.tree);
  for (const verify::ViolationCert& c : a.certificates) {
    ASSERT_GE(c.orig_id, 0);
    ASSERT_LT(c.orig_id, static_cast<std::int64_t>(scratch.nontree.size()));
    const g::WEdge& e = scratch.nontree[static_cast<std::size_t>(c.orig_id)];
    EXPECT_EQ(c.u, e.u);
    EXPECT_EQ(c.v, e.v);
    EXPECT_EQ(c.w, e.w) << "cert weight != effective weight";
    const g::Weight path_max = seq_index.max_on_path(e.u, e.v);
    EXPECT_EQ(c.maxpath, path_max) << "cert path max != sequential path max";
    EXPECT_LT(c.w, path_max)
        << "certified edge #" << c.orig_id << " does not violate the cycle "
        << "rule on the reweighted instance";
  }
}

void expect_answers_equal(const svc::Answer& got, const svc::Answer& want,
                          const std::string& what) {
  ASSERT_EQ(got.status, want.status) << what;
  ASSERT_EQ(got.still_optimal, want.still_optimal) << what;
  ASSERT_EQ(got.certificates.size(), want.certificates.size()) << what;
  for (std::size_t i = 0; i < got.certificates.size(); ++i)
    ASSERT_TRUE(got.certificates[i] == want.certificates[i])
        << what << " cert " << i << " orig_id " << got.certificates[i].orig_id;
}

/// Monolith + routers over shard counts {1, 3, 8} built from one snapshot.
struct Backends {
  std::shared_ptr<const svc::SensitivityIndex> index;
  svc::MonolithicBackend mono;
  std::vector<std::unique_ptr<svc::QueryRouter>> routers;

  explicit Backends(const g::Instance& inst)
      : index(svc::SensitivityIndex::build_host(inst)), mono(index) {
    for (const std::size_t shards : {1u, 3u, 8u})
      routers.push_back(std::make_unique<svc::QueryRouter>(
          svc::ShardedSensitivityIndex::split(*index, shards)));
  }

  /// Answer on the monolith, assert every sharded backend agrees
  /// byte-for-byte, and return the (shared) answer.
  svc::Answer answer_everywhere(const svc::Query& q) {
    const svc::Answer a = mono.answer(q);
    for (std::size_t r = 0; r < routers.size(); ++r) {
      const svc::Answer b = routers[r]->answer(q);
      EXPECT_TRUE(a == b) << "router " << r << " diverged from monolith";
    }
    return a;
  }
};

g::Vertex random_vertex(std::mt19937_64& rng, std::size_t n) {
  return static_cast<g::Vertex>(rng() % n);
}

/// A random batch biased toward interesting scenarios: existing tree and
/// non-tree edges, weights near the current ones (ties included), an
/// occasional out-of-band weight.
std::vector<svc::PriceChange> random_batch(const g::Instance& inst,
                                           std::mt19937_64& rng,
                                           std::size_t k) {
  std::vector<svc::PriceChange> batch;
  batch.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    svc::PriceChange c;
    if (rng() % 2 == 0 && inst.n() > 1) {
      g::Vertex child;
      do {
        child = random_vertex(rng, inst.n());
      } while (child == inst.tree.root);
      const bool flip = rng() % 2 == 0;
      c.u = flip ? inst.tree.parent[static_cast<std::size_t>(child)] : child;
      c.v = flip ? child : inst.tree.parent[static_cast<std::size_t>(child)];
      c.new_w = inst.tree.weight[static_cast<std::size_t>(child)] +
                static_cast<g::Weight>(rng() % 21) - 10;
    } else {
      const g::WEdge& e = inst.nontree[rng() % inst.nontree.size()];
      const bool flip = rng() % 2 == 0;
      c.u = flip ? e.v : e.u;
      c.v = flip ? e.u : e.v;
      c.new_w = e.w + static_cast<g::Weight>(rng() % 21) - 10;
    }
    batch.push_back(c);
  }
  return batch;
}

}  // namespace

TEST(StillMst, OracleParityAcrossShapes) {
  for (const auto& shape : mpcmst::test::shape_catalog(40)) {
    auto tree = shape.tree;
    g::assign_random_tree_weights(tree, 1, 50, 1201);
    const auto inst = g::make_mst_instance(std::move(tree), 80, 1203,
                                           /*slack=*/4);
    Backends backends(inst);
    std::mt19937_64 rng(0xbead + inst.n());
    for (const std::size_t k : {1u, 2u, 5u, 16u}) {
      for (int rep = 0; rep < 6; ++rep) {
        const auto batch = random_batch(inst, rng, k);
        const auto a =
            backends.answer_everywhere(svc::Query::still_mst(batch));
        const auto want = oracle_still_mst(inst, *backends.index, batch);
        expect_answers_equal(a, want,
                             shape.name + " k=" + std::to_string(k));
        check_certificates_violate(inst, *backends.index, batch, a);
      }
    }
  }
}

TEST(StillMst, TiesKeepTheTreeOptimal) {
  // Path 0-1-2-3 (weights 10, 20, 30 keyed by child) + non-tree {0,3} at 31.
  g::RootedTree tree;
  tree.n = 4;
  tree.root = 0;
  tree.parent = {0, 0, 1, 2};
  tree.weight = {0, 10, 20, 30};
  g::Instance inst;
  inst.tree = tree;
  inst.nontree = {{0, 3, 31}};
  Backends backends(inst);

  // Exactly at the path maximum: a tie keeps T optimal (Definition 1.2).
  auto tie = backends.answer_everywhere(
      svc::Query::still_mst({svc::PriceChange{3, 0, 30}}));
  EXPECT_TRUE(tie.still_optimal);
  EXPECT_TRUE(tie.certificates.empty());

  // One unit below: the edge certifies the violation.
  auto below = backends.answer_everywhere(
      svc::Query::still_mst({svc::PriceChange{3, 0, 29}}));
  EXPECT_FALSE(below.still_optimal);
  ASSERT_EQ(below.certificates.size(), 1u);
  EXPECT_EQ(below.certificates[0].orig_id, 0);
  EXPECT_EQ(below.certificates[0].w, 29);
  EXPECT_EQ(below.certificates[0].maxpath, 30);

  // Tree side of the same tie: drop the path max to the non-tree weight.
  auto tree_tie = backends.answer_everywhere(
      svc::Query::still_mst({svc::PriceChange{2, 3, 31}}));
  EXPECT_TRUE(tree_tie.still_optimal);
  // ...and one past it: raising a tree edge can break optimality too.
  auto tree_break = backends.answer_everywhere(
      svc::Query::still_mst({svc::PriceChange{2, 3, 32}}));
  EXPECT_FALSE(tree_break.still_optimal);
  ASSERT_EQ(tree_break.certificates.size(), 1u);
  EXPECT_EQ(tree_break.certificates[0].maxpath, 32);

  // Both at once: the non-tree edge rises exactly as far as the tree edge —
  // still a tie, still optimal.  A batch is simultaneous, not sequential.
  auto both = backends.answer_everywhere(svc::Query::still_mst(
      {svc::PriceChange{2, 3, 32}, svc::PriceChange{0, 3, 32}}));
  EXPECT_TRUE(both.still_optimal);

  const auto want = oracle_still_mst(
      inst, *backends.index,
      {svc::PriceChange{2, 3, 32}, svc::PriceChange{0, 3, 32}});
  expect_answers_equal(both, want, "simultaneous tie");
}

TEST(StillMst, CorrelatedShockAlongOnePath) {
  // Raise every tree edge on one long root path at once: every non-tree edge
  // covering any part of that path may flip to violating — the oracle must
  // agree on exactly which.
  auto tree = g::path_tree(48);
  g::assign_random_tree_weights(tree, 10, 40, 1301);
  const auto inst = g::make_mst_instance(std::move(tree), 120, 1303,
                                         /*slack=*/6);
  Backends backends(inst);

  // Walk a leaf-to-root chain of the path tree (vertex n-1 is its leaf).
  std::vector<svc::PriceChange> shock;
  g::Vertex x = static_cast<g::Vertex>(inst.n() - 1);
  for (int i = 0; i < 12 && x != inst.tree.root; ++i) {
    const g::Vertex p = inst.tree.parent[static_cast<std::size_t>(x)];
    shock.push_back(svc::PriceChange{
        x, p, inst.tree.weight[static_cast<std::size_t>(x)] + 25});
    x = p;
  }
  ASSERT_GE(shock.size(), 3u);

  const auto a = backends.answer_everywhere(svc::Query::still_mst(shock));
  const auto want = oracle_still_mst(inst, *backends.index, shock);
  expect_answers_equal(a, want, "correlated shock");
  check_certificates_violate(inst, *backends.index, shock, a);
  EXPECT_FALSE(a.still_optimal) << "a +25 shock on 12 path edges should "
                                   "undercut at least one covering edge";
}

TEST(StillMst, CanonicalizationAndDuplicates) {
  auto tree = g::random_recursive_tree(30, 1401);
  g::assign_random_tree_weights(tree, 1, 30, 1403);
  const auto inst = g::make_mst_instance(std::move(tree), 60, 1405);
  Backends backends(inst);
  std::mt19937_64 rng(0xfeed);

  const auto batch = random_batch(inst, rng, 8);
  auto permuted = batch;
  std::shuffle(permuted.begin(), permuted.end(), rng);
  // Also flip some endpoint orders: {u, v} and {v, u} are the same edge.
  for (std::size_t i = 0; i < permuted.size(); i += 2)
    std::swap(permuted[i].u, permuted[i].v);

  const svc::Query q1 = svc::Query::still_mst(batch);
  const svc::Query q2 = svc::Query::still_mst(permuted);
  EXPECT_TRUE(q1 == q2) << "permuted-but-equal change sets must canonicalize "
                           "to the same query";
  EXPECT_EQ(svc::QueryHash{}(q1), svc::QueryHash{}(q2));
  expect_answers_equal(backends.answer_everywhere(q1),
                       backends.answer_everywhere(q2), "permuted batch");

  // Duplicates: the last entry for an edge is the scenario's final word.
  const g::WEdge& e = inst.nontree[0];
  const std::vector<svc::PriceChange> dup = {
      svc::PriceChange{e.u, e.v, e.w + 100},
      svc::PriceChange{e.v, e.u, e.w - 100}};
  const svc::Query qdup = svc::Query::still_mst(dup);
  ASSERT_EQ(qdup.changes.size(), 1u);
  EXPECT_EQ(qdup.changes[0].new_w, e.w - 100);
  expect_answers_equal(backends.answer_everywhere(qdup),
                       oracle_still_mst(inst, *backends.index, dup),
                       "duplicate entries");
}

TEST(StillMst, UnknownEdgeAndEmptyBatch) {
  auto tree = g::kary_tree(20, 2);
  g::assign_random_tree_weights(tree, 1, 20, 1501);
  const auto inst = g::make_mst_instance(std::move(tree), 30, 1503);
  Backends backends(inst);

  // Any unresolvable change poisons the whole scenario.
  const auto unknown = backends.answer_everywhere(svc::Query::still_mst(
      {svc::PriceChange{0, 1, 5}, svc::PriceChange{-3, 7, 5}}));
  EXPECT_EQ(unknown.status, svc::Status::kUnknownEdge);
  EXPECT_TRUE(unknown.certificates.empty());

  // The empty scenario just re-verifies the base labels: an MST stays one.
  const auto empty = backends.answer_everywhere(svc::Query::still_mst({}));
  EXPECT_EQ(empty.status, svc::Status::kOk);
  EXPECT_TRUE(empty.still_optimal);
}

TEST(StillMst, EmptyBatchOnNonMstBaseReportsItsViolations) {
  // still_mst is defined against the cached labels whatever they say: on a
  // base that is not an MST, the empty scenario returns the base violations.
  auto tree = g::random_recursive_tree(24, 1601);
  g::assign_random_tree_weights(tree, 5, 25, 1603);
  auto inst = g::make_mst_instance(std::move(tree), 40, 1605);
  ASSERT_GT(g::inject_violations(inst, 4, 1607), 0u);
  Backends backends(inst);
  ASSERT_GT(backends.index->violations(), 0u);

  const auto a = backends.answer_everywhere(svc::Query::still_mst({}));
  EXPECT_FALSE(a.still_optimal);
  EXPECT_EQ(a.certificates.size(), backends.index->violations());
  const auto want = oracle_still_mst(inst, *backends.index, {});
  expect_answers_equal(a, want, "non-MST base");
}

TEST(StillMst, FuzzFiveHundredBatchesPerBackend) {
  auto tree = g::random_recursive_tree(60, 1701);
  g::assign_random_tree_weights(tree, 1, 60, 1703);
  const auto inst = g::make_mst_instance(std::move(tree), 140, 1705,
                                         /*slack=*/3);
  Backends backends(inst);
  std::mt19937_64 rng(0x5eed);

  for (int rep = 0; rep < 500; ++rep) {
    const std::size_t k = 1 + rng() % 12;
    const auto batch = random_batch(inst, rng, k);
    // answer_everywhere runs the batch on the monolith and every shard
    // count, so each of the 4 backends sees all 500 batches.
    const auto a = backends.answer_everywhere(svc::Query::still_mst(batch));
    const auto want = oracle_still_mst(inst, *backends.index, batch);
    expect_answers_equal(a, want, "fuzz rep " + std::to_string(rep));
    if (!a.still_optimal)
      check_certificates_violate(inst, *backends.index, batch, a);
  }
}

TEST(StillMst, LiveBackendsServeItWithoutMutatingTheGeneration) {
  auto tree = g::random_recursive_tree(40, 1801);
  g::assign_random_tree_weights(tree, 1, 40, 1803);
  const auto inst = g::make_mst_instance(std::move(tree), 80, 1805);
  const auto snapshot = svc::SensitivityIndex::build_host(inst);

  auto mono = std::make_shared<svc::LiveMonolithBackend>(inst, snapshot);
  auto sharded =
      std::make_shared<svc::LiveShardedBackend>(inst, snapshot, 3);
  std::mt19937_64 rng(0xace);
  const auto batch = random_batch(inst, rng, 6);
  const svc::Query q = svc::Query::still_mst(batch);

  const auto a0 = mono->answer(q);
  EXPECT_TRUE(a0 == sharded->answer(q));
  EXPECT_EQ(mono->generation(), 0u);
  EXPECT_EQ(sharded->generation(), 0u);
  EXPECT_EQ(mono->fingerprint(), snapshot->fingerprint())
      << "still_mst must not mutate the live generation";
  expect_answers_equal(a0, oracle_still_mst(inst, *snapshot, batch), "live");

  // After a real update the same scenario is answered against the new
  // generation — and still matches the oracle on the new instance.
  const g::WEdge& e = inst.nontree[1];
  mono->apply_update(e.u, e.v, e.w + 5);
  sharded->apply_update(e.u, e.v, e.w + 5);
  EXPECT_EQ(mono->generation(), 1u);
  const g::Instance now = mono->instance_snapshot();
  const auto pre = svc::SensitivityIndex::build_host(now);
  const auto a1 = mono->answer(q);
  EXPECT_TRUE(a1 == sharded->answer(q));
  expect_answers_equal(a1, oracle_still_mst(now, *pre, batch),
                       "live after update");
}

TEST(StillMst, ServiceCachesCanonicalizedBatches) {
  auto tree = g::random_recursive_tree(40, 1901);
  g::assign_random_tree_weights(tree, 1, 40, 1903);
  const auto inst = g::make_mst_instance(std::move(tree), 80, 1905);
  svc::ServiceOptions opts;
  opts.threads = 2;
  svc::QueryService service(svc::SensitivityIndex::build_host(inst), opts);

  std::mt19937_64 rng(0xcafe);
  const auto batch = random_batch(inst, rng, 5);
  auto permuted = batch;
  std::shuffle(permuted.begin(), permuted.end(), rng);

  const auto before = service.stats().cache;
  const auto a1 = service.still_mst(batch);
  const auto mid = service.stats().cache;
  EXPECT_EQ(mid.misses, before.misses + 1);
  const auto a2 = service.still_mst(permuted);  // canonicalizes to the same key
  const auto after = service.stats().cache;
  EXPECT_EQ(after.hits, mid.hits + 1) << "permuted-but-equal batch must hit";
  EXPECT_TRUE(a1 == a2);
}

TEST(StillMst, SurvivesSnapshotRecovery) {
  // The topology view is rebuilt from the persisted label columns on load:
  // a recovered tier must answer still_mst byte-identically.
  auto tree = g::random_recursive_tree(36, 2001);
  g::assign_random_tree_weights(tree, 1, 36, 2003);
  const auto inst = g::make_mst_instance(std::move(tree), 70, 2005);
  const auto snapshot = svc::SensitivityIndex::build_host(inst);

  const mpcmst::test::ScratchDir dir(
      (std::filesystem::path(::testing::TempDir()) / "mpcmst_still_recover")
          .string());
  svc::PersistenceConfig cfg{dir.str(), svc::SyncMode::kCommit,
                             /*snapshot_every_n=*/0};
  auto live = std::make_shared<svc::LiveShardedBackend>(inst, snapshot, 3);
  live->attach_persistence(svc::Persistence::create_fresh(cfg));
  live->checkpoint();

  std::mt19937_64 rng(0xd00d);
  const auto batch = random_batch(inst, rng, 7);
  const svc::Query q = svc::Query::still_mst(batch);
  const auto want = live->answer(q);

  auto recovered =
      svc::QueryService::open({.persist = cfg, .recover_existing = true});
  ASSERT_NE(recovered, nullptr);
  const auto got = recovered->answer(q);
  EXPECT_TRUE(got == want)
      << "recovered tier diverged from the live one on still_mst";
}
