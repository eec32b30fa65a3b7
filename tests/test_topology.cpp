// Topology-churn suite for the dynamic edge-set layer
// (src/service/update.hpp): add_edge / remove_edge / ingest on the live
// backends, held — after every step — to byte-identical answers against a
// fresh full rebuild of the canonical post-event instance, on the monolith
// and the sharded tier (in-memory shard hosts) at shard counts {1, 3, 8}.
// The soak mixes reweights, non-tree inserts
// (including duplicate-key inserts), insert-swaps, vertex attaches,
// non-tree deletes (slot tombstoning + label repair), tree deletes
// (replacement promotion), and refused bridge deletes (kWouldDisconnect,
// state unchanged) — journaled throughout, with recovery bounces and
// grown/shrunk-column snapshot round-trips.  Also here: the fail-stop
// commit regression (a write fault injected via set_persist_crash_hook must
// poison the backend, never serve state ahead of the journal), the
// epoch-ordering regression (the sharded tier must not publish the new
// generation before its publish() has patched the shard hosts), and the
// recovery of snapshot images written with a shard set (they load into the
// monolith).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "common/check.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "service/journal.hpp"
#include "service/router.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "service/update.hpp"
#include "test_util.hpp"

namespace g = mpcmst::graph;
namespace svc = mpcmst::service;

namespace {

std::shared_ptr<const svc::SensitivityIndex> fresh_build(
    const g::Instance& inst) {
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  return svc::SensitivityIndex::build(eng, inst);
}

mpcmst::test::ScratchDir soak_dir(const std::string& name) {
  return mpcmst::test::ScratchDir(
      (std::filesystem::path(::testing::TempDir()) /
       ("mpcmst_topology_" + name))
          .string());
}

/// Non-tombstoned non-tree slots of the current instance.
std::vector<std::size_t> live_slots(const g::Instance& inst) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < inst.nontree.size(); ++i)
    if (inst.nontree[i].u != inst.nontree[i].v) out.push_back(i);
  return out;
}

/// Drive one EdgeEvent through a backend's public update surface (the same
/// dispatch recover() uses when replaying journal records).
svc::UpdateReceipt apply_event(svc::UpdatableBackend& b,
                               const svc::EdgeEvent& ev) {
  switch (ev.op) {
    case svc::UpdateOp::kReweight:
      return b.apply_update(ev.u, ev.v, ev.w);
    case svc::UpdateOp::kAddEdge:
      return b.add_edge(ev.u, ev.v, ev.w);
    case svc::UpdateOp::kRemoveEdge:
      return b.remove_edge(ev.u, ev.v);
  }
  return {};
}

/// All five query kinds against the current instance: the four point/top-k
/// families on every live edge (tombstones excluded — they resolve as
/// unknown), plus still_mst scenarios over a deterministic slice of edges,
/// plus probes of tombstoned and out-of-range keys.
std::vector<svc::Query> topology_queries(const g::Instance& inst) {
  std::vector<svc::Query> out;
  for (std::size_t v = 0; v < inst.n(); ++v) {
    if (static_cast<g::Vertex>(v) == inst.tree.root) continue;
    const auto c = static_cast<g::Vertex>(v);
    const g::Vertex p = inst.tree.parent[v];
    out.push_back(svc::Query::corridor_headroom(c, p));
    out.push_back(svc::Query::replacement_edge(p, c));
    out.push_back(
        svc::Query::price_change(c, p, static_cast<g::Weight>(v % 9) - 4));
  }
  std::vector<svc::PriceChange> scenario;
  for (const std::size_t i : live_slots(inst)) {
    const g::WEdge& e = inst.nontree[i];
    out.push_back(svc::Query::corridor_headroom(e.u, e.v));
    out.push_back(svc::Query::replacement_edge(e.u, e.v));
    out.push_back(svc::Query::price_change(e.u, e.v, -2));
    if (scenario.size() < 6)
      scenario.push_back(svc::PriceChange{
          e.u, e.v,
          std::max<g::Weight>(1, e.w - 3 + static_cast<g::Weight>(i % 7))});
  }
  if (!scenario.empty()) out.push_back(svc::Query::still_mst(scenario));
  scenario.clear();
  for (std::size_t v = 1; v < inst.n() && scenario.size() < 4; v += 3) {
    if (static_cast<g::Vertex>(v) == inst.tree.root) continue;
    scenario.push_back(
        svc::PriceChange{static_cast<g::Vertex>(v), inst.tree.parent[v],
                         inst.tree.weight[v] + static_cast<g::Weight>(v % 5)});
  }
  if (!scenario.empty()) out.push_back(svc::Query::still_mst(scenario));
  out.push_back(svc::Query::corridor_headroom(0, 0));  // tombstone key
  out.push_back(
      svc::Query::corridor_headroom(0, static_cast<g::Vertex>(inst.n()) + 9));
  for (const std::int64_t k :
       {1L, 5L, static_cast<long>(inst.n() / 2), static_cast<long>(inst.n())})
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
  ASSERT_EQ(a.new_w, b.new_w) << "step " << step;
  ASSERT_EQ(a.swapped_out, b.swapped_out) << "step " << step;
  ASSERT_EQ(a.swapped_in, b.swapped_in) << "step " << step;
}

/// One random topology/reweight event against the CURRENT instance.  Pure
/// function of (inst, rng) so the soak stays reproducible.
svc::EdgeEvent pick_event(const g::Instance& inst, std::mt19937_64& rng) {
  const auto n = static_cast<g::Vertex>(inst.n());
  const auto slots = live_slots(inst);
  const std::uint64_t roll = rng() % 12;
  const auto random_weight = [&] {
    return 1 + static_cast<g::Weight>(rng() % 60);
  };
  if (roll < 3) {  // reweight an existing edge
    if (roll < 2 || slots.empty()) {
      g::Vertex u;
      do {
        u = static_cast<g::Vertex>(rng() % inst.n());
      } while (u == inst.tree.root);
      return {svc::UpdateOp::kReweight, u,
              inst.tree.parent[static_cast<std::size_t>(u)], random_weight()};
    }
    const g::WEdge& e = inst.nontree[slots[rng() % slots.size()]];
    return {svc::UpdateOp::kReweight, e.u, e.v, random_weight()};
  }
  if (roll == 3 && inst.n() < 72) {  // attach a fresh leaf vertex
    const auto anchor = static_cast<g::Vertex>(rng() % inst.n());
    return {svc::UpdateOp::kAddEdge, n, anchor, random_weight()};
  }
  if (roll == 4 && !slots.empty()) {  // duplicate-key insert
    const g::WEdge& e = inst.nontree[slots[rng() % slots.size()]];
    return {svc::UpdateOp::kAddEdge, e.u, e.v, random_weight()};
  }
  if (roll < 8) {  // random insert (may duplicate a tree edge's key)
    g::Vertex u, v;
    do {
      u = static_cast<g::Vertex>(rng() % inst.n());
      v = static_cast<g::Vertex>(rng() % inst.n());
    } while (u == v);
    return {svc::UpdateOp::kAddEdge, u, v, random_weight()};
  }
  if (roll < 10) {  // remove a tree edge (bridges are refused)
    g::Vertex u;
    do {
      u = static_cast<g::Vertex>(rng() % inst.n());
    } while (u == inst.tree.root);
    return {svc::UpdateOp::kRemoveEdge, u,
            inst.tree.parent[static_cast<std::size_t>(u)], 0};
  }
  if (!slots.empty()) {  // remove a non-tree edge
    const g::WEdge& e = inst.nontree[slots[rng() % slots.size()]];
    return {svc::UpdateOp::kRemoveEdge, e.u, e.v, 0};
  }
  return {svc::UpdateOp::kAddEdge, 0, static_cast<g::Vertex>(1 + rng() % 5),
          random_weight()};
}

TEST(Topology, ChurnOracleSoak) {
  auto tree = g::random_recursive_tree(36, 1201);
  g::assign_random_tree_weights(tree, 1, 40, 1203);
  const auto base = g::make_mst_instance(std::move(tree), 72, 1207,
                                         /*slack=*/4);

  auto eng = mpcmst::test::make_engine(64 * base.input_words());
  auto mono = svc::LiveMonolithBackend::build(eng, base);
  const auto snapshot = fresh_build(base);
  std::vector<std::shared_ptr<svc::LiveShardedBackend>> sharded;
  for (const std::size_t shards : {1u, 3u, 8u})
    sharded.push_back(
        std::make_shared<svc::LiveShardedBackend>(base, snapshot, shards));

  // Journal every tier through the whole soak; the shard tiers compact
  // mid-soak so recovery also exercises snapshots with grown/tombstoned
  // non-tree columns and attached vertices.
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
  std::mt19937_64 rng(0xd1ce);
  std::size_t inserts = 0, insert_swaps = 0, attaches = 0, dup_inserts = 0;
  std::size_t nontree_deletes = 0, promotions = 0, refusals = 0,
              reused_slots = 0;
  g::Vertex last_attached = -1;
  for (std::size_t step = 0; step < 220; ++step) {
    svc::EdgeEvent ev;
    if (last_attached >= 0) {
      // A just-attached leaf edge is a guaranteed bridge: deleting it must
      // be refused deterministically, not only when the rng happens to hit
      // one.
      ev = svc::EdgeEvent{svc::UpdateOp::kRemoveEdge, last_attached,
                          oracle_inst.tree
                              .parent[static_cast<std::size_t>(last_attached)],
                          0};
      last_attached = -1;
    } else {
      ev = pick_event(oracle_inst, rng);
    }

    const bool slot_reuse =
        ev.op == svc::UpdateOp::kAddEdge &&
        static_cast<std::size_t>(ev.u) != oracle_inst.n() &&
        static_cast<std::size_t>(ev.v) != oracle_inst.n() &&
        live_slots(oracle_inst).size() < oracle_inst.nontree.size();

    // --- one canonical transform, applied everywhere ---
    const std::uint64_t gen_before = mono->generation();
    const svc::UpdateReport expected =
        svc::apply_event_to_instance(oracle_inst, ev);
    switch (expected.cls) {
      case svc::UpdateClass::kNonTreeInsert:
        ++inserts;
        if (slot_reuse) ++reused_slots;
        break;
      case svc::UpdateClass::kInsertSwap:
        ++insert_swaps;
        break;
      case svc::UpdateClass::kVertexAttach:
        ++attaches;
        last_attached = static_cast<g::Vertex>(oracle_inst.n() - 1);
        break;
      case svc::UpdateClass::kNonTreeDelete:
        ++nontree_deletes;
        break;
      case svc::UpdateClass::kTreeDeletePromote:
        ++promotions;
        break;
      default:
        break;
    }
    if (expected.status == svc::Status::kWouldDisconnect) ++refusals;
    if (expected.cls == svc::UpdateClass::kNonTreeInsert) {
      const auto key = svc::endpoint_key(ev.u, ev.v);
      std::size_t dups = 0;
      for (const std::size_t i : live_slots(oracle_inst))
        if (svc::endpoint_key(oracle_inst.nontree[i].u,
                              oracle_inst.nontree[i].v) == key)
          ++dups;
      if (dups > 1) ++dup_inserts;
    }

    const svc::UpdateReceipt mono_receipt = apply_event(*mono, ev);
    expect_reports_equal(mono_receipt.report, expected, step);
    for (auto& backend : sharded)
      expect_reports_equal(apply_event(*backend, ev).report, expected, step);

    if (expected.status != svc::Status::kOk) {
      // Refused/unknown events must leave every tier untouched.
      ASSERT_EQ(mono->generation(), gen_before) << "step " << step;
      expect_instances_equal(mono->instance_snapshot(), oracle_inst, step);
      continue;
    }

    expect_instances_equal(mono->instance_snapshot(), oracle_inst, step);
    expect_instances_equal(sharded.back()->instance_snapshot(), oracle_inst,
                           step);

    // --- fresh full rebuild of the post-event instance: the oracle ---
    const auto oracle_idx = fresh_build(oracle_inst);
    ASSERT_TRUE(oracle_idx->is_mst()) << "step " << step;
    const svc::MonolithicBackend oracle(oracle_idx);
    ASSERT_EQ(mono->fingerprint(), oracle_idx->fingerprint())
        << "step " << step;
    for (auto& backend : sharded) {
      ASSERT_EQ(backend->fingerprint(), oracle_idx->fingerprint())
          << "step " << step;
      ASSERT_EQ(backend->violations(), 0u) << "step " << step;
    }
    const auto queries = topology_queries(oracle_inst);
    for (const svc::Query& q : queries) {
      const svc::Answer want = oracle.answer(q);
      const svc::Answer got = mono->answer(q);
      ASSERT_EQ(got, want) << "step " << step << " monolith " << to_string(q)
                           << "\n  want: " << to_string(want)
                           << "\n  got:  " << to_string(got);
      for (std::size_t b = 0; b < sharded.size(); ++b) {
        const svc::Answer s = sharded[b]->answer(q);
        ASSERT_EQ(s, want) << "step " << step << " sharded[" << b << "] "
                           << to_string(q) << "\n  want: " << to_string(want)
                           << "\n  got:  " << to_string(s);
      }
    }

    // --- every 50 steps: bounce every tier through journal + recover ---
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

  // The soak must actually have exercised every regime.
  EXPECT_GT(inserts, 20u);
  EXPECT_GT(insert_swaps, 5u);
  EXPECT_GT(attaches, 3u);
  EXPECT_GT(dup_inserts, 2u);
  EXPECT_GT(nontree_deletes, 10u);
  EXPECT_GT(promotions, 3u);
  EXPECT_GT(refusals, 3u);
  EXPECT_GT(reused_slots, 5u);
  EXPECT_EQ(mono->generation(), sharded.front()->generation());

  // Snapshot round-trip of the churned tier: grown tree columns (attached
  // vertices) and tombstoned non-tree slots must come back byte-for-byte.
  const auto snap_dir = soak_dir("roundtrip");
  const auto final_idx = fresh_build(oracle_inst);
  const auto final_shards = svc::ShardedSensitivityIndex::split(*final_idx, 3);
  svc::write_snapshot(snap_dir.str(), 0, *final_idx, final_shards.get());
  const auto image =
      svc::load_snapshot_file(svc::snapshot_path(snap_dir.str(), 0));
  ASSERT_TRUE(image.has_value());
  ASSERT_TRUE(image->sharded());
  EXPECT_EQ(image->index->fingerprint(), final_idx->fingerprint());
  EXPECT_EQ(image->index->nontree_labels(), final_idx->nontree_labels());
  EXPECT_EQ(image->instance.nontree, oracle_inst.nontree);
  EXPECT_EQ(image->instance.tree.parent, oracle_inst.tree.parent);
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_EQ(image->shards->shard(s).nontree, final_shards->shard(s).nontree);
}

// ---------------------------------------------------------------------------
// Snapshot images written with a shard set (what sharded live tiers once
// checkpointed) keep loading: the shard set is validated, then dropped, and
// the tier recovers into the monolith.

TEST(Topology, LegacyShardedImageRecoversIntoMonolith) {
  auto tree = g::random_recursive_tree(32, 1801);
  g::assign_random_tree_weights(tree, 1, 30, 1803);
  const auto base = g::make_mst_instance(std::move(tree), 64, 1807,
                                         /*slack=*/4);
  const auto snapshot = fresh_build(base);
  const auto dir = soak_dir("legacy_sharded");
  const svc::PersistenceConfig cfg{dir.str(), svc::SyncMode::kCommit,
                                   /*snapshot_every_n=*/0};

  // Generation 0 written with a 3-shard set, then a journal tail on top.
  auto live = std::make_shared<svc::LiveMonolithBackend>(base, snapshot);
  live->attach_persistence(svc::Persistence::create_fresh(cfg));
  live->checkpoint();
  const auto shards = svc::ShardedSensitivityIndex::split(*snapshot, 3);
  svc::write_snapshot(dir.str(), 0, *snapshot, shards.get());
  const auto image = svc::load_snapshot_file(svc::snapshot_path(dir.str(), 0));
  ASSERT_TRUE(image.has_value());
  ASSERT_TRUE(image->sharded());
  ASSERT_EQ(image->shards->num_shards(), 3u);

  g::Instance oracle_inst = base;
  std::mt19937_64 rng(0x1e6a);
  std::uint64_t applied = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    const svc::EdgeEvent ev = pick_event(oracle_inst, rng);
    const svc::UpdateReport want = svc::apply_event_to_instance(oracle_inst, ev);
    expect_reports_equal(apply_event(*live, ev).report, want, i);
    if (want.status == svc::Status::kOk &&
        want.cls != svc::UpdateClass::kNoChange)
      ++applied;
  }
  ASSERT_GT(applied, 0u);
  live.reset();  // release the journal before recovering

  svc::RecoveredInfo info;
  auto recovered = svc::QueryService::open(
      {.persist = cfg, .recover_existing = true, .recovered = &info});
  EXPECT_EQ(info.snapshot_generation, 0u);
  EXPECT_EQ(info.replayed_records, applied);
  EXPECT_NE(dynamic_cast<const svc::LiveMonolithBackend*>(
                &recovered->backend()),
            nullptr);
  EXPECT_EQ(recovered->backend().num_shards(), 1u);
  EXPECT_EQ(recovered->backend().generation(), applied);
  const svc::MonolithicBackend oracle(fresh_build(oracle_inst));
  EXPECT_EQ(recovered->backend().fingerprint(), oracle.fingerprint());
  for (const svc::Query& q : topology_queries(oracle_inst))
    ASSERT_EQ(recovered->backend().answer(q), oracle.answer(q))
        << to_string(q);

  // The operator's lens still reads the image, shard set included.
  const auto dump_dir = soak_dir("legacy_sharded_dump");
  const std::string out = dump_dir.sub("journal_dump.txt");
  const std::string cmd = std::string(MPCMST_JOURNAL_DUMP) + " " + dir.str() +
                          " --verify > " + out + " 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::ifstream in(out);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("generation 0, n=" + std::to_string(base.n())),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("3 shards"), std::string::npos) << text;
  EXPECT_NE(text.find(std::to_string(applied) + " record"), std::string::npos)
      << text;
  EXPECT_NE(text.find("chain OK"), std::string::npos) << text;
}

TEST(Topology, IngestBatchMatchesSequentialApply) {
  auto tree = g::random_recursive_tree(30, 1301);
  g::assign_random_tree_weights(tree, 1, 30, 1303);
  const auto base = g::make_mst_instance(std::move(tree), 60, 1307,
                                         /*slack=*/4);
  auto eng = mpcmst::test::make_engine(64 * base.input_words());

  const auto persist_root = soak_dir("ingest");
  svc::PersistenceConfig cfg{persist_root.sub("tier"), svc::SyncMode::kCommit,
                             /*snapshot_every_n=*/0};
  auto service = svc::QueryService::open(
      {.engine = &eng, .instance = &base, .sharded = true, .num_shards = 3,
       .live = true, .persist = cfg, .options = {.chunk_size = 16}});

  // Deterministic event stream against the evolving instance (the canonical
  // transform tracks what each event will see).
  g::Instance oracle_inst = base;
  std::mt19937_64 rng(0xfee1);
  std::vector<svc::EdgeEvent> events;
  std::vector<svc::UpdateReport> expected;
  std::uint64_t expect_gen = 0;
  for (std::size_t i = 0; i < 80; ++i) {
    const svc::EdgeEvent ev = pick_event(oracle_inst, rng);
    events.push_back(ev);
    expected.push_back(svc::apply_event_to_instance(oracle_inst, ev));
    if (expected.back().status == svc::Status::kOk &&
        expected.back().cls != svc::UpdateClass::kNoChange)
      ++expect_gen;
  }

  const auto receipts = service->ingest(events);
  ASSERT_EQ(receipts.size(), events.size());
  for (std::size_t i = 0; i < receipts.size(); ++i)
    expect_reports_equal(receipts[i].report, expected[i], i);
  EXPECT_EQ(service->backend().generation(), expect_gen);

  // One journal record per applied event, each carrying its op byte.
  const auto scan = svc::Journal::scan(svc::journal_path(cfg.dir));
  EXPECT_EQ(scan.version, 2u);
  EXPECT_EQ(scan.records.size(), expect_gen);

  // Byte-identical to a fresh rebuild, and to a recovery of the journal.
  const svc::MonolithicBackend oracle(fresh_build(oracle_inst));
  const auto queries = topology_queries(oracle_inst);
  for (const auto& q : queries)
    ASSERT_EQ(service->backend().answer(q), oracle.answer(q)) << to_string(q);
  service.reset();  // release the journal before recovering
  auto recovered =
      svc::QueryService::open({.persist = cfg, .recover_existing = true});
  EXPECT_EQ(recovered->backend().generation(), expect_gen);
  for (const auto& q : queries)
    ASSERT_EQ(recovered->backend().answer(q), oracle.answer(q))
        << to_string(q);
}

// ---------------------------------------------------------------------------
// Fail-stop commit path: a write fault during the journal commit must poison
// the backend (it mutated before the commit), never serve state the journal
// does not hold, and recovery must land on the pre-fault state.

std::atomic<bool> g_fail_commit{false};

void failing_commit_hook(const char* phase) {
  if (g_fail_commit.load(std::memory_order_acquire) &&
      std::strcmp(phase, "journal-mid-record") == 0)
    throw std::runtime_error("injected write fault");
}

/// Clears the process-wide crash hook even when an ASSERT unwinds the test.
struct HookGuard {
  explicit HookGuard(void (*hook)(const char*)) {
    svc::set_persist_crash_hook(hook);
  }
  ~HookGuard() {
    g_fail_commit.store(false);
    svc::set_persist_crash_hook(nullptr);
  }
};

void run_fail_stop_case(const std::shared_ptr<svc::UpdatableBackend>& backend,
                        const svc::PersistenceConfig& cfg) {
  backend->attach_persistence(svc::Persistence::create_fresh(cfg));
  backend->checkpoint();
  HookGuard guard(&failing_commit_hook);

  // One healthy update first: the two-half hook write path itself is fine.
  const auto inst = backend->instance_snapshot();
  const auto c = static_cast<g::Vertex>(inst.tree.root == 0 ? 1 : 0);
  const g::Vertex p = inst.tree.parent[static_cast<std::size_t>(c)];
  const auto ok = backend->apply_update(c, p, inst.tree.weight[c] + 1);
  ASSERT_EQ(ok.report.status, svc::Status::kOk);

  const std::uint64_t gen_before = backend->generation();
  const std::uint64_t fp_before = backend->fingerprint();
  const auto inst_before = backend->instance_snapshot();

  // Inject the fault mid-commit on an epoch-advancing update.
  g_fail_commit.store(true, std::memory_order_release);
  EXPECT_THROW((void)backend->apply_update(c, p, inst.tree.weight[c] + 2),
               std::runtime_error);
  g_fail_commit.store(false, std::memory_order_release);

  // Fail-stop: the backend refuses every subsequent read and write.
  EXPECT_THROW((void)backend->answer(svc::Query::corridor_headroom(c, p)),
               mpcmst::ModelError);
  EXPECT_THROW((void)backend->apply_update(c, p, 5), mpcmst::ModelError);
  EXPECT_THROW((void)backend->ingest({svc::EdgeEvent{
                   svc::UpdateOp::kReweight, c, p, 6}}),
               mpcmst::ModelError);
  EXPECT_THROW(backend->checkpoint(), mpcmst::ModelError);

  // Recovery truncates the torn half-record and lands exactly on the state
  // the journal acknowledged — the mutated-but-uncommitted update is gone.
  svc::RecoveredInfo info;
  auto recovered = svc::QueryService::open(
      {.persist = cfg, .recover_existing = true, .recovered = &info});
  EXPECT_TRUE(info.journal_was_torn);
  EXPECT_EQ(recovered->backend().generation(), gen_before);
  EXPECT_EQ(recovered->backend().fingerprint(), fp_before);
  const auto rec_inst = recovered->updatable_backend()->instance_snapshot();
  EXPECT_EQ(rec_inst.tree.weight, inst_before.tree.weight);
  EXPECT_EQ(rec_inst.nontree, inst_before.nontree);

  const svc::MonolithicBackend oracle(fresh_build(inst_before));
  const auto q = svc::Query::corridor_headroom(c, p);
  EXPECT_EQ(recovered->backend().answer(q), oracle.answer(q));
}

TEST(Topology, CommitFaultPoisonsMonolith) {
  auto tree = g::random_recursive_tree(24, 1401);
  g::assign_random_tree_weights(tree, 1, 25, 1403);
  const auto inst = g::make_mst_instance(std::move(tree), 48, 1407, 4);
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  const auto dir = soak_dir("failstop_mono");
  run_fail_stop_case(
      svc::LiveMonolithBackend::build(eng, inst),
      svc::PersistenceConfig{dir.str(), svc::SyncMode::kCommit, 0});
}

TEST(Topology, CommitFaultPoisonsSharded) {
  auto tree = g::random_recursive_tree(24, 1501);
  g::assign_random_tree_weights(tree, 1, 25, 1503);
  const auto inst = g::make_mst_instance(std::move(tree), 48, 1507, 4);
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  const auto dir = soak_dir("failstop_shard");
  run_fail_stop_case(
      svc::LiveShardedBackend::build(eng, inst, 3),
      svc::PersistenceConfig{dir.str(), svc::SyncMode::kCommit, 0});
}

TEST(Topology, IngestFaultPoisonsMidBatch) {
  // A fault in the middle of a group commit: every event of the batch was
  // applied but the append died half-written, so the tier must poison (no
  // receipt was acknowledged) and recovery must land on a CONSISTENT PREFIX
  // of the batch — the intact journal frames, never the full in-memory
  // state the commit failed to make durable.
  auto tree = g::random_recursive_tree(24, 1601);
  g::assign_random_tree_weights(tree, 1, 25, 1603);
  const auto inst = g::make_mst_instance(std::move(tree), 48, 1607, 4);
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  const auto dir = soak_dir("failstop_ingest");
  const svc::PersistenceConfig cfg{dir.str(), svc::SyncMode::kCommit, 0};
  auto backend = svc::LiveMonolithBackend::build(eng, inst);
  backend->attach_persistence(svc::Persistence::create_fresh(cfg));
  backend->checkpoint();
  HookGuard guard(&failing_commit_hook);

  const auto c = static_cast<g::Vertex>(inst.tree.root == 0 ? 1 : 0);
  const g::Vertex p = inst.tree.parent[static_cast<std::size_t>(c)];
  const std::vector<svc::EdgeEvent> batch = {
      svc::EdgeEvent{svc::UpdateOp::kReweight, c, p, inst.tree.weight[c] + 1},
      svc::EdgeEvent{svc::UpdateOp::kAddEdge, c, p, 50}};
  // Canonical fingerprint after each prefix of the batch (every event here
  // advances the epoch, so prefix k <=> generation k).
  std::vector<std::uint64_t> prefix_fp = {backend->fingerprint()};
  {
    g::Instance canon = inst;
    for (const auto& ev : batch) {
      ASSERT_EQ(svc::apply_event_to_instance(canon, ev).status,
                svc::Status::kOk);
      prefix_fp.push_back(fresh_build(canon)->fingerprint());
    }
  }

  g_fail_commit.store(true, std::memory_order_release);
  EXPECT_THROW((void)backend->ingest(batch), std::runtime_error);
  g_fail_commit.store(false, std::memory_order_release);
  EXPECT_THROW((void)backend->answer(svc::Query::corridor_headroom(c, p)),
               mpcmst::ModelError);
  EXPECT_THROW((void)backend->ingest(batch), mpcmst::ModelError);

  // The fault killed the append mid-frame, so the final record of the batch
  // can never be durable: recovery lands strictly before the full batch, on
  // whichever prefix of intact frames survived, and matches the canonical
  // transform of exactly that prefix.
  auto recovered =
      svc::QueryService::open({.persist = cfg, .recover_existing = true});
  const std::uint64_t gen = recovered->backend().generation();
  EXPECT_LT(gen, batch.size());
  ASSERT_LT(gen, prefix_fp.size());
  EXPECT_EQ(recovered->backend().fingerprint(),
            prefix_fp[static_cast<std::size_t>(gen)]);
}

// ---------------------------------------------------------------------------
// Epoch ordering: the sharded tier must not publish the new generation
// until publish() has patched the shard hosts.  The "shard-publish" crash
// point fires at the top of publish(); a racing reader that observes the
// generation there must still see the PRE-update epoch.

std::atomic<const svc::UpdatableBackend*> g_probe_backend{nullptr};
std::atomic<std::uint64_t> g_gen_at_scatter{0};
std::atomic<std::uint64_t> g_scatter_hits{0};

void scatter_probe_hook(const char* phase) {
  if (std::strcmp(phase, "shard-publish") != 0) return;
  if (const auto* b = g_probe_backend.load(std::memory_order_acquire)) {
    g_gen_at_scatter.store(b->generation(), std::memory_order_release);
    g_scatter_hits.fetch_add(1, std::memory_order_acq_rel);
  }
}

TEST(Topology, GenerationPublishedOnlyAfterScatter) {
  auto tree = g::random_recursive_tree(40, 1701);
  g::assign_random_tree_weights(tree, 1, 30, 1703);
  const auto inst = g::make_mst_instance(std::move(tree), 80, 1707, 4);
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  auto backend = svc::LiveShardedBackend::build(eng, inst, 4);

  HookGuard guard(&scatter_probe_hook);
  g_probe_backend.store(backend.get(), std::memory_order_release);

  std::mt19937_64 rng(0x5ca7);
  std::size_t advanced = 0;
  for (std::size_t i = 0; i < 15; ++i) {
    const auto snapshot = backend->instance_snapshot();
    g::Vertex u;
    do {
      u = static_cast<g::Vertex>(rng() % snapshot.n());
    } while (u == snapshot.tree.root);
    const std::uint64_t gen_before = backend->generation();
    const std::uint64_t hits_before =
        g_scatter_hits.load(std::memory_order_acquire);
    const auto r = backend->apply_update(
        u, snapshot.tree.parent[static_cast<std::size_t>(u)],
        1 + static_cast<g::Weight>(rng() % 40));
    if (r.report.cls == svc::UpdateClass::kNoChange) continue;
    ++advanced;
    ASSERT_GT(g_scatter_hits.load(std::memory_order_acquire), hits_before);
    // Regression: an old commit path stored the new generation BEFORE
    // patching the shards, so a reader arriving here saw an epoch whose
    // shards were not yet patched.
    ASSERT_EQ(g_gen_at_scatter.load(std::memory_order_acquire), gen_before)
        << "update " << i
        << ": generation published before the shards were patched";
    ASSERT_EQ(backend->generation(), gen_before + 1);
  }
  EXPECT_GT(advanced, 5u);
  g_probe_backend.store(nullptr, std::memory_order_release);
}

}  // namespace
