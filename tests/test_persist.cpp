// Unit tests for the persistence layer (src/service/journal.hpp,
// src/service/snapshot.hpp) and recovery through QueryService::open: journal
// framing and torn-tail truncation against hand-corrupted record bytes,
// snapshot round-trips on monolithic and sharded tiers (pure deserialization —
// load must reproduce the label columns byte-for-byte), newest-valid snapshot
// selection over a corrupted file, the snapshot_every_n compaction policy, and
// end-to-end recovery parity with both the live tier it mirrors and a fresh
// rebuild of the same instance.  The SIGKILL-under-load side lives in
// tests/crash_harness.cpp, driven by the CI `recovery` job.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <vector>

#include "common/binio.hpp"
#include "common/check.hpp"
#include "graph/generators.hpp"
#include "service/journal.hpp"
#include "service/router.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "service/update.hpp"
#include "test_util.hpp"

namespace fs = std::filesystem;
namespace g = mpcmst::graph;
namespace svc = mpcmst::service;

namespace {

/// Scratch persistence directory under gtest's temp root.
mpcmst::test::ScratchDir make_dir(const std::string& name) {
  return mpcmst::test::ScratchDir(
      (fs::path(::testing::TempDir()) / ("mpcmst_persist_" + name)).string());
}

svc::JournalRecord make_record(std::uint64_t gen) {
  svc::JournalRecord rec;
  rec.generation = gen;
  rec.old_fingerprint = 0x1000 + gen;
  rec.new_fingerprint = 0x1000 + gen + 1;
  rec.u = static_cast<std::int64_t>(gen * 3);
  rec.v = static_cast<std::int64_t>(gen * 3 + 1);
  rec.new_w = static_cast<std::int64_t>(100 - gen);
  rec.cls = static_cast<std::uint8_t>(gen % 5);
  return rec;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

g::Instance small_instance(std::uint64_t seed) {
  auto tree = g::random_recursive_tree(40, seed);
  g::assign_random_tree_weights(tree, 1, 35, seed + 2);
  return g::make_mst_instance(std::move(tree), 80, seed + 4, /*slack=*/4);
}

std::shared_ptr<const svc::SensitivityIndex> fresh_build(
    const g::Instance& inst) {
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  return svc::SensitivityIndex::build(eng, inst);
}

using mpcmst::test::probe_queries;

TEST(Journal, AppendScanRoundTrip) {
  const auto dir = make_dir("journal_roundtrip");
  const std::string path = svc::journal_path(dir.str());
  {
    auto j = svc::Journal::open(path, svc::SyncMode::kCommit);
    for (std::uint64_t gen = 1; gen <= 5; ++gen) j.append(make_record(gen));
  }
  const auto scan = svc::Journal::scan(path);
  ASSERT_FALSE(scan.missing);
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), 5u);
  for (std::uint64_t gen = 1; gen <= 5; ++gen)
    EXPECT_EQ(scan.records[gen - 1], make_record(gen)) << "gen " << gen;

  // Reopening appends after the existing records.
  {
    auto j = svc::Journal::open(path, svc::SyncMode::kNever);
    j.append(make_record(6));
  }
  EXPECT_EQ(svc::Journal::scan(path).records.size(), 6u);
}

TEST(Journal, TornTailIsTruncated) {
  const auto dir = make_dir("journal_torn");
  const std::string path = svc::journal_path(dir.str());
  {
    auto j = svc::Journal::open(path, svc::SyncMode::kCommit);
    for (std::uint64_t gen = 1; gen <= 3; ++gen) j.append(make_record(gen));
  }
  const auto clean = svc::Journal::scan(path);
  ASSERT_EQ(clean.records.size(), 3u);
  const std::uint64_t full_size = clean.valid_bytes;

  // Chop the last record mid-frame: a crash between the two halves of an
  // append leaves exactly this shape.
  auto bytes = read_file(path);
  ASSERT_EQ(bytes.size(), full_size);
  bytes.resize(bytes.size() - 20);
  write_file(path, bytes);

  auto scan = svc::Journal::recover(path);
  EXPECT_TRUE(scan.torn);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(fs::file_size(path), scan.valid_bytes);

  // The truncated journal accepts appends again, exactly where it left off.
  {
    auto j = svc::Journal::open(path, svc::SyncMode::kCommit);
    j.append(make_record(3));
  }
  const auto rescan = svc::Journal::scan(path);
  EXPECT_FALSE(rescan.torn);
  ASSERT_EQ(rescan.records.size(), 3u);
  EXPECT_EQ(rescan.records.back(), make_record(3));
}

TEST(Journal, CorruptedRecordBytesStopTheScan) {
  const auto dir = make_dir("journal_corrupt");
  const std::string path = svc::journal_path(dir.str());
  {
    auto j = svc::Journal::open(path, svc::SyncMode::kCommit);
    for (std::uint64_t gen = 1; gen <= 3; ++gen) j.append(make_record(gen));
  }
  // Flip one payload byte inside record 2 (headers are 16 bytes, frames 58):
  // its CRC fails, and — because nothing after a bad frame can be trusted —
  // record 3 is dropped with it.
  auto bytes = read_file(path);
  const std::size_t frame = (bytes.size() - 16) / 3;
  bytes[16 + frame + 10] ^= 0x40;
  write_file(path, bytes);

  const auto scan = svc::Journal::scan(path);
  EXPECT_TRUE(scan.torn);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0], make_record(1));

  const auto recovered = svc::Journal::recover(path);
  EXPECT_EQ(fs::file_size(path), recovered.valid_bytes);
  EXPECT_EQ(svc::Journal::scan(path).records.size(), 1u);
  EXPECT_FALSE(svc::Journal::scan(path).torn);
}

/// Hand-encode a version-1 journal file (49-byte payloads, no op byte) —
/// the on-disk format every tier wrote before topology ops existed.
void write_v1_journal(const std::string& path,
                      const std::vector<svc::JournalRecord>& recs) {
  mpcmst::ByteWriter w;
  const char magic[8] = {'M', 'P', 'C', 'J', 'R', 'N', '0', '1'};
  w.bytes(magic, sizeof magic);
  w.u32(1);
  w.u32(mpcmst::crc32(w.data().data(), w.size()));
  for (const auto& rec : recs) {
    mpcmst::ByteWriter payload;
    payload.u64(rec.generation);
    payload.u64(rec.old_fingerprint);
    payload.u64(rec.new_fingerprint);
    payload.i64(rec.u);
    payload.i64(rec.v);
    payload.i64(rec.new_w);
    payload.u8(rec.cls);
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.bytes(payload.data().data(), payload.size());
    w.u32(mpcmst::crc32(payload.data().data(), payload.size()));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(w.data().data()),
            static_cast<std::streamsize>(w.size()));
}

TEST(Journal, V1FileUpgradesOnOpen) {
  const auto dir = make_dir("journal_v1_upgrade");
  const std::string path = svc::journal_path(dir.str());
  std::vector<svc::JournalRecord> recs;
  for (std::uint64_t gen = 1; gen <= 4; ++gen) recs.push_back(make_record(gen));
  write_v1_journal(path, recs);

  // A v1 file scans as-is (every record is a reweight)...
  const auto v1 = svc::Journal::scan(path);
  ASSERT_FALSE(v1.missing);
  EXPECT_EQ(v1.version, 1u);
  ASSERT_EQ(v1.records.size(), 4u);
  for (std::uint64_t gen = 1; gen <= 4; ++gen) {
    EXPECT_EQ(v1.records[gen - 1], make_record(gen)) << "gen " << gen;
    EXPECT_EQ(v1.records[gen - 1].op, 0u);
  }

  // ...and open() upgrades it in place before appending v2 frames.
  {
    auto j = svc::Journal::open(path, svc::SyncMode::kCommit);
    svc::JournalRecord topo = make_record(5);
    topo.op = static_cast<std::uint8_t>(svc::UpdateOp::kAddEdge);
    j.append(topo);
  }
  const auto v2 = svc::Journal::scan(path);
  EXPECT_EQ(v2.version, 2u);
  EXPECT_FALSE(v2.torn);
  ASSERT_EQ(v2.records.size(), 5u);
  for (std::uint64_t gen = 1; gen <= 4; ++gen)
    EXPECT_EQ(v2.records[gen - 1], make_record(gen)) << "gen " << gen;
  EXPECT_EQ(v2.records[4].op,
            static_cast<std::uint8_t>(svc::UpdateOp::kAddEdge));

  // A torn v1 tail is dropped by the upgrade, like recover() would.
  write_v1_journal(path, recs);
  auto bytes = read_file(path);
  bytes.resize(bytes.size() - 10);
  write_file(path, bytes);
  { auto j = svc::Journal::open(path, svc::SyncMode::kCommit); }
  const auto fixed = svc::Journal::scan(path);
  EXPECT_EQ(fixed.version, 2u);
  EXPECT_FALSE(fixed.torn);
  EXPECT_EQ(fixed.records.size(), 3u);
}

TEST(Persist, RecoverFromV1FixtureMatchesV2) {
  // Drive a real tier, then rewrite its journal as the v1 format a
  // pre-topology build would have left behind.  recover() must land on the
  // same generation and fingerprint as from the v2 file.
  const auto dir = make_dir("recover_v1_fixture");
  const auto inst = small_instance(401);
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  svc::PersistenceConfig cfg;
  cfg.dir = dir.str();
  cfg.snapshot_every_n = 0;  // journal-only: recovery replays everything
  auto live = svc::QueryService::open(
      {.engine = &eng, .instance = &inst, .live = true, .persist = cfg});
  std::mt19937_64 rng(0xbead);
  std::size_t applied = 0;
  while (applied < 8) {
    const auto snapshot = live->updatable_backend()->instance_snapshot();
    g::Vertex u;
    do {
      u = static_cast<g::Vertex>(rng() % snapshot.n());
    } while (u == snapshot.tree.root);
    const auto r = live->apply_update(
        u, snapshot.tree.parent[static_cast<std::size_t>(u)],
        1 + static_cast<g::Weight>(rng() % 40));
    if (r.report.cls != svc::UpdateClass::kNoChange) ++applied;
  }
  const std::uint64_t want_gen = live->backend().generation();
  const std::uint64_t want_fp = live->backend().fingerprint();
  live.reset();  // release the journal handle

  const std::string path = svc::journal_path(dir.str());
  const auto scan = svc::Journal::scan(path);
  ASSERT_EQ(scan.version, 2u);
  ASSERT_EQ(scan.records.size(), 8u);
  for (const auto& rec : scan.records) ASSERT_EQ(rec.op, 0u);
  write_v1_journal(path, scan.records);
  ASSERT_EQ(svc::Journal::scan(path).version, 1u);

  svc::RecoveredInfo info;
  auto recovered = svc::QueryService::open(
      {.persist = cfg, .recover_existing = true, .recovered = &info});
  EXPECT_EQ(info.replayed_records, 8u);
  EXPECT_EQ(recovered->backend().generation(), want_gen);
  EXPECT_EQ(recovered->backend().fingerprint(), want_fp);
  // The resumed journal is v2 on disk now.
  recovered.reset();
  EXPECT_EQ(svc::Journal::scan(path).version, 2u);
}

TEST(Snapshot, MonolithRoundTripIsByteIdentical) {
  const auto dir = make_dir("snapshot_mono");
  const auto inst = small_instance(101);
  const auto idx = fresh_build(inst);
  svc::write_snapshot(dir.str(), 0, *idx, nullptr);

  const auto image = svc::load_snapshot_file(svc::snapshot_path(dir.str(), 0));
  ASSERT_TRUE(image.has_value());
  EXPECT_FALSE(image->sharded());
  EXPECT_EQ(image->generation, 0u);

  // Pure deserialization: every column, order and receipt must come back
  // byte-for-byte, and the reconstructed instance must equal the original.
  EXPECT_EQ(image->index->fingerprint(), idx->fingerprint());
  EXPECT_EQ(image->index->tree_labels(), idx->tree_labels());
  EXPECT_EQ(image->index->nontree_labels(), idx->nontree_labels());
  EXPECT_EQ(image->index->fragile_order(), idx->fragile_order());
  EXPECT_EQ(image->index->root(), idx->root());
  EXPECT_EQ(image->index->violations(), idx->violations());
  EXPECT_EQ(image->index->receipt().build_rounds, idx->receipt().build_rounds);
  EXPECT_EQ(image->instance.tree.parent, inst.tree.parent);
  EXPECT_EQ(image->instance.tree.weight, inst.tree.weight);
  EXPECT_EQ(image->instance.nontree, inst.nontree);

  const svc::MonolithicBackend want(idx);
  const svc::MonolithicBackend got(image->index);
  for (const auto& q : probe_queries(inst))
    ASSERT_EQ(got.answer(q), want.answer(q)) << to_string(q);
}

TEST(Snapshot, NewestValidWinsOverCorrupted) {
  const auto dir = make_dir("snapshot_newest");
  const auto inst = small_instance(151);
  const auto idx = fresh_build(inst);
  const auto shards = svc::ShardedSensitivityIndex::split(*idx, 3);
  svc::write_snapshot(dir.str(), 0, *idx, shards.get());
  svc::write_snapshot(dir.str(), 7, *idx, nullptr);

  // The sharded generation-0 file round-trips every shard column.
  {
    const auto image =
        svc::load_snapshot_file(svc::snapshot_path(dir.str(), 0));
    ASSERT_TRUE(image.has_value());
    ASSERT_TRUE(image->sharded());
    EXPECT_EQ(image->shards->num_shards(), 3u);
    EXPECT_EQ(image->shards->fingerprint(), idx->fingerprint());
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(image->shards->shard(s).tree, shards->shard(s).tree);
      EXPECT_EQ(image->shards->shard(s).nontree, shards->shard(s).nontree);
      EXPECT_EQ(image->shards->shard(s).fragile_order,
                shards->shard(s).fragile_order);
    }
  }

  ASSERT_EQ(svc::load_newest_snapshot(dir.str())->generation, 7u);

  // Corrupt one byte in the middle of the newest file: selection must fall
  // back to generation 0 rather than serve a lying snapshot.
  const std::string newest = svc::snapshot_path(dir.str(), 7);
  auto bytes = read_file(newest);
  bytes[bytes.size() / 2] ^= 0x01;
  write_file(newest, bytes);
  EXPECT_FALSE(svc::load_snapshot_file(newest).has_value());
  const auto image = svc::load_newest_snapshot(dir.str());
  ASSERT_TRUE(image.has_value());
  EXPECT_EQ(image->generation, 0u);
  EXPECT_TRUE(image->sharded());
}

TEST(Persist, RecoverMatchesLiveTierAndFreshRebuild) {
  const auto dir = make_dir("recover_e2e");
  const auto inst = small_instance(211);
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  svc::PersistenceConfig cfg;
  cfg.dir = dir.str();
  cfg.snapshot_every_n = 0;  // journal-only: recovery replays everything
  auto live = svc::QueryService::open(
      {.engine = &eng, .instance = &inst, .sharded = true, .num_shards = 3,
       .live = true, .persist = cfg});

  // Drive a deterministic mix of reweights and swaps through the tier.
  std::mt19937_64 rng(0xfeed);
  std::size_t applied = 0;
  while (applied < 25) {
    const auto snapshot = live->updatable_backend()->instance_snapshot();
    g::Vertex u, v;
    if (rng() % 2 == 0) {
      do {
        u = static_cast<g::Vertex>(rng() % snapshot.n());
      } while (u == snapshot.tree.root);
      v = snapshot.tree.parent[static_cast<std::size_t>(u)];
    } else {
      const g::WEdge& e = snapshot.nontree[rng() % snapshot.nontree.size()];
      u = e.u;
      v = e.v;
    }
    const auto r = live->apply_update(
        u, v, 1 + static_cast<g::Weight>(rng() % 50));
    ASSERT_EQ(r.report.status, svc::Status::kOk);
    if (r.report.cls != svc::UpdateClass::kNoChange) ++applied;
  }

  svc::RecoveredInfo info;
  auto recovered = svc::QueryService::open(
      {.persist = cfg, .recover_existing = true, .recovered = &info});
  EXPECT_EQ(info.snapshot_generation, 0u);
  EXPECT_EQ(info.replayed_records, 25u);
  EXPECT_FALSE(info.journal_was_torn);

  // Continuity with the live tier...
  EXPECT_EQ(recovered->backend().generation(), live->backend().generation());
  EXPECT_EQ(recovered->backend().fingerprint(), live->backend().fingerprint());
  // An in-process live tier (and its recovery) is the monolith.
  EXPECT_EQ(recovered->backend().num_shards(), 1u);
  const auto current = live->updatable_backend()->instance_snapshot();
  const auto rec_inst = recovered->updatable_backend()->instance_snapshot();
  EXPECT_EQ(rec_inst.tree.parent, current.tree.parent);
  EXPECT_EQ(rec_inst.tree.weight, current.tree.weight);
  EXPECT_EQ(rec_inst.nontree, current.nontree);

  // ...and byte-identical answers against a fresh distributed rebuild.
  const svc::MonolithicBackend oracle(fresh_build(current));
  for (const auto& q : probe_queries(current)) {
    const svc::Answer want = oracle.answer(q);
    ASSERT_EQ(recovered->backend().answer(q), want) << to_string(q);
    ASSERT_EQ(live->backend().answer(q), want) << to_string(q);
  }

  // The recovered tier keeps absorbing updates and stays recoverable.
  const auto c =
      static_cast<g::Vertex>(current.tree.root == 0 ? 1 : 0);
  const auto r2 = recovered->apply_update(
      c, current.tree.parent[static_cast<std::size_t>(c)], 33);
  if (r2.report.cls != svc::UpdateClass::kNoChange) {
    recovered.reset();  // release the journal before recovering again
    auto again =
        svc::QueryService::open({.persist = cfg, .recover_existing = true});
    EXPECT_EQ(again->backend().fingerprint(), r2.new_fingerprint);
  }
}

TEST(Persist, CompactionPolicyBoundsTheJournal) {
  const auto dir = make_dir("compaction");
  const auto inst = small_instance(307);
  auto eng = mpcmst::test::make_engine(64 * inst.input_words());
  svc::PersistenceConfig cfg;
  cfg.dir = dir.str();
  cfg.sync_mode = svc::SyncMode::kNever;
  cfg.snapshot_every_n = 4;
  auto live = svc::QueryService::open(
      {.engine = &eng, .instance = &inst, .live = true, .persist = cfg});

  std::mt19937_64 rng(42);
  std::size_t applied = 0;
  while (applied < 10) {
    const auto snapshot = live->updatable_backend()->instance_snapshot();
    g::Vertex u;
    do {
      u = static_cast<g::Vertex>(rng() % snapshot.n());
    } while (u == snapshot.tree.root);
    const auto r = live->apply_update(
        u, snapshot.tree.parent[static_cast<std::size_t>(u)],
        1 + static_cast<g::Weight>(rng() % 40));
    if (r.report.cls != svc::UpdateClass::kNoChange) ++applied;
  }

  // Checkpoints landed at generations 4 and 8, so the journal holds at most
  // snapshot_every_n - 1 records (here: generations 9 and 10).
  const auto scan = svc::Journal::scan(svc::journal_path(dir.str()));
  EXPECT_EQ(scan.records.size(), 2u);
  // Old snapshots are pruned down to the newest two.
  EXPECT_EQ(svc::list_snapshot_files(dir.str()).size(), 2u);

  svc::RecoveredInfo info;
  auto recovered = svc::QueryService::open(
      {.persist = cfg, .recover_existing = true, .recovered = &info});
  EXPECT_EQ(info.snapshot_generation, 8u);
  EXPECT_EQ(info.replayed_records, 2u);
  EXPECT_EQ(recovered->backend().generation(), 10u);
  EXPECT_EQ(recovered->backend().fingerprint(), live->backend().fingerprint());

  // An explicit checkpoint leaves nothing to replay.
  live->checkpoint();
  EXPECT_EQ(svc::Journal::scan(svc::journal_path(dir.str())).records.empty(),
            true);

  // Staleness floor: corrupt the newest snapshot (generation 10).  The
  // fallback (generation 8) exists, but the compacted journal cannot bridge
  // 8 -> 10 any more — recovering would silently un-acknowledge two
  // committed updates, so recover() must refuse instead.
  const std::string newest = svc::snapshot_path(dir.str(), 10);
  auto bytes = read_file(newest);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x01;
  write_file(newest, bytes);
  EXPECT_THROW(
      (void)svc::QueryService::open({.persist = cfg, .recover_existing = true}),
      mpcmst::ModelError);
}

}  // namespace
