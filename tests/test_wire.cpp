// Wire-protocol tests (net/wire.hpp): framing round-trips for every message
// type, deterministic truncation/bit-flip fuzz (a damaged frame is refused
// whole, never partially parsed), version-mismatch refusal (an authentic
// frame from a foreign version is kVersionMismatch; a corrupt one is
// kWireError, never "from the future"), payload codec round-trips, and the
// loopback parity gate: a 4-shard networked deployment must answer all five
// query kinds byte-identically to the in-process sharded tier, before and
// after updates.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "service/service.hpp"
#include "service/shard.hpp"
#include "service/snapshot.hpp"
#include "test_util.hpp"

namespace g = mpcmst::graph;
namespace svc = mpcmst::service;
namespace net = mpcmst::service::net;
using mpcmst::service::net::MsgType;

namespace {

/// Deterministic LCG (same constants as MMIX) so fuzz failures reproduce.
struct Lcg {
  std::uint64_t s;
  explicit Lcg(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 16;
  }
};

const MsgType kAllTypes[] = {
    MsgType::kError,        MsgType::kOk,
    MsgType::kPing,         MsgType::kPong,
    MsgType::kMeta,         MsgType::kAnswerRun,
    MsgType::kAnswerRunReply, MsgType::kTopK,
    MsgType::kTopKReply,    MsgType::kCertify,
    MsgType::kCertifyReply, MsgType::kFindRun,
    MsgType::kFindRunReply, MsgType::kNontreeInfo,
    MsgType::kNontreeInfoReply, MsgType::kMetaReply,
    MsgType::kBootstrap,    MsgType::kPatch,
    MsgType::kQuery,        MsgType::kQueryReply,
    MsgType::kIngest,       MsgType::kIngestReply,
    MsgType::kStats,        MsgType::kStatsReply,
    MsgType::kSubscribe,    MsgType::kSnapshot,
    MsgType::kJournal,      MsgType::kShutdown,
};

std::vector<unsigned char> body_of(Lcg& rng, std::size_t n) {
  std::vector<unsigned char> b(n);
  for (auto& x : b) x = static_cast<unsigned char>(rng.next());
  return b;
}

TEST(WireFrame, RoundTripEveryType) {
  Lcg rng(11);
  for (const MsgType t : kAllTypes) {
    const auto body = body_of(rng, rng.next() % 96);
    const auto frame = net::pack_frame(t, body.data(), body.size());
    net::Frame out;
    std::size_t consumed = 0;
    ASSERT_EQ(net::parse_frame(frame.data(), frame.size(), out, &consumed),
              svc::ServiceStatus::kOk)
        << net::to_string(t);
    EXPECT_EQ(out.type, t);
    EXPECT_EQ(out.body, body);
    EXPECT_EQ(consumed, frame.size());
  }
}

TEST(WireFrame, EveryTruncationRefused) {
  const std::vector<unsigned char> body{1, 2, 3, 4, 5, 6, 7};
  const auto frame = net::pack_frame(MsgType::kQuery, body.data(), body.size());
  for (std::size_t len = 0; len < frame.size(); ++len) {
    net::Frame out;
    EXPECT_EQ(net::parse_frame(frame.data(), len, out),
              svc::ServiceStatus::kWireError)
        << "prefix of " << len << " bytes parsed";
  }
}

TEST(WireFrame, BitFlipFuzz) {
  Lcg rng(1234);
  int refused_wire = 0, refused_version = 0;
  for (int iter = 0; iter < 600; ++iter) {
    const MsgType t = kAllTypes[rng.next() % std::size(kAllTypes)];
    const auto body = body_of(rng, rng.next() % 64);
    auto frame = net::pack_frame(t, body.data(), body.size());
    const std::size_t bit = rng.next() % (frame.size() * 8);
    frame[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    net::Frame out;
    const svc::ServiceStatus s =
        net::parse_frame(frame.data(), frame.size(), out);
    // A single flipped bit must never yield an accepted frame: the length
    // no longer matches or the CRC fails.  (A flip landing exactly on the
    // version byte still fails the CRC — corrupt, not foreign.)
    ASSERT_NE(s, svc::ServiceStatus::kOk)
        << "iter " << iter << " bit " << bit << " accepted";
    if (s == svc::ServiceStatus::kWireError) ++refused_wire;
    if (s == svc::ServiceStatus::kVersionMismatch) ++refused_version;
  }
  EXPECT_EQ(refused_wire + refused_version, 600);
  EXPECT_GT(refused_wire, 0);
}

TEST(WireFrame, TruncationFuzz) {
  Lcg rng(99);
  for (int iter = 0; iter < 500; ++iter) {
    const auto body = body_of(rng, rng.next() % 80);
    const auto frame =
        net::pack_frame(MsgType::kAnswerRunReply, body.data(), body.size());
    const std::size_t len = rng.next() % frame.size();  // strictly short
    net::Frame out;
    EXPECT_EQ(net::parse_frame(frame.data(), len, out),
              svc::ServiceStatus::kWireError)
        << "iter " << iter;
  }
}

TEST(WireFrame, ForeignVersionRefusedOnlyWithValidCrc) {
  const std::vector<unsigned char> body{9, 8, 7};
  auto frame = net::pack_frame(MsgType::kPing, body.data(), body.size());
  // Layout: len u32 | version u8 | type u8 | body | crc u32;
  // the CRC covers version + type + body.
  frame[4] = net::kWireVersion + 1;
  net::Frame out;
  // Bumped version with a stale CRC: corrupt, not "from the future".
  EXPECT_EQ(net::parse_frame(frame.data(), frame.size(), out),
            svc::ServiceStatus::kWireError);
  // Recompute the CRC so the frame is authentic — now the refusal names the
  // version.
  const std::uint32_t crc =
      mpcmst::crc32(frame.data() + 4, frame.size() - 8);
  std::memcpy(frame.data() + frame.size() - 4, &crc, 4);
  EXPECT_EQ(net::parse_frame(frame.data(), frame.size(), out),
            svc::ServiceStatus::kVersionMismatch);
}

// --- payload codecs -------------------------------------------------------

template <typename T, typename Enc, typename Dec>
void expect_roundtrip(const T& value, Enc encode, Dec decode) {
  mpcmst::ByteWriter w;
  encode(w, value);
  mpcmst::ByteReader r(w.data().data(), w.size());
  T out{};
  ASSERT_TRUE(decode(r, out));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(out, value);
}

TEST(WireCodec, ScalarBodies) {
  expect_roundtrip(net::WireStamp{42, 0xabcdef}, net::encode_stamp,
                   net::decode_stamp);
  expect_roundtrip(svc::EdgeEvent{svc::UpdateOp::kAddEdge, 3, 9, 17},
                   net::encode_edge_event, net::decode_edge_event);
  svc::JournalRecord rec;
  rec.generation = 7;
  rec.old_fingerprint = 1;
  rec.new_fingerprint = 2;
  rec.u = 4;
  rec.v = 5;
  rec.new_w = -3;
  rec.cls = 2;
  rec.op = 1;
  expect_roundtrip(rec, net::encode_journal_record,
                   net::decode_journal_record);
}

TEST(WireCodec, ErrorBody) {
  mpcmst::ByteWriter w;
  net::encode_error(w, svc::ServiceStatus::kNotLeader, "follow the leader");
  mpcmst::ByteReader r(w.data().data(), w.size());
  svc::ServiceStatus s{};
  std::string msg;
  ASSERT_TRUE(net::decode_error(r, s, msg));
  EXPECT_EQ(s, svc::ServiceStatus::kNotLeader);
  EXPECT_EQ(msg, "follow the leader");
}

TEST(WireCodec, QueryAndAnswerBodies) {
  for (const svc::Query& q : {
           svc::Query::price_change(3, 7, -5),
           svc::Query::replacement_edge(1, 2),
           svc::Query::top_k_fragile(9),
           svc::Query::corridor_headroom(0, 4),
           svc::Query::still_mst({{5, 6, 11}, {2, 3, 1}}),
       })
    expect_roundtrip(q, net::encode_query, net::decode_query);
  // The servers bound untrusted element counts by these shortest sizes.
  mpcmst::ByteWriter point, event;
  net::encode_query(point, svc::Query::price_change(3, 7, -5));
  net::encode_edge_event(event, svc::EdgeEvent{});
  EXPECT_EQ(point.size(), net::kMinQueryBytes);
  EXPECT_EQ(event.size(), net::kEdgeEventBytes);

  svc::Answer a;
  a.status = svc::Status::kOk;
  a.edge = svc::EdgeRef{true, 12};
  a.still_optimal = false;
  a.headroom = 5;
  a.swap_cost = 9;
  a.replacement = 3;
  a.fragile.push_back(svc::FragileEntry{1, 0, 4, 2, 6});
  a.certificates.push_back(mpcmst::verify::ViolationCert{2, 1, 5, 3, 8});
  expect_roundtrip(a, net::encode_answer, net::decode_answer);
}

TEST(WireCodec, ReceiptMetaStatsBodies) {
  svc::UpdateReceipt rc;
  rc.report.status = svc::Status::kOk;
  rc.report.cls = svc::UpdateClass::kTreeReweight;
  rc.report.edge = svc::EdgeRef{true, -1};
  rc.report.old_w = 3;
  rc.report.new_w = 6;
  rc.old_fingerprint = 11;
  rc.new_fingerprint = 12;
  rc.generation = 4;
  rc.patched_tree_edges = 2;
  rc.patched_nontree_edges = 5;
  mpcmst::ByteWriter w;
  net::encode_update_receipt(w, rc);
  mpcmst::ByteReader r(w.data().data(), w.size());
  svc::UpdateReceipt out;
  ASSERT_TRUE(net::decode_update_receipt(r, out));
  EXPECT_EQ(out.report.cls, rc.report.cls);
  EXPECT_EQ(out.new_fingerprint, rc.new_fingerprint);
  EXPECT_EQ(out.generation, rc.generation);
  EXPECT_EQ(out.patched_nontree_edges, rc.patched_nontree_edges);

  net::WireMeta m;
  m.n = 10;
  m.num_nontree = 20;
  m.stride = 3;
  m.num_shards = 4;
  m.shard_index = 2;
  m.root = 1;
  m.violations = 0;
  m.fingerprint = 77;
  m.generation = 9;
  mpcmst::ByteWriter wm;
  net::encode_meta(wm, m);
  mpcmst::ByteReader rm(wm.data().data(), wm.size());
  net::WireMeta mo;
  ASSERT_TRUE(net::decode_meta(rm, mo));
  EXPECT_EQ(mo.n, m.n);
  EXPECT_EQ(mo.stride, m.stride);
  EXPECT_EQ(mo.shard_index, m.shard_index);
  EXPECT_EQ(mo.fingerprint, m.fingerprint);

  net::WireStats st;
  st.generation = 5;
  st.fingerprint = 6;
  st.n = 7;
  st.num_nontree = 8;
  st.violations = 0;
  st.num_shards = 2;
  st.serving = 1;
  mpcmst::ByteWriter ws;
  net::encode_stats(ws, st);
  mpcmst::ByteReader rs(ws.data().data(), ws.size());
  net::WireStats so;
  ASSERT_TRUE(net::decode_stats(rs, so));
  EXPECT_EQ(so.generation, st.generation);
  EXPECT_EQ(so.n, st.n);
  EXPECT_EQ(so.serving, st.serving);
}

/// Pack `body` with byte `at` overwritten into a CRC-valid frame and parse it
/// back: the corruption is authentic as far as framing can tell.
net::Frame frame_with_byte(const mpcmst::ByteWriter& body, std::size_t at,
                           std::uint8_t value) {
  std::vector<unsigned char> bytes = body.data();
  bytes[at] = value;
  const auto packed =
      net::pack_frame(MsgType::kQueryReply, bytes.data(), bytes.size());
  net::Frame f;
  EXPECT_EQ(net::parse_frame(packed.data(), packed.size(), f),
            svc::ServiceStatus::kOk);
  return f;
}

TEST(WireCodec, OutOfRangeEnumBytesRefused) {
  mpcmst::ByteWriter answer;
  net::encode_answer(answer, svc::Answer{});
  mpcmst::ByteWriter receipt;
  net::encode_update_receipt(receipt, svc::UpdateReceipt{});
  mpcmst::ByteWriter error;
  net::encode_error(error, svc::ServiceStatus::kTimeout, "late");

  // In range at the edge of each enum: still decodes.
  {
    const net::Frame f = frame_with_byte(
        answer, 0, static_cast<std::uint8_t>(svc::Status::kWouldDisconnect));
    mpcmst::ByteReader r(f.body.data(), f.body.size());
    svc::Answer a;
    EXPECT_TRUE(net::decode_answer(r, a));
  }
  {
    const net::Frame f =
        frame_with_byte(receipt, 1, svc::kNumUpdateClasses - 1);
    mpcmst::ByteReader r(f.body.data(), f.body.size());
    svc::UpdateReceipt rc;
    EXPECT_TRUE(net::decode_update_receipt(r, rc));
  }

  // One past: a per-answer status never carries a call-level failure, a
  // class names one of kNumUpdateClasses, an error code one ServiceStatus.
  for (const std::uint8_t bad :
       {static_cast<std::uint8_t>(svc::ServiceStatus::kPoisoned),
        std::uint8_t{0xff}}) {
    const net::Frame f = frame_with_byte(answer, 0, bad);
    mpcmst::ByteReader r(f.body.data(), f.body.size());
    svc::Answer a;
    EXPECT_FALSE(net::decode_answer(r, a)) << int{bad};
    const net::Frame g = frame_with_byte(receipt, 0, bad);
    mpcmst::ByteReader rr(g.body.data(), g.body.size());
    svc::UpdateReceipt rc;
    EXPECT_FALSE(net::decode_update_receipt(rr, rc)) << int{bad};
  }
  {
    const net::Frame f = frame_with_byte(receipt, 1, svc::kNumUpdateClasses);
    mpcmst::ByteReader r(f.body.data(), f.body.size());
    svc::UpdateReceipt rc;
    EXPECT_FALSE(net::decode_update_receipt(r, rc));
  }
  {
    const net::Frame f = frame_with_byte(
        error, 0,
        static_cast<std::uint8_t>(svc::ServiceStatus::kUnavailable) + 1);
    mpcmst::ByteReader r(f.body.data(), f.body.size());
    svc::ServiceStatus status{};
    std::string msg;
    EXPECT_FALSE(net::decode_error(r, status, msg));
  }
}

TEST(WireCodec, ResolvedChangesAndPatchBodies) {
  const std::vector<mpcmst::verify::ResolvedChange> cs{
      {true, 3, 9}, {false, 1, -2}};
  mpcmst::ByteWriter w;
  net::encode_resolved_changes(w, cs);
  mpcmst::ByteReader r(w.data().data(), w.size());
  std::vector<mpcmst::verify::ResolvedChange> out;
  ASSERT_TRUE(net::decode_resolved_changes(r, out));
  ASSERT_EQ(out.size(), cs.size());
  EXPECT_EQ(out[0].is_tree, cs[0].is_tree);
  EXPECT_EQ(out[1].new_w, cs[1].new_w);

  net::WirePatch p;
  p.epoch = 3;
  p.fingerprint = 4;
  p.num_nontree = 5;
  p.tree_children = {1, 2};
  p.tree_infos.resize(2);
  p.nontree_ids = {0};
  p.nontree_infos.resize(1);
  p.endpoint_keys = {0x100000002ull};
  p.endpoint_is_tree = {0};
  p.endpoint_ids = {-1};
  mpcmst::ByteWriter wp;
  net::encode_patch(wp, p);
  mpcmst::ByteReader rp(wp.data().data(), wp.size());
  net::WirePatch po;
  ASSERT_TRUE(net::decode_patch(rp, po));
  EXPECT_EQ(po.epoch, p.epoch);
  EXPECT_EQ(po.tree_children, p.tree_children);
  EXPECT_EQ(po.endpoint_keys, p.endpoint_keys);
  EXPECT_EQ(po.endpoint_ids, p.endpoint_ids);
}

TEST(WireCodec, HostStateRoundTripsByteIdentical) {
  auto tree = g::random_recursive_tree(24, 5);
  g::assign_random_tree_weights(tree, 1, 30, 7);
  const g::Instance inst = g::make_mst_instance(std::move(tree), 48, 9, 4);
  auto eng = mpcmst::test::make_engine(inst.input_words());
  const auto idx = svc::SensitivityIndex::build(eng, inst);
  const auto shards = svc::ShardedSensitivityIndex::split(*idx, 3);
  for (std::size_t i = 0; i < shards->num_shards(); ++i) {
    const net::ShardHostState st =
        net::make_host_state(*shards, i, shards->receipt());
    mpcmst::ByteWriter w;
    net::encode_host_state(w, st);
    mpcmst::ByteReader r(w.data().data(), w.size());
    net::ShardHostState out;
    ASSERT_TRUE(net::decode_host_state(r, out));
    // Re-encode: a decoded state must serialize byte-identically (the codec
    // is the identity the bootstrap path relies on).
    mpcmst::ByteWriter w2;
    net::encode_host_state(w2, out);
    EXPECT_EQ(w2.data(), w.data());
    EXPECT_EQ(out.meta.shard_index, st.meta.shard_index);
    EXPECT_EQ(out.parent, st.parent);
    EXPECT_EQ(out.tree_w, st.tree_w);
  }
}

// --- loopback parity ------------------------------------------------------

std::vector<svc::Query> parity_queries(const g::Instance& inst) {
  auto qs = mpcmst::test::probe_queries(inst);
  // The fifth kind plus edge cases: still_mst batches (benign, violating,
  // and unknown-edge), out-of-range points, negative top-k (k is clamped
  // identically on both sides).
  const g::Vertex c = inst.tree.root == 0 ? 1 : 0;
  const g::Vertex p = inst.tree.parent[static_cast<std::size_t>(c)];
  qs.push_back(svc::Query::still_mst({{c, p, 1}}));
  qs.push_back(svc::Query::still_mst(
      {{c, p, 1000}, {inst.nontree[0].u, inst.nontree[0].v, 1}}));
  qs.push_back(svc::Query::still_mst({{-5, 2, 1}}));
  qs.push_back(svc::Query::price_change(-1, 3, 2));
  qs.push_back(svc::Query::corridor_headroom(
      static_cast<g::Vertex>(inst.n()) + 5, 0));
  qs.push_back(svc::Query::top_k_fragile(-1));
  qs.push_back(svc::Query::top_k_fragile(1 << 20));
  return qs;
}

void expect_same_answers(svc::QueryService& a, svc::QueryService& b,
                         const std::vector<svc::Query>& qs,
                         const char* what) {
  const auto xs = a.answer_batch(qs);
  const auto ys = b.answer_batch(qs);
  ASSERT_EQ(xs.size(), ys.size());
  for (std::size_t i = 0; i < qs.size(); ++i)
    EXPECT_EQ(xs[i], ys[i]) << what << ": query " << i << " "
                            << svc::to_string(qs[i]);
  for (std::size_t i = 0; i < qs.size(); i += 7)
    EXPECT_EQ(a.answer(qs[i]), b.answer(qs[i])) << what << " single " << i;
}

TEST(LoopbackParity, FourShardTierMatchesInProcess) {
  auto tree = g::random_recursive_tree(48, 21);
  g::assign_random_tree_weights(tree, 1, 40, 23);
  const g::Instance inst = g::make_mst_instance(std::move(tree), 96, 25, 4);

  // Four shard servers on loopback.
  std::vector<std::unique_ptr<net::ShardServer>> servers;
  std::vector<std::string> endpoints;
  for (int i = 0; i < 4; ++i) {
    servers.push_back(std::make_unique<net::ShardServer>(
        net::Listener::bind("127.0.0.1:0")));
    servers.back()->start();
    endpoints.push_back(servers.back()->endpoint());
  }

  // In-process sharded live tier.
  auto eng1 = mpcmst::test::make_engine(inst.input_words());
  svc::ServiceConfig local_cfg;
  local_cfg.engine = &eng1;
  local_cfg.instance = &inst;
  local_cfg.sharded = true;
  local_cfg.num_shards = 4;
  local_cfg.live = true;
  auto local = svc::QueryService::open(local_cfg);

  // Networked leader over the same instance.
  auto eng2 = mpcmst::test::make_engine(inst.input_words());
  svc::ServiceConfig net_cfg;
  net_cfg.engine = &eng2;
  net_cfg.instance = &inst;
  net_cfg.live = true;
  net_cfg.remote_shards = endpoints;
  auto leader = svc::QueryService::open(net_cfg);

  EXPECT_EQ(leader->backend().fingerprint(), local->backend().fingerprint());
  EXPECT_EQ(leader->backend().num_shards(), 4u);
  expect_same_answers(*local, *leader, parity_queries(inst), "fresh");

  // A read-only remote attach sees the same tier.  Cache disabled: a
  // cached read-only attach serves still_mst at the newest epoch it has
  // *observed* (see make_remote_backend), which would make post-update
  // parity depend on probe order; uncached, every answer crosses the wire.
  svc::ServiceConfig ro_cfg;
  ro_cfg.remote_shards = endpoints;
  ro_cfg.options.cache_capacity = 0;
  auto remote = svc::QueryService::open(ro_cfg);
  expect_same_answers(*local, *remote, parity_queries(inst), "read-only");

  // Updates flow through both tiers identically: reweights, inserts (one
  // attaching a fresh vertex), deletes — patches and re-bootstraps both.
  const g::Vertex c = inst.tree.root == 0 ? 1 : 0;
  const g::Vertex p = inst.tree.parent[static_cast<std::size_t>(c)];
  const std::vector<svc::EdgeEvent> events{
      {svc::UpdateOp::kReweight, inst.nontree[0].u, inst.nontree[0].v,
       inst.nontree[0].w + 5},
      {svc::UpdateOp::kAddEdge, 3, 11, 2},  // likely a swap (cheap edge)
      {svc::UpdateOp::kReweight, c, p, 1},
      {svc::UpdateOp::kAddEdge, static_cast<g::Vertex>(inst.n()), 7, 9},
      {svc::UpdateOp::kRemoveEdge, inst.nontree[1].u, inst.nontree[1].v, 0},
  };
  const auto lr = local->ingest(events);
  const auto nr = leader->ingest(events);
  ASSERT_EQ(lr.size(), nr.size());
  for (std::size_t i = 0; i < lr.size(); ++i) {
    EXPECT_EQ(lr[i].report.status, nr[i].report.status) << i;
    EXPECT_EQ(lr[i].report.cls, nr[i].report.cls) << i;
    EXPECT_EQ(lr[i].new_fingerprint, nr[i].new_fingerprint) << i;
    EXPECT_EQ(lr[i].generation, nr[i].generation) << i;
  }
  EXPECT_EQ(leader->backend().generation(), local->backend().generation());

  const g::Instance after = local->updatable_backend()->instance_snapshot();
  expect_same_answers(*local, *leader, parity_queries(after), "post-update");

  // The read-only attach retries through the epoch change and converges.
  expect_same_answers(*local, *remote, parity_queries(after),
                      "read-only post-update");

  for (auto& s : servers) s->stop();
}

}  // namespace
