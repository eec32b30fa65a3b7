#include "net/wire.hpp"

#include <mutex>
#include <unordered_map>

#include "common/check.hpp"
#include "net/socket.hpp"
#include "service/snapshot.hpp"
#include "service/telemetry.hpp"

namespace mpcmst::service::net {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kError: return "error";
    case MsgType::kOk: return "ok";
    case MsgType::kPing: return "ping";
    case MsgType::kPong: return "pong";
    case MsgType::kMeta: return "meta";
    case MsgType::kMetaReply: return "meta_reply";
    case MsgType::kAnswerRun: return "answer_run";
    case MsgType::kAnswerRunReply: return "answer_run_reply";
    case MsgType::kTopK: return "top_k";
    case MsgType::kTopKReply: return "top_k_reply";
    case MsgType::kCertify: return "certify";
    case MsgType::kCertifyReply: return "certify_reply";
    case MsgType::kFindRun: return "find_run";
    case MsgType::kFindRunReply: return "find_run_reply";
    case MsgType::kNontreeInfo: return "nontree_info";
    case MsgType::kNontreeInfoReply: return "nontree_info_reply";
    case MsgType::kBootstrap: return "bootstrap";
    case MsgType::kPatch: return "patch";
    case MsgType::kQuery: return "query";
    case MsgType::kQueryReply: return "query_reply";
    case MsgType::kIngest: return "ingest";
    case MsgType::kIngestReply: return "ingest_reply";
    case MsgType::kStats: return "stats";
    case MsgType::kStatsReply: return "stats_reply";
    case MsgType::kSubscribe: return "subscribe";
    case MsgType::kSnapshot: return "snapshot";
    case MsgType::kJournal: return "journal";
    case MsgType::kShutdown: return "shutdown";
  }
  return "unknown";
}

// --- framing --------------------------------------------------------------

std::vector<unsigned char> pack_frame(MsgType t, const unsigned char* body,
                                      std::size_t n) {
  ByteWriter w;
  const std::uint32_t len = static_cast<std::uint32_t>(n) + 6;  // ver+type+crc
  w.u32(len);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(t));
  if (n > 0) w.bytes(body, n);
  // CRC over version + type + body (everything after len, before the crc).
  w.u32(crc32(w.data().data() + 4, w.size() - 4));
  return w.data();
}

ServiceStatus parse_frame(const unsigned char* data, std::size_t size,
                          Frame& out, std::size_t* consumed) {
  if (size < kFrameOverhead) return ServiceStatus::kWireError;
  ByteReader hdr(data, 4);
  const std::uint32_t len = hdr.u32();
  if (len < 6 || len > kMaxFrameBytes) return ServiceStatus::kWireError;
  if (size < 4 + static_cast<std::size_t>(len))
    return ServiceStatus::kWireError;
  const unsigned char* p = data + 4;  // version..crc
  ByteReader tail(p + len - 4, 4);
  const std::uint32_t want = tail.u32();
  if (crc32(p, len - 4) != want) return ServiceStatus::kWireError;
  // CRC validated: the bytes are authentic, so a foreign version byte means
  // a genuine protocol mismatch, not corruption.
  if (p[0] != kWireVersion) return ServiceStatus::kVersionMismatch;
  out.type = static_cast<MsgType>(p[1]);
  out.body.assign(p + 2, p + len - 4);
  if (consumed != nullptr) *consumed = 4 + static_cast<std::size_t>(len);
  return ServiceStatus::kOk;
}

std::size_t send_frame(Socket& s, MsgType t, const ByteWriter& body) {
  const std::vector<unsigned char> frame =
      pack_frame(t, body.data().data(), body.size());
  s.send_all(frame.data(), frame.size());
  return frame.size();
}

Frame recv_frame(Socket& s, std::size_t* bytes_read) {
  unsigned char len_bytes[4];
  s.recv_all(len_bytes, 4);
  ByteReader hdr(len_bytes, 4);
  const std::uint32_t len = hdr.u32();
  if (len < 6 || len > kMaxFrameBytes)
    throw ServiceError(ServiceStatus::kWireError,
                       "frame length " + std::to_string(len) +
                           " outside the protocol bounds");
  std::vector<unsigned char> buf(4 + static_cast<std::size_t>(len));
  std::memcpy(buf.data(), len_bytes, 4);
  s.recv_all(buf.data() + 4, len);
  Frame f;
  const ServiceStatus st = parse_frame(buf.data(), buf.size(), f);
  if (st != ServiceStatus::kOk)
    throw ServiceError(st, st == ServiceStatus::kVersionMismatch
                               ? "peer speaks a different wire version"
                               : "received a corrupt frame");
  if (bytes_read != nullptr) *bytes_read = buf.size();
  return f;
}

// --- payload codecs -------------------------------------------------------

namespace {

void encode_string(ByteWriter& w, const std::string& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  w.bytes(s.data(), s.size());
}

bool decode_string(ByteReader& r, std::string& s) {
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > r.remaining()) return false;
  s.resize(n);
  if (n > 0) r.bytes(s.data(), n);
  return r.ok();
}

void encode_edge_ref(ByteWriter& w, const EdgeRef& e) {
  w.u8(e.is_tree ? 1 : 0);
  w.i64(e.id);
}

bool decode_edge_ref(ByteReader& r, EdgeRef& e) {
  e.is_tree = r.u8() != 0;
  e.id = r.i64();
  return r.ok();
}

/// Answers and receipts carry a per-answer verdict, never a call failure.
bool is_verdict(Status s) {
  return static_cast<std::uint8_t>(s) <=
         static_cast<std::uint8_t>(Status::kWouldDisconnect);
}

}  // namespace

void encode_stamp(ByteWriter& w, const WireStamp& s) {
  w.u64(s.generation);
  w.u64(s.fingerprint);
}

bool decode_stamp(ByteReader& r, WireStamp& s) {
  s.generation = r.u64();
  s.fingerprint = r.u64();
  return r.ok();
}

void encode_error(ByteWriter& w, ServiceStatus status,
                  const std::string& msg) {
  w.u8(static_cast<std::uint8_t>(status));
  encode_string(w, msg);
}

bool decode_error(ByteReader& r, ServiceStatus& status, std::string& msg) {
  const std::uint8_t code = r.u8();
  status = static_cast<ServiceStatus>(code);
  return decode_string(r, msg) &&
         code <= static_cast<std::uint8_t>(ServiceStatus::kUnavailable);
}

void encode_query(ByteWriter& w, const Query& q) {
  w.u8(static_cast<std::uint8_t>(q.kind));
  w.i64(q.u);
  w.i64(q.v);
  w.i64(q.delta);
  w.i64(q.k);
  w.vec(q.changes);
}

bool decode_query(ByteReader& r, Query& q) {
  q.kind = static_cast<QueryKind>(r.u8());
  q.u = r.i64();
  q.v = r.i64();
  q.delta = r.i64();
  q.k = r.i64();
  q.changes = r.vec<PriceChange>();
  return r.ok() && static_cast<std::uint8_t>(q.kind) <=
                       static_cast<std::uint8_t>(QueryKind::kStillMst);
}

void encode_answer(ByteWriter& w, const Answer& a) {
  w.u8(static_cast<std::uint8_t>(a.status));
  encode_edge_ref(w, a.edge);
  w.u8(a.still_optimal ? 1 : 0);
  w.i64(a.headroom);
  w.i64(a.swap_cost);
  w.i64(a.replacement);
  w.vec(a.fragile);
  w.vec(a.certificates);
}

bool decode_answer(ByteReader& r, Answer& a) {
  a.status = static_cast<Status>(r.u8());
  if (!decode_edge_ref(r, a.edge)) return false;
  a.still_optimal = r.u8() != 0;
  a.headroom = r.i64();
  a.swap_cost = r.i64();
  a.replacement = r.i64();
  a.fragile = r.vec<FragileEntry>();
  a.certificates = r.vec<verify::ViolationCert>();
  return r.ok() && is_verdict(a.status);
}

void encode_edge_event(ByteWriter& w, const EdgeEvent& ev) {
  w.u8(static_cast<std::uint8_t>(ev.op));
  w.i64(ev.u);
  w.i64(ev.v);
  w.i64(ev.w);
}

bool decode_edge_event(ByteReader& r, EdgeEvent& ev) {
  ev.op = static_cast<UpdateOp>(r.u8());
  ev.u = r.i64();
  ev.v = r.i64();
  ev.w = r.i64();
  return r.ok() && static_cast<std::uint8_t>(ev.op) <=
                       static_cast<std::uint8_t>(UpdateOp::kRemoveEdge);
}

void encode_update_receipt(ByteWriter& w, const UpdateReceipt& rc) {
  w.u8(static_cast<std::uint8_t>(rc.report.status));
  w.u8(static_cast<std::uint8_t>(rc.report.cls));
  encode_edge_ref(w, rc.report.edge);
  w.i64(rc.report.old_w);
  w.i64(rc.report.new_w);
  w.i64(rc.report.swapped_out);
  w.i64(rc.report.swapped_in);
  w.u64(rc.old_fingerprint);
  w.u64(rc.new_fingerprint);
  w.u64(rc.generation);
  w.u64(rc.patched_tree_edges);
  w.u64(rc.patched_nontree_edges);
  w.u8(rc.full_relabel ? 1 : 0);
}

bool decode_update_receipt(ByteReader& r, UpdateReceipt& rc) {
  rc.report.status = static_cast<Status>(r.u8());
  rc.report.cls = static_cast<UpdateClass>(r.u8());
  if (!decode_edge_ref(r, rc.report.edge)) return false;
  rc.report.old_w = r.i64();
  rc.report.new_w = r.i64();
  rc.report.swapped_out = r.i64();
  rc.report.swapped_in = r.i64();
  rc.old_fingerprint = r.u64();
  rc.new_fingerprint = r.u64();
  rc.generation = r.u64();
  rc.patched_tree_edges = r.u64();
  rc.patched_nontree_edges = r.u64();
  rc.full_relabel = r.u8() != 0;
  return r.ok() && is_verdict(rc.report.status) &&
         static_cast<std::size_t>(rc.report.cls) < kNumUpdateClasses;
}

void encode_journal_record(ByteWriter& w, const JournalRecord& rec) {
  w.u64(rec.generation);
  w.u64(rec.old_fingerprint);
  w.u64(rec.new_fingerprint);
  w.i64(rec.u);
  w.i64(rec.v);
  w.i64(rec.new_w);
  w.u8(rec.cls);
  w.u8(rec.op);
}

bool decode_journal_record(ByteReader& r, JournalRecord& rec) {
  rec.generation = r.u64();
  rec.old_fingerprint = r.u64();
  rec.new_fingerprint = r.u64();
  rec.u = r.i64();
  rec.v = r.i64();
  rec.new_w = r.i64();
  rec.cls = r.u8();
  rec.op = r.u8();
  return r.ok();
}

void encode_resolved_changes(ByteWriter& w,
                             const std::vector<verify::ResolvedChange>& cs) {
  w.u64(cs.size());
  for (const verify::ResolvedChange& c : cs) {
    w.u8(c.is_tree ? 1 : 0);
    w.i64(c.id);
    w.i64(c.new_w);
  }
}

bool decode_resolved_changes(ByteReader& r,
                             std::vector<verify::ResolvedChange>& cs) {
  const std::uint64_t n = r.u64();
  if (!r.ok() || n > r.remaining() / 17) return false;  // 1 + 8 + 8 each
  cs.resize(static_cast<std::size_t>(n));
  for (verify::ResolvedChange& c : cs) {
    c.is_tree = r.u8() != 0;
    c.id = r.i64();
    c.new_w = r.i64();
  }
  return r.ok();
}

void encode_meta(ByteWriter& w, const WireMeta& m) {
  w.u64(m.n);
  w.u64(m.num_nontree);
  w.u64(m.stride);
  w.u64(m.num_shards);
  w.u64(m.shard_index);
  w.i64(m.root);
  w.u64(m.violations);
  w.u64(m.fingerprint);
  w.u64(m.generation);
  w.pod(m.receipt);
}

bool decode_meta(ByteReader& r, WireMeta& m) {
  m.n = r.u64();
  m.num_nontree = r.u64();
  m.stride = r.u64();
  m.num_shards = r.u64();
  m.shard_index = r.u64();
  m.root = r.i64();
  m.violations = r.u64();
  m.fingerprint = r.u64();
  m.generation = r.u64();
  m.receipt = r.pod<CostReceipt>();
  return r.ok() && m.stride > 0 && m.num_shards > 0 &&
         m.shard_index < m.num_shards;
}

void encode_stats(ByteWriter& w, const WireStats& s) {
  w.u64(s.generation);
  w.u64(s.fingerprint);
  w.u64(s.n);
  w.u64(s.num_nontree);
  w.u64(s.violations);
  w.u64(s.num_shards);
  w.u8(s.serving);
}

bool decode_stats(ByteReader& r, WireStats& s) {
  s.generation = r.u64();
  s.fingerprint = r.u64();
  s.n = r.u64();
  s.num_nontree = r.u64();
  s.violations = r.u64();
  s.num_shards = r.u64();
  s.serving = r.u8();
  return r.ok();
}

void encode_host_state(ByteWriter& w, const ShardHostState& st) {
  encode_meta(w, st.meta);
  encode_index_shard(w, st.shard);
  w.vec(st.parent);
  w.vec(st.tree_w);
}

bool decode_host_state(ByteReader& r, ShardHostState& st) {
  if (!decode_meta(r, st.meta)) return false;
  if (!decode_index_shard(r, st.shard)) return false;
  st.parent = r.vec<Vertex>();
  st.tree_w = r.vec<Weight>();
  return r.ok() && st.parent.size() == st.meta.n &&
         st.tree_w.size() == st.meta.n;
}

void encode_patch(ByteWriter& w, const WirePatch& p) {
  w.u64(p.epoch);
  w.u64(p.fingerprint);
  w.u64(p.num_nontree);
  w.vec(p.tree_children);
  w.vec(p.tree_infos);
  w.vec(p.nontree_ids);
  w.vec(p.nontree_infos);
  w.vec(p.endpoint_keys);
  w.vec(p.endpoint_is_tree);
  w.vec(p.endpoint_ids);
}

bool decode_patch(ByteReader& r, WirePatch& p) {
  p.epoch = r.u64();
  p.fingerprint = r.u64();
  p.num_nontree = r.u64();
  p.tree_children = r.vec<Vertex>();
  p.tree_infos = r.vec<TreeEdgeInfo>();
  p.nontree_ids = r.vec<std::int64_t>();
  p.nontree_infos = r.vec<NonTreeEdgeInfo>();
  p.endpoint_keys = r.vec<std::uint64_t>();
  p.endpoint_is_tree = r.vec<std::uint8_t>();
  p.endpoint_ids = r.vec<std::int64_t>();
  return r.ok() && p.tree_children.size() == p.tree_infos.size() &&
         p.nontree_ids.size() == p.nontree_infos.size() &&
         p.endpoint_keys.size() == p.endpoint_is_tree.size() &&
         p.endpoint_keys.size() == p.endpoint_ids.size();
}

// --- telemetry ------------------------------------------------------------

RpcMetrics& rpc_metrics(MsgType request_type) {
  static std::mutex mu;
  static std::unordered_map<std::uint8_t, RpcMetrics> cache;
  std::lock_guard lock(mu);
  auto [it, fresh] = cache.try_emplace(static_cast<std::uint8_t>(request_type));
  if (fresh) {
    MetricsRegistry& reg = MetricsRegistry::instance();
    const std::string label =
        std::string("rpc=\"") + to_string(request_type) + "\"";
    it->second.latency = &reg.histogram("net_rpc_latency_ns", label);
    it->second.calls = &reg.counter("net_rpc_calls", label);
    it->second.bytes_tx =
        &reg.counter("net_rpc_bytes", label + ",dir=\"tx\"");
    it->second.bytes_rx =
        &reg.counter("net_rpc_bytes", label + ",dir=\"rx\"");
  }
  return it->second;
}

Counter& net_counter(const std::string& name) {
  return MetricsRegistry::instance().counter("net_" + name);
}

}  // namespace mpcmst::service::net
