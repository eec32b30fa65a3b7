// The shard tier's wire protocol: length-prefixed, CRC-framed, versioned
// binary messages over a byte stream, built from the same binio primitives
// as the persistence formats (common/binio.hpp) — little-endian pinned,
// whole-frame CRC32, bounds-latched decoding.
//
//   frame    len u32 | version u8 | type u8 | body | crc32 u32
//
// `len` counts everything after itself (version + type + body + crc), so a
// reader needs exactly two reads per frame; the CRC covers version + type +
// body.  A frame that fails any check is refused as a whole — kWireError
// for truncation/corruption, kVersionMismatch for a foreign version byte —
// and never partially parsed (parse_frame, shared by the socket readers and
// the fuzz tests).
//
// Replies to state-reading RPCs carry a WireStamp (generation +
// fingerprint): the client-side merge refuses to combine per-shard replies
// whose stamps differ — the networked reading of the epoch barrier
// router.cpp enforces in-process.
//
// POD payloads whose layouts are padding-free (static_asserts below) ride
// ByteWriter::vec raw; everything with padding (Query, Answer, EdgeRef,
// JournalRecord, ...) is encoded field-by-field.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/metrics.hpp"
#include "service/journal.hpp"
#include "service/query.hpp"
#include "service/shard.hpp"
#include "service/status.hpp"
#include "service/update.hpp"

namespace mpcmst::service::net {

inline constexpr std::uint8_t kWireVersion = 1;
/// Upper bound on one frame (a bootstrap payload scales with the shard
/// slice; anything past this is a corrupt length, not a real message).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 30;
/// Bytes of a frame before the body: len + version + type (the trailing
/// crc32 is counted inside len).
inline constexpr std::size_t kFrameOverhead = 4 + 1 + 1 + 4;

enum class MsgType : std::uint8_t {
  kError = 0,  // body: status code u8 + message string
  kOk = 1,
  kPing = 2,
  kPong = 3,

  // Shard-server RPCs (client = QueryRouter-equivalent merge logic).
  kMeta = 10,         // -> kMetaReply{WireMeta}
  kAnswerRun = 11,    // vec<Query> -> kAnswerRunReply{per-query answers+stamp}
  kAnswerRunReply = 12,
  kTopK = 13,         // k i64 -> kTopKReply{FragileEntry prefix + stamp}
  kTopKReply = 14,
  kCertify = 15,      // vec<ResolvedChange> -> kCertifyReply{certs + stamp}
  kCertifyReply = 16,
  kFindRun = 17,      // vec<(u,v)> -> kFindRunReply{per-key refs + stamp}
  kFindRunReply = 18,
  kNontreeInfo = 19,  // orig_id -> kNontreeInfoReply{has + info + stamp}
  kNontreeInfoReply = 20,
  kMetaReply = 21,
  kBootstrap = 22,    // ShardHostState -> kOk (installs/replaces the slice)
  kPatch = 23,        // WirePatch -> kOk (applied via the shard primitives)

  // Service-server RPCs (a whole QueryService behind one endpoint).
  kQuery = 30,  // Query -> kQueryReply{Answer + stamp}
  kQueryReply = 31,
  kIngest = 32,  // vec<EdgeEvent> -> kIngestReply{vec<UpdateReceipt>}
  kIngestReply = 33,
  kStats = 34,  // -> kStatsReply{WireStats}
  kStatsReply = 35,

  // Replication stream (leader -> replica, after kSubscribe).
  kSubscribe = 40,  // last_gen u64 + have_state u8; leader takes over the conn
  kSnapshot = 41,   // one whole snapshot FILE, verbatim bytes
  kJournal = 42,    // vec<JournalRecord> in generation order

  kShutdown = 50,  // -> kOk, then the server exits its loops
};

const char* to_string(MsgType t);

struct Frame {
  MsgType type = MsgType::kError;
  std::vector<unsigned char> body;
};

/// Frame one message: [len | version | type | body | crc].
std::vector<unsigned char> pack_frame(MsgType t, const unsigned char* body,
                                      std::size_t n);
inline std::vector<unsigned char> pack_frame(MsgType t, const ByteWriter& w) {
  return pack_frame(t, w.data().data(), w.size());
}

/// Parse one frame from `data` (framing + CRC + version checks).  Returns
/// kOk and fills `out` (and `consumed`, when given, with the frame's total
/// size); kWireError on truncation/corruption; kVersionMismatch when the
/// version byte is foreign (its CRC must still validate — a corrupt frame
/// is corrupt, not "from the future").  Never throws, never partially
/// fills `out` on refusal.
ServiceStatus parse_frame(const unsigned char* data, std::size_t size,
                          Frame& out, std::size_t* consumed = nullptr);

class Socket;  // socket.hpp

/// Frame + send one message; returns bytes written (for the tx meters).
std::size_t send_frame(Socket& s, MsgType t, const ByteWriter& body);

/// Receive one frame (two reads: len, then the rest).  Throws ServiceError
/// with the parse_frame statuses (plus the socket's kTimeout/kWireError);
/// `bytes_read`, when given, receives the frame's total wire size.
Frame recv_frame(Socket& s, std::size_t* bytes_read = nullptr);

// --- payload codecs -------------------------------------------------------
// decode_* return false (without throwing) when the reader ran dry or a
// structural invariant failed; the caller maps that to kWireError.

/// Generation + fingerprint pin of a state-reading reply.
struct WireStamp {
  std::uint64_t generation = 0;
  std::uint64_t fingerprint = 0;

  friend bool operator==(const WireStamp&, const WireStamp&) = default;
};
void encode_stamp(ByteWriter& w, const WireStamp& s);
bool decode_stamp(ByteReader& r, WireStamp& s);

void encode_error(ByteWriter& w, ServiceStatus status, const std::string& msg);
bool decode_error(ByteReader& r, ServiceStatus& status, std::string& msg);

/// The shortest encodings of one Query (no changes) and one EdgeEvent: a
/// server bounds an untrusted element count by the bytes left in the frame
/// divided by these before allocating anything.
inline constexpr std::size_t kMinQueryBytes = 1 + 4 * 8 + 8;
inline constexpr std::size_t kEdgeEventBytes = 1 + 3 * 8;

void encode_query(ByteWriter& w, const Query& q);
bool decode_query(ByteReader& r, Query& q);

void encode_answer(ByteWriter& w, const Answer& a);
bool decode_answer(ByteReader& r, Answer& a);

void encode_edge_event(ByteWriter& w, const EdgeEvent& ev);
bool decode_edge_event(ByteReader& r, EdgeEvent& ev);

void encode_update_receipt(ByteWriter& w, const UpdateReceipt& rc);
bool decode_update_receipt(ByteReader& r, UpdateReceipt& rc);

void encode_journal_record(ByteWriter& w, const JournalRecord& rec);
bool decode_journal_record(ByteReader& r, JournalRecord& rec);

void encode_resolved_changes(ByteWriter& w,
                             const std::vector<verify::ResolvedChange>& cs);
bool decode_resolved_changes(ByteReader& r,
                             std::vector<verify::ResolvedChange>& cs);

/// Identity + shape of one shard server, returned by kMeta and carried at
/// the head of every kBootstrap.  Global fields (n, fingerprint, ...) are
/// identical across the tier; shard_index pins which slice this server
/// holds (clients validate it matches the endpoint's position).
struct WireMeta {
  std::uint64_t n = 0;
  std::uint64_t num_nontree = 0;
  std::uint64_t stride = 1;
  std::uint64_t num_shards = 1;
  std::uint64_t shard_index = 0;
  std::int64_t root = 0;
  std::uint64_t violations = 0;  // global count (is_mst == violations == 0)
  std::uint64_t fingerprint = 0;
  std::uint64_t generation = 0;
  CostReceipt receipt;
};
void encode_meta(ByteWriter& w, const WireMeta& m);
bool decode_meta(ByteReader& r, WireMeta& m);

/// kStatsReply body: the service-level snapshot a remote operator polls.
struct WireStats {
  std::uint64_t generation = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t n = 0;
  std::uint64_t num_nontree = 0;
  std::uint64_t violations = 0;
  std::uint64_t num_shards = 1;
  std::uint8_t serving = 1;  // 0: endpoint up but no backend yet
};
void encode_stats(ByteWriter& w, const WireStats& s);
bool decode_stats(ByteReader& r, WireStats& s);

/// Everything one shard server needs to serve its slice: the tier meta,
/// the IndexShard (snapshot codec — byte-identical to a slice loaded from
/// disk), and full parent/weight mirrors of the tree (O(n) words) so
/// kCertify can answer global path questions server-side.
struct ShardHostState {
  WireMeta meta;
  IndexShard shard;
  std::vector<Vertex> parent;  // full column, [0, n)
  std::vector<Weight> tree_w;  // full column, [0, n)
};
void encode_host_state(ByteWriter& w, const ShardHostState& st);
bool decode_host_state(ByteReader& r, ShardHostState& st);

/// One committed update's label repairs, broadcast by the leader's
/// publish() to every shard host.  Receivers apply their own slice through
/// the shard patch primitives (shard.hpp): tree infos are broadcast whole
/// (every host refreshes its weight mirror; only the owner patches labels),
/// non-tree entries carry the info so each host derives ownership from
/// min(u, v), endpoint entries are applied by the host owning key >> 32.
/// Full relabels (swaps, vertex attach) never ship as patches — the leader
/// re-bootstraps.
struct WirePatch {
  std::uint64_t epoch = 0;            // generation after this update
  std::uint64_t fingerprint = 0;      // ... and the fingerprint
  std::uint64_t num_nontree = 0;      // post-update global count
  std::vector<Vertex> tree_children;  // parallel to tree_infos
  std::vector<TreeEdgeInfo> tree_infos;
  std::vector<std::int64_t> nontree_ids;  // parallel to nontree_infos
  std::vector<NonTreeEdgeInfo> nontree_infos;
  std::vector<std::uint64_t> endpoint_keys;  // parallel to the two below
  std::vector<std::uint8_t> endpoint_is_tree;
  std::vector<std::int64_t> endpoint_ids;  // is_tree==0 && id<0: erase key
};
void encode_patch(ByteWriter& w, const WirePatch& p);
bool decode_patch(ByteReader& r, WirePatch& p);

// Raw-vector safety: these ride ByteWriter::vec as bulk bytes, so their
// layouts must be padding-free (they are all-int64 records).
static_assert(sizeof(PriceChange) == 3 * sizeof(std::int64_t));
static_assert(sizeof(FragileEntry) == 5 * sizeof(std::int64_t));
static_assert(sizeof(TreeEdgeInfo) == 5 * sizeof(std::int64_t));
static_assert(sizeof(NonTreeEdgeInfo) == 5 * sizeof(std::int64_t));
static_assert(sizeof(verify::ViolationCert) == 5 * sizeof(std::int64_t));

// --- telemetry ------------------------------------------------------------

/// Per-RPC meters in the process-wide registry, labeled by request type:
/// net_rpc_latency_ns{rpc="..."}, net_rpc_bytes_tx/rx{rpc="..."},
/// net_rpc_calls{rpc="..."}.  References are registry-owned and stable.
struct RpcMetrics {
  Histogram* latency = nullptr;
  Counter* calls = nullptr;
  Counter* bytes_tx = nullptr;
  Counter* bytes_rx = nullptr;
};
RpcMetrics& rpc_metrics(MsgType request_type);

/// Tier-level counters: "client_dials" (ShardConn pool growth),
/// "reconnects", "timeouts", "wire_errors", "epoch_retries",
/// "journal_records_shipped", "snapshots_shipped".
Counter& net_counter(const std::string& name);

}  // namespace mpcmst::service::net
