#include "service/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/binio.hpp"
#include "common/check.hpp"
#include "service/telemetry.hpp"

namespace fs = std::filesystem;

namespace mpcmst::service {

namespace {

constexpr char kMagic[8] = {'M', 'P', 'C', 'S', 'N', 'A', 'P', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint8_t kKindMonolith = 0;
constexpr std::uint8_t kKindSharded = 1;
constexpr char kPrefix[] = "snapshot-";
constexpr char kSuffix[] = ".bin";

static_assert(std::is_trivially_copyable_v<CostReceipt>);
static_assert(std::is_trivially_copyable_v<ShardCost>);

void encode_endpoint_map(
    ByteWriter& w, const std::unordered_map<std::uint64_t, EdgeRef>& map) {
  // Canonical key order: the same logical map always encodes to the same
  // bytes regardless of hash-table iteration order, so a decoded state
  // re-encodes byte-identically (snapshots and kBootstrap payloads can be
  // compared as raw bytes).
  std::vector<std::uint64_t> keys;
  keys.reserve(map.size());
  for (const auto& [key, ref] : map) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  w.u64(keys.size());
  for (const std::uint64_t key : keys) {
    const EdgeRef& ref = map.at(key);
    w.u64(key);
    w.u8(ref.is_tree ? 1 : 0);
    w.i64(ref.id);
  }
}

void decode_endpoint_map(ByteReader& r,
                         std::unordered_map<std::uint64_t, EdgeRef>& map) {
  const std::uint64_t count = r.u64();
  if (!r.ok() || count > r.remaining() / (8 + 1 + 8)) return;
  map.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    const std::uint64_t key = r.u64();
    const bool is_tree = r.u8() != 0;
    const std::int64_t id = r.i64();
    map.emplace(key, EdgeRef{is_tree, id});
  }
}

void encode_tree_labels(ByteWriter& w, const TreeLabels& t) {
  w.vec(t.parent);
  w.vec(t.w);
  w.vec(t.mc);
  w.vec(t.sens);
  w.vec(t.replacement);
}

TreeLabels decode_tree_labels(ByteReader& r) {
  TreeLabels t;
  t.parent = r.vec<Vertex>();
  t.w = r.vec<Weight>();
  t.mc = r.vec<Weight>();
  t.sens = r.vec<Weight>();
  t.replacement = r.vec<std::int64_t>();
  return t;
}

void encode_nontree_labels(ByteWriter& w, const NonTreeLabels& nt) {
  w.vec(nt.u);
  w.vec(nt.v);
  w.vec(nt.w);
  w.vec(nt.maxpath);
  w.vec(nt.sens);
}

NonTreeLabels decode_nontree_labels(ByteReader& r) {
  NonTreeLabels nt;
  nt.u = r.vec<Vertex>();
  nt.v = r.vec<Vertex>();
  nt.w = r.vec<Weight>();
  nt.maxpath = r.vec<Weight>();
  nt.sens = r.vec<Weight>();
  return nt;
}

bool tree_labels_consistent(const TreeLabels& t) {
  const std::size_t n = t.parent.size();
  return t.w.size() == n && t.mc.size() == n && t.sens.size() == n &&
         t.replacement.size() == n;
}

bool nontree_labels_consistent(const NonTreeLabels& nt) {
  const std::size_t n = nt.u.size();
  return nt.v.size() == n && nt.w.size() == n && nt.maxpath.size() == n &&
         nt.sens.size() == n;
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best-effort: some filesystems refuse dir fds
  ::fsync(fd);
  ::close(fd);
}

/// Generation parsed from a snapshot filename, or nullopt for other files.
std::optional<std::uint64_t> snapshot_generation_of(const std::string& name) {
  const std::size_t prefix = sizeof(kPrefix) - 1;
  const std::size_t suffix = sizeof(kSuffix) - 1;
  if (name.size() <= prefix + suffix || name.compare(0, prefix, kPrefix) != 0 ||
      name.compare(name.size() - suffix, suffix, kSuffix) != 0)
    return std::nullopt;
  std::uint64_t gen = 0;
  for (std::size_t i = prefix; i < name.size() - suffix; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    gen = gen * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return gen;
}

}  // namespace

/// Friend of SensitivityIndex / ShardedSensitivityIndex: reads and writes
/// their private state directly so a load is pure deserialization.
struct SnapshotCodec {
  static void encode_index(ByteWriter& w, const SensitivityIndex& idx) {
    w.i64(idx.root_);
    w.u64(idx.violations_);
    w.u64(idx.fingerprint_);
    w.u32(sizeof(CostReceipt));
    w.pod(idx.receipt_);
    encode_tree_labels(w, idx.tree_);
    encode_nontree_labels(w, idx.nontree_);
    w.vec(idx.fragile_order_);
    encode_endpoint_map(w, idx.by_endpoints_);
  }

  static std::shared_ptr<SensitivityIndex> decode_index(ByteReader& r) {
    auto idx = std::shared_ptr<SensitivityIndex>(new SensitivityIndex());
    idx->root_ = r.i64();
    idx->violations_ = static_cast<std::size_t>(r.u64());
    idx->fingerprint_ = r.u64();
    if (r.u32() != sizeof(CostReceipt)) return nullptr;  // layout changed
    idx->receipt_ = r.pod<CostReceipt>();
    idx->tree_ = decode_tree_labels(r);
    idx->nontree_ = decode_nontree_labels(r);
    idx->fragile_order_ = r.vec<Vertex>();
    decode_endpoint_map(r, idx->by_endpoints_);
    if (!r.ok() || !tree_labels_consistent(idx->tree_) ||
        !nontree_labels_consistent(idx->nontree_))
      return nullptr;
    // The topology view is derived state (parent column + root); rebuild it
    // rather than serializing a second copy of the structure.  Validate
    // first: a CRC-valid but malformed parent column must fail the load,
    // not throw out of it.
    graph::Instance canon = instance_from_index(*idx);
    if (!canon.tree.well_formed()) return nullptr;
    idx->topo_ = verify::TreeTopology(canon.tree);
    return idx;
  }

  static void encode_shard(ByteWriter& w, const IndexShard& s) {
    w.i64(s.lo);
    w.i64(s.hi);
    encode_tree_labels(w, s.tree);
    w.vec(s.nontree_ids);
    encode_nontree_labels(w, s.nontree);
    encode_endpoint_map(w, s.by_endpoints);
    w.vec(s.fragile_order);
    w.u64(s.violations);
    w.u64(s.generation);
    w.u32(sizeof(ShardCost));
    w.pod(s.cost);
  }

  static bool decode_shard(ByteReader& r, IndexShard& s) {
    s.lo = r.i64();
    s.hi = r.i64();
    s.tree = decode_tree_labels(r);
    s.nontree_ids = r.vec<std::int64_t>();
    s.nontree = decode_nontree_labels(r);
    decode_endpoint_map(r, s.by_endpoints);
    s.fragile_order = r.vec<Vertex>();
    s.violations = static_cast<std::size_t>(r.u64());
    s.generation = r.u64();
    if (r.u32() != sizeof(ShardCost)) return false;
    s.cost = r.pod<ShardCost>();
    return r.ok() && tree_labels_consistent(s.tree) &&
           nontree_labels_consistent(s.nontree) &&
           s.nontree_ids.size() == s.nontree.size();
  }

  static void encode_sharded(ByteWriter& w,
                             const ShardedSensitivityIndex& idx) {
    w.u64(idx.n_);
    w.u64(idx.num_nontree_);
    w.u64(idx.stride_);
    w.u64(idx.violations_);
    w.i64(idx.root_);
    w.u64(idx.fingerprint_);
    w.u64(idx.generation_);
    w.u32(sizeof(CostReceipt));
    w.pod(idx.receipt_);
    w.u64(idx.shards_.size());
    for (const IndexShard& s : idx.shards_) encode_shard(w, s);
  }

  static std::shared_ptr<ShardedSensitivityIndex> decode_sharded(
      ByteReader& r) {
    auto idx = std::shared_ptr<ShardedSensitivityIndex>(
        new ShardedSensitivityIndex());
    idx->n_ = static_cast<std::size_t>(r.u64());
    idx->num_nontree_ = static_cast<std::size_t>(r.u64());
    idx->stride_ = static_cast<std::size_t>(r.u64());
    idx->violations_ = static_cast<std::size_t>(r.u64());
    idx->root_ = r.i64();
    idx->fingerprint_ = r.u64();
    idx->generation_ = r.u64();
    if (r.u32() != sizeof(CostReceipt)) return nullptr;
    idx->receipt_ = r.pod<CostReceipt>();
    const std::uint64_t num_shards = r.u64();
    // Anti-allocation bound only (each shard encodes far more than a byte);
    // garbage counts die in decode_shard.
    if (!r.ok() || num_shards == 0 || num_shards > r.remaining())
      return nullptr;
    idx->shards_.resize(static_cast<std::size_t>(num_shards));
    for (IndexShard& s : idx->shards_)
      if (!decode_shard(r, s)) return nullptr;
    // Derived from the per-shard parent columns; fails on malformed ones.
    if (!idx->rebuild_topology()) return nullptr;
    return idx;
  }

  /// The canonical instance is exactly the label columns: the tree columns
  /// carry parent/weight verbatim (root slot included), the non-tree columns
  /// carry u/v/w by orig_id.
  static graph::Instance instance_from_index(const SensitivityIndex& idx) {
    graph::Instance inst;
    inst.tree.n = idx.n();
    inst.tree.root = idx.root_;
    inst.tree.parent = idx.tree_.parent;
    inst.tree.weight = idx.tree_.w;
    inst.nontree.resize(idx.nontree_.size());
    for (std::size_t i = 0; i < inst.nontree.size(); ++i)
      inst.nontree[i] =
          graph::WEdge{idx.nontree_.u[i], idx.nontree_.v[i], idx.nontree_.w[i]};
    return inst;
  }
};

std::string snapshot_path(const std::string& dir, std::uint64_t generation) {
  char name[48];
  std::snprintf(name, sizeof name, "%s%020llu%s", kPrefix,
                static_cast<unsigned long long>(generation), kSuffix);
  return dir + "/" + name;
}

std::vector<std::string> list_snapshot_files(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (const auto gen = snapshot_generation_of(name))
      found.emplace_back(*gen, entry.path().string());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [gen, path] : found) out.push_back(std::move(path));
  return out;
}

std::optional<std::uint64_t> newest_snapshot_generation(
    const std::string& dir) {
  std::optional<std::uint64_t> best;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const auto gen = snapshot_generation_of(entry.path().filename().string());
    if (gen && (!best || *gen > *best)) best = gen;
  }
  return best;
}

void write_snapshot(const std::string& dir, std::uint64_t generation,
                    const SensitivityIndex& index,
                    const ShardedSensitivityIndex* shards) {
  TraceScope span("snapshot-write", service_metrics().snapshot_write);
  ByteWriter payload;
  payload.u8(shards ? kKindSharded : kKindMonolith);
  payload.u64(generation);
  SnapshotCodec::encode_index(payload, index);
  if (shards) SnapshotCodec::encode_sharded(payload, *shards);

  ByteWriter file;
  file.bytes(kMagic, sizeof kMagic);
  file.u32(kVersion);
  file.u32(0);  // reserved
  file.u64(payload.size());
  file.bytes(payload.data().data(), payload.size());
  file.u32(crc32(payload.data().data(), payload.size()));

  const std::string final_path = snapshot_path(dir, generation);
  const std::string tmp_path = final_path + ".tmp";
  struct FdGuard {
    int fd;
    ~FdGuard() {
      if (fd >= 0) ::close(fd);
    }
  } guard{::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644)};
  MPCMST_CHECK(guard.fd >= 0, "snapshot: cannot create " << tmp_path);
  const unsigned char* p = file.data().data();
  const std::size_t n = file.size();
  const std::size_t half = n / 2;
  write_all_fd(guard.fd, p, half, tmp_path);
  persist_crash_point("snapshot-mid-write");
  write_all_fd(guard.fd, p + half, n - half, tmp_path);
  MPCMST_CHECK(::fsync(guard.fd) == 0,
               "snapshot: fsync failed on " << tmp_path);
  MPCMST_CHECK(::rename(tmp_path.c_str(), final_path.c_str()) == 0,
               "snapshot: rename to " << final_path << " failed");
  fsync_dir(dir);
}

void encode_index_shard(ByteWriter& w, const IndexShard& s) {
  SnapshotCodec::encode_shard(w, s);
}

bool decode_index_shard(ByteReader& r, IndexShard& s) {
  return SnapshotCodec::decode_shard(r, s);
}

std::optional<TierImage> load_snapshot_file(const std::string& path) {
  ScopedLatency load_lat(*service_metrics().snapshot_load);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<unsigned char> bytes{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
  return parse_snapshot_bytes(bytes.data(), bytes.size());
}

std::optional<TierImage> parse_snapshot_bytes(const unsigned char* data,
                                              std::size_t size) {
  ByteReader header(data, size);
  char magic[8];
  header.bytes(magic, sizeof magic);
  if (!header.ok() || std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    return std::nullopt;
  if (header.u32() != kVersion) return std::nullopt;
  header.u32();  // reserved
  const std::uint64_t payload_len = header.u64();
  // Subtract, never add: a huge forged payload_len must not wrap around.
  if (!header.ok() || header.remaining() < 4 ||
      payload_len != header.remaining() - 4)
    return std::nullopt;
  const unsigned char* payload = data + (size - payload_len - 4);
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, payload + payload_len, 4);
  if (stored_crc != crc32(payload, static_cast<std::size_t>(payload_len)))
    return std::nullopt;

  ByteReader r(payload, static_cast<std::size_t>(payload_len));
  const std::uint8_t kind = r.u8();
  TierImage image;
  image.generation = r.u64();
  auto index = SnapshotCodec::decode_index(r);
  if (!index) return std::nullopt;
  if (kind == kKindSharded) {
    auto shards = SnapshotCodec::decode_sharded(r);
    if (!shards || shards->fingerprint() != index->fingerprint() ||
        shards->generation() != image.generation)
      return std::nullopt;
    image.shards = std::move(shards);
  } else if (kind != kKindMonolith) {
    return std::nullopt;
  }
  if (r.remaining() != 0) return std::nullopt;

  // Reconstruct the canonical instance and cross-check the fingerprint: a
  // snapshot that cannot reproduce its own instance is never served.
  image.instance = SnapshotCodec::instance_from_index(*index);
  if (SensitivityIndex::fingerprint_of(image.instance) != index->fingerprint())
    return std::nullopt;
  image.index = std::move(index);
  return image;
}

std::optional<TierImage> load_newest_snapshot(const std::string& dir) {
  for (const std::string& path : list_snapshot_files(dir))
    if (auto image = load_snapshot_file(path)) return image;
  return std::nullopt;
}

std::shared_ptr<Persistence> Persistence::create_fresh(PersistenceConfig cfg) {
  MPCMST_CHECK(!cfg.dir.empty(), "persistence: empty directory");
  std::error_code ec;
  fs::create_directories(cfg.dir, ec);
  MPCMST_CHECK(!ec, "persistence: cannot create " << cfg.dir);
  // A fresh tier supersedes whatever tier lived here before: its snapshots,
  // half-written temporaries and journal describe different label state.
  for (const auto& entry : fs::directory_iterator(cfg.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (snapshot_generation_of(name) || name.ends_with(".tmp"))
      fs::remove(entry.path(), ec);
  }
  fs::remove(journal_path(cfg.dir), ec);
  auto p = std::shared_ptr<Persistence>(new Persistence(std::move(cfg)));
  p->journal_ = Journal::open(journal_path(p->cfg_.dir), p->cfg_.sync_mode);
  return p;
}

std::shared_ptr<Persistence> Persistence::resume(PersistenceConfig cfg,
                                                 std::uint64_t tail_records) {
  auto p = std::shared_ptr<Persistence>(new Persistence(std::move(cfg)));
  p->journal_ = Journal::open(journal_path(p->cfg_.dir), p->cfg_.sync_mode);
  p->since_checkpoint_ = tail_records;
  return p;
}

void Persistence::commit_batch(const std::vector<JournalRecord>& recs) {
  journal_.append_batch(recs);
  since_checkpoint_ += recs.size();
}

void Persistence::checkpoint(std::uint64_t generation,
                             const SensitivityIndex& index) {
  service_metrics().checkpoints->inc();
  TraceScope span("checkpoint");
  write_snapshot(cfg_.dir, generation, index, nullptr);
  // Order matters: the snapshot is durable before the journal records it
  // subsumes are dropped — a crash between the two replays a no-op tail.
  journal_.reset();
  since_checkpoint_ = 0;
  const auto files = list_snapshot_files(cfg_.dir);
  std::error_code ec;
  for (std::size_t i = 2; i < files.size(); ++i) fs::remove(files[i], ec);
  // Any .tmp is a crashed checkpoint's ruin — committed files were renamed.
  for (const auto& entry : fs::directory_iterator(cfg_.dir, ec))
    if (entry.path().filename().string().ends_with(".tmp"))
      fs::remove(entry.path(), ec);
}

}  // namespace mpcmst::service
