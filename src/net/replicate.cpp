#include "net/replicate.hpp"

#include <poll.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <utility>

#include "common/check.hpp"
#include "service/snapshot.hpp"

namespace mpcmst::service::net {

namespace {

/// Readability poll so a blocking subscription stream can still notice the
/// stop flag without consuming partial frames.  1: readable, 0: timeout,
/// -1: the socket is dead.
int wait_readable(const Socket& s, int timeout_ms) {
  pollfd p{};
  p.fd = s.fd();
  p.events = POLLIN;
  const int r = ::poll(&p, 1, timeout_ms);
  if (r < 0) return errno == EINTR ? 0 : -1;
  if (r == 0) return 0;
  if (p.revents & (POLLERR | POLLNVAL)) return -1;
  return 1;
}

std::vector<unsigned char> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size <= 0) return {};
  std::vector<unsigned char> bytes(static_cast<std::size_t>(size));
  in.seekg(0, std::ios::beg);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return in ? bytes : std::vector<unsigned char>{};
}

}  // namespace

// --- ReplicationHub -------------------------------------------------------

ReplicationHub::ReplicationHub(std::string persist_dir)
    : dir_(std::move(persist_dir)) {}

ReplicationHub::~ReplicationHub() { close_all(); }

std::size_t ReplicationHub::subscriber_count() const {
  std::lock_guard lock(mu_);
  return subs_.size();
}

void ReplicationHub::close_all() {
  std::lock_guard lock(mu_);
  subs_.clear();
}

void ReplicationHub::publish(const std::vector<JournalRecord>& recs) {
  if (recs.empty()) return;
  ByteWriter body;
  body.u64(recs.size());
  for (const JournalRecord& rec : recs) encode_journal_record(body, rec);
  std::lock_guard lock(mu_);
  for (auto it = subs_.begin(); it != subs_.end();) {
    try {
      send_frame(*it, MsgType::kJournal, body);
      net_counter("journal_records_shipped").inc(recs.size());
      ++it;
    } catch (const ServiceError&) {
      net_counter("replica_drops").inc();
      it = subs_.erase(it);
    }
  }
}

void ReplicationHub::subscribe(Socket s, std::uint64_t last_gen,
                               bool have_state) {
  // Serialized against publish(), so the catch-up read of the journal file
  // plus the registration happen with no live frame in between; a batch
  // committed while we waited for the lock is both in the file and in a
  // pending publish — the replica deduplicates on generation.
  std::lock_guard lock(mu_);
  try {
    const Journal::Scan scan = Journal::scan(journal_path(dir_));
    // Can the journal tail alone bridge from the replica's generation?
    bool bridge = have_state;
    if (bridge) {
      if (scan.records.empty()) {
        const auto snap_gen = newest_snapshot_generation(dir_);
        bridge = snap_gen.has_value() && last_gen >= *snap_gen;
      } else {
        bridge = scan.records.front().generation <= last_gen + 1 ||
                 last_gen >= scan.records.back().generation;
      }
    }
    std::uint64_t base = last_gen;
    if (!bridge) {
      // Ship the newest snapshot file that validates, verbatim.
      std::vector<unsigned char> bytes;
      std::uint64_t snap_gen = 0;
      for (const std::string& path : list_snapshot_files(dir_)) {
        std::vector<unsigned char> b = read_file_bytes(path);
        if (b.empty()) continue;
        const auto img = parse_snapshot_bytes(b.data(), b.size());
        if (!img) continue;
        bytes = std::move(b);
        snap_gen = img->generation;
        break;
      }
      if (bytes.empty())
        throw ServiceError(ServiceStatus::kUnavailable,
                           "no valid snapshot in " + dir_ +
                               " to bootstrap a replica from");
      ByteWriter snap;
      snap.bytes(bytes.data(), bytes.size());
      send_frame(s, MsgType::kSnapshot, snap);
      net_counter("snapshots_shipped").inc();
      base = snap_gen;
    }
    std::vector<JournalRecord> tail;
    for (const JournalRecord& rec : scan.records)
      if (rec.generation > base) tail.push_back(rec);
    if (!tail.empty()) {
      ByteWriter body;
      body.u64(tail.size());
      for (const JournalRecord& rec : tail) encode_journal_record(body, rec);
      send_frame(s, MsgType::kJournal, body);
      net_counter("journal_records_shipped").inc(tail.size());
    }
    subs_.push_back(std::move(s));
  } catch (const ServiceError&) {
    net_counter("replica_drops").inc();
    // Socket destructs closed; the replica re-dials.
  }
}

// --- ReplicaNode ----------------------------------------------------------

ReplicaNode::ReplicaNode(std::string leader_endpoint, NetOptions opts,
                         ServiceOptions svc_opts)
    : leader_(std::move(leader_endpoint)), opts_(opts), svc_opts_(svc_opts) {}

ReplicaNode::~ReplicaNode() { stop(); }

void ReplicaNode::start() {
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void ReplicaNode::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

std::shared_ptr<QueryService> ReplicaNode::service() const {
  std::lock_guard lock(mu_);
  return svc_;
}

void ReplicaNode::run() {
  while (!stop_.load(std::memory_order_acquire)) {
    try {
      Socket s = dial(leader_, opts_);
      ByteWriter body;
      body.u64(applied_.load(std::memory_order_acquire));
      body.u8(have_state_.load(std::memory_order_acquire) ? 1 : 0);
      send_frame(s, MsgType::kSubscribe, body);
      const Frame ack = recv_frame(s);
      if (ack.type == MsgType::kError) {
        ServiceStatus status = ServiceStatus::kWireError;
        std::string msg;
        ByteReader r(ack.body.data(), ack.body.size());
        if (!decode_error(r, status, msg)) msg = "malformed error reply";
        throw ServiceError(status, leader_ + ": " + msg);
      }
      if (ack.type != MsgType::kOk)
        throw ServiceError(ServiceStatus::kWireError,
                           leader_ + ": unexpected subscribe ack");
      connected_.store(true, std::memory_order_release);
      // The stream waits indefinitely between frames; readability is polled
      // so stop() stays responsive and no partial frame is ever consumed.
      s.set_io_timeout(0);
      bool resubscribe = false;
      while (!stop_.load(std::memory_order_acquire) && !resubscribe) {
        const int r = wait_readable(s, 100);
        if (r < 0)
          throw ServiceError(ServiceStatus::kWireError,
                             leader_ + ": subscription stream closed");
        if (r == 0) continue;
        const Frame f = recv_frame(s);
        if (f.type == MsgType::kSnapshot) {
          install_snapshot(f);
        } else if (f.type == MsgType::kJournal) {
          if (!apply_journal(f)) resubscribe = true;  // gap: re-request
        } else {
          throw ServiceError(ServiceStatus::kWireError,
                             leader_ + ": unexpected " +
                                 std::string(to_string(f.type)) +
                                 " on the subscription stream");
        }
      }
    } catch (const ServiceError&) {
      // Transport fault (leader death included): keep serving the last
      // contiguous generation, re-dial with it after a backoff.
    } catch (const ModelError&) {
      // Replay diverged from what the journal promised — this state cannot
      // be trusted; drop it and resync from a fresh snapshot.
      std::lock_guard lock(mu_);
      svc_ = nullptr;
      backend_ = nullptr;
      have_state_.store(false, std::memory_order_release);
      applied_.store(0, std::memory_order_release);
    }
    connected_.store(false, std::memory_order_release);
    if (stop_.load(std::memory_order_acquire)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        opts_.reconnect_backoff_ms > 0 ? opts_.reconnect_backoff_ms : 50));
  }
  connected_.store(false, std::memory_order_release);
}

void ReplicaNode::install_snapshot(const Frame& f) {
  // body = the snapshot file, verbatim; the snapshot's own CRC + fingerprint
  // validation is the trust boundary.
  auto img = parse_snapshot_bytes(f.body.data(), f.body.size());
  if (!img)
    throw ServiceError(ServiceStatus::kWireError,
                       leader_ + ": shipped snapshot failed validation");
  const std::uint64_t generation = img->generation;
  std::shared_ptr<UpdatableBackend> b = make_live_backend(std::move(*img));
  auto svc = std::make_shared<QueryService>(b, svc_opts_);
  {
    std::lock_guard lock(mu_);
    backend_ = std::move(b);
    svc_ = std::move(svc);
  }
  applied_.store(generation, std::memory_order_release);
  have_state_.store(true, std::memory_order_release);
  net_counter("snapshots_installed").inc();
}

bool ReplicaNode::apply_journal(const Frame& f) {
  ByteReader r(f.body.data(), f.body.size());
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    JournalRecord rec;
    if (!decode_journal_record(r, rec) || !r.ok())
      throw ServiceError(ServiceStatus::kWireError,
                         leader_ + ": truncated journal frame");
    if (!have_state_.load(std::memory_order_acquire)) return false;
    const std::uint64_t applied = applied_.load(std::memory_order_acquire);
    if (rec.generation <= applied) continue;  // duplicate of the catch-up
    if (rec.generation != applied + 1) {
      net_counter("journal_gaps").inc();
      return false;  // resubscribe from applied_generation()
    }
    // Contiguity held here; the fingerprint chain and the promised
    // classification/generation are enforced inside (ModelError on drift).
    replay_journal_record(*backend_, rec);
    applied_.store(rec.generation, std::memory_order_release);
  }
  return true;
}

}  // namespace mpcmst::service::net
