// Crash-consistent update journal: the write-ahead half of the persistence
// layer (snapshot.hpp is the checkpoint half).
//
// Every confirmed change a live backend applies is one fixed-shape record —
// the canonical apply_update_to_instance inputs (u, v, new_w) plus the
// pre/post instance fingerprints, the generation the change produced, and
// its classification.  Records are CRC-framed ([len | payload | crc32]) and,
// in SyncMode::kCommit, fsync'd before the update is acknowledged, so an
// acknowledged change survives any process death.  A restarted tier replays
// the journal tail on top of the newest snapshot through the ordinary update
// path and lands byte-identical to a tier that never crashed
// (QueryService::open with recover_existing, gated by the CI crash-injection
// job).
//
// Torn tails are expected, not errors: a crash mid-append leaves a partial
// frame (or a frame with a bad CRC) at the end of the file.  scan() stops at
// the first invalid frame; recover() additionally truncates the file back to
// the last intact record so the tier can append again.  Everything after a
// bad frame is discarded — with commit-synced appends the only bytes that
// can be bad are the unacknowledged tail.
//
// On-disk format (version 2):
//
//   header   magic "MPCJRN01" (8) | version u32 | crc32(magic+version)
//   frame    len u32 | payload | crc32(payload)
//   payload  generation u64 | old_fingerprint u64 | new_fingerprint u64
//            | u i64 | v i64 | new_w i64 | cls u8 | op u8      (50 bytes)
//
// Version 1 lacked the trailing `op` byte (49-byte payloads, reweights
// only).  scan()/recover() parse both versions; Journal::open() upgrades a
// v1 file in place (rewrite-to-temp + rename, records re-encoded with
// op = kReweight) so the append side only ever writes v2 frames.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mpcmst::service {

/// When an appended record becomes durable.
enum class SyncMode : std::uint8_t {
  kCommit,  // fsync before the update is acknowledged (crash-durable)
  kNever,   // leave flushing to the OS: an acknowledged update may be lost
            // on a crash, but recovery still lands on a consistent prefix
};

/// How a live serving tier persists itself (ServiceConfig::persist).
struct PersistenceConfig {
  std::string dir;  // journal + snapshots live here (created if missing)
  SyncMode sync_mode = SyncMode::kCommit;
  /// Journal records between snapshot compactions (a checkpoint writes a
  /// fresh snapshot, truncates the journal, and prunes old snapshot files);
  /// 0 = only explicit checkpoint() calls compact.
  std::size_t snapshot_every_n = 1024;
};

/// One committed change, exactly as the update path consumed it.  `cls` and
/// `op` mirror service::UpdateClass / service::UpdateOp (stored as bytes so
/// the journal layer does not depend on update.hpp).
struct JournalRecord {
  std::uint64_t generation = 0;       // epoch this change produced
  std::uint64_t old_fingerprint = 0;  // instance fingerprint before
  std::uint64_t new_fingerprint = 0;  // ... and after
  std::int64_t u = 0;                 // the submitted endpoints and price:
  std::int64_t v = 0;                 // replay re-resolves them against the
  std::int64_t new_w = 0;             // same pre-state, so it cannot drift
  std::uint8_t cls = 0;  // UpdateClass, for dumps and replay checks
  std::uint8_t op = 0;   // UpdateOp: reweight / add_edge / remove_edge

  friend bool operator==(const JournalRecord&, const JournalRecord&) = default;
};

/// Crash-injection hook (test-only): invoked at named points of the commit
/// path — "journal-mid-record" between the two halves of a frame write,
/// "journal-post-commit" after the record is durable, "snapshot-mid-write"
/// halfway through a snapshot file.  The CI recovery harness installs a hook
/// that SIGKILLs the process at a chosen invocation; production never sets
/// it (an unset hook costs one relaxed atomic load).
void set_persist_crash_hook(void (*hook)(const char* phase));
void persist_crash_point(const char* phase);

/// The journal file inside a persistence directory.
std::string journal_path(const std::string& dir);

/// Write exactly `n` bytes to `fd`, retrying short writes and EINTR; throws
/// ModelError naming `path` on any real failure.  Shared by the journal and
/// snapshot writers so the two commit paths cannot drift.
void write_all_fd(int fd, const unsigned char* p, std::size_t n,
                  const std::string& path);

/// Append-side handle (move-only; owns the fd).  Appends go through
/// O_APPEND, so a concurrent scan of the same file always sees a prefix.
class Journal {
 public:
  Journal() = default;
  ~Journal();
  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open for append, creating the file (with its header) if missing or
  /// empty; an existing file must carry a valid header.  Torn tails are NOT
  /// truncated here — recover() the path first when resuming after a crash.
  static Journal open(const std::string& path, SyncMode mode);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Frame, append and (in kCommit mode) fsync one record.
  void append(const JournalRecord& rec);

  /// Group commit: frame all records into one contiguous write and (in
  /// kCommit mode) one fsync.  Either the whole batch becomes durable or a
  /// torn tail cuts it to a prefix — exactly the per-record guarantee, paid
  /// once.  The "journal-mid-record" crash point fires inside the combined
  /// write, same as for append().
  void append_batch(const std::vector<JournalRecord>& recs);

  /// Truncate back to the bare header (checkpoint compaction: the snapshot
  /// now owns everything the dropped records carried).
  void reset();

  /// What a read of the file found.
  struct Scan {
    std::vector<JournalRecord> records;  // intact prefix, in append order
    std::uint64_t valid_bytes = 0;       // header + intact records
    std::uint32_t version = 0;  // on-disk format version (0 when missing)
    bool torn = false;     // trailing bytes after the intact prefix
    bool missing = false;  // no file, or an unreadable/foreign header
  };

  /// Parse the intact record prefix (never modifies the file).
  static Scan scan(const std::string& path);

  /// scan(), then truncate any torn tail in place (fsync'd).
  static Scan recover(const std::string& path);

 private:
  /// Shared tail of append()/append_batch(): hook-aware two-half write of
  /// the framed bytes, then the kCommit fsync and the post-commit point.
  void commit_bytes(const unsigned char* p, std::size_t n);

  int fd_ = -1;
  std::string path_;
  SyncMode mode_ = SyncMode::kCommit;
};

}  // namespace mpcmst::service
