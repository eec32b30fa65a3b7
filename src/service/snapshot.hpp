// Versioned on-disk snapshots of the serving tier, plus the Persistence
// coordinator that pairs them with the update journal (journal.hpp).
//
// A snapshot serializes the index state *directly* — the SoA TreeLabels /
// NonTreeLabels columns, fragility orders, replacement edges, endpoint maps,
// cost receipts and the fingerprint, and optionally a shard set (live tiers
// write none; images from older sharded tiers carry every IndexShard's
// slice, which loading validates) — so loading is deserialization, never a
// rebuild: no oracle runs, no label computation, no re-splitting.  The
// canonical instance is not stored at all; it is reconstructed from the
// label columns (the parent/w tree columns and the u/v/w non-tree columns
// are byte-for-byte the instance), and the reconstruction is cross-checked
// against the stored fingerprint before anything is served.
//
// Crash consistency: a snapshot is written to a .tmp file, fsync'd, then
// rename(2)'d into place (and the directory fsync'd), so `snapshot-<gen>.bin`
// files are always either absent or complete; a whole-payload CRC32 rejects
// any file that lies about that.  load_newest_snapshot() walks generations
// downward until a file validates, so a crash mid-checkpoint simply falls
// back to the previous checkpoint plus a longer journal tail.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "graph/instance.hpp"
#include "service/index.hpp"
#include "service/journal.hpp"
#include "service/shard.hpp"

namespace mpcmst::service {

/// Path of the generation-`generation` snapshot inside `dir` (zero-padded so
/// lexical and numeric order agree).
std::string snapshot_path(const std::string& dir, std::uint64_t generation);

/// All committed snapshot files in `dir`, newest generation first.
std::vector<std::string> list_snapshot_files(const std::string& dir);

/// Highest generation named by any snapshot file in `dir` (from filenames
/// only — the file may not validate).  Recovery uses it as a floor: landing
/// below it means an acknowledged generation existed that neither the
/// surviving snapshots nor the journal can reproduce, which must fail
/// loudly rather than silently serve stale answers.
std::optional<std::uint64_t> newest_snapshot_generation(const std::string& dir);

/// Serialize the tier state at `generation`: the monolithic index always,
/// plus the shard set when `shards` is non-null (the format keeps the
/// sharded kind, so older sharded images stay loadable).  Atomic (tmp +
/// rename).
void write_snapshot(const std::string& dir, std::uint64_t generation,
                    const SensitivityIndex& index,
                    const ShardedSensitivityIndex* shards);

/// A deserialized tier: everything recovery needs to reconstruct a live
/// backend without rebuilding any label.
struct TierImage {
  std::uint64_t generation = 0;
  graph::Instance instance;  // reconstructed from the label columns
  std::shared_ptr<const SensitivityIndex> index;
  // Validated against `index` on load; null: monolithic image.  Live tiers
  // serve the index alone (make_live_backend).
  std::shared_ptr<const ShardedSensitivityIndex> shards;

  bool sharded() const { return shards != nullptr; }
};

/// Parse and validate one snapshot file (nullopt: unreadable, foreign,
/// version-mismatched, CRC-failed, or fingerprint-inconsistent).
std::optional<TierImage> load_snapshot_file(const std::string& path);

/// Validate a whole snapshot file held in memory — the same checks as
/// load_snapshot_file, minus the read.  The replication tier (net/) ships
/// the newest snapshot file verbatim to a joining replica, which parses the
/// received bytes through this before trusting any of them.
std::optional<TierImage> parse_snapshot_bytes(const unsigned char* data,
                                              std::size_t size);

// Shard-slice codec reuse for the network tier: a kBootstrap payload carries
// one IndexShard through exactly the codec the snapshot file uses, so a
// shard shipped over a socket deserializes byte-identical to one loaded from
// disk.  decode returns false on any structural inconsistency (the caller
// owns CRC framing).
void encode_index_shard(ByteWriter& w, const IndexShard& s);
bool decode_index_shard(ByteReader& r, IndexShard& s);

/// The newest generation in `dir` that validates end-to-end.
std::optional<TierImage> load_newest_snapshot(const std::string& dir);

/// Journal + snapshot policy coordinator, owned (via shared_ptr) by a live
/// backend and driven from inside its writer lock: commit_batch() appends
/// the journal records of an applied batch, checkpoint() writes a snapshot,
/// truncates the journal and prunes superseded snapshot files.  Not
/// internally synchronized — the backend's update lock is the serializer.
class Persistence {
 public:
  /// Start a fresh tier in cfg.dir: create the directory, discard any
  /// previous tier's snapshots/journal (they describe a superseded tier),
  /// and open the journal.  The caller must checkpoint() once its initial
  /// state exists, so the directory is recoverable from generation 0 on.
  static std::shared_ptr<Persistence> create_fresh(PersistenceConfig cfg);

  /// Reopen cfg.dir after recovery.  `tail_records` is the number of journal
  /// records already on disk beyond the recovered snapshot — they count
  /// toward the snapshot_every_n compaction budget.
  static std::shared_ptr<Persistence> resume(PersistenceConfig cfg,
                                             std::uint64_t tail_records);

  /// Group commit: all records of one ingest batch in one journal write and
  /// (per cfg.sync_mode) one fsync (Journal::append_batch).
  void commit_batch(const std::vector<JournalRecord>& recs);

  /// Has the journal grown past cfg.snapshot_every_n since the last
  /// checkpoint?  (Always false when snapshot_every_n == 0.)
  bool checkpoint_due() const {
    return cfg_.snapshot_every_n > 0 &&
           since_checkpoint_ >= cfg_.snapshot_every_n;
  }

  /// Snapshot the current state (monolithic), truncate the journal, prune
  /// old snapshot files (the newest two are kept: the new one plus one
  /// fallback).
  void checkpoint(std::uint64_t generation, const SensitivityIndex& index);

  const PersistenceConfig& config() const { return cfg_; }
  std::uint64_t records_since_checkpoint() const { return since_checkpoint_; }

 private:
  explicit Persistence(PersistenceConfig cfg) : cfg_(std::move(cfg)) {}

  PersistenceConfig cfg_;
  Journal journal_;
  std::uint64_t since_checkpoint_ = 0;
};

}  // namespace mpcmst::service
