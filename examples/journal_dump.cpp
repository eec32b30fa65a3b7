// Debugging lens for a persisted serving tier: print every record of its
// update journal (generation, fingerprint chain, update kind) and the
// snapshot files next to it, flagging torn tails and invalid snapshots.
//
//   $ ./journal_dump <persistence-dir | journal-file> [--verify]
//
// --verify additionally chains the records (each old_fingerprint must equal the
// previous new_fingerprint) and, when a directory was given, checks the tail
// against the newest valid snapshot — a dry run of what recovery
// (QueryService::open with recover_existing) would replay.  Each record's check
// is clocked through a registry histogram and the distribution is printed at
// the end (the same Histogram/percentile API the service uses).  Read-only:
// nothing is truncated.
#include <filesystem>
#include <iostream>
#include <string>

#include "common/metrics.hpp"
#include "common/table.hpp"
#include "service/journal.hpp"
#include "service/snapshot.hpp"
#include "service/telemetry.hpp"
#include "service/update.hpp"

using namespace mpcmst;

namespace {

const char* class_name(std::uint8_t cls) {
  switch (static_cast<service::UpdateClass>(cls)) {
    case service::UpdateClass::kNoChange:
      return "no-change";
    case service::UpdateClass::kTreeReweight:
      return "tree-reweight";
    case service::UpdateClass::kTreeSwap:
      return "tree-swap";
    case service::UpdateClass::kNonTreeReweight:
      return "nontree-reweight";
    case service::UpdateClass::kNonTreeSwap:
      return "nontree-swap";
    case service::UpdateClass::kNonTreeInsert:
      return "nontree-insert";
    case service::UpdateClass::kInsertSwap:
      return "insert-swap";
    case service::UpdateClass::kVertexAttach:
      return "vertex-attach";
    case service::UpdateClass::kNonTreeDelete:
      return "nontree-delete";
    case service::UpdateClass::kTreeDeletePromote:
      return "tree-delete-promote";
  }
  return "?";
}

const char* op_name(std::uint8_t op) {
  switch (static_cast<service::UpdateOp>(op)) {
    case service::UpdateOp::kReweight:
      return "reweight";
    case service::UpdateOp::kAddEdge:
      return "add";
    case service::UpdateOp::kRemoveEdge:
      return "remove";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  std::string target;
  bool verify = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verify")
      verify = true;
    else if (target.empty())
      target = arg;
    else
      target.clear();  // too many operands: fall through to usage
  }
  if (target.empty()) {
    std::cerr << "usage: journal_dump <persistence-dir | journal-file> "
                 "[--verify]\n";
    return 2;
  }

  const bool is_dir = std::filesystem::is_directory(target);
  const std::string journal =
      is_dir ? service::journal_path(target) : target;

  std::uint64_t snapshot_generation = 0;
  if (is_dir) {
    const auto files = service::list_snapshot_files(target);
    std::cout << files.size() << " snapshot file"
              << (files.size() == 1 ? "" : "s") << "\n";
    for (const auto& path : files) {
      const auto image = service::load_snapshot_file(path);
      std::cout << "  " << path << ": ";
      if (!image) {
        std::cout << "INVALID (torn, foreign, or version-mismatched)\n";
        continue;
      }
      std::cout << "generation " << image->generation << ", n="
                << image->index->n() << ", m="
                << (image->index->n() - 1 + image->index->num_nontree())
                << ", " << (image->sharded()
                                ? std::to_string(image->shards->num_shards()) +
                                      " shards"
                                : std::string("monolith"))
                << ", fingerprint " << std::hex << image->index->fingerprint()
                << std::dec << "\n";
      if (snapshot_generation < image->generation)
        snapshot_generation = image->generation;
    }
  }

  const auto scan = service::Journal::scan(journal);
  if (scan.missing) {
    std::cerr << journal << ": not a journal (missing or bad header)\n";
    return 1;
  }
  std::cout << scan.records.size() << " record"
            << (scan.records.size() == 1 ? "" : "s") << " in " << journal
            << (scan.torn ? " (TORN TAIL after the last intact record)" : "")
            << "\n";
  std::cout << "  gen         old-fp            new-fp            "
               "op  class             u -> v @ new_w\n";
  bool chained = true;
  std::uint64_t prev_fp = 0;
  bool have_prev = false;
  for (const auto& rec : scan.records) {
    std::cout << "  " << rec.generation << "  " << std::hex
              << rec.old_fingerprint << "  " << rec.new_fingerprint << std::dec
              << "  " << op_name(rec.op) << "  " << class_name(rec.cls)
              << "  {" << rec.u << "," << rec.v << "} @ " << rec.new_w << "\n";
    if (have_prev && rec.old_fingerprint != prev_fp) chained = false;
    prev_fp = rec.new_fingerprint;
    have_prev = true;
  }

  if (verify) {
    // Re-check the chain with each record clocked individually: the
    // histogram is the service's own latency machinery, dogfooded outside
    // the service (per-record cost of a dry-run replay scan).
    Histogram& rec_hist = MetricsRegistry::instance().histogram(
        "mpcmst_journal_verify_record_seconds");
    bool rechained = true;
    std::uint64_t fp = 0;
    bool have_fp = false;
    for (const auto& rec : scan.records) {
      ScopedLatency lat(rec_hist);
      if (have_fp && rec.old_fingerprint != fp) rechained = false;
      if (rec.cls >= service::kNumUpdateClasses) rechained = false;
      if (rec.op > static_cast<std::uint8_t>(service::UpdateOp::kRemoveEdge))
        rechained = false;
      fp = rec.new_fingerprint;
      have_fp = true;
    }
    if (!chained || !rechained) {
      std::cerr << "FAIL: records do not chain (old_fingerprint != previous "
                   "new_fingerprint)\n";
      return 1;
    }
    if (is_dir) {
      std::uint64_t tail = 0;
      for (const auto& rec : scan.records)
        if (rec.generation > snapshot_generation) ++tail;
      std::cout << "recover would replay " << tail << " record"
                << (tail == 1 ? "" : "s") << " on top of generation "
                << snapshot_generation << "\n";
    }
    const HistogramSnapshot h = rec_hist.snapshot();
    if (h.count > 0)
      std::cout << "per-record check ns: p50=" << h.percentile(0.50)
                << " p90=" << h.percentile(0.90)
                << " p99=" << h.percentile(0.99) << " max=" << h.max
                << " mean=" << format_double(h.mean()) << " over " << h.count
                << " record" << (h.count == 1 ? "" : "s") << "\n";
    std::cout << "chain OK\n";
  }
  return 0;
}
