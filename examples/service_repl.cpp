// Interactive driver for the sensitivity query service: build the index for
// one instance (the expensive distributed run), then answer what-if questions
// from stdin until EOF.  Scriptable:
//
//   $ echo "top 5
//           price 17 42 25
//           stats" | ./service_repl [n] [--shards N] [--live]
//
// --shards N > 1 partitions the index by vertex range and serves through the
// QueryRouter (answers are byte-identical to the monolithic backend).
// --live serves through the updatable generation layer, enabling `update`;
// a live tier in one process is the monolith, so --live ignores --shards.
// --persist DIR makes the live tier crash-consistent (implies --live): every
// confirmed update is journaled before it is acknowledged and snapshots
// compact the journal; tune with --sync {commit,none} and --every N.
// --recover DIR skips the distributed build entirely and reconstructs the
// tier from DIR's newest snapshot + journal tail (ignores n/--shards/--live
// — the on-disk tier dictates them).
//
// Commands:
//   price <u> <v> <delta>   does the optimum survive the price change?
//   replace <u> <v>         cheapest swap-in for a tree edge
//   top <k>                 k least-headroom tree edges
//   headroom <u> <v>        sensitivity of an edge (Definition 1.2)
//   still_mst <u> <v> <w> [<u> <v> <w> ...]
//                           scenario query: is T still an MST when all the
//                           listed edges take these absolute prices at once?
//                           (reports the violating edges if not; read-only —
//                           the live generation is not mutated)
//   update <u> <v> <price>  absorb a confirmed price change (--live only)
//   add_edge <u> <v> <price>
//                           insert a brand-new edge (--live only); lands as
//                           a non-tree edge, swaps in if it undercuts its
//                           tree path, or attaches a fresh leaf vertex
//   remove_edge <u> <v>     delete an edge (--live only); a tree delete
//                           promotes its precomputed replacement, and a
//                           bridge delete is refused (would disconnect)
//   checkpoint              force a snapshot + journal compaction (--persist)
//   receipt                 cost of the one-time distributed build
//   stats                   served/cache/update totals + latency percentiles
//   metrics [prom|json]     dump the full registry (Prometheus text or JSON)
//   trace [file]            write the wall-clock spans as chrome://tracing
//                           JSON (default trace.json)
//   help, quit
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/metrics.hpp"
#include "common/table.hpp"
#include "graph/generators.hpp"
#include "mpc/config.hpp"
#include "mpc/engine.hpp"
#include "service/service.hpp"

using namespace mpcmst;

namespace {

void print_help() {
  std::cout << "commands: price <u> <v> <delta> | replace <u> <v> | top <k>"
               " | headroom <u> <v> | still_mst <u> <v> <w> [...]"
               " | update <u> <v> <price> | add_edge <u> <v> <price>"
               " | remove_edge <u> <v> | checkpoint"
               " | receipt | stats | metrics [prom|json] | trace [file]"
               " | help | quit\n";
}

/// "p50/p99/max us" column for one latency series (blank when unsampled).
std::string latency_cell(const service::LatencySummary& s) {
  if (s.count == 0) return "-";
  std::ostringstream os;
  os << format_double(static_cast<double>(s.p50_ns) / 1e3) << "/"
     << format_double(static_cast<double>(s.p99_ns) / 1e3) << "/"
     << format_double(static_cast<double>(s.max_ns) / 1e3);
  return os.str();
}

const char* class_name(service::UpdateClass cls) {
  switch (cls) {
    case service::UpdateClass::kNoChange:
      return "no change";
    case service::UpdateClass::kTreeReweight:
      return "tree reweight within headroom";
    case service::UpdateClass::kTreeSwap:
      return "tree edge evicted (replacement swapped in)";
    case service::UpdateClass::kNonTreeReweight:
      return "non-tree reweight";
    case service::UpdateClass::kNonTreeSwap:
      return "non-tree edge swapped into the tree";
    case service::UpdateClass::kNonTreeInsert:
      return "inserted as a non-tree edge";
    case service::UpdateClass::kInsertSwap:
      return "inserted edge undercut its path (tree edge evicted)";
    case service::UpdateClass::kVertexAttach:
      return "fresh vertex attached as a leaf tree edge";
    case service::UpdateClass::kNonTreeDelete:
      return "non-tree edge deleted (slot tombstoned)";
    case service::UpdateClass::kTreeDeletePromote:
      return "tree edge deleted (replacement promoted)";
  }
  return "?";
}

/// Shared receipt rendering for update / add_edge / remove_edge.
void print_receipt(const service::UpdateReceipt& r) {
  std::cout << class_name(r.report.cls) << ": " << r.report.old_w << " -> "
            << r.report.new_w << ", generation " << r.generation;
  if (r.report.swapped_out >= 0)
    std::cout << ", evicted tree edge at child " << r.report.swapped_out
              << ", promoted non-tree slot #" << r.report.swapped_in;
  std::cout << (r.full_relabel
                    ? ", full host relabel"
                    : ", patched " +
                          std::to_string(r.patched_tree_edges +
                                         r.patched_nontree_edges) +
                          " labels in place")
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 2000;
  std::size_t shards = 1;
  bool live = false;
  std::optional<service::PersistenceConfig> persist;
  std::string recover_dir;
  service::SyncMode sync = service::SyncMode::kCommit;
  std::size_t snapshot_every = 1024;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--shards") {
        if (i + 1 >= argc) throw std::invalid_argument("missing operand");
        shards = std::stoul(argv[++i]);
      } else if (arg == "--live") {
        live = true;
      } else if (arg == "--persist") {
        if (i + 1 >= argc) throw std::invalid_argument("missing operand");
        persist.emplace();
        persist->dir = argv[++i];
        live = true;
      } else if (arg == "--recover") {
        if (i + 1 >= argc) throw std::invalid_argument("missing operand");
        recover_dir = argv[++i];
      } else if (arg == "--sync") {
        if (i + 1 >= argc) throw std::invalid_argument("missing operand");
        const std::string mode = argv[++i];
        if (mode == "none")
          sync = service::SyncMode::kNever;
        else if (mode == "commit")
          sync = service::SyncMode::kCommit;
        else
          throw std::invalid_argument("bad sync mode");
      } else if (arg == "--every") {
        if (i + 1 >= argc) throw std::invalid_argument("missing operand");
        snapshot_every = std::stoul(argv[++i]);
      } else {
        n = std::stoul(arg);
      }
    } catch (const std::exception&) {
      std::cerr << "usage: service_repl [n] [--shards N] [--live] "
                   "[--persist DIR [--sync commit|none] [--every N]] "
                   "[--recover DIR]\n";
      return 1;
    }
  }
  if (persist) {
    persist->sync_mode = sync;
    persist->snapshot_every_n = snapshot_every;
  }

  std::unique_ptr<service::QueryService> service;
  std::optional<mpc::Engine> eng;
  if (!recover_dir.empty()) {
    service::PersistenceConfig cfg;
    cfg.dir = recover_dir;
    cfg.sync_mode = sync;
    cfg.snapshot_every_n = snapshot_every;
    service::RecoveredInfo info;
    try {
      service = service::QueryService::open(
          {.persist = cfg, .recover_existing = true, .recovered = &info});
    } catch (const std::exception& e) {
      std::cerr << "recover failed: " << e.what() << "\n";
      return 1;
    }
    std::cout << "recovered generation " << service->backend().generation()
              << " from " << recover_dir << " (snapshot "
              << info.snapshot_generation << " + " << info.replayed_records
              << " replayed record" << (info.replayed_records == 1 ? "" : "s")
              << (info.journal_was_torn ? ", torn tail truncated" : "")
              << ") — no distributed rebuild\n";
    live = true;
  } else {
    auto tree = graph::caterpillar_tree(n, n / 8, 17);
    graph::assign_random_tree_weights(tree, 100, 999, 23);
    const auto inst = graph::make_mst_instance(std::move(tree), 3 * n, 29,
                                               /*slack=*/400);
    eng.emplace(mpc::MpcConfig::scaled(inst.input_words(), 0.5, 64.0));
    service = service::QueryService::open(
        {.engine = &*eng, .instance = &inst, .sharded = shards > 1,
         .num_shards = shards, .live = live, .persist = persist});
  }
  const auto& backend = service->backend();
  const auto& receipt = backend.receipt();
  std::cout << "index ready: n=" << backend.n() << " m="
            << (backend.n() ? backend.n() - 1 : 0) + backend.num_nontree()
            << ", " << receipt.build_rounds << " MPC rounds, "
            << backend.num_shards() << " shard"
            << (backend.num_shards() == 1 ? "" : "s")
            << (live ? ", live (updates enabled)" : "")
            << (persist || !recover_dir.empty() ? ", persistent" : "")
            << ", tree is " << (backend.is_mst() ? "an MST" : "NOT an MST")
            << "\n";
  print_help();

  std::string line;
  while (std::cout << "> " << std::flush, std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    graph::Vertex u, v;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      print_help();
    } else if (cmd == "price") {
      graph::Weight delta;
      if (!(in >> u >> v >> delta)) {
        std::cout << "usage: price <u> <v> <delta>\n";
        continue;
      }
      std::cout << to_string(service->price_change(u, v, delta)) << "\n";
    } else if (cmd == "replace") {
      if (!(in >> u >> v)) {
        std::cout << "usage: replace <u> <v>\n";
        continue;
      }
      const auto a = service->replacement_edge(u, v);
      std::cout << to_string(a) << "\n";
      if (a.status == service::Status::kOk && a.replacement >= 0) {
        if (const auto r = backend.nontree_info(a.replacement))
          std::cout << "  swap in {" << r->u << "," << r->v << "} at " << r->w
                    << "\n";
      }
    } else if (cmd == "top") {
      std::int64_t k;
      if (!(in >> k)) {
        std::cout << "usage: top <k>\n";
        continue;
      }
      const auto a = service->top_k_fragile(k);
      std::cout << "  edge        price  headroom  swap-in\n";
      for (const auto& f : a.fragile) {
        std::cout << "  {" << f.child << "," << f.parent << "}  " << f.w
                  << "  ";
        if (f.sens >= graph::kPosInfW)
          std::cout << "unbounded  none (bridge)\n";
        else
          std::cout << f.sens << "  #" << f.replacement << "\n";
      }
    } else if (cmd == "headroom") {
      if (!(in >> u >> v)) {
        std::cout << "usage: headroom <u> <v>\n";
        continue;
      }
      std::cout << to_string(service->corridor_headroom(u, v)) << "\n";
    } else if (cmd == "still_mst") {
      std::vector<service::PriceChange> changes;
      graph::Weight w;
      while (in >> u >> v >> w)
        changes.push_back(service::PriceChange{u, v, w});
      if (changes.empty()) {
        std::cout << "usage: still_mst <u> <v> <w> [<u> <v> <w> ...]\n";
        continue;
      }
      const auto a = service->still_mst(std::move(changes));
      if (a.status != service::Status::kOk)
        std::cout << to_string(a) << "\n";
      else if (a.still_optimal)
        std::cout << "still an MST under the scenario\n";
      else
        std::cout << to_string(a) << "\n";
    } else if (cmd == "update") {
      graph::Weight price;
      if (!(in >> u >> v >> price)) {
        std::cout << "usage: update <u> <v> <price>\n";
        continue;
      }
      if (!service->updatable()) {
        std::cout << "updates need --live (this service serves an immutable "
                     "snapshot)\n";
        continue;
      }
      if (price <= graph::kNegInfW || price >= graph::kPosInfW) {
        std::cout << "price " << price << " is outside the price band "
                     "(sentinels are not prices)\n";
        continue;
      }
      const auto r = service->apply_update(u, v, price);
      if (r.report.status != service::Status::kOk) {
        std::cout << "unknown edge {" << u << "," << v << "}\n";
        continue;
      }
      print_receipt(r);
    } else if (cmd == "add_edge") {
      graph::Weight price;
      if (!(in >> u >> v >> price)) {
        std::cout << "usage: add_edge <u> <v> <price>\n";
        continue;
      }
      if (!service->updatable()) {
        std::cout << "topology changes need --live (this service serves an "
                     "immutable snapshot)\n";
        continue;
      }
      if (price <= graph::kNegInfW || price >= graph::kPosInfW) {
        std::cout << "price " << price << " is outside the price band "
                     "(sentinels are not prices)\n";
        continue;
      }
      const auto r = service->add_edge(u, v, price);
      if (r.report.status != service::Status::kOk) {
        std::cout << "rejected: {" << u << "," << v << "} "
                  << (r.report.status == service::Status::kNotApplicable
                          ? "already exists (or u == v)"
                          : "has an out-of-range endpoint")
                  << "\n";
        continue;
      }
      print_receipt(r);
    } else if (cmd == "remove_edge") {
      if (!(in >> u >> v)) {
        std::cout << "usage: remove_edge <u> <v>\n";
        continue;
      }
      if (!service->updatable()) {
        std::cout << "topology changes need --live (this service serves an "
                     "immutable snapshot)\n";
        continue;
      }
      const auto r = service->remove_edge(u, v);
      if (r.report.status != service::Status::kOk) {
        if (r.report.status == service::Status::kWouldDisconnect)
          std::cout << "refused: removing tree edge {" << u << "," << v
                    << "} would disconnect the graph (no covering non-tree "
                       "edge); state unchanged\n";
        else
          std::cout << "unknown edge {" << u << "," << v << "}\n";
        continue;
      }
      print_receipt(r);
    } else if (cmd == "checkpoint") {
      if (!service->updatable() || (!persist && recover_dir.empty())) {
        std::cout << "checkpoint needs a persistent tier (--persist DIR or "
                     "--recover DIR)\n";
        continue;
      }
      service->checkpoint();
      std::cout << "checkpointed generation "
                << service->backend().generation()
                << " (journal compacted)\n";
    } else if (cmd == "receipt") {
      std::cout << "build: " << receipt.build_rounds << " MPC rounds, peak "
                << receipt.peak_global_words << " words ("
                << format_double(
                       static_cast<double>(receipt.peak_global_words) /
                       static_cast<double>(receipt.input_words))
                << "x input), lca steps " << receipt.lca_contraction_steps
                << ", contraction steps "
                << receipt.sens_stats.contraction_steps << "\n";
    } else if (cmd == "stats") {
      const auto s = service->stats();
      std::cout << s.queries_served << " served over "
                << backend.num_shards() << " shard"
                << (backend.num_shards() == 1 ? "" : "s") << ", generation "
                << s.generation << "\n"
                << "still_mst cache: hit rate "
                << format_double(100.0 * s.cache.hit_rate()) << "% ("
                << s.cache.hits << " hits, " << s.cache.misses << " misses, "
                << s.cache.evictions << " evictions, " << s.cache.entries
                << " entries)\n";
      if constexpr (!kMetricsCompiledOut) {
        Table lat({"kind", "count", "p50/p99/max us"});
        for (std::size_t k = 0; k < service::kNumQueryKinds; ++k)
          lat.row(service::query_kind_label(k), s.telemetry.queries_by_kind[k],
                  latency_cell(s.telemetry.query_latency[k]));
        lat.print(std::cout);
        std::cout << "updates:";
        for (std::size_t c = 0; c < service::kNumUpdateClasses; ++c)
          std::cout << " " << service::update_class_label(c) << "="
                    << s.telemetry.updates_by_class[c];
        std::cout << "; checkpoints=" << s.telemetry.checkpoints
                  << " recoveries=" << s.telemetry.recoveries << "\n";
        if (s.telemetry.journal_fsync.count > 0)
          std::cout << "journal fsync us (p50/p99/max): "
                    << latency_cell(s.telemetry.journal_fsync) << " over "
                    << s.telemetry.journal_fsync.count << " commits\n";
      } else {
        std::cout << "(telemetry compiled out: MPCMST_NO_METRICS)\n";
      }
    } else if (cmd == "metrics") {
      std::string fmt;
      in >> fmt;  // optional; default prom
      if (fmt == "json")
        MetricsRegistry::instance().render_json(std::cout);
      else
        MetricsRegistry::instance().render_prometheus(std::cout);
    } else if (cmd == "trace") {
      std::string path;
      if (!(in >> path)) path = "trace.json";
      std::ofstream out(path);
      if (!out) {
        std::cout << "cannot open " << path << "\n";
        continue;
      }
      TraceBuffer::instance().render_chrome_json(out);
      std::cout << "wrote " << TraceBuffer::instance().size()
                << " span(s) to " << path
                << " — load via chrome://tracing or ui.perfetto.dev\n";
    } else {
      std::cout << "unknown command '" << cmd << "'\n";
      print_help();
    }
  }
  std::cout << "\n";
  return 0;
}
