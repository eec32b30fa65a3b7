// End-to-end tour of the telemetry layer: run one mixed workload against a
// persistent live tier — cold + warm query batches, updates spanning the
// classification lattice, a checkpoint, a crash-free recover — then dump
// everything the registry saw.
//
//   $ ./metrics_dump [n] [--dir DIR] [--json FILE] [--trace FILE]
//
// Prometheus text goes to stdout (scrape-able as-is); the full registry JSON
// and the chrome://tracing span file land next to you (metrics.json /
// trace.json by default).  Load trace.json at chrome://tracing or
// https://ui.perfetto.dev to see the build phases, snapshot writes and
// recovery phases on a wall-clock timeline.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "graph/generators.hpp"
#include "mpc/config.hpp"
#include "mpc/engine.hpp"
#include "service/service.hpp"

using namespace mpcmst;

int main(int argc, char** argv) {
  std::size_t n = 2000;
  std::string dir =
      (std::filesystem::temp_directory_path() / "mpcmst-metrics-dump")
          .string();
  std::string json_file = "metrics.json";
  std::string trace_file = "trace.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto operand = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--dir") {
      if (const char* d = operand()) dir = d;
    } else if (arg == "--json") {
      if (const char* d = operand()) json_file = d;
    } else if (arg == "--trace") {
      if (const char* d = operand()) trace_file = d;
    } else {
      try {
        n = std::stoul(arg);
      } catch (const std::exception&) {
        std::cerr << "usage: metrics_dump [n] [--dir DIR] [--json FILE] "
                     "[--trace FILE]\n";
        return 1;
      }
    }
  }
  if constexpr (kMetricsCompiledOut)
    std::cerr << "note: built with MPCMST_NO_METRICS — every surface below "
                 "is an empty stub\n";

  // --- build a persistent live tier (journal fsync on every commit) ---
  std::filesystem::remove_all(dir);
  auto tree = graph::caterpillar_tree(n, n / 8, 17);
  graph::assign_random_tree_weights(tree, 100, 999, 23);
  const auto inst =
      graph::make_mst_instance(std::move(tree), 3 * n, 29, /*slack=*/400);
  mpc::Engine eng(mpc::MpcConfig::scaled(inst.input_words(), 0.5, 64.0));
  service::PersistenceConfig persist;
  persist.dir = dir;
  persist.sync_mode = service::SyncMode::kCommit;
  auto service = service::QueryService::open(
      {.engine = &eng, .instance = &inst, .live = true, .persist = persist});

  // --- a mixed batch over all five query kinds, run twice ---
  std::vector<service::Query> batch;
  for (graph::Vertex v = 1; v < static_cast<graph::Vertex>(n); v += 7) {
    const graph::Vertex p = inst.tree.parent[v];
    batch.push_back(service::Query::price_change(v, p, 50));
    batch.push_back(service::Query::replacement_edge(v, p));
    batch.push_back(service::Query::corridor_headroom(v, p));
  }
  batch.push_back(service::Query::top_k_fragile(10));
  batch.push_back(service::Query::still_mst(
      {{1, inst.tree.parent[1], inst.tree.weight[1] + 50}}));
  service->answer_batch(batch);  // the scenario misses the cache
  service->answer_batch(batch);  // ... and hits it on the second pass

  // --- updates spanning the classification lattice ---
  // Each class leaves its own counter + latency series behind; the headroom
  // answer tells us how far an edge can move before the tree changes.
  std::size_t applied = 0;
  for (graph::Vertex v = 1;
       v < static_cast<graph::Vertex>(n) && applied < 24; v += 11) {
    const graph::Vertex p = inst.tree.parent[v];
    const auto a = service->corridor_headroom(v, p);
    if (a.status != service::Status::kOk) continue;
    const graph::Weight w = inst.tree.weight[v];
    graph::Weight new_w = w;  // same weight: classifies as no_change
    switch (applied % 3) {
      case 1:  // within headroom: reweight in place
        if (a.headroom != graph::kPosInfW && a.headroom > 0)
          new_w = w + a.headroom / 2;
        break;
      case 2:  // past headroom: forces a swap (when a replacement exists)
        if (a.headroom != graph::kPosInfW) new_w = w + a.headroom + 1;
        break;
      default:
        break;
    }
    service->apply_update(v, p, new_w);
    ++applied;
  }
  for (std::size_t i = 0; i < inst.nontree.size() && i < 8; i += 2) {
    const auto& e = inst.nontree[i];
    const auto a = service->corridor_headroom(e.u, e.v);
    if (a.status != service::Status::kOk) continue;
    // Even i: nudge up (nontree reweight); odd-half: drop below its cover
    // path (nontree swap) when the headroom is finite.
    graph::Weight new_w = e.w + 3;
    if (i % 4 == 2 && a.headroom != graph::kPosInfW)
      new_w = e.w - a.headroom - 1;
    service->apply_update(e.u, e.v, new_w);
    ++applied;
  }

  // --- checkpoint, a journal tail, then a clean-room recover ---
  service->checkpoint();
  for (std::size_t i = 1; i < inst.nontree.size() && i < 6; i += 2) {
    const auto& e = inst.nontree[i];
    service->apply_update(e.u, e.v, inst.nontree[i].w + 1);
  }
  const auto gen_before = service->backend().generation();
  service.reset();  // release the journal before recovering in-process
  service::RecoveredInfo info;
  service = service::QueryService::open(
      {.persist = persist, .recover_existing = true, .recovered = &info});
  service->answer_batch(batch);  // the still_mst cache is cold again
  std::cout << "# workload: " << applied << " updates applied, generation "
            << gen_before << " -> recovered " << service->backend().generation()
            << " (snapshot " << info.snapshot_generation << " + "
            << info.replayed_records << " replayed)\n";

  // --- dump all three surfaces ---
  MetricsRegistry::instance().render_prometheus(std::cout);
  {
    std::ofstream out(json_file);
    MetricsRegistry::instance().render_json(out);
  }
  {
    std::ofstream out(trace_file);
    TraceBuffer::instance().render_chrome_json(out);
  }
  std::cout << "# wrote " << json_file << " (registry JSON) and " << trace_file
            << " (" << TraceBuffer::instance().size()
            << " spans, chrome://tracing)\n";
  std::filesystem::remove_all(dir);
  return 0;
}
