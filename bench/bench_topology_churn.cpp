// Topology-churn throughput: raw EdgeEvent streams (inserts, deletes,
// vertex attaches, reweights) absorbed per second by a persistent live
// backend — batched through ingest() (one group-committed journal append +
// fsync per chunk) and one-at-a-time through the per-event entry points
// (one fsync per event) — against the full-rebuild-per-change baseline.
// The bench asserts fingerprint parity with the canonical instance
// transform after each stream, so a fast-but-wrong path cannot win.
// Emits the table to stdout and BENCH_topology_churn.json for the
// regression gate (check_regression.py: ingest_events_per_s).
//
//   $ ./bench_topology_churn [n] [out.json]
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "graph/generators.hpp"
#include "service/snapshot.hpp"
#include "service/update.hpp"

using namespace mpcmst;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool is_tree_key(const graph::Instance& inst, graph::Vertex u,
                 graph::Vertex v) {
  for (const graph::Vertex c : {u, v}) {
    const graph::Vertex other = (c == u) ? v : u;
    if (c != inst.tree.root &&
        inst.tree.parent[static_cast<std::size_t>(c)] == other)
      return true;
  }
  return false;
}

struct StreamStats {
  std::size_t reweights = 0;
  std::size_t swaps = 0;
  std::size_t inserts = 0;
  std::size_t insert_swaps = 0;
  std::size_t attaches = 0;
  std::size_t deletes = 0;
};

/// Generate `count` effective events against the evolving instance `sim`
/// (mutated by the canonical transform as the stream is built, so every
/// event targets the topology it will actually meet).  `live` tracks the
/// non-tombstoned non-tree slots across the stream.  Deletes only target
/// edges whose key no tree edge shadows (a tree delete can refuse), so
/// every emitted event advances the epoch.
std::vector<service::EdgeEvent> make_stream(graph::Instance& sim,
                                            std::vector<std::int64_t>& live,
                                            std::size_t count,
                                            std::uint64_t seed,
                                            graph::Vertex max_n,
                                            StreamStats& stats) {
  std::mt19937_64 rng(seed);
  std::vector<service::EdgeEvent> out;
  out.reserve(count);
  const auto price = [&] {
    return 1 + static_cast<graph::Weight>(rng() % 1000000);
  };
  while (out.size() < count) {
    const auto n = static_cast<graph::Vertex>(sim.n());
    const std::uint64_t roll = rng() % 20;
    service::EdgeEvent ev;
    if (roll < 8) {  // reweight a tree or live non-tree edge
      if (rng() % 2 == 0 || live.empty()) {
        graph::Vertex c;
        do {
          c = static_cast<graph::Vertex>(rng() % sim.n());
        } while (c == sim.tree.root);
        ev = {service::UpdateOp::kReweight, c,
              sim.tree.parent[static_cast<std::size_t>(c)], price()};
      } else {
        const graph::WEdge& e =
            sim.nontree[static_cast<std::size_t>(live[rng() % live.size()])];
        ev = {service::UpdateOp::kReweight, e.u, e.v, price()};
      }
    } else if (roll < 13) {  // insert a random pair
      auto u = static_cast<graph::Vertex>(rng() % sim.n());
      auto v = static_cast<graph::Vertex>(rng() % sim.n());
      if (u == v) v = (v + 1) % n;
      ev = {service::UpdateOp::kAddEdge, u, v, price()};
    } else if (roll < 14 && !live.empty()) {  // duplicate-key insert
      const graph::WEdge& e =
          sim.nontree[static_cast<std::size_t>(live[rng() % live.size()])];
      ev = {service::UpdateOp::kAddEdge, e.u, e.v, price()};
    } else if (roll < 15 && n < max_n) {  // attach a fresh leaf vertex
      ev = {service::UpdateOp::kAddEdge, n,
            static_cast<graph::Vertex>(rng() % sim.n()), price()};
    } else {  // delete a non-shadowed live non-tree edge
      if (live.empty()) continue;
      const std::size_t start = rng() % live.size();
      bool found = false;
      for (std::size_t probe = 0; probe < live.size() && !found; ++probe) {
        const graph::WEdge& e = sim.nontree[static_cast<std::size_t>(
            live[(start + probe) % live.size()])];
        if (!is_tree_key(sim, e.u, e.v)) {
          ev = {service::UpdateOp::kRemoveEdge, e.u, e.v, 0};
          found = true;
        }
      }
      if (!found) continue;
    }

    const auto rep = service::apply_event_to_instance(sim, ev);
    if (rep.status != service::Status::kOk ||
        rep.cls == service::UpdateClass::kNoChange)
      continue;
    switch (rep.cls) {
      case service::UpdateClass::kTreeReweight:
      case service::UpdateClass::kNonTreeReweight:
        ++stats.reweights;
        break;
      case service::UpdateClass::kTreeSwap:
      case service::UpdateClass::kNonTreeSwap:
        ++stats.swaps;
        break;
      case service::UpdateClass::kNonTreeInsert:
        live.push_back(rep.edge.id);
        ++stats.inserts;
        break;
      case service::UpdateClass::kInsertSwap:
        // The allocated slot holds the displaced tree edge: still live.
        live.push_back(rep.edge.id);
        ++stats.insert_swaps;
        break;
      case service::UpdateClass::kVertexAttach:
        ++stats.attaches;
        break;
      case service::UpdateClass::kNonTreeDelete: {
        const auto it = std::find(live.begin(), live.end(), rep.edge.id);
        if (it != live.end()) {
          *it = live.back();
          live.pop_back();
        }
        ++stats.deletes;
        break;
      }
      default:
        break;
    }
    out.push_back(ev);
  }
  return out;
}

void require_parity(const service::UpdatableBackend& backend,
                    const graph::Instance& sim, const char* where) {
  const std::uint64_t want = service::SensitivityIndex::fingerprint_of(sim);
  if (backend.fingerprint() != want) {
    std::cerr << "FAIL: " << where
              << ": backend fingerprint diverged from the canonical "
                 "transform\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::stoul(argv[1]) : 20000;
  const std::string out_path =
      argc > 2 ? argv[2] : "BENCH_topology_churn.json";

  auto tree = graph::random_recursive_tree(n, 2033);
  const auto inst = graph::make_layered_instance(std::move(tree), 3 * n, 2037);

  // --- the one-time distributed build, behind the live layer ---
  mpc::Engine eng(mpc::MpcConfig::scaled(inst.input_words(), 0.5, 64.0));
  const auto t_build = Clock::now();
  const auto backend = service::LiveMonolithBackend::build(eng, inst);
  const double build_wall = seconds_since(t_build);

  // Persistent tier: ingest pays one fsync per chunk, the per-event path
  // pays one per event — the group-commit gain is the point of the bench.
  const auto state_dir =
      (std::filesystem::temp_directory_path() / "mpcmst_bench_churn").string();
  std::filesystem::remove_all(state_dir);
  service::PersistenceConfig cfg{state_dir, service::SyncMode::kCommit,
                                 /*snapshot_every_n=*/0};
  backend->attach_persistence(service::Persistence::create_fresh(cfg));
  backend->checkpoint();

  // --- baseline: what a snapshot service pays per confirmed change ---
  mpc::Engine base_eng(mpc::MpcConfig::scaled(inst.input_words(), 0.5, 64.0));
  const auto t_rebuild = Clock::now();
  (void)service::SensitivityIndex::build(base_eng, inst);
  const double rebuild_wall = seconds_since(t_rebuild);
  const double rebuild_per_s = 1.0 / rebuild_wall;

  std::cout << "instance: n=" << inst.n() << " m=" << inst.m()
            << "; distributed build " << format_double(build_wall)
            << "s; full-rebuild baseline " << format_double(rebuild_wall)
            << "s/update\n\n";

  graph::Instance sim = inst;
  std::vector<std::int64_t> live(sim.nontree.size());
  for (std::size_t i = 0; i < live.size(); ++i)
    live[i] = static_cast<std::int64_t>(i);
  const auto max_n = static_cast<graph::Vertex>(inst.n() + inst.n() / 8);
  const std::size_t count = std::max<std::size_t>(n / 8, 256);
  constexpr std::size_t kChunk = 512;

  // --- stream A: batched ingest (group commit) ---
  StreamStats ingest_stats;
  const auto stream_a =
      make_stream(sim, live, count, 61, max_n, ingest_stats);
  const auto t_ingest = Clock::now();
  for (std::size_t i = 0; i < stream_a.size(); i += kChunk) {
    const std::vector<service::EdgeEvent> chunk(
        stream_a.begin() + static_cast<std::ptrdiff_t>(i),
        stream_a.begin() +
            static_cast<std::ptrdiff_t>(std::min(i + kChunk, stream_a.size())));
    (void)backend->ingest(chunk);
  }
  const double ingest_wall = seconds_since(t_ingest);
  const double ingest_per_s = stream_a.size() / std::max(ingest_wall, 1e-9);
  require_parity(*backend, sim, "post-ingest");

  // --- stream B: the same mix through the per-event entry points ---
  StreamStats apply_stats;
  const auto stream_b = make_stream(sim, live, count, 67, max_n, apply_stats);
  const auto t_apply = Clock::now();
  for (const auto& ev : stream_b) {
    switch (ev.op) {
      case service::UpdateOp::kReweight:
        (void)backend->apply_update(ev.u, ev.v, ev.w);
        break;
      case service::UpdateOp::kAddEdge:
        (void)backend->add_edge(ev.u, ev.v, ev.w);
        break;
      case service::UpdateOp::kRemoveEdge:
        (void)backend->remove_edge(ev.u, ev.v);
        break;
    }
  }
  const double apply_wall = seconds_since(t_apply);
  const double apply_per_s = stream_b.size() / std::max(apply_wall, 1e-9);
  require_parity(*backend, sim, "post-apply");

  Table table({"path", "events", "events/s", "inserts", "attaches", "deletes",
               "reweights", "swaps", "speedup vs rebuild"});
  table.row("ingest (batched)", stream_a.size(), ingest_per_s,
            ingest_stats.inserts + ingest_stats.insert_swaps,
            ingest_stats.attaches, ingest_stats.deletes,
            ingest_stats.reweights, ingest_stats.swaps,
            format_double(ingest_per_s / rebuild_per_s, 0) + "x");
  table.row("per-event", stream_b.size(), apply_per_s,
            apply_stats.inserts + apply_stats.insert_swaps,
            apply_stats.attaches, apply_stats.deletes, apply_stats.reweights,
            apply_stats.swaps,
            format_double(apply_per_s / rebuild_per_s, 0) + "x");
  table.print(std::cout, "topology churn throughput");
  std::cout << "group-commit gain: "
            << format_double(ingest_per_s / std::max(apply_per_s, 1e-9), 2)
            << "x (one fsync per " << kChunk << "-event chunk vs per event)\n";

  std::ofstream out(out_path);
  JsonWriter j(out);
  j.begin_object();
  j.key("bench").value("topology_churn");
  j.key("n").value(inst.n());
  j.key("m").value(inst.m());
  j.key("build_wall_s").value(build_wall);
  j.key("rebuild_wall_s_per_update").value(rebuild_wall);
  j.key("events_per_stream").value(count);
  j.key("ingest_events_per_s").value(ingest_per_s);
  j.key("apply_events_per_s").value(apply_per_s);
  j.key("ingest_speedup_vs_rebuild").value(ingest_per_s / rebuild_per_s);
  j.key("apply_speedup_vs_rebuild").value(apply_per_s / rebuild_per_s);
  j.key("group_commit_gain").value(ingest_per_s /
                                   std::max(apply_per_s, 1e-9));
  j.key("final_generation").value(backend->generation());
  const auto stats_json = [&j](const char* key, const StreamStats& s) {
    j.key(key).begin_object();
    j.key("inserts").value(s.inserts);
    j.key("insert_swaps").value(s.insert_swaps);
    j.key("attaches").value(s.attaches);
    j.key("deletes").value(s.deletes);
    j.key("reweights").value(s.reweights);
    j.key("swaps").value(s.swaps);
    j.end_object();
  };
  stats_json("ingest_classes", ingest_stats);
  stats_json("apply_classes", apply_stats);
  j.end_object();
  std::cout << "wrote " << out_path << "\n";
  std::filesystem::remove_all(state_dir);
  return 0;
}
