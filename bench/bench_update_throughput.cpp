// Incremental update throughput: confirmed price changes absorbed per
// second by the live backends (service/update.hpp), split by update class,
// against the only alternative a snapshot service has — re-running the full
// distributed build per confirmed change.  Emits the table to stdout and
// BENCH_update.json for the experiment harness; CI runs it at a small n and
// gates on the speedup-vs-rebuild ratios.
//
// --metrics additionally dumps the full telemetry registry (JSON) next to
// the bench JSON (<out>.metrics.json).  Every run ends with an in-binary
// instrumentation A/B: the same reweight workload timed with telemetry
// recording on vs off (metrics_set_enabled), reported in the output and the
// JSON.
//
//   $ ./bench_update_throughput [n] [out.json] [--metrics]
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/table.hpp"
#include "graph/generators.hpp"
#include "service/service.hpp"
#include "service/update.hpp"

using namespace mpcmst;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct WorkloadResult {
  std::string name;
  std::size_t updates = 0;
  double wall_s = 0;
  double updates_per_s = 0;
  std::size_t reweights = 0;
  std::size_t swaps = 0;
};

/// Drive `count` updates of the requested flavor through the backend.  The
/// generator probes corridor_headroom first, so every produced change lands
/// in the intended class (mode 0: within headroom / stays out; mode 1:
/// forced exchanges; mode 2: churn mix).
WorkloadResult run_workload(service::UpdatableBackend& backend,
                            const std::string& name, int mode,
                            std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  WorkloadResult out;
  out.name = name;
  const auto snapshot = backend.instance_snapshot();
  const std::size_t n = snapshot.n();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    graph::Vertex u, v;
    graph::Weight new_w;
    if (mode == 1) {
      // Evict the currently most fragile tree edge: raising it one past its
      // headroom is a guaranteed exchange, and the probe is O(1).
      const auto top = backend.answer(service::Query::top_k_fragile(1));
      if (top.fragile.empty() || top.fragile[0].sens >= graph::kPosInfW)
        break;
      u = top.fragile[0].child;
      v = top.fragile[0].parent;
      new_w = top.fragile[0].w + top.fragile[0].sens + 1 +
              static_cast<graph::Weight>(rng() % 7);
    } else {
      // Reweights never move edges, so the pre-workload snapshot stays a
      // valid edge list for mode 0; the churn mix tolerates the rare pick
      // that an intervening swap re-resolved.
      if (rng() % 2 == 0) {
        do {
          u = static_cast<graph::Vertex>(rng() % n);
        } while (u == snapshot.tree.root);
        v = snapshot.tree.parent[static_cast<std::size_t>(u)];
      } else {
        const graph::WEdge& e =
            snapshot.nontree[rng() % snapshot.nontree.size()];
        u = e.u;
        v = e.v;
      }
      const auto probe =
          backend.answer(service::Query::corridor_headroom(u, v));
      if (probe.status != service::Status::kOk) continue;
      const graph::Weight pivot = probe.swap_cost;
      const bool pivot_real =
          pivot > graph::kNegInfW && pivot < graph::kPosInfW;
      if (mode == 0 && pivot_real) {
        // Stay on the cheap path: tree edges up to the headroom edge
        // (inclusive: ties), non-tree edges at or above their path maximum.
        new_w = probe.edge.is_tree
                    ? pivot - static_cast<graph::Weight>(rng() % 9)
                    : pivot + static_cast<graph::Weight>(rng() % 9);
      } else if (pivot_real) {
        new_w = pivot + static_cast<graph::Weight>(rng() % 15) - 7;
      } else {
        new_w = 1 + static_cast<graph::Weight>(rng() % 1000000);
      }
    }
    const auto receipt = backend.apply_update(u, v, new_w);
    if (receipt.report.status != service::Status::kOk ||
        receipt.report.cls == service::UpdateClass::kNoChange)
      continue;
    ++out.updates;
    if (receipt.full_relabel)
      ++out.swaps;
    else
      ++out.reweights;
  }
  out.wall_s = seconds_since(t0);
  out.updates_per_s = out.updates / (out.wall_s > 0 ? out.wall_s : 1e-9);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool dump_metrics = false;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--metrics")
      dump_metrics = true;
    else
      pos.push_back(argv[i]);
  }
  const std::size_t n = pos.size() > 0 ? std::stoul(pos[0]) : 20000;
  const std::string out_path = pos.size() > 1 ? pos[1] : "BENCH_update.json";

  auto tree = graph::random_recursive_tree(n, 2026);
  const auto inst = graph::make_layered_instance(std::move(tree), 3 * n, 2027);

  // --- the one-time distributed build, behind the live layer ---
  mpc::Engine eng(mpc::MpcConfig::scaled(inst.input_words(), 0.5, 64.0));
  const auto t_build = Clock::now();
  const auto backend = service::LiveMonolithBackend::build(eng, inst);
  const double build_wall = seconds_since(t_build);

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

  std::vector<WorkloadResult> results;
  results.push_back(
      run_workload(*backend, "reweight", 0, std::max<std::size_t>(n / 8, 64),
                   41));
  results.push_back(run_workload(*backend, "swap_heavy", 1,
                                 std::max<std::size_t>(n / 200, 16), 43));
  results.push_back(
      run_workload(*backend, "mixed_churn", 2,
                   std::max<std::size_t>(n / 16, 32), 47));

  Table table({"workload", "updates", "updates/s", "reweights", "swaps",
               "speedup vs rebuild"});
  for (const WorkloadResult& r : results)
    table.row(r.name, r.updates, r.updates_per_s, r.reweights, r.swaps,
              format_double(r.updates_per_s / rebuild_per_s, 0) + "x");
  table.print(std::cout, "incremental update throughput");

  // --- instrumentation A/B: the same reweight workload with telemetry
  // recording on vs off (best of 3 reps each).
  auto best_reweight_pass = [&](bool enabled, std::uint64_t seed) {
    metrics_set_enabled(enabled);
    double best = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto r = run_workload(*backend, "ab", 0,
                                  std::max<std::size_t>(n / 32, 32),
                                  seed + static_cast<std::uint64_t>(rep));
      best = std::max(best, r.updates_per_s);
    }
    return best;
  };
  const double ab_off_ups = best_reweight_pass(false, 101);
  const double ab_on_ups = best_reweight_pass(true, 201);  // leaves it on
  const double ab_ratio = ab_off_ups > 0 ? ab_on_ups / ab_off_ups : 1.0;
  if (kMetricsCompiledOut)
    std::cout << "\ntelemetry overhead A/B: compiled out "
                 "(MPCMST_NO_METRICS)\n";
  else
    std::cout << "\ntelemetry overhead A/B (reweights): "
              << format_double(ab_on_ups, 0) << " u/s instrumented vs "
              << format_double(ab_off_ups, 0) << " u/s disabled — ratio "
              << format_double(ab_ratio, 3) << "\n";

  std::ofstream out(out_path);
  JsonWriter j(out);
  j.begin_object();
  j.key("bench").value("update_throughput");
  j.key("n").value(inst.n());
  j.key("m").value(inst.m());
  j.key("build_wall_s").value(build_wall);
  j.key("rebuild_wall_s_per_update").value(rebuild_wall);
  j.key("final_generation").value(backend->generation());
  j.key("workloads").begin_array();
  for (const WorkloadResult& r : results) {
    j.begin_object();
    j.key("name").value(r.name);
    j.key("updates").value(r.updates);
    j.key("wall_s").value(r.wall_s);
    j.key("updates_per_s").value(r.updates_per_s);
    j.key("reweights").value(r.reweights);
    j.key("swaps").value(r.swaps);
    j.key("speedup_vs_rebuild").value(r.updates_per_s / rebuild_per_s);
    j.end_object();
  }
  j.end_array();
  j.key("metrics_compiled_out").value(kMetricsCompiledOut);
  j.key("metrics_ab").begin_object();
  j.key("instrumented_updates_per_s").value(ab_on_ups);
  j.key("disabled_updates_per_s").value(ab_off_ups);
  j.key("ratio").value(ab_ratio);
  j.end_object();
  j.end_object();
  std::cout << "wrote " << out_path << "\n";

  if (dump_metrics) {
    std::string mpath = out_path;
    const auto dot = mpath.rfind(".json");
    mpath = (dot == std::string::npos ? mpath : mpath.substr(0, dot)) +
            ".metrics.json";
    std::ofstream mout(mpath);
    MetricsRegistry::instance().render_json(mout);
    std::cout << "wrote " << mpath << " (telemetry registry)\n";
  }
  return 0;
}
