// Service throughput: queries/sec against batch size, thread count and shard
// count, a first vs a second pass over the same point workload (point
// queries are never cached, so the second pass is uncached too), the batch
// fast path against the per-query loop (the answer_batch contention axis),
// and the
// amortization argument — how many queries one distributed precomputation is
// worth versus re-running mst_sensitivity_mpc per question (the batch-only
// workflow this subsystem replaces).  Emits the table to stdout and
// BENCH_service.json for the experiment harness; CI runs it at shards 1 and
// 4 and gates on the second-pass throughput ratio (JSON key best_warm_qps).
//
// Measurement discipline: every timed region wraps exactly one
// answer_batch / answer loop; all emission (table rows, JSON) happens after
// the measurements so no serialization cost leaks into a recorded number.
//
// --metrics additionally dumps the full telemetry registry (JSON) next to
// the bench JSON (<out>.metrics.json).  Every run ends with an in-binary
// instrumentation A/B: the same batch timed with telemetry recording on
// vs off (metrics_set_enabled), reported in the output and the JSON — the
// runtime-flag complement of CI's two-build overhead gate.
//
//   $ ./bench_service_throughput [n] [out.json] [shards] [--metrics]
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <random>
#include <vector>

#include "common/metrics.hpp"
#include "common/table.hpp"
#include "graph/generators.hpp"
#include "sensitivity/sensitivity.hpp"
#include "service/service.hpp"

using namespace mpcmst;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<service::Query> make_workload(const graph::Instance& inst,
                                          std::size_t count,
                                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> tree_pick(1, inst.n() - 1);
  std::uniform_int_distribution<std::size_t> nontree_pick(
      0, inst.nontree.size() - 1);
  std::uniform_int_distribution<graph::Weight> delta(-50, 50);
  std::vector<service::Query> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    graph::Vertex c = static_cast<graph::Vertex>(tree_pick(rng));
    if (c == inst.tree.root) c = (c + 1) % inst.n();
    switch (i % 4) {
      case 0:
        out.push_back(service::Query::price_change(c, inst.tree.parent[c],
                                                   delta(rng)));
        break;
      case 1: {
        const graph::WEdge& e = inst.nontree[nontree_pick(rng)];
        out.push_back(service::Query::price_change(e.u, e.v, delta(rng)));
        break;
      }
      case 2:
        out.push_back(
            service::Query::replacement_edge(inst.tree.parent[c], c));
        break;
      default:
        out.push_back(
            service::Query::corridor_headroom(c, inst.tree.parent[c]));
    }
  }
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
  const std::string out_path =
      pos.size() > 1 ? pos[1] : "BENCH_service.json";
  const std::size_t shards = pos.size() > 2 ? std::stoul(pos[2]) : 1;

  auto tree = graph::random_recursive_tree(n, 2024);
  const auto inst =
      graph::make_layered_instance(std::move(tree), 3 * n, 2025);

  // --- the one-time distributed build ---
  mpc::Engine eng(mpc::MpcConfig::scaled(inst.input_words(), 0.5, 64.0));
  const auto t_build = Clock::now();
  auto index = service::SensitivityIndex::build(eng, inst);
  const double build_wall = seconds_since(t_build);

  // --- backend under test: monolithic, or split into vertex-range shards
  // and served through the QueryRouter ---
  std::shared_ptr<const service::IndexBackend> backend;
  double split_wall = 0.0;
  std::size_t max_shard_words = 0;
  if (shards > 1) {
    const auto t_split = Clock::now();
    auto sharded = service::ShardedSensitivityIndex::split(*index, shards);
    split_wall = seconds_since(t_split);
    max_shard_words = sharded->max_shard_words();
    backend = std::make_shared<const service::QueryRouter>(std::move(sharded));
  } else {
    backend = std::make_shared<const service::MonolithicBackend>(index);
  }

  // --- baseline: the batch-only workflow pays one distributed run per
  // question (what whatif_pricing.cpp used to hand-roll) ---
  mpc::Engine base_eng(mpc::MpcConfig::scaled(inst.input_words(), 0.5, 64.0));
  const auto t_base = Clock::now();
  (void)sensitivity::mst_sensitivity_mpc(base_eng, inst);
  const double rerun_wall = seconds_since(t_base);
  const double rerun_qps = 1.0 / rerun_wall;

  std::cout << "instance: n=" << inst.n() << " m=" << inst.m()
            << "; index build: " << format_double(build_wall) << "s, "
            << index->receipt().build_rounds << " MPC rounds, peak "
            << index->receipt().peak_global_words << " words\n"
            << "backend: " << shards << " shard" << (shards == 1 ? "" : "s");
  if (shards > 1)
    std::cout << " (split in " << format_double(split_wall) << "s, max "
              << max_shard_words << " words/shard)";
  std::cout << "\nbaseline full-run-per-query: "
            << format_double(rerun_wall, 3) << "s/query\n\n";

  Table table({"threads", "batch", "pass 1 q/s", "pass 2 q/s",
               "pass 2 loop q/s", "still_mst hit rate", "speedup vs rerun"});
  struct Point {
    std::size_t threads, batch;
    double cold_qps, warm_qps, warm_loop_qps, hit_rate, speedup;
    std::uint64_t evictions;  // this point's cache (each point gets its own)
  };
  std::vector<Point> points;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    for (const std::size_t batch :
         {std::size_t{1024}, std::size_t{16384}, std::size_t{131072}}) {
      const auto workload = make_workload(inst, batch, 7 * threads + batch);
      service::QueryService svc(backend, {.threads = threads,
                                          .cache_capacity = std::size_t{1}
                                                            << 18});
      const auto t_cold = Clock::now();
      auto cold = svc.answer_batch(workload);
      const double cold_s = seconds_since(t_cold);
      const auto before_warm = svc.stats().cache;
      const auto t_warm = Clock::now();
      auto warm = svc.answer_batch(workload);
      const double warm_s = seconds_since(t_warm);
      const auto after_warm = svc.stats().cache;
      // The per-query loop over the same workload: what the batch fast
      // path's one-answer_many-per-run discipline is measured against.
      std::vector<service::Answer> loop_answers(workload.size());
      const auto t_loop = Clock::now();
      for (std::size_t i = 0; i < workload.size(); ++i)
        loop_answers[i] = svc.answer(workload[i]);
      const double loop_s = seconds_since(t_loop);
      if (cold != warm || cold != loop_answers) {
        std::cerr << "FATAL: second/loop pass disagrees with the first pass\n";
        return 1;
      }
      const double cold_qps = static_cast<double>(batch) / cold_s;
      const double warm_qps = static_cast<double>(batch) / warm_s;
      const double warm_loop_qps = static_cast<double>(batch) / loop_s;
      // Cache hit rate of the second pass alone (only still_mst is cached;
      // this point-only workload reads 0).
      const double warm_lookups = static_cast<double>(
          (after_warm.hits - before_warm.hits) +
          (after_warm.misses - before_warm.misses));
      const double hit_rate =
          warm_lookups == 0
              ? 0.0
              : static_cast<double>(after_warm.hits - before_warm.hits) /
                    warm_lookups;
      const double speedup = warm_qps / rerun_qps;
      points.push_back({threads, batch, cold_qps, warm_qps, warm_loop_qps,
                        hit_rate, speedup, svc.stats().cache.evictions});
      table.row(threads, batch, cold_qps, warm_qps, warm_loop_qps, hit_rate,
                format_double(speedup, 0) + "x");
    }
  }
  table.print(std::cout, "service throughput (index reused across configs)");

  const Point& best = *std::max_element(
      points.begin(), points.end(),
      [](const Point& a, const Point& b) { return a.warm_qps < b.warm_qps; });
  std::cout << "\nbest second-pass throughput: "
            << format_double(best.warm_qps, 0) << " q/s ("
            << best.threads << " threads, batch " << best.batch << ") — "
            << format_double(best.speedup, 0)
            << "x the rerun-per-query baseline\n";

  // --- instrumentation A/B: the same batch with telemetry recording on vs
  // off.  Best of several reps each, so the ratio reflects the steady-state
  // answer path, not a scheduler hiccup.
  const auto ab_workload = make_workload(inst, 16384, 1234);
  service::QueryService ab_svc(
      backend, {.threads = 4, .cache_capacity = std::size_t{1} << 18});
  ab_svc.answer_batch(ab_workload);  // warm the caches and the pool
  auto best_warm_pass = [&](bool enabled) {
    metrics_set_enabled(enabled);
    double best_s = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      (void)ab_svc.answer_batch(ab_workload);
      best_s = std::min(best_s, seconds_since(t0));
    }
    return static_cast<double>(ab_workload.size()) / best_s;
  };
  const double ab_off_qps = best_warm_pass(false);
  const double ab_on_qps = best_warm_pass(true);  // leaves telemetry on
  const double ab_ratio = ab_on_qps / ab_off_qps;
  if (kMetricsCompiledOut)
    std::cout << "telemetry overhead A/B: compiled out (MPCMST_NO_METRICS)\n";
  else
    std::cout << "telemetry overhead A/B (batch 16384, 4 threads): "
              << format_double(ab_on_qps, 0) << " q/s instrumented vs "
              << format_double(ab_off_qps, 0) << " q/s disabled — ratio "
              << format_double(ab_ratio, 3) << "\n";

  std::ofstream out(out_path);
  JsonWriter j(out);
  j.begin_object();
  j.key("bench").value("service_throughput");
  j.key("n").value(inst.n());
  j.key("m").value(inst.m());
  j.key("shards").value(shards);
  if (shards > 1) {
    j.key("split_wall_s").value(split_wall);
    j.key("max_shard_words").value(max_shard_words);
  }
  j.key("build").begin_object();
  j.key("wall_s").value(build_wall);
  j.key("mpc_rounds").value(index->receipt().build_rounds);
  j.key("peak_global_words").value(index->receipt().peak_global_words);
  j.key("input_words").value(index->receipt().input_words);
  j.end_object();
  j.key("baseline_rerun_s_per_query").value(rerun_wall);
  j.key("points").begin_array();
  for (const Point& p : points) {
    j.begin_object();
    j.key("threads").value(p.threads);
    j.key("batch").value(p.batch);
    j.key("cold_qps").value(p.cold_qps);
    j.key("warm_qps").value(p.warm_qps);
    j.key("warm_loop_qps").value(p.warm_loop_qps);
    j.key("cache_hit_rate").value(p.hit_rate);
    j.key("cache_evictions").value(p.evictions);
    j.key("speedup_vs_rerun").value(p.speedup);
    j.end_object();
  }
  j.end_array();
  j.key("best_warm_qps").value(best.warm_qps);
  j.key("best_speedup_vs_rerun").value(best.speedup);
  j.key("metrics_compiled_out").value(kMetricsCompiledOut);
  j.key("metrics_ab").begin_object();
  j.key("instrumented_qps").value(ab_on_qps);
  j.key("disabled_qps").value(ab_off_qps);
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
