// perfbench: run one workload of the benchmark and write its result record.
//
//   perfbench --workload query_skewed|churn_persist|net_tier --seed N
//             --seconds S --trace 0|1 --work-dir DIR --out FILE
//
// Normally started by run.py, which builds this program, adds the host
// facts and pinned counts, and prints the one-line summary.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

// The per-layer metrics read the metrics registry, which this switch
// compiles out; the benchmark is only ever built with telemetry.
#ifdef MPCMST_NO_METRICS
#error "perfbench must be built without MPCMST_NO_METRICS"
#endif

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --out FILE\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") cfg.workload = v;
      else if (a == "--seed") cfg.seed = std::stoull(v);
      else if (a == "--seconds") cfg.seconds = std::stod(v);
      else if (a == "--trace") cfg.trace = std::stoi(v) != 0;
      else if (a == "--work-dir") cfg.work_dir = v;
      else if (a == "--out") out = v;
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (cfg.workload.empty() || out.empty() || cfg.work_dir.empty())
    usage("--workload, --work-dir and --out are required");
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");
  std::filesystem::create_directories(cfg.work_dir);

  try {
    perfbench::Result r = perfbench::run_workload(cfg);
    if (!cfg.trace) {
      r.set("ok_op_share",
            static_cast<double>(r.attempted - std::min(r.failed, r.attempted)) /
                static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)),
            "ratio");
      r.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
    }
    // The top-level build's two switches, fixed off in this build.
    r.build = {{"compiler", PERFBENCH_COMPILER},
               {"build_type", PERFBENCH_BUILD_TYPE},
               {"cxx_flags", PERFBENCH_CXX_FLAGS},
               {"MPCMST_NATIVE", "OFF"},
               {"MPCMST_NO_METRICS", "OFF"}};
    perfbench::write_result_json(r, out);
    for (const auto& [name, m] : r.metrics)
      std::cout << name << " = " << m.value << " " << m.unit << "\n";
    for (const std::string& f : r.failures) std::cout << "FAILED: " << f << "\n";
    std::cout << "attempted " << r.attempted << ", failed " << r.failed
              << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << std::endl;
    return 1;
  }
  return 0;
}
