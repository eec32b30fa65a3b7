// The benchmark's three workloads (see README.md for why each exists and
// which layer it stresses or bypasses).
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;  // query_skewed | churn_persist | net_tier
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;    // false: end-to-end metrics; true: per-layer
  std::string work_dir;  // results, traces and persistence state go here
};

/// Run one workload.  Throws std::invalid_argument for an unknown name.
Result run_workload(const RunConfig& cfg);

}  // namespace perfbench
