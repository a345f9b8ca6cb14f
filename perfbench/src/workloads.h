// Copyright 2026 The deepsurf Authors.
//
// The benchmark's three workloads over the library's public entry
// points (see workloads.cc for what each one stresses and why).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t threads = 1;  ///< nproc
};

/// "surface", "serve_longtail", "churn".
const std::vector<std::string>& WorkloadNames();

/// Runs one workload; the report carries its metrics and gate verdicts.
Report RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
