// Copyright 2026 The deepsurf Authors.
//
// The benchmark's metric names and its result line. The name lists are
// the contract with BENCHMARK.json: an untraced run emits exactly the
// end-to-end metrics, a traced run exactly the per-layer metrics.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Emitted by every untraced run, on every workload.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Emitted by every traced run, on every workload (0 where a layer does
/// no work on that workload).
const std::vector<MetricSpec>& PerLayerMetrics();

/// True when `name` matches [A-Za-z0-9_.-]+ and starts with a letter or
/// a digit.
bool ValidMetricName(const std::string& name);

/// A figure printed for readers but kept out of the result line (not
/// steady enough to gate on).
struct InfoFigure {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's outcome.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<InfoFigure> info;
  std::vector<std::string> gate_failures;

  void Set(const std::string& name, double value);
  void Info(const std::string& name, double value, const std::string& unit);
  void Fail(const std::string& why);
  /// The value of `name` (0 when unset).
  double Get(const std::string& name) const;
};

/// Checks that `report` holds exactly the metrics its mode requires;
/// returns the problems found (empty = complete).
std::vector<std::string> CheckMetricSet(const Report& report, bool trace);

/// The final result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const Report& report, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
