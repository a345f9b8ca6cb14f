// Copyright 2026 The deepsurf Authors.
//
// perfbench: one workload per invocation.
//
//   perfbench --workload surface|serve_longtail|churn --seed N
//             --seconds S --trace 0|1
//
// Prints a provenance line, one line per metric, and as its last line
// the JSON result {"correct", "attempted", "failed", "metrics"}. Exits
// nonzero when a correctness gate fails.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "index/bitpack_codec.h"
#include "report.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  std::string command;
  bool have_workload = false;
  // The wrapper script passes the command it was started with.
  if (const char* wrapped = std::getenv("PERFBENCH_COMMAND")) {
    command = wrapped;
  } else {
    for (int i = 0; i < argc; ++i) {
      command += (i ? " " : "") + std::string(argv[i]);
    }
  }
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  bool known = false;
  for (const auto& w : WorkloadNames()) known = known || w == opt.workload;
  if (!known) return Usage(("unknown workload " + opt.workload).c_str());
  if (opt.seconds <= 0) return Usage("--seconds must be positive");
  opt.threads = std::max(1u, std::thread::hardware_concurrency());
  deepsurf::SetLogThreshold(deepsurf::LogSeverity::kError);

  std::printf(
      "provenance {\"nproc\": %zu, \"compiler\": %s, \"flags\": %s, "
      "\"build_type\": %s, \"bitpack_kernel\": %s, \"workload\": %s, "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, \"command\": %s}\n",
      opt.threads, JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_FLAGS).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(deepsurf::index::BitpackKernelName(
                     deepsurf::index::ActiveBitpackKernel()))
          .c_str(),
      JsonString(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, JsonString(command).c_str());
  std::fflush(stdout);

  Report report = RunWorkload(opt);
  for (const auto& problem : CheckMetricSet(report, opt.trace)) {
    report.Fail("metric set: " + problem);
  }
  for (const auto& spec : opt.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    std::printf("metric %-36s %14.6f %s\n", spec.name, report.Get(spec.name),
                spec.unit);
  }
  for (const auto& f : report.info) {
    std::printf("info   %-36s %14.6f %s\n", f.name.c_str(), f.value,
                f.unit.c_str());
  }
  for (const auto& why : report.gate_failures) {
    std::printf("GATE FAILED: %s\n", why.c_str());
  }
  std::printf("%s\n", ResultJson(report, opt.trace).c_str());
  return report.correct ? 0 : 1;
}
