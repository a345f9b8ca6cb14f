// Copyright 2026 The deepsurf Authors.

#include "report.h"

#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"throughput_per_s", "1/s"},
      {"service_p50_ms", "ms"},
      {"peak_rss_mb", "MB"},
      {"success_frac", "frac"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"crawler.crawl_ms", "ms"},
      {"core.analyze_inputs_ms_per_form", "ms"},
      {"core.mine_candidates_ms_per_form", "ms"},
      {"core.search_templates_ms_per_form", "ms"},
      {"core.emit_urls_ms_per_form", "ms"},
      {"core.analysis_probes_per_form", "count"},
      {"core.templates_informative_frac", "frac"},
      {"core.urls_per_form", "count"},
      {"net.probe_hit_rate", "frac"},
      {"net.probe_coalesced", "count"},
      {"net.probe_evictions", "count"},
      {"net.site_handle_ms", "ms"},
      {"net.site_requests_per_form", "count"},
      {"net.ingest_fetch_ms_per_page", "ms"},
      {"html.parse_extract_ms_per_page", "ms"},
      {"index.insert_batch_ms_per_doc", "ms"},
      {"index.docs_new_frac", "frac"},
      {"index.search_ms_p50", "ms"},
      {"index.search_ms_p99", "ms"},
      {"index.blocks_decoded_per_query", "count"},
      {"index.blocks_skipped_per_query", "count"},
      {"index.decode_cache_hit_rate", "frac"},
      {"index.bytes_per_posting", "B"},
      {"serve.cache_hit_rate", "frac"},
      {"serve.cache_invalidations", "count"},
      {"serve.engine_ms_p50", "ms"},
      {"serve.engine_ms_p99", "ms"},
      {"serve.queue_wait_ms_p99", "ms"},
      {"query.latency_p99_ms", "ms"},
      {"loadgen.late_ms_p99", "ms"},
      {"unattributed_ms", "ms"},
      {"attribution.total_ms", "ms"},
      {"attribution.error_frac", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return kSpecs;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

void Report::Set(const std::string& name, double value) {
  for (auto& [n, v] : metrics) {
    if (n == name) {
      v = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  info.push_back({name, value, unit});
}

void Report::Fail(const std::string& why) {
  correct = false;
  gate_failures.push_back(why);
}

double Report::Get(const std::string& name) const {
  for (const auto& [n, v] : metrics) {
    if (n == name) return v;
  }
  return 0.0;
}

std::vector<std::string> CheckMetricSet(const Report& report, bool trace) {
  std::vector<std::string> problems;
  std::set<std::string> want;
  for (const auto& s : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    want.insert(s.name);
  }
  std::set<std::string> have;
  for (const auto& [name, value] : report.metrics) {
    if (!ValidMetricName(name)) problems.push_back("bad name: " + name);
    if (!want.count(name)) continue;  // other-mode metrics are dropped
    if (!std::isfinite(value)) problems.push_back("not finite: " + name);
    have.insert(name);
  }
  for (const auto& name : want) {
    if (!have.count(name)) problems.push_back("missing: " + name);
  }
  return problems;
}

std::string ResultJson(const Report& report, bool trace) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& spec : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", report.Get(spec.name));
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(spec.name) + "\": {\"value\": " + value +
           ", \"unit\": \"" + spec.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
