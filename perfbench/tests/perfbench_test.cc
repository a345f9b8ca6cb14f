// Copyright 2026 The deepsurf Authors.
//
// Tests of the benchmark itself: the open-loop client charges stalls to
// later arrivals, every metric name is well formed and emitted, gate (a)
// catches a perturbed URL set, and span self times add up.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <regex>
#include <set>
#include <thread>

#include "gates.h"
#include "report.h"
#include "serving.h"
#include "spans.h"

namespace perfbench {
namespace {

using deepsurf::index::DocInfo;
using deepsurf::index::SearchHit;

/// A SearchIndex whose first search stalls.
class StallingIndex : public deepsurf::index::SearchIndex {
 public:
  explicit StallingIndex(double stall_ms) : stall_ms_(stall_ms) {}
  std::vector<SearchHit> Search(const std::string& q, size_t k) const override {
    return SearchTerms({q}, k);
  }
  std::vector<SearchHit> SearchTerms(const std::vector<std::string>&,
                                     size_t) const override {
    if (!stalled_.exchange(true)) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(stall_ms_));
    }
    return {SearchHit{1, 1.0}};
  }
  DocInfo doc(deepsurf::index::DocId) const override { return info_; }
  const DocInfo& doc_ref(deepsurf::index::DocId) const override {
    return info_;
  }
  size_t num_docs() const override { return 1; }
  uint64_t ingest_epoch() const override { return 1; }

 private:
  double stall_ms_;
  mutable std::atomic<bool> stalled_{false};
  DocInfo info_;
};

TEST(OpenLoopTest, StallMakesLaterArrivalsLate) {
  StallingIndex idx(/*stall_ms=*/50.0);
  deepsurf::serve::EngineOptions eo;
  eo.cache_capacity = 0;
  deepsurf::serve::Engine engine(&idx, eo);
  const std::vector<std::string> pool = {"a", "b", "c", "d", "e", "f"};
  std::vector<deepsurf::traffic::Arrival> arrivals;
  for (size_t i = 0; i < pool.size(); ++i) {
    arrivals.push_back({0.005 * static_cast<double>(i), 0, i});  // every 5 ms
  }
  OpenLoopOptions lo;
  lo.clients = 1;
  Tracer off(false);
  OpenLoopRun run = RunOpenLoop(&engine, pool, arrivals, lo, &off);
  ASSERT_EQ(run.outcomes.size(), arrivals.size());
  // The first query stalls 50 ms; the second was due at 5 ms, so it is
  // sent ~45 ms late and its latency counts from its due time.
  EXPECT_GE(run.outcomes[0].latency_ms, 50.0);
  EXPECT_GE(run.outcomes[1].late_ms, 40.0);
  EXPECT_GE(run.outcomes[1].latency_ms, 40.0);
  for (const Outcome& o : run.outcomes) {
    EXPECT_EQ(o.kind, Outcome::Kind::kOk);
    EXPECT_GE(o.latency_ms, o.late_ms);
  }
  OpenLoopSummary s = Summarize(arrivals, run, 0.0, 1.0);
  EXPECT_EQ(s.attempted, arrivals.size());
  EXPECT_EQ(s.ok, arrivals.size());
}

TEST(OpenLoopTest, RequestsPastTheirDeadlineAreShed) {
  StallingIndex idx(/*stall_ms=*/60.0);
  deepsurf::serve::EngineOptions eo;
  eo.cache_capacity = 0;
  deepsurf::serve::Engine engine(&idx, eo);
  const std::vector<std::string> pool = {"a", "b"};
  std::vector<deepsurf::traffic::Arrival> arrivals = {{0.0, 0, 0},
                                                      {0.001, 0, 1}};
  OpenLoopOptions lo;
  lo.clients = 1;
  lo.shed_after_ms = 10.0;
  Tracer off(false);
  OpenLoopRun run = RunOpenLoop(&engine, pool, arrivals, lo, &off);
  EXPECT_EQ(run.outcomes[0].kind, Outcome::Kind::kOk);
  EXPECT_EQ(run.outcomes[1].kind, Outcome::Kind::kShed);
}

TEST(ReportTest, EveryMetricNameIsWellFormedAndUnique) {
  const std::regex pattern("[A-Za-z0-9][A-Za-z0-9_.-]*");
  const std::regex unit_pattern("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *list) {
      EXPECT_TRUE(std::regex_match(m.name, pattern)) << m.name;
      EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
      EXPECT_LE(std::string(m.name).size(), 64u) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
      EXPECT_TRUE(std::regex_match(m.unit, unit_pattern)) << m.unit;
    }
  }
  EXPECT_FALSE(ValidMetricName("bad name"));
  EXPECT_FALSE(ValidMetricName(".leading_dot"));
  EXPECT_FALSE(ValidMetricName(""));
}

TEST(ReportTest, MetricSetMustBeComplete) {
  Report r;
  for (const MetricSpec& m : EndToEndMetrics()) r.Set(m.name, 1.5);
  EXPECT_TRUE(CheckMetricSet(r, /*trace=*/false).empty());
  EXPECT_FALSE(CheckMetricSet(r, /*trace=*/true).empty());
  Report partial;
  partial.Set("setup_s", 1.0);
  EXPECT_FALSE(CheckMetricSet(partial, /*trace=*/false).empty());
  const std::string json = ResultJson(r, /*trace=*/false);
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 0", 0), 0u);
  EXPECT_NE(json.find("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
            std::string::npos);
}

TEST(GateTest, PerturbedUrlSetFailsGateA) {
  const std::vector<std::string> urls = {"http://a.example.com/s?q=1",
                                         "http://a.example.com/s?q=2",
                                         "http://b.example.com/s?x=y"};
  const SurfaceWitness ref = Witness(urls, 3);
  EXPECT_EQ(CompareWitness(ref, Witness(urls, 3)), "");

  std::vector<std::string> changed = urls;
  changed[1] = "http://a.example.com/s?q=3";
  EXPECT_NE(CompareWitness(ref, Witness(changed, 3)), "");

  std::vector<std::string> dropped(urls.begin(), urls.end() - 1);
  EXPECT_NE(CompareWitness(ref, Witness(dropped, 3)), "");

  EXPECT_NE(CompareWitness(ref, Witness(urls, 2)), "");  // doc count
}

TEST(GateTest, OracleComparisonIsByteExact) {
  std::vector<deepsurf::index::Document> docs = {
      {"http://x/1", "t", "alpha beta", false, "x"},
      {"http://x/2", "t", "alpha gamma", false, "x"}};
  auto oracle = BuildOracle(docs);
  const std::vector<std::string> pool = {"alpha"};
  std::vector<ServedSample> samples = {{0, oracle->Search("alpha", kTopK)}};
  EXPECT_EQ(OracleMismatches(*oracle, pool, samples), 0u);
  samples[0].hits[0].score = std::nextafter(samples[0].hits[0].score, 0.0);
  EXPECT_EQ(OracleMismatches(*oracle, pool, samples), 1u);
}

TEST(SpanTest, SelfTimesAddUpToTheRoot) {
  Tracer t(true);
  t.Record(Layer::kForm, 0.0, 0.0);  // empty root on this thread
  const int32_t root = t.OpenAt(Layer::kQuery, 10.0);
  t.Record(Layer::kQueueWait, 10.0, 12.0);
  const int32_t eng = t.OpenAt(Layer::kEngine, 12.0);
  t.Record(Layer::kIndexSearch, 12.5, 15.0);
  t.CloseAt(eng, 16.0);
  t.CloseAt(root, 17.0);
  LayerTotals lt = t.Aggregate();
  EXPECT_EQ(lt.nesting_errors, 0u);
  EXPECT_DOUBLE_EQ(lt.self(Layer::kQuery), 1.0);
  EXPECT_DOUBLE_EQ(lt.self(Layer::kEngine), 1.5);
  EXPECT_DOUBLE_EQ(lt.self(Layer::kIndexSearch), 2.5);
  double sum = 0.0;
  for (double s : lt.self_ms) sum += s;
  EXPECT_DOUBLE_EQ(sum, 7.0);

  Tracer bad(true);
  const int32_t r = bad.OpenAt(Layer::kQuery, 0.0);
  bad.Record(Layer::kEngine, -1.0, 5.0);  // starts before its parent
  bad.CloseAt(r, 4.0);
  EXPECT_GT(bad.Aggregate().nesting_errors, 0u);

  Tracer off(false);
  Scope s(&off, Layer::kEngine);
  EXPECT_EQ(off.Aggregate().n(Layer::kEngine), 0u);
}

}  // namespace
}  // namespace perfbench
