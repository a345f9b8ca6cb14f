// Copyright 2026 The deepsurf Authors.
//
// The open-loop client: serves a precomputed arrival schedule through a
// serve::Engine from several client threads. Each arrival is sent at its
// scheduled time whatever happened before it, and its latency is timed
// from that scheduled time, so a stall charges every arrival queued
// behind it. A request still unstarted `shed_after_ms` past its arrival
// is shed by the Engine's deadline check.

#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "index/search_index.h"
#include "serve/engine.h"
#include "spans.h"
#include "traffic/traffic_gen.h"

namespace perfbench {

constexpr size_t kTopK = 10;

/// What happened to one scheduled arrival.
struct Outcome {
  enum class Kind : uint8_t { kNotSent, kOk, kShed, kError };
  Kind kind = Kind::kNotSent;
  double late_ms = 0.0;     ///< send time minus scheduled time
  double latency_ms = 0.0;  ///< completion minus scheduled time
};

/// A served result kept for the oracle comparison.
struct ServedSample {
  size_t rank = 0;  ///< pool index of the query
  std::vector<deepsurf::index::SearchHit> hits;
};

struct OpenLoopOptions {
  size_t clients = 1;
  double shed_after_ms = 1000.0;
  /// Keep the served hits of every Nth arrival (0 = none).
  size_t sample_every = 0;
  /// When set, clients stop taking arrivals once it reads true.
  const std::atomic<bool>* stop = nullptr;
};

struct OpenLoopRun {
  std::vector<Outcome> outcomes;  ///< parallel to the arrivals
  std::vector<ServedSample> samples;
  double wall_s = 0.0;
};

/// Serves `arrivals` (times are offsets from the call) through `engine`.
/// With an enabled tracer each arrival is a Layer::kQuery root span with
/// kQueueWait and kEngine children.
OpenLoopRun RunOpenLoop(deepsurf::serve::Engine* engine,
                        const std::vector<std::string>& pool,
                        const std::vector<deepsurf::traffic::Arrival>& arrivals,
                        const OpenLoopOptions& options, Tracer* tracer);

/// Closed loop: `clients` threads each send the next query of
/// `ranks` (cycled) as soon as their previous one returns, for
/// `seconds`. Returns completed queries per second.
double RunClosedLoop(deepsurf::serve::Engine* engine,
                     const std::vector<std::string>& pool,
                     const std::vector<size_t>& ranks, size_t clients,
                     double seconds);

/// Summary of the outcomes whose arrival lies in [from_s, to_s).
struct OpenLoopSummary {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  std::vector<double> latency_ms;  ///< ok requests only
  /// Ok requests only: completion minus send time, so without the wait
  /// for a free client or a late wake-up (those are in late_ms).
  std::vector<double> service_ms;
  std::vector<double> late_ms;     ///< every sent request
  double total_ms = 0.0;           ///< summed latency of every sent request
};
OpenLoopSummary Summarize(
    const std::vector<deepsurf::traffic::Arrival>& arrivals,
    const OpenLoopRun& run, double from_s, double to_s);

/// The median over consecutive `segment_s` windows of [0, duration_s)
/// of each window's p99 latency: one stalled window moves it less than
/// it moves the p99 of the whole run.
double SegmentMedianP99(const std::vector<deepsurf::traffic::Arrival>& arrivals,
                        const OpenLoopRun& run, double duration_s,
                        double segment_s);

/// Byte-identical hit lists: same doc ids, same score bits, same order.
bool SameHits(const std::vector<deepsurf::index::SearchHit>& a,
              const std::vector<deepsurf::index::SearchHit>& b);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
