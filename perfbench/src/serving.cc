// Copyright 2026 The deepsurf Authors.

#include "serving.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <thread>

#include "util/stats.h"

namespace perfbench {

using deepsurf::traffic::Arrival;

OpenLoopRun RunOpenLoop(deepsurf::serve::Engine* engine,
                        const std::vector<std::string>& pool,
                        const std::vector<Arrival>& arrivals,
                        const OpenLoopOptions& options, Tracer* tracer) {
  OpenLoopRun run;
  run.outcomes.resize(arrivals.size());
  std::mutex samples_mu;
  std::atomic<size_t> next{0};
  // t0_ms is read before the clock starts, so every wake-up from
  // SleepUntil lands at or after its due time on the NowMs() scale.
  const double t0_ms = NowMs();
  deepsurf::stats::OpenLoopClock clock;

  auto client = [&] {
    for (;;) {
      if (options.stop != nullptr && options.stop->load()) return;
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= arrivals.size()) return;
      const Arrival& a = arrivals[i];
      clock.SleepUntil(a.time_s);
      const double due_ms = t0_ms + a.time_s * 1e3;
      const double sent_ms = NowMs();
      const int32_t root = tracer->OpenAt(Layer::kQuery, due_ms);
      tracer->Record(Layer::kQueueWait, due_ms, sent_ms);
      deepsurf::serve::ServeResult res;
      {
        Scope span(tracer, Layer::kEngine);
        res = engine->Search(
            pool[a.rank], kTopK,
            clock.AtOffset(a.time_s + options.shed_after_ms / 1e3));
      }
      const double done_ms = NowMs();
      tracer->CloseAt(root, done_ms);

      Outcome& out = run.outcomes[i];
      out.late_ms = sent_ms - due_ms;
      out.latency_ms = done_ms - due_ms;
      if (res.status.ok()) {
        out.kind = Outcome::Kind::kOk;
        if (options.sample_every != 0 && i % options.sample_every == 0) {
          std::lock_guard<std::mutex> lock(samples_mu);
          run.samples.push_back(ServedSample{a.rank, std::move(res.hits)});
        }
      } else if (res.status.IsDeadlineExceeded()) {
        out.kind = Outcome::Kind::kShed;
      } else {
        out.kind = Outcome::Kind::kError;
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < std::max<size_t>(1, options.clients); ++c) {
    threads.emplace_back(client);
  }
  for (auto& t : threads) t.join();
  run.wall_s = clock.Now();
  return run;
}

double RunClosedLoop(deepsurf::serve::Engine* engine,
                     const std::vector<std::string>& pool,
                     const std::vector<size_t>& ranks, size_t clients,
                     double seconds) {
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  const double end_ms = NowMs() + seconds * 1e3;
  const double t0 = NowMs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < std::max<size_t>(1, clients); ++c) {
    threads.emplace_back([&] {
      while (NowMs() < end_ms) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        engine->Search(pool[ranks[i % ranks.size()]], kTopK);
        done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  return static_cast<double>(done.load()) / ((NowMs() - t0) / 1e3);
}

OpenLoopSummary Summarize(const std::vector<Arrival>& arrivals,
                          const OpenLoopRun& run, double from_s,
                          double to_s) {
  OpenLoopSummary s;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (arrivals[i].time_s < from_s || arrivals[i].time_s >= to_s) continue;
    const Outcome& o = run.outcomes[i];
    if (o.kind == Outcome::Kind::kNotSent) continue;
    ++s.attempted;
    s.late_ms.push_back(o.late_ms);
    s.total_ms += o.latency_ms;
    switch (o.kind) {
      case Outcome::Kind::kOk:
        ++s.ok;
        s.latency_ms.push_back(o.latency_ms);
        s.service_ms.push_back(o.latency_ms - o.late_ms);
        break;
      case Outcome::Kind::kShed: ++s.shed; break;
      default: ++s.errors; break;
    }
  }
  return s;
}

double SegmentMedianP99(const std::vector<Arrival>& arrivals,
                        const OpenLoopRun& run, double duration_s,
                        double segment_s) {
  std::vector<double> p99s;
  for (double t = 0.0; t + segment_s <= duration_s + 1e-9; t += segment_s) {
    OpenLoopSummary seg = Summarize(arrivals, run, t, t + segment_s);
    if (!seg.latency_ms.empty()) {
      p99s.push_back(deepsurf::stats::Percentile(seg.latency_ms, 99));
    }
  }
  return deepsurf::stats::Median(p99s);
}

bool SameHits(const std::vector<deepsurf::index::SearchHit>& a,
              const std::vector<deepsurf::index::SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
