// Copyright 2026 The deepsurf Authors.

#include "spans.h"

#include <atomic>
#include <unordered_map>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kOrigin =
    std::chrono::steady_clock::now();

std::atomic<uint64_t> next_tracer_id{1};

/// Tolerance for nesting checks: clock reads of one thread are
/// monotone, so this only absorbs floating-point rounding.
constexpr double kEpsMs = 1e-6;

}  // namespace

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - kOrigin)
      .count();
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), id_(next_tracer_id.fetch_add(1)) {}

Tracer::~Tracer() = default;

Tracer::ThreadSpans* Tracer::Local() {
  thread_local std::unordered_map<uint64_t, ThreadSpans*> buffers;
  ThreadSpans*& buf = buffers[id_];
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadSpans>());
    buf = threads_.back().get();
  }
  return buf;
}

int32_t Tracer::Open(Layer layer) {
  return enabled_ ? OpenAt(layer, NowMs()) : -1;
}

void Tracer::Close(int32_t handle) {
  if (enabled_) CloseAt(handle, NowMs());
}

int32_t Tracer::OpenAt(Layer layer, double start_ms) {
  if (!enabled_) return -1;
  ThreadSpans* t = Local();
  Span s;
  s.start = start_ms;
  s.layer = layer;
  s.parent = t->open.empty() ? -1 : t->open.back();
  auto handle = static_cast<int32_t>(t->spans.size());
  t->spans.push_back(s);
  t->open.push_back(handle);
  return handle;
}

void Tracer::CloseAt(int32_t handle, double end_ms) {
  if (!enabled_) return;
  ThreadSpans* t = Local();
  t->spans[static_cast<size_t>(handle)].end = end_ms;
  // LIFO: the closed span is the innermost open one.
  if (!t->open.empty() && t->open.back() == handle) t->open.pop_back();
}

void Tracer::Record(Layer layer, double start_ms, double end_ms) {
  CloseAt(OpenAt(layer, start_ms), end_ms);
}

LayerTotals Tracer::Aggregate() const {
  LayerTotals out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) {
    const std::vector<Span>& spans = t->spans;
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent < 0) continue;
      const Span& p = spans[static_cast<size_t>(s.parent)];
      if (s.start < p.start - kEpsMs || s.end > p.end + kEpsMs ||
          s.end < s.start) {
        ++out.nesting_errors;
      }
      covered[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const auto l = static_cast<size_t>(s.layer);
      const double dur = s.end - s.start;
      if (covered[i] > dur + kEpsMs) ++out.nesting_errors;
      out.total_ms[l] += dur;
      out.self_ms[l] += dur - covered[i];
      ++out.count[l];
      switch (s.layer) {
        case Layer::kEngine: out.engine_ms.push_back(dur); break;
        case Layer::kIndexSearch: out.index_search_ms.push_back(dur); break;
        case Layer::kQueueWait: out.queue_wait_ms.push_back(dur); break;
        default: break;
      }
    }
  }
  return out;
}

}  // namespace perfbench
