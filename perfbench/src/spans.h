// Copyright 2026 The deepsurf Authors.
//
// Layer spans recorded by the benchmark's own code, around calls into the
// library's public functions and through its existing interfaces (the
// decorators in layers.h). Nothing here reaches inside the program.
//
// A span is (layer, start, end, parent). Spans open on one thread nest
// under that thread's innermost open span; a layer's self time is its
// spans' durations minus the part covered by their children. Spans live
// in per-thread buffers and are aggregated once, after the run.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

/// Milliseconds on the steady clock since a fixed process-wide origin.
double NowMs();

/// Every layer a span can be charged to.
enum class Layer : uint8_t {
  kForm,             ///< one form's whole processing (root; self = glue)
  kAnalyzeInputs,    ///< core::AnalyzeInputs (+ form-page fetch/parse)
  kMineCandidates,   ///< core::MineCandidates
  kSearchTemplates,  ///< core::SearchTemplates
  kEmitUrls,         ///< core::EmitUrls
  kSiteHandle,       ///< net::WebServer::Handle of a simulated site
  kIngestFetch,      ///< ProbeScheduler::Fetch of a surfaced page
  kParseExtract,     ///< html::Parse + title/text extraction
  kInsertBatch,      ///< WritableIndex::InsertBatch
  kQuery,            ///< one query, scheduled arrival to completion (root)
  kQueueWait,        ///< scheduled arrival to Engine::Search start
  kEngine,           ///< serve::Engine::Search
  kIndexSearch,      ///< SearchIndex::Search/SearchTerms under the Engine
  kCount,
};

constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

/// Aggregated span data, per layer.
struct LayerTotals {
  std::array<double, kNumLayers> self_ms{};
  std::array<double, kNumLayers> total_ms{};
  std::array<uint64_t, kNumLayers> count{};
  /// Span durations of the layers whose distributions are reported.
  std::vector<double> engine_ms, index_search_ms, queue_wait_ms;
  /// Spans whose children do not fit inside them (must stay 0).
  uint64_t nesting_errors = 0;

  double self(Layer l) const { return self_ms[static_cast<size_t>(l)]; }
  double total(Layer l) const { return total_ms[static_cast<size_t>(l)]; }
  uint64_t n(Layer l) const { return count[static_cast<size_t>(l)]; }
};

/// Collects spans from any number of threads. A disabled tracer records
/// nothing and costs one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its handle (-1 when
  /// disabled). Spans must close in LIFO order on their thread.
  int32_t Open(Layer layer);
  void Close(int32_t handle);

  /// Records an already-finished interval as a child of the calling
  /// thread's innermost open span (a root when none is open).
  void Record(Layer layer, double start_ms, double end_ms);

  /// As Open/Close, with explicit times (Open/Close read NowMs()).
  int32_t OpenAt(Layer layer, double start_ms);
  void CloseAt(int32_t handle, double end_ms);

  /// Self/total times over every span recorded so far.
  LayerTotals Aggregate() const;

 private:
  struct Span {
    double start = 0.0;
    double end = -1.0;
    int32_t parent = -1;
    Layer layer = Layer::kForm;
  };
  struct ThreadSpans {
    std::vector<Span> spans;
    std::vector<int32_t> open;  ///< stack of open span indices
  };
  ThreadSpans* Local();

  const bool enabled_;
  const uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer)
      : tracer_(tracer), handle_(tracer->Open(layer)) {}
  ~Scope() { tracer_->Close(handle_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int32_t handle_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
