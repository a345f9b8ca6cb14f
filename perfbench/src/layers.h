// Copyright 2026 The deepsurf Authors.
//
// Timing decorators over the library's existing interfaces. Each one
// forwards every call unchanged and charges the call's duration to a
// layer span on the calling thread, so results are bit-identical with
// and without them. Over a disabled Tracer they cost one branch a call.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "index/search_index.h"
#include "net/web.h"
#include "spans.h"

namespace perfbench {

/// A simulated site whose Handle time is charged to Layer::kSiteHandle.
class TimedServer : public deepsurf::net::WebServer {
 public:
  TimedServer(std::shared_ptr<deepsurf::net::WebServer> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  deepsurf::net::HttpResponse Handle(
      const deepsurf::net::HttpRequest& request) override {
    Scope span(tracer_, Layer::kSiteHandle);
    return inner_->Handle(request);
  }
  const std::string& host() const override { return inner_->host(); }

 private:
  std::shared_ptr<deepsurf::net::WebServer> inner_;
  Tracer* tracer_;
};

/// An index whose reads are charged to Layer::kIndexSearch and whose
/// writes to Layer::kInsertBatch.
class TimedIndex : public deepsurf::index::WritableIndex {
 public:
  TimedIndex(deepsurf::index::WritableIndex* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  deepsurf::Result<deepsurf::index::DocId> AddDocument(
      const std::string& url, const std::string& title,
      const std::string& body, bool is_deep_web,
      const std::string& source_host) override {
    Scope span(tracer_, Layer::kInsertBatch);
    return inner_->AddDocument(url, title, body, is_deep_web, source_host);
  }
  deepsurf::Result<size_t> InsertBatch(
      const std::vector<deepsurf::index::Document>& docs,
      std::vector<bool>* newly_added = nullptr) override {
    Scope span(tracer_, Layer::kInsertBatch);
    return inner_->InsertBatch(docs, newly_added);
  }
  std::vector<deepsurf::index::SearchHit> Search(const std::string& query,
                                                 size_t k) const override {
    Scope span(tracer_, Layer::kIndexSearch);
    return inner_->Search(query, k);
  }
  std::vector<deepsurf::index::SearchHit> SearchTerms(
      const std::vector<std::string>& terms, size_t k) const override {
    Scope span(tracer_, Layer::kIndexSearch);
    return inner_->SearchTerms(terms, k);
  }
  deepsurf::index::DocInfo doc(deepsurf::index::DocId id) const override {
    return inner_->doc(id);
  }
  const deepsurf::index::DocInfo& doc_ref(
      deepsurf::index::DocId id) const override {
    return inner_->doc_ref(id);
  }
  size_t num_docs() const override { return inner_->num_docs(); }
  uint64_t ingest_epoch() const override { return inner_->ingest_epoch(); }
  deepsurf::index::IndexMemoryUsage MemoryUsage() const override {
    return inner_->MemoryUsage();
  }
  deepsurf::index::SearchStats search_stats() const override {
    return inner_->search_stats();
  }

  /// Only while no other thread is using the index.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  deepsurf::index::WritableIndex* inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
