// Copyright 2026 The deepsurf Authors.

#include "gates.h"

#include "util/logging.h"

namespace perfbench {

SurfaceWitness Witness(const std::vector<std::string>& sorted_urls,
                       size_t docs) {
  SurfaceWitness w;
  uint64_t h = 1469598103934665603ULL;
  for (const std::string& url : sorted_urls) {
    for (char c : url) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
    h = (h ^ '\n') * 1099511628211ULL;
  }
  w.digest = h;
  w.urls = sorted_urls.size();
  w.docs = docs;
  return w;
}

std::string CompareWitness(const SurfaceWitness& untraced,
                           const SurfaceWitness& traced) {
  if (untraced.digest == traced.digest && untraced.urls == traced.urls &&
      untraced.docs == traced.docs) {
    return "";
  }
  return "surfaced URL set differs between untraced and traced passes (" +
         std::to_string(untraced.urls) + " vs " +
         std::to_string(traced.urls) + " urls, " +
         std::to_string(untraced.docs) + " vs " +
         std::to_string(traced.docs) + " docs)";
}

std::unique_ptr<deepsurf::index::InvertedIndex> BuildOracle(
    const std::vector<deepsurf::index::Document>& docs) {
  deepsurf::index::IndexOptions opts;
  opts.enable_pruning = false;
  auto oracle = std::make_unique<deepsurf::index::InvertedIndex>(opts);
  auto added = oracle->InsertBatch(docs);
  DS_CHECK(added.ok() && *added == docs.size())
      << "oracle replay diverged from the recorded ingest log";
  return oracle;
}

size_t OracleMismatches(const deepsurf::index::InvertedIndex& oracle,
                        const std::vector<std::string>& pool,
                        const std::vector<ServedSample>& samples) {
  size_t mismatches = 0;
  for (const ServedSample& s : samples) {
    if (!SameHits(s.hits, oracle.Search(pool[s.rank], kTopK))) ++mismatches;
  }
  return mismatches;
}

}  // namespace perfbench
