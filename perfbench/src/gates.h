// Copyright 2026 The deepsurf Authors.
//
// Correctness gates. A run whose outputs fail any of them reports
// correct=false and exits nonzero:
//   (a) surfacing determinism: the sorted surfaced-URL set has the same
//       digest, and the output index the same doc count, on the untraced
//       (SurfacingDriver) and traced (staged pipeline) passes;
//   (b) serving equivalence: served results are byte-identical (doc ids
//       and score bits) to an exhaustive single InvertedIndex oracle;
//   (c) the same after ingest-while-serving, against an oracle replayed
//       from the recorded ingest log.

#ifndef PERFBENCH_GATES_H_
#define PERFBENCH_GATES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/inverted_index.h"
#include "serving.h"

namespace perfbench {

/// What gate (a) compares between two surfacing passes.
struct SurfaceWitness {
  uint64_t digest = 0;  ///< FNV-1a over the sorted URL set
  size_t urls = 0;
  size_t docs = 0;      ///< documents in the output index
};

/// Witness of a sorted, deduplicated URL set and an output doc count.
SurfaceWitness Witness(const std::vector<std::string>& sorted_urls,
                       size_t docs);

/// Gate (a): empty when the witnesses agree, else what differs.
std::string CompareWitness(const SurfaceWitness& untraced,
                           const SurfaceWitness& traced);

/// An exhaustive (pruning off, uncompressed) single index over `docs`,
/// inserted in order: the byte-identity reference for gates (b)/(c).
std::unique_ptr<deepsurf::index::InvertedIndex> BuildOracle(
    const std::vector<deepsurf::index::Document>& docs);

/// Gates (b)/(c): how many samples differ from the oracle's top-k.
size_t OracleMismatches(const deepsurf::index::InvertedIndex& oracle,
                        const std::vector<std::string>& pool,
                        const std::vector<ServedSample>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_GATES_H_
