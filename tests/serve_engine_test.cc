// Tests for the serving engine: LRU result-cache semantics (eviction
// order, hit/miss counters, epoch invalidation on ingest), batch
// serving, and SearchBatch hammered during concurrent ingest — the
// latter is what the TSan CI job is for.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "index/sharded_index.h"
#include "serve/engine.h"

namespace deepsurf {
namespace serve {
namespace {

index::Document Doc(const std::string& url, const std::string& body) {
  index::Document d;
  d.url = url;
  d.title = "t";
  d.body = body;
  d.source_host = "h.example.com";
  return d;
}

class ServeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    index::ShardedIndexOptions sopts;
    sopts.num_shards = 2;
    index_ = std::make_unique<index::ShardedIndex>(sopts);
    ASSERT_TRUE(index_
                    ->InsertBatch({Doc("u1", "alpha document body"),
                                   Doc("u2", "beta document body"),
                                   Doc("u3", "gamma document body"),
                                   Doc("u4", "delta document body")})
                    .ok());
  }

  std::unique_ptr<index::ShardedIndex> index_;
};

TEST_F(ServeEngineTest, HitAndMissCounters) {
  Engine engine(index_.get(), {});
  EXPECT_FALSE(engine.Search("alpha").from_cache);
  EXPECT_TRUE(engine.Search("alpha").from_cache);
  EXPECT_TRUE(engine.Search("alpha").from_cache);
  EXPECT_FALSE(engine.Search("beta").from_cache);

  auto stats = engine.stats();
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_NEAR(stats.HitRate(), 0.5, 1e-12);
  EXPECT_EQ(engine.cache_size(), 2u);
}

TEST_F(ServeEngineTest, CachedHitsAreIdenticalToFreshOnes) {
  Engine engine(index_.get(), {});
  auto fresh = engine.Search("alpha document");
  auto cached = engine.Search("alpha document");
  ASSERT_TRUE(cached.from_cache);
  ASSERT_EQ(fresh.hits.size(), cached.hits.size());
  for (size_t i = 0; i < fresh.hits.size(); ++i) {
    EXPECT_EQ(fresh.hits[i].doc, cached.hits[i].doc);
    EXPECT_EQ(fresh.hits[i].score, cached.hits[i].score);
  }
}

TEST_F(ServeEngineTest, LruEvictionDropsLeastRecentlyUsed) {
  EngineOptions opts;
  opts.cache_capacity = 2;
  Engine engine(index_.get(), opts);

  (void)engine.Search("alpha");  // cache: [alpha]
  (void)engine.Search("beta");   // cache: [beta, alpha]
  EXPECT_EQ(engine.cache_size(), 2u);

  // Touch alpha so beta becomes the LRU entry, then insert gamma.
  EXPECT_TRUE(engine.Search("alpha").from_cache);  // cache: [alpha, beta]
  (void)engine.Search("gamma");                    // evicts beta

  EXPECT_EQ(engine.stats().evictions, 1u);
  EXPECT_EQ(engine.cache_size(), 2u);
  EXPECT_TRUE(engine.Search("alpha").from_cache);
  EXPECT_TRUE(engine.Search("gamma").from_cache);
  EXPECT_FALSE(engine.Search("beta").from_cache);  // was evicted
}

TEST_F(ServeEngineTest, QueryNormalizationSharesEntries)  {
  Engine engine(index_.get(), {});
  EXPECT_EQ(Engine::NormalizeQuery("  ALPHA   Document!"), "alpha document");
  EXPECT_FALSE(engine.Search("alpha document").from_cache);
  EXPECT_TRUE(engine.Search("  ALPHA   Document!").from_cache);
  EXPECT_TRUE(engine.Search("Alpha, DOCUMENT").from_cache);
  EXPECT_EQ(engine.cache_size(), 1u);
}

TEST_F(ServeEngineTest, DifferentTopKIsADifferentEntry) {
  Engine engine(index_.get(), {});
  EXPECT_FALSE(engine.Search("document", 2).from_cache);
  EXPECT_FALSE(engine.Search("document", 3).from_cache);
  EXPECT_TRUE(engine.Search("document", 2).from_cache);
  EXPECT_EQ(engine.Search("document", 2).hits.size(), 2u);
  EXPECT_EQ(engine.Search("document", 3).hits.size(), 3u);
}

TEST_F(ServeEngineTest, IngestInvalidatesStaleCachedResults) {
  Engine engine(index_.get(), {});
  auto before = engine.Search("epsilon");
  EXPECT_TRUE(before.hits.empty());
  EXPECT_TRUE(engine.Search("epsilon").from_cache);

  // New content arrives (the surfacing driver ingesting mid-serve).
  ASSERT_TRUE(index_->InsertBatch({Doc("u5", "epsilon document body")}).ok());

  auto after = engine.Search("epsilon");
  EXPECT_FALSE(after.from_cache) << "stale entry must not be served";
  ASSERT_EQ(after.hits.size(), 1u);
  EXPECT_EQ(index_->doc(after.hits[0].doc).url, "u5");
  EXPECT_EQ(engine.stats().invalidations, 1u);

  // The refreshed result is cached again at the new epoch.
  EXPECT_TRUE(engine.Search("epsilon").from_cache);
}

TEST_F(ServeEngineTest, InvalidationsAreAttributedToTheActiveIngestSource) {
  Engine engine(index_.get(), {});
  EXPECT_EQ(engine.stats().last_invalidation_epoch, 0u);

  // Default tag: plain "ingest".
  (void)engine.Search("alpha");
  ASSERT_TRUE(index_->InsertBatch({Doc("u5", "epsilon document body")}).ok());
  (void)engine.Search("alpha");

  // Switch feeds: subsequent invalidations belong to the new source.
  engine.SetIngestSource("distributed-ingest");
  (void)engine.Search("beta");
  ASSERT_TRUE(index_->InsertBatch({Doc("u6", "zeta document body")}).ok());
  (void)engine.Search("alpha");
  (void)engine.Search("beta");

  auto stats = engine.stats();
  EXPECT_EQ(stats.invalidations, 3u);
  EXPECT_EQ(stats.invalidations_by_source.at("ingest"), 1u);
  EXPECT_EQ(stats.invalidations_by_source.at("distributed-ingest"), 2u);
  EXPECT_EQ(stats.last_invalidation_epoch, index_->ingest_epoch())
      << "the epoch that evicted the last entry is the current one";
}

TEST_F(ServeEngineTest, SuppressedDuplicateIngestKeepsCacheValid) {
  Engine engine(index_.get(), {});
  (void)engine.Search("alpha");
  // Duplicate content: nothing enters the index, results cannot change,
  // so the cache entry stays valid.
  ASSERT_TRUE(index_->InsertBatch({Doc("dup", "alpha document body")}).ok());
  EXPECT_TRUE(engine.Search("alpha").from_cache);
  EXPECT_EQ(engine.stats().invalidations, 0u);
}

TEST_F(ServeEngineTest, ZeroCapacityDisablesCaching) {
  EngineOptions opts;
  opts.cache_capacity = 0;
  Engine engine(index_.get(), opts);
  EXPECT_FALSE(engine.Search("alpha").from_cache);
  EXPECT_FALSE(engine.Search("alpha").from_cache);
  EXPECT_EQ(engine.cache_size(), 0u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_EQ(engine.stats().cache_misses, 2u);
}

TEST_F(ServeEngineTest, ClearCacheDropsEntriesButKeepsCounters) {
  Engine engine(index_.get(), {});
  (void)engine.Search("alpha");
  EXPECT_TRUE(engine.Search("alpha").from_cache);
  engine.ClearCache();
  EXPECT_EQ(engine.cache_size(), 0u);
  EXPECT_FALSE(engine.Search("alpha").from_cache);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
}

TEST_F(ServeEngineTest, SearchBatchIsPositionalAndEqualsSequential) {
  std::vector<std::string> queries = {"alpha", "beta", "document body",
                                      "gamma", "alpha", "nosuchterm"};
  Engine sequential(index_.get(), {});
  std::vector<ServeResult> expected;
  for (const auto& q : queries) expected.push_back(sequential.Search(q));

  Engine batched(index_.get(), {});
  auto results = batched.SearchBatch(queries, 4);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].hits.size(), expected[i].hits.size()) << i;
    for (size_t j = 0; j < results[i].hits.size(); ++j) {
      EXPECT_EQ(results[i].hits[j].doc, expected[i].hits[j].doc);
      EXPECT_EQ(results[i].hits[j].score, expected[i].hits[j].score);
    }
  }
  EXPECT_EQ(batched.stats().batches, 1u);
  EXPECT_EQ(batched.stats().queries, queries.size());
}

TEST(ServeEngineConcurrencyTest, SearchBatchDuringConcurrentIngest) {
  // The serving contract under concurrent ingest: no data races (TSan
  // job), every query answered, and afterwards the engine agrees with
  // the index. Results mid-race may reflect pre- or post-ingest state —
  // either is correct serving, staleness is not.
  index::ShardedIndexOptions sopts;
  sopts.num_shards = 4;
  index::ShardedIndex index(sopts);
  std::vector<index::Document> seed_docs;
  for (int i = 0; i < 40; ++i) {
    seed_docs.push_back(Doc("seed" + std::to_string(i),
                            "common term seed body " + std::to_string(i)));
  }
  ASSERT_TRUE(index.InsertBatch(seed_docs).ok());

  EngineOptions eopts;
  eopts.cache_capacity = 32;
  Engine engine(&index, eopts);

  std::vector<std::string> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(i % 3 == 0 ? "common term" : "body " + std::to_string(i));
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      // Keep serving while ingest runs; a floor of three passes keeps
      // the test meaningful even if the writer wins every race.
      int iterations = 0;
      do {
        auto results = engine.SearchBatch(queries, 2);
        EXPECT_EQ(results.size(), queries.size());
        for (const auto& res : results) {
          answered += res.hits.size() + 1;
        }
        ++iterations;
      } while (!done || iterations < 3);
    });
  }
  std::thread writer([&] {
    for (int batch = 0; batch < 25; ++batch) {
      std::vector<index::Document> docs;
      for (int d = 0; d < 4; ++d) {
        std::string tag = std::to_string(batch) + "_" + std::to_string(d);
        docs.push_back(Doc("new" + tag, "common term fresh body " + tag));
      }
      EXPECT_TRUE(index.InsertBatch(docs).ok());
    }
    done = true;
  });
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_GT(answered, 0u);
  EXPECT_EQ(index.num_docs(), 40u + 25u * 4u);
  auto stats = engine.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries);

  // Settled state: the engine now serves exactly what the index holds.
  auto final_hits = engine.Search("common term", 20);
  auto direct = index.Search("common term", 20);
  ASSERT_EQ(final_hits.hits.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(final_hits.hits[i].doc, direct[i].doc);
    EXPECT_EQ(final_hits.hits[i].score, direct[i].score);
  }
}

TEST(ServeEngineConcurrencyTest,
     SearchDuringIngestOverSealedAndUnsealedBlocks) {
  // The compressed block layout under interleaved ingest-while-search
  // (TSan job): a tiny block size makes every few ingested documents
  // seal (bit-pack the ids) another block while readers hold live
  // cursors over already-sealed blocks and the raw unsealed tails, and
  // warm-up scores candidates from the forward index the writer is
  // appending to. ShardedIndex's reader/writer lock is what makes this
  // safe — the point of the test is that sealing happens entirely
  // inside the writer's critical section, so a reader never observes a
  // half-built block. After the race settles,
  // results must be byte-identical to an exhaustive uncompressed
  // reference over the same documents.
  index::ShardedIndexOptions sopts;
  sopts.num_shards = 3;
  sopts.index.enable_pruning = true;
  sopts.index.pruning_min_postings = 0;  // force block-max maxscore
  sopts.index.compress_postings = true;
  sopts.index.posting_block_size = 8;  // seal constantly
  index::ShardedIndex index(sopts);
  std::vector<index::Document> seed_docs;
  for (int i = 0; i < 60; ++i) {
    seed_docs.push_back(Doc("seed" + std::to_string(i),
                            "common term seed body " + std::to_string(i)));
  }
  ASSERT_TRUE(index.InsertBatch(seed_docs).ok());

  EngineOptions eopts;
  eopts.cache_capacity = 16;
  Engine engine(&index, eopts);

  std::vector<std::string> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back(i % 2 == 0 ? "common term"
                                 : "body " + std::to_string(i * 7));
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      int iterations = 0;
      do {
        auto results = engine.SearchBatch(queries, 2);
        EXPECT_EQ(results.size(), queries.size());
        ++iterations;
      } while (!done || iterations < 3);
    });
  }
  std::thread writer([&] {
    for (int batch = 0; batch < 30; ++batch) {
      std::vector<index::Document> docs;
      for (int d = 0; d < 3; ++d) {
        std::string tag = std::to_string(batch) + "_" + std::to_string(d);
        docs.push_back(Doc("new" + tag, "common term fresh body " + tag));
      }
      EXPECT_TRUE(index.InsertBatch(docs).ok());
    }
    done = true;
  });
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(index.num_docs(), 60u + 30u * 3u);

  // Settled equivalence: an exhaustive, uncompressed single-shard index
  // over the same documents in the same insertion order must agree byte
  // for byte.
  index::ShardedIndexOptions ref_sopts;
  ref_sopts.num_shards = 1;
  ref_sopts.index.enable_pruning = false;
  index::ShardedIndex settled(ref_sopts);
  std::vector<index::Document> all_docs = seed_docs;
  for (int batch = 0; batch < 30; ++batch) {
    for (int d = 0; d < 3; ++d) {
      std::string tag = std::to_string(batch) + "_" + std::to_string(d);
      all_docs.push_back(Doc("new" + tag, "common term fresh body " + tag));
    }
  }
  ASSERT_TRUE(settled.InsertBatch(all_docs).ok());
  for (const auto& q : queries) {
    auto expected = settled.Search(q, 20);
    auto got = engine.Search(q, 20).hits;
    ASSERT_EQ(expected.size(), got.size()) << q;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].doc, got[i].doc) << q;
      EXPECT_EQ(expected[i].score, got[i].score) << q;
    }
  }
}

// --- Per-request deadlines (the open-loop harness's shed path). ---

/// Read-only index whose every search takes a fixed amount of time —
/// the "saturated backend" the deadline semantics are defined against.
class SlowIndex : public index::SearchIndex {
 public:
  SlowIndex(const index::SearchIndex* inner, int sleep_ms)
      : inner_(inner), sleep_ms_(sleep_ms) {}

  std::vector<index::SearchHit> Search(const std::string& query,
                                       size_t k) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    return inner_->Search(query, k);
  }
  // The serve engine tokenizes itself and calls SearchTerms, so the
  // delay must live here too or the engine never sees a slow backend.
  std::vector<index::SearchHit> SearchTerms(
      const std::vector<std::string>& terms, size_t k) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    return inner_->SearchTerms(terms, k);
  }
  index::DocInfo doc(index::DocId id) const override {
    return inner_->doc(id);
  }
  const index::DocInfo& doc_ref(index::DocId id) const override {
    return inner_->doc_ref(id);
  }
  size_t num_docs() const override { return inner_->num_docs(); }
  uint64_t ingest_epoch() const override { return inner_->ingest_epoch(); }

 private:
  const index::SearchIndex* inner_;
  int sleep_ms_;
};

TEST_F(ServeEngineTest, ExpiredDeadlineShedsWithoutTouchingIndexOrCache) {
  Engine engine(index_.get(), {});
  auto past = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  auto shed = engine.Search("alpha", 10, past);
  EXPECT_TRUE(shed.status.IsDeadlineExceeded());
  EXPECT_TRUE(shed.hits.empty());
  EXPECT_FALSE(shed.from_cache);

  auto stats = engine.stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.cache_misses, 0u) << "a shed request must not reach the index";
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(engine.cache_size(), 0u) << "a shed request must not fill the cache";

  // The same query with a live deadline serves normally afterwards.
  auto ok = engine.Search("alpha", 10,
                          std::chrono::steady_clock::now() +
                              std::chrono::seconds(5));
  EXPECT_TRUE(ok.status.ok());
  EXPECT_FALSE(ok.hits.empty());
}

TEST_F(ServeEngineTest, LiveDeadlineServesIdenticallyToNoDeadline) {
  Engine engine(index_.get(), {});
  auto plain = engine.Search("alpha document", 10);
  Engine fresh(index_.get(), {});
  auto dl = fresh.Search("alpha document", 10,
                         std::chrono::steady_clock::now() +
                             std::chrono::seconds(5));
  ASSERT_TRUE(dl.status.ok());
  ASSERT_EQ(plain.hits.size(), dl.hits.size());
  for (size_t i = 0; i < plain.hits.size(); ++i) {
    EXPECT_EQ(plain.hits[i].doc, dl.hits[i].doc);
    EXPECT_EQ(plain.hits[i].score, dl.hits[i].score);
  }
  EXPECT_EQ(fresh.stats().deadline_exceeded, 0u);
}

TEST_F(ServeEngineTest, AdmittedSearchRunsToCompletionPastItsDeadline) {
  // The deadline bounds *queueing* delay, not execution: a request
  // admitted with time to spare finishes normally even if the index
  // work itself overruns the deadline (index searches do not cancel).
  SlowIndex slow(index_.get(), 20);
  EngineOptions eopts;
  eopts.cache_capacity = 0;
  Engine engine(&slow, eopts);
  auto res = engine.Search("alpha", 10,
                           std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(1));
  EXPECT_TRUE(res.status.ok());
  EXPECT_FALSE(res.hits.empty());
  EXPECT_EQ(engine.stats().deadline_exceeded, 0u);
}

TEST_F(ServeEngineTest, SaturatedBatchShedsItsTail) {
  // 20 distinct queries at 20ms each over 2 workers is 200ms of work
  // against a 100ms deadline: the head is served, the tail expires in
  // the queue — queueing collapse as a counter instead of a stall.
  SlowIndex slow(index_.get(), 20);
  EngineOptions eopts;
  eopts.cache_capacity = 0;  // distinct queries; measure the queue
  Engine engine(&slow, eopts);
  std::vector<std::string> queries;
  for (int i = 0; i < 20; ++i) {
    queries.push_back("alpha q" + std::to_string(i));
  }
  auto results = engine.SearchBatch(queries, 2, /*deadline_ms=*/100.0);
  ASSERT_EQ(results.size(), queries.size());
  size_t ok = 0, shed = 0;
  for (const auto& r : results) {
    if (r.status.ok()) {
      ++ok;
    } else {
      EXPECT_TRUE(r.status.IsDeadlineExceeded());
      EXPECT_TRUE(r.hits.empty());
      ++shed;
    }
  }
  EXPECT_GT(shed, 0u) << "200ms of work cannot fit a 100ms deadline";
  EXPECT_GT(ok, 0u) << "the head of the queue was picked up in time";
  auto stats = engine.stats();
  EXPECT_EQ(stats.deadline_exceeded, shed);
  EXPECT_EQ(stats.queries, queries.size());
}

}  // namespace
}  // namespace serve
}  // namespace deepsurf
