// Tests for the analyzer and the BM25 inverted index.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "index/analyzer.h"
#include "index/inverted_index.h"
#include "util/hash.h"
#include "util/rng.h"

namespace deepsurf {
namespace index {
namespace {

TEST(AnalyzerTest, TokenizeLowercasesAndSplits) {
  EXPECT_EQ(Tokenize("Hello, World-99!"),
            (std::vector<std::string>{"hello", "world", "99"}));
}

TEST(AnalyzerTest, ShortAndLongTokensDropped) {
  auto tokens = Tokenize("a ab " + std::string(41, 'x'));
  EXPECT_EQ(tokens, (std::vector<std::string>{"ab"}));
}

TEST(AnalyzerTest, StopWords) {
  EXPECT_TRUE(IsStopWord("the"));
  EXPECT_TRUE(IsStopWord("and"));
  EXPECT_FALSE(IsStopWord("honda"));
}

TEST(AnalyzerTest, ContentTokensDropStopWords) {
  EXPECT_EQ(ContentTokens("the quick fox and the dog"),
            (std::vector<std::string>{"quick", "fox", "dog"}));
}

TEST(AnalyzerTest, TermFrequencies) {
  auto tf = TermFrequencies("car car truck the the the");
  EXPECT_DOUBLE_EQ(tf["car"], 2.0);
  EXPECT_DOUBLE_EQ(tf["truck"], 1.0);
  EXPECT_EQ(tf.count("the"), 0u);
}

class IndexTest : public ::testing::Test {
 protected:
  DocId Add(const std::string& url, const std::string& title,
            const std::string& body, bool deep = false,
            const std::string& host = "h.com") {
    return *index_.AddDocument(url, title, body, deep, host);
  }

  InvertedIndex index_;
};

TEST_F(IndexTest, AddAndSearch) {
  Add("u1", "used cars", "honda civic for sale in austin");
  Add("u2", "recipes", "tomato soup with basil");
  auto hits = index_.Search("honda civic", 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(index_.doc(hits[0].doc).url, "u1");
}

TEST_F(IndexTest, RanksMoreRelevantHigher) {
  Add("generic", "page", "honda mentioned once among many other words "
                         "about various topics entirely unrelated");
  Add("focused", "honda dealer", "honda honda honda certified honda");
  auto hits = index_.Search("honda", 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(index_.doc(hits[0].doc).url, "focused");
}

TEST_F(IndexTest, TitleBoostMatters) {
  Add("title-hit", "honda civic listings", "various cars available here");
  Add("body-hit", "car page", "one honda among other cars listed here");
  auto hits = index_.Search("honda", 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(index_.doc(hits[0].doc).url, "title-hit");
}

TEST_F(IndexTest, MultiTermQueryPrefersBothTerms) {
  Add("both", "x", "ford focus 1993 clean");
  Add("one", "x", "ford truck heavy duty");
  auto hits = index_.Search("ford focus", 10);
  ASSERT_GE(hits.size(), 2u);
  EXPECT_EQ(index_.doc(hits[0].doc).url, "both");
}

TEST_F(IndexTest, DuplicateContentSuppressed) {
  DocId a = Add("u1", "t", "identical body content here");
  DocId b = Add("u2", "t", "identical body content here");
  EXPECT_EQ(a, b);  // second add returns the first doc
  EXPECT_EQ(index_.num_docs(), 1u);
}

TEST_F(IndexTest, DuplicateSuppressionCanBeDisabled) {
  IndexOptions opts;
  opts.suppress_duplicates = false;
  InvertedIndex idx(opts);
  (void)*idx.AddDocument("u1", "t", "same", false, "h");
  (void)*idx.AddDocument("u2", "t", "same", false, "h");
  EXPECT_EQ(idx.num_docs(), 2u);
}

TEST_F(IndexTest, ContainsContent) {
  Add("u1", "t", "some body");
  EXPECT_TRUE(index_.ContainsContent(Fnv1a64("some body")));
  EXPECT_FALSE(index_.ContainsContent(Fnv1a64("other body")));
}

TEST_F(IndexTest, InsertBatchAddsAndSuppressesDuplicates) {
  std::vector<Document> batch;
  batch.push_back(Document{"u1", "t1", "first body text", true, "h.com"});
  batch.push_back(Document{"u2", "t2", "second body text", true, "h.com"});
  batch.push_back(Document{"u3", "t3", "first body text", true, "h.com"});
  auto added = index_.InsertBatch(batch);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 2u);  // u3 duplicates u1's content
  EXPECT_EQ(index_.num_docs(), 2u);
  EXPECT_TRUE(index_.doc(0).is_deep_web);
}

TEST_F(IndexTest, ConcurrentInsertBatchLosesNothing) {
  // 4 writers x 50 distinct documents each; every insert must land.
  static constexpr size_t kWriters = 4;
  static constexpr size_t kDocsPerWriter = 50;
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([this, w] {
      std::vector<Document> batch;
      for (size_t i = 0; i < kDocsPerWriter; ++i) {
        std::string tag =
            "w" + std::to_string(w) + "d" + std::to_string(i);
        batch.push_back(Document{"url-" + tag, "title", "body text " + tag,
                                 false, "h" + std::to_string(w) + ".com"});
      }
      auto added = index_.InsertBatch(batch);
      EXPECT_TRUE(added.ok());
      EXPECT_EQ(*added, kDocsPerWriter);
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(index_.num_docs(), kWriters * kDocsPerWriter);
  for (size_t w = 0; w < kWriters; ++w) {
    EXPECT_EQ(index_.DocsForHost("h" + std::to_string(w) + ".com").size(),
              kDocsPerWriter);
  }
}

TEST_F(IndexTest, DocFrequency) {
  Add("u1", "t", "alpha beta");
  Add("u2", "t", "alpha gamma");
  EXPECT_EQ(index_.DocFrequency("alpha"), 2u);
  EXPECT_EQ(index_.DocFrequency("beta"), 1u);
  EXPECT_EQ(index_.DocFrequency("zeta"), 0u);
}

TEST_F(IndexTest, EmptyQueryAndEmptyIndex) {
  EXPECT_TRUE(index_.Search("anything", 5).empty());
  Add("u1", "t", "body");
  EXPECT_TRUE(index_.Search("", 5).empty());
  EXPECT_TRUE(index_.Search("the and of", 5).empty());  // all stopwords
}

TEST_F(IndexTest, TopKLimitsResults) {
  for (int i = 0; i < 20; ++i) {
    Add("u" + std::to_string(i), "t",
        "shared term document " + std::to_string(i));
  }
  EXPECT_EQ(index_.Search("shared", 5).size(), 5u);
}

TEST_F(IndexTest, DeepWebProvenanceKept) {
  Add("u1", "t", "surface page body", false, "a.com");
  Add("u2", "t", "deep page body", true, "b.com");
  EXPECT_FALSE(index_.doc(0).is_deep_web);
  EXPECT_TRUE(index_.doc(1).is_deep_web);
  EXPECT_EQ(index_.doc(1).source_host, "b.com");
}

TEST_F(IndexTest, DocsForHost) {
  Add("u1", "t", "body one", false, "a.com");
  Add("u2", "t", "body two", false, "a.com");
  Add("u3", "t", "body three", false, "b.com");
  EXPECT_EQ(index_.DocsForHost("a.com").size(), 2u);
  EXPECT_EQ(index_.DocsForHost("z.com").size(), 0u);
}

TEST_F(IndexTest, CharacteristicTermsPreferHostSpecificVocab) {
  // "plumbing" appears only on a.com; "service" is everywhere.
  Add("a1", "t", "plumbing service pipes fittings", false, "a.com");
  Add("a2", "t", "plumbing service drains", false, "a.com");
  Add("b1", "t", "catering service menus", false, "b.com");
  Add("b2", "t", "tutoring service lessons", false, "b.com");
  auto terms = index_.CharacteristicTerms("a.com", 3);
  ASSERT_FALSE(terms.empty());
  EXPECT_EQ(terms[0], "plumbing");
}

// Reference for CharacteristicTerms: walk every term's full posting
// list (built here straight from the documents, body counts then title
// boosts, as ingest weighs them) and sum the weights of the host's
// postings in doc-id order. The index aggregates over the host's
// forward lists instead; the ranking — order and tie-break — must match.
TEST_F(IndexTest, CharacteristicTermsMatchFullPostingsWalk) {
  const std::vector<std::string> vocab = {
      "alpha",  "bravo",  "charlie", "delta",   "echo",   "foxtrot",
      "golf",   "hotel",  "india",   "juliet",  "kilo",   "lima",
      "mike",   "november", "oscar", "papa",    "quebec", "romeo",
      "sierra", "tango",  "uniform", "victor",  "whiskey", "xray",
      "yankee", "zulu",   "amber",   "basalt",  "cobalt", "dune"};
  const std::vector<std::string> hosts = {"a.com", "b.com", "c.com",
                                          "d.com", "e.com"};
  const double title_boost = IndexOptions{}.title_boost;
  struct Posting {
    DocId doc;
    float weight;
  };
  std::map<std::string, std::vector<Posting>> postings;
  std::vector<std::string> doc_host;
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    const std::string& host = hosts[rng.Uniform(hosts.size())];
    // Host-skewed vocabulary, so hosts have distinct characteristic
    // terms, plus a shared tail that produces ties.
    const size_t skew = 5 * static_cast<size_t>(&host - hosts.data());
    std::string body = "doc" + std::to_string(i);
    for (int w = 0, n = 4 + static_cast<int>(rng.Uniform(12)); w < n; ++w) {
      body += " " + (rng.Bernoulli(0.6) ? vocab[skew + rng.Uniform(5)]
                                        : vocab[rng.Uniform(vocab.size())]);
    }
    std::string title =
        rng.Bernoulli(0.3) ? vocab[rng.Uniform(vocab.size())] : "";
    const DocId id = Add("u" + std::to_string(i), title, body, false, host);
    ASSERT_EQ(id, doc_host.size());
    doc_host.push_back(host);
    std::map<std::string, double> weights;
    for (const auto& t : ContentTokens(body)) weights[t] += 1.0;
    for (const auto& t : ContentTokens(title)) weights[t] += title_boost;
    for (const auto& [term, w] : weights) {
      postings[term].push_back(Posting{id, static_cast<float>(w)});
    }
  }
  const double n = static_cast<double>(doc_host.size());
  for (const std::string& host : hosts) {
    std::vector<std::pair<double, std::string>> ranked;
    for (const auto& [term, list] : postings) {
      double tf = 0.0;
      for (const Posting& p : list) {
        if (doc_host[p.doc] == host) tf += static_cast<double>(p.weight);
      }
      if (tf == 0.0) continue;
      const double df = static_cast<double>(list.size());
      ranked.emplace_back(tf * std::log(1.0 + n / df), term);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    for (size_t k : {size_t{1}, size_t{15}, ranked.size()}) {
      std::vector<std::string> want;
      for (size_t i = 0; i < k && i < ranked.size(); ++i) {
        want.push_back(ranked[i].second);
      }
      EXPECT_EQ(index_.CharacteristicTerms(host, k), want)
          << host << " k=" << k;
    }
  }
}

TEST_F(IndexTest, DeterministicTieBreakByDocId) {
  Add("u1", "t", "tie word");
  Add("u2", "t", "tie word extra");
  auto hits1 = index_.Search("tie", 10);
  auto hits2 = index_.Search("tie", 10);
  ASSERT_EQ(hits1.size(), hits2.size());
  for (size_t i = 0; i < hits1.size(); ++i) {
    EXPECT_EQ(hits1[i].doc, hits2[i].doc);
  }
}

}  // namespace
}  // namespace index
}  // namespace deepsurf
