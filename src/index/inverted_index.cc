#include "index/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "index/analyzer.h"
#include "index/bitpack_codec.h"
#include "util/hash.h"
#include "util/logging.h"

namespace deepsurf {
namespace index {

namespace {

/// One query term's score contribution to one document. Both the
/// exhaustive and the maxscore path call exactly this expression, so a
/// candidate's score is bit-for-bit the same however it was computed.
inline double Contribution(double idf, double tf, double norm, double k1) {
  return idf * (tf * (k1 + 1.0)) / (tf + norm);
}

/// Conservative round-up for score bounds: the handful of floating-point
/// operations behind a bound can each err by ~1 ulp (relative 2^-52);
/// a relative 1e-9 margin dwarfs that while costing effectively no
/// pruning power. Bounds are nonnegative.
inline double RoundUp(double x) { return x * (1.0 + 1e-9); }

/// The ranking order: score descending, doc id ascending. Total, so any
/// correct selection of the top k is unique.
inline bool Better(const SearchHit& a, const SearchHit& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

/// First index >= `from` in span[0, n) with span[idx] >= target
/// (galloping then binary search, so a cursor advances within its
/// decoded window in O(log gap) rather than O(gap)).
size_t GallopTo(const DocId* span, size_t n, size_t from, DocId target) {
  // Probes mostly hop a few postings: count the ids below target in the
  // next eight (sorted, so the count is the offset) without a branch
  // per id, and gallop only past that.
  if (from + 8 <= n) {
    size_t below = 0;
    for (size_t i = 0; i < 8; ++i) below += span[from + i] < target;
    if (below < 8) return from + below;
    from += 8;
  }
  if (from >= n || span[from] >= target) return from;
  size_t lo = from;
  size_t step = 1;
  while (lo + step < n && span[lo + step] < target) {
    lo += step;
    step <<= 1;
  }
  const size_t hi = std::min(n, lo + step + 1);
  return static_cast<size_t>(std::lower_bound(span + lo + 1, span + hi,
                                              target) -
                             span);
}

/// Deep-k exhaustive fallback factor: maxscore only pays once the top-k
/// threshold rises well above a typical candidate's score, which cannot
/// happen when k is a sizable fraction of the candidate pool
/// (min(candidate postings, corpus size)) — and its per-candidate
/// cursor overhead grows with the number of query terms, so the
/// break-even k shrinks as queries get longer. When
/// k * resolved_query_terms * kPruningKFallback >= the pool, the
/// exhaustive scan wins and is used — this is what keeps deep-k
/// many-term queries on small corpora from paying maxscore's cursor
/// machinery for no pruning.
constexpr size_t kPruningKFallback = 24;

/// Per-thread scoring scratch, reused across queries so a warmed-up
/// thread scores without allocating beyond its result vector.
struct SearchScratch {
  /// Dense score accumulator: indexed by doc id in the exhaustive scan
  /// (grown to the largest index the thread has searched), by window
  /// offset in the maxscore sweep. All-zero between queries — both
  /// scorers reset every slot they touched while selecting — so no
  /// query pays an O(num_docs) clear.
  std::vector<double> acc;
  /// Exhaustive scan: the doc ids `acc` holds, in first-touch order.
  std::vector<DocId> touched;
  /// Maxscore: per query position, the window's posting weights.
  std::vector<float> win_weight;
  /// Maxscore warm-up: (doc, one term's contribution) from warm blocks.
  std::vector<SearchHit> warm;
};

SearchScratch& ThreadScratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

}  // namespace

// ---------------------------------------------------------------------
// PostingCursor.

void InvertedIndex::PostingCursor::Init(const InvertedIndex* idx,
                                        const PostingList* list) {
  pl = list;
  owner = idx;
  block_size = static_cast<uint32_t>(idx->options_.posting_block_size);
  compressed = idx->options_.compress_postings;
  pos = 0;
  decoded = 0;
  skipped = 0;
  cache_hits = 0;
  stale = false;
  LoadSegment(0);
}

void InvertedIndex::PostingCursor::LoadSegment(uint32_t segment) {
  seg = segment;
  const uint32_t nblocks = static_cast<uint32_t>(pl->blocks.size());
  if (segment < nblocks) {
    win_begin = segment * block_size;
    win_end = win_begin + block_size;
    bool hit = false;
    window = owner->SealedBlockIds(*pl, segment, &scratch, &hit);
    hit ? ++cache_hits : ++decoded;
  } else {
    // The unsealed tail: raw ids in both modes (compressed lists keep
    // only the tail in `docs`).
    win_begin = nblocks * block_size;
    win_end = pl->count;
    window = compressed ? pl->docs.data() : pl->docs.data() + win_begin;
  }
}

float InvertedIndex::PostingCursor::SegMaxWeight() const {
  return seg < pl->blocks.size() ? pl->blocks[seg].max_weight
                                 : pl->tail_max_weight;
}

DocId InvertedIndex::PostingCursor::SegLastDoc() const {
  if (seg < pl->blocks.size()) return pl->blocks[seg].last_doc;
  return window[win_end - win_begin - 1];  // cursor in a non-empty tail
}

void InvertedIndex::PostingCursor::Next() {
  ++pos;
  if (pos >= win_end && pos < pl->count) LoadSegment(seg + 1);
}

void InvertedIndex::PostingCursor::EnsureLoaded() {
  if (!stale) return;
  stale = false;
  LoadSegment(seg);
  pos = win_begin + static_cast<uint32_t>(
                        GallopTo(window, win_end - win_begin, 0, pending));
}

void InvertedIndex::PostingCursor::SkipSegTo(DocId target) {
  if (AtEnd()) return;
  if (stale ? target <= pending : Doc() >= target) return;
  if (target <= SegLastDoc()) {
    if (stale) {
      pending = target;  // still this segment; defer the gallop too
    } else {
      pos = win_begin + static_cast<uint32_t>(GallopTo(
                window, win_end - win_begin, pos - win_begin, target));
    }
    return;
  }
  if (stale) {
    // Leaving the deferred landing segment without ever decoding it —
    // the whole point of the deferral.
    stale = false;
    ++skipped;
  }
  const uint32_t nblocks = static_cast<uint32_t>(pl->blocks.size());
  if (seg >= nblocks) {  // in the tail; target is past its last doc
    pos = pl->count;
    return;
  }
  const auto* first = pl->blocks.data() + seg + 1;
  const auto* last = pl->blocks.data() + nblocks;
  const auto* hit = std::lower_bound(
      first, last, target,
      [](const BlockMeta& b, DocId t) { return b.last_doc < t; });
  if (hit == last) {
    skipped += nblocks - seg - 1;
    pos = nblocks * block_size;
    if (pos >= pl->count) return;  // no tail: list exhausted
    LoadSegment(nblocks);          // the tail is raw — loading is free
    if (target > SegLastDoc()) {
      pos = pl->count;
      return;
    }
    pos = win_begin + static_cast<uint32_t>(
                          GallopTo(window, win_end - win_begin, 0, target));
    return;
  }
  const uint32_t b = static_cast<uint32_t>(hit - pl->blocks.data());
  skipped += b - seg - 1;
  if (compressed) {
    // Lazy landing: move the metadata, defer the decode. EnsureLoaded
    // pays it only if the caller actually reads this segment.
    seg = b;
    win_begin = b * block_size;
    win_end = win_begin + block_size;
    pos = win_begin;
    pending = target;
    stale = true;
  } else {
    pos = b * block_size;
    LoadSegment(b);
    pos = win_begin + static_cast<uint32_t>(
                          GallopTo(window, win_end - win_begin, 0, target));
  }
}

void InvertedIndex::PostingCursor::SeekTo(DocId target) {
  // Fast path: the target is inside the loaded segment.
  if (!stale && pos < win_end && window[win_end - win_begin - 1] >= target) {
    pos = win_begin + static_cast<uint32_t>(GallopTo(
              window, win_end - win_begin, pos - win_begin, target));
    return;
  }
  SkipSegTo(target);
  EnsureLoaded();
}

// ---------------------------------------------------------------------

const DocId* InvertedIndex::SealedBlockIds(const PostingList& pl, uint32_t b,
                                           std::vector<DocId>* scratch,
                                           bool* hit) const {
  const size_t block = options_.posting_block_size;
  if (!options_.compress_postings) {
    *hit = false;
    return pl.docs.data() + b * block;
  }
  if (b < pl.pinned_cap) {
    const DocId* p = pl.pinned[b].load(std::memory_order_acquire);
    if (p != nullptr) {
      *hit = true;
      return p;
    }
  }
  *hit = false;
  const int64_t cost = static_cast<int64_t>(block * sizeof(DocId));
  bool pin = false;
  if (b < pl.pinned_cap) {
    if (decode_cache_left_.fetch_sub(cost, std::memory_order_relaxed) >=
        cost) {
      pin = true;
    } else {
      decode_cache_left_.fetch_add(cost, std::memory_order_relaxed);
    }
  }
  DocId* buf;
  if (pin) {
    buf = new DocId[block];
  } else {
    scratch->resize(block);
    buf = scratch->data();
  }
  const uint8_t* data = pl.packed.data();
  const uint8_t* p = data + pl.blocks[b].offset;
  const uint8_t* end = b + 1 < pl.blocks.size()
                           ? data + pl.blocks[b + 1].offset
                           : data + pl.packed.size();
  const DocId base = b == 0 ? 0 : pl.blocks[b - 1].last_doc;
  DS_CHECK(DecodeBitpackBlock(p, end, block, base, buf) != 0)
      << "corrupt sealed posting block";
  if (!pin) return buf;
  const DocId* expected = nullptr;
  if (!pl.pinned[b].compare_exchange_strong(expected, buf,
                                            std::memory_order_release,
                                            std::memory_order_acquire)) {
    // A concurrent query published first; its decode is identical
    // (immutable input, deterministic codec), so adopt it.
    delete[] buf;
    decode_cache_left_.fetch_add(cost, std::memory_order_relaxed);
    return expected;
  }
  return buf;
}

template <typename Fn>
uint64_t InvertedIndex::ForEachPosting(const PostingList& pl, Fn&& fn) const {
  const size_t block = options_.posting_block_size;
  const size_t nblocks = pl.blocks.size();
  std::vector<DocId> scratch;
  uint64_t hits = 0;
  for (size_t b = 0; b < nblocks; ++b) {
    bool hit = false;
    const DocId* ids =
        SealedBlockIds(pl, static_cast<uint32_t>(b), &scratch, &hit);
    hits += hit;
    const float* w = pl.weights.data() + b * block;
    for (size_t j = 0; j < block; ++j) fn(ids[j], w[j]);
  }
  const size_t sealed = nblocks * block;
  const DocId* tail =
      options_.compress_postings ? pl.docs.data() : pl.docs.data() + sealed;
  for (size_t j = sealed; j < pl.count; ++j) {
    fn(tail[j - sealed], pl.weights[j]);
  }
  return hits;
}

void InvertedIndex::GrowPinnedLocked(PostingList* pl) {
  const uint32_t need = static_cast<uint32_t>(pl->blocks.size());
  if (need <= pl->pinned_cap) return;
  const uint32_t cap =
      std::max(need, pl->pinned_cap == 0 ? 4u : pl->pinned_cap * 2);
  // Value-initialized: every new slot starts null.
  auto grown = std::make_unique<std::atomic<const DocId*>[]>(cap);
  for (uint32_t i = 0; i < pl->pinned_cap; ++i) {
    grown[i].store(pl->pinned[i].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
  pl->pinned = std::move(grown);
  pl->pinned_cap = cap;
}

// ---------------------------------------------------------------------

InvertedIndex::InvertedIndex(IndexOptions options)
    : options_(options) {
  if (options_.posting_block_size == 0) options_.posting_block_size = 128;
  decode_cache_left_.store(
      static_cast<int64_t>(options_.decode_cache_bytes),
      std::memory_order_relaxed);
}

Result<DocId> InvertedIndex::AddDocument(const std::string& url,
                                         const std::string& title,
                                         const std::string& body,
                                         bool is_deep_web,
                                         const std::string& source_host) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  return AddDocumentLocked(url, title, body, is_deep_web, source_host);
}

Result<size_t> InvertedIndex::InsertBatch(const std::vector<Document>& docs,
                                          std::vector<bool>* newly_added) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (newly_added != nullptr) newly_added->assign(docs.size(), false);
  doc_lengths_.reserve(doc_lengths_.size() + docs.size());
  forward_.reserve(forward_.size() + docs.size());
  size_t added = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    const auto& d = docs[i];
    size_t before = docs_.size();
    auto id = AddDocumentLocked(d.url, d.title, d.body, d.is_deep_web,
                                d.source_host);
    if (!id.ok()) return id.status();
    if (docs_.size() > before) {
      ++added;
      if (newly_added != nullptr) (*newly_added)[i] = true;
    }
  }
  return added;
}

TermId InvertedIndex::InternLocked(const std::string& term) {
  auto [it, inserted] =
      dict_.emplace(term, static_cast<TermId>(term_names_.size()));
  if (inserted) {
    term_names_.push_back(term);
    postings_.emplace_back();
  }
  return it->second;
}

void InvertedIndex::AppendPostingLocked(PostingList* pl, DocId id, float w) {
  pl->docs.push_back(id);  // ids only grow, so lists stay ascending
  pl->weights.push_back(w);
  ++pl->count;
  if (w > pl->max_weight) pl->max_weight = w;
  if (w > pl->tail_max_weight) pl->tail_max_weight = w;
  const size_t block = options_.posting_block_size;
  if (pl->count - pl->blocks.size() * block < block) return;
  // The tail just filled a whole block: seal it. Lazy sealing at ingest
  // keeps the list append-only — queries racing through ShardedIndex
  // never observe a half-built block (ingest holds the writer lock).
  BlockMeta meta;
  meta.last_doc = pl->docs.back();
  meta.max_weight = pl->tail_max_weight;
  if (options_.compress_postings) {
    meta.offset = pl->packed.size();
    const DocId base = pl->blocks.empty() ? 0 : pl->blocks.back().last_doc;
    EncodeBitpackBlock(pl->docs.data(), block, base, &pl->packed);
    pl->docs.clear();
  }
  const uint32_t bidx = static_cast<uint32_t>(pl->blocks.size());
  pl->blocks.push_back(meta);
  if (options_.compress_postings && options_.decode_cache_bytes > 0) {
    GrowPinnedLocked(pl);
  }
  // Keep the impact order sorted (max_weight descending, index
  // ascending): one ordered insert per seal, amortized over block_size
  // appends.
  auto pos = std::upper_bound(
      pl->impact_order.begin(), pl->impact_order.end(), bidx,
      [pl](uint32_t a, uint32_t b) {
        const float wa = pl->blocks[a].max_weight;
        const float wb = pl->blocks[b].max_weight;
        if (wa != wb) return wa > wb;
        return a < b;
      });
  pl->impact_order.insert(pos, bidx);
  pl->tail_max_weight = 0.0f;
}

Result<DocId> InvertedIndex::AddDocumentLocked(const std::string& url,
                                               const std::string& title,
                                               const std::string& body,
                                               bool is_deep_web,
                                               const std::string& source_host) {
  uint64_t hash = Fnv1a64(body);
  if (options_.suppress_duplicates) {
    auto it = by_hash_.find(hash);
    if (it != by_hash_.end()) {
      return Result<DocId>(it->second);
    }
  }
  DocId id = static_cast<DocId>(docs_.size());

  // Single pass over the tokens: intern each term and accumulate its
  // weight by dense id (body counts first, then title boosts — per-term
  // addition order is part of the scoring contract).
  auto body_tokens = ContentTokens(body);
  std::unordered_map<TermId, double> weights;
  weights.reserve(body_tokens.size());
  for (const auto& t : body_tokens) weights[InternLocked(t)] += 1.0;
  for (const auto& t : ContentTokens(title)) {
    weights[InternLocked(t)] += options_.title_boost;
  }

  DocInfo info;
  info.url = url;
  info.title = title;
  info.length = static_cast<uint32_t>(body_tokens.size());
  info.content_hash = hash;
  info.is_deep_web = is_deep_web;
  info.source_host = source_host;
  docs_.push_back(std::move(info));
  doc_lengths_.push_back(static_cast<float>(body_tokens.size()));
  total_length_ += static_cast<double>(body_tokens.size());
  if (body_tokens.size() < min_length_) {
    min_length_ = static_cast<uint32_t>(body_tokens.size());
  }

  std::vector<std::pair<TermId, float>> fwd;
  fwd.reserve(weights.size());
  for (const auto& [tid, w] : weights) {
    fwd.emplace_back(tid, static_cast<float>(w));
  }
  std::sort(fwd.begin(), fwd.end());  // by TermId; ids unique per doc
  for (const auto& [tid, w] : fwd) {
    PostingList& pl = postings_[tid];
    if (pl.weights.empty()) {
      pl.docs.reserve(4);
      pl.weights.reserve(4);
    }
    AppendPostingLocked(&pl, id, w);
  }
  forward_.push_back(std::move(fwd));
  by_hash_.emplace(hash, id);
  by_host_[source_host].push_back(id);
  return id;
}

std::shared_ptr<const InvertedIndex::NormCache> InvertedIndex::Norms(
    double avg_len, size_t total_postings) const {
  {
    std::lock_guard<std::mutex> lock(norm_mu_);
    if (norms_ != nullptr && norms_->avg_len == avg_len &&
        norms_->num_docs == docs_.size()) {
      return norms_;
    }
  }
  // Stale (or absent) cache: only pay the O(num_docs) rebuild for a
  // query whose postings volume amortizes it — otherwise the caller
  // scores inline from the length array (same float bits) and the cache
  // is left for a bigger query or a quieter index to build.
  if (total_postings * 8 < docs_.size()) return nullptr;
  // Build outside the lock so concurrent queries are never stalled
  // behind an O(num_docs) fill; racing builders produce identical
  // content for the same (avg_len, num_docs) key, so last-write-wins
  // is harmless.
  auto cache = std::make_shared<NormCache>();
  cache->avg_len = avg_len;
  cache->num_docs = docs_.size();
  cache->norm.resize(docs_.size());
  const double k1 = options_.bm25_k1;
  const double b = options_.bm25_b;
  for (size_t i = 0; i < cache->norm.size(); ++i) {
    double len = static_cast<double>(doc_lengths_[i]);
    cache->norm[i] = static_cast<float>(k1 * (1.0 - b + b * len / avg_len));
  }
  std::lock_guard<std::mutex> lock(norm_mu_);
  norms_ = cache;
  return cache;
}

std::vector<SearchHit> InvertedIndex::Search(const std::string& query,
                                             size_t k) const {
  return SearchTerms(ContentTokens(query), k);
}

std::vector<SearchHit> InvertedIndex::SearchTerms(
    const std::vector<std::string>& terms, size_t k) const {
  return SearchTermsScored(terms, k, nullptr);
}

std::vector<SearchHit> InvertedIndex::SearchTermsScored(
    const std::vector<std::string>& terms, size_t k,
    const CorpusStats* stats) const {
  if (terms.empty() || docs_.empty() || k == 0) return {};
  stat_queries_.fetch_add(1, std::memory_order_relaxed);
  double n = stats != nullptr ? stats->num_docs
                              : static_cast<double>(docs_.size());
  double total_len = stats != nullptr ? stats->total_length : total_length_;
  double avg_len = n > 0.0 ? total_len / n : 1.0;
  if (avg_len <= 0.0) avg_len = 1.0;

  // Resolve the query once: per present term position, its posting list,
  // idf, and a conservative per-document score cap (max posting weight
  // against the smallest length norm, rounded up). The norm is monotone
  // in document length and float rounding preserves order, so the
  // shortest document's norm is exactly the smallest norm any document
  // scores with — no array scan needed for the bound floor.
  const double k1 = options_.bm25_k1;
  const double b = options_.bm25_b;
  const double min_norm = static_cast<float>(
      k1 * (1.0 - b + b * static_cast<double>(min_length_) / avg_len));
  // A mis-sized term_df would silently fall back to shard-local
  // frequencies and quietly break cross-shard byte equivalence — fail
  // loudly instead (empty means "use local stats" by design).
  DS_CHECK(stats == nullptr || stats->term_df.empty() ||
           stats->term_df.size() == terms.size())
      << "CorpusStats::term_df must parallel the query terms";
  const bool injected_df =
      stats != nullptr && !stats->term_df.empty();
  std::vector<QueryTerm> query;
  query.reserve(terms.size());
  size_t total_postings = 0;
  for (size_t i = 0; i < terms.size(); ++i) {
    auto it = dict_.find(terms[i]);
    if (it == dict_.end()) continue;
    const PostingList& pl = postings_[it->second];
    double df = injected_df ? static_cast<double>(stats->term_df[i])
                            : static_cast<double>(pl.count);
    QueryTerm qt;
    qt.postings = &pl;
    qt.idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
    qt.upper_bound = RoundUp(Contribution(
        qt.idf, static_cast<double>(pl.max_weight), min_norm, k1));
    query.push_back(std::move(qt));
    total_postings += pl.count;
  }
  if (query.empty()) return {};

  auto cache = Norms(avg_len, total_postings);  // null -> inline norms
  NormView norms{cache != nullptr ? cache->norm.data() : nullptr,
                 doc_lengths_.data(), k1, b, avg_len};

  // Pruning cannot help when k covers everything that could match, and
  // does not pay below a postings volume where the exhaustive scan is
  // already cheap. Nor does it pay for a single term: the scan then
  // touches each posting once with no merge and no probes, which
  // maxscore's window and block-max machinery cannot undercut. On top
  // of those, the adaptive deep-k fallback: the top-k threshold only
  // rises high enough to prune when k is a small fraction of the
  // candidate pool, so for deep k on small pools the exhaustive scan
  // wins (see kPruningKFallback). The exhaustive scorer doubles as the
  // explicit fallback — results are byte-identical either way, so this
  // whole decision is unobservable in the output.
  bool prune =
      options_.enable_pruning && k < docs_.size() && k < total_postings;
  if (prune && options_.pruning_min_postings > 0) {
    if (total_postings < options_.pruning_min_postings || query.size() == 1) {
      prune = false;
    } else {
      const size_t pool = std::min(total_postings, docs_.size());
      if (k * query.size() * kPruningKFallback >= pool) {
        prune = false;
      }
    }
  }
  if (!prune) {
    return SearchExhaustive(query, norms, k);
  }
  return SearchMaxScore(query, norms, min_norm, k);
}

std::vector<SearchHit> InvertedIndex::SearchExhaustive(
    const std::vector<QueryTerm>& query, const NormView& norms,
    size_t k) const {
  const double k1 = options_.bm25_k1;
  SearchScratch& scratch = ThreadScratch();
  if (scratch.acc.size() < docs_.size()) scratch.acc.resize(docs_.size());
  double* acc = scratch.acc.data();
  std::vector<DocId>& touched = scratch.touched;
  touched.clear();
  uint64_t pinned_hits = 0;

  // Accumulate per document, terms in query order (the addition sequence
  // is part of the byte-identity contract). Contributions are strictly
  // positive, so 0 doubles as the "untouched" sentinel.
  for (const QueryTerm& qt : query) {
    pinned_hits += ForEachPosting(*qt.postings, [&](DocId d, float w) {
      if (acc[d] == 0.0) touched.push_back(d);
      acc[d] += Contribution(qt.idf, static_cast<double>(w), norms.Of(d), k1);
    });
  }
  uint64_t sealed_blocks = 0;
  for (const QueryTerm& qt : query) sealed_blocks += qt.postings->blocks.size();
  stat_blocks_decoded_.fetch_add(sealed_blocks - pinned_hits,
                                 std::memory_order_relaxed);
  stat_cache_hits_.fetch_add(pinned_hits, std::memory_order_relaxed);

  // Bounded top-k under the ranking order: the heap front is the weakest
  // kept hit, so a full heap rejects a candidate with one comparison.
  // Better is total, so the selection does not depend on touch order.
  std::vector<SearchHit> heap;
  heap.reserve(std::min(k, touched.size()));
  for (DocId d : touched) {
    const SearchHit hit{d, acc[d]};
    acc[d] = 0.0;
    if (heap.size() < k) {
      heap.push_back(hit);
      std::push_heap(heap.begin(), heap.end(), Better);
    } else if (Better(hit, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), Better);
      heap.back() = hit;
      std::push_heap(heap.begin(), heap.end(), Better);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), Better);
  return heap;
}

std::vector<SearchHit> InvertedIndex::SearchMaxScore(
    std::vector<QueryTerm>& query, const NormView& norms, double min_norm,
    size_t k) const {
  const double k1 = options_.bm25_k1;
  const size_t m = query.size();
  const uint32_t block = static_cast<uint32_t>(options_.posting_block_size);
  for (QueryTerm& qt : query) qt.cursor.Init(this, qt.postings);

  // Process lists in ascending upper-bound order; the low-cap prefix
  // becomes "non-essential" once the top-k threshold proves that prefix
  // alone can never promote a document. Ties break on query position so
  // the schedule (not the result, which is order-independent) is
  // deterministic.
  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (query[a].upper_bound != query[b].upper_bound) {
      return query[a].upper_bound < query[b].upper_bound;
    }
    return a < b;
  });
  // prefix[j]: conservative cap on the total contribution of the j+1
  // lowest-bound lists.
  std::vector<double> prefix(m);
  double run = 0.0;
  for (size_t j = 0; j < m; ++j) {
    run += query[order[j]].upper_bound;
    prefix[j] = RoundUp(run);
  }

  // Min-heap of the current top k under the ranking order: heap front is
  // the weakest kept hit.
  std::vector<SearchHit> heap;
  heap.reserve(k + 1);
  // The pruning threshold, once `armed`: a lower bound on the final k-th
  // score — the warm-up's seed, then the full heap's front whenever that
  // is higher. A document whose strictly inflated bound cannot exceed it
  // cannot enter the top k.
  double threshold = 0.0;
  bool armed = false;
  size_t ne = 0;  // order[0..ne) are non-essential
  auto raise = [&](double t) {
    if (armed && t <= threshold) return;
    threshold = t;
    armed = true;
    while (ne < m && prefix[ne] <= threshold) ++ne;
  };

  // Offers an exactly scored document to the top k; once the heap is
  // full its weakest hit bounds the threshold from below, and every
  // rise of it may demote more lists to non-essential.
  auto offer = [&](const SearchHit& hit) {
    if (heap.size() < k) {
      heap.push_back(hit);
      std::push_heap(heap.begin(), heap.end(), Better);
      if (heap.size() < k) return;
    } else if (Better(hit, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), Better);
      heap.back() = hit;
      std::push_heap(heap.begin(), heap.end(), Better);
    } else {
      return;
    }
    raise(heap.front().score);
  };

  // Block-max score cap of the segment a term's cursor sits in,
  // recomputed only when the cursor crosses a segment boundary. Like
  // the list-level bound but against the block's max weight — tighter,
  // and still conservative (min_norm is the corpus-wide norm floor).
  auto seg_bound = [&](QueryTerm& qt) {
    if (qt.seg_of_bound != qt.cursor.seg) {
      qt.seg_of_bound = qt.cursor.seg;
      qt.seg_bound = RoundUp(Contribution(
          qt.idf, static_cast<double>(qt.cursor.SegMaxWeight()), min_norm,
          k1));
    }
    return qt.seg_bound;
  };

  // Impact-ordered warm-up: seed the threshold from the few
  // highest-impact sealed blocks (per-term impact order, priced by each
  // block's idf-scaled score cap), so the sweep starts against a
  // realistic threshold instead of raising it from zero one document at
  // a time. A warm document's single-term contribution is the very
  // Contribution value the exhaustive accumulator adds for it, and
  // adding positive values in floating point never lowers a sum, so
  // each is a lower bound on that document's final score; the k-th
  // largest over k distinct documents is then a lower bound on the
  // final k-th score. Warm documents are not scored here: the sweep
  // scores them like any other document, and every bound test strictly
  // inflates (RoundUp), so a document that ties the seed still reaches
  // exact scoring where the (score, doc id) order decides.
  SearchScratch& scratch = ThreadScratch();
  uint64_t warm_decoded = 0;
  uint64_t warm_cache_hits = 0;
  constexpr size_t kWarmBlocksMax = 4;
  struct WarmBlock {
    double pri;
    size_t t;
    uint32_t b;
  };
  std::vector<WarmBlock> cand;
  for (size_t t = 0; t < m; ++t) {
    const PostingList& pl = *query[t].postings;
    const size_t take = std::min(pl.impact_order.size(), kWarmBlocksMax);
    for (size_t i = 0; i < take; ++i) {
      const uint32_t b = pl.impact_order[i];
      cand.push_back(WarmBlock{
          Contribution(query[t].idf,
                       static_cast<double>(pl.blocks[b].max_weight),
                       min_norm, k1),
          t, b});
    }
  }
  // The fewest blocks that can hold k documents: more would raise the
  // seed a little but decode blocks the sweep may skip. Fewer than k
  // documents give no seed, so the work would prune nothing.
  const size_t warm_blocks =
      std::min({cand.size(), kWarmBlocksMax, (k + block - 1) / block});
  if (warm_blocks * block >= k) {
    std::partial_sort(cand.begin(), cand.begin() + warm_blocks, cand.end(),
                      [](const WarmBlock& a, const WarmBlock& b) {
                        if (a.pri != b.pri) return a.pri > b.pri;
                        if (a.t != b.t) return a.t < b.t;
                        return a.b < b.b;
                      });
    std::vector<SearchHit>& warm = scratch.warm;
    warm.clear();
    std::vector<DocId> decode_buf;
    for (size_t i = 0; i < warm_blocks; ++i) {
      const QueryTerm& qt = query[cand[i].t];
      // Warm blocks are per-term impact maxima — the hottest blocks in
      // the index — so with a decode budget they all but live pinned.
      bool hit = false;
      const DocId* ids =
          SealedBlockIds(*qt.postings, cand[i].b, &decode_buf, &hit);
      hit ? ++warm_cache_hits : ++warm_decoded;
      const float* w = qt.postings->weights.data() + size_t{cand[i].b} * block;
      for (uint32_t p = 0; p < block; ++p) {
        warm.push_back(SearchHit{
            ids[p], Contribution(qt.idf, static_cast<double>(w[p]),
                                 norms.Of(ids[p]), k1)});
      }
    }
    // One entry per document (its largest contribution), then the k-th
    // largest.
    std::sort(warm.begin(), warm.end(),
              [](const SearchHit& a, const SearchHit& b) {
                if (a.doc != b.doc) return a.doc < b.doc;
                return a.score > b.score;
              });
    warm.erase(std::unique(warm.begin(), warm.end(),
                           [](const SearchHit& a, const SearchHit& b) {
                             return a.doc == b.doc;
                           }),
               warm.end());
    if (warm.size() >= k) {
      std::nth_element(warm.begin(), warm.begin() + (k - 1), warm.end(),
                       [](const SearchHit& a, const SearchHit& b) {
                         return a.score > b.score;
                       });
      raise(warm[k - 1].score);
    }
  }

  // The sweep: the doc-id space in windows, lowest essential posting
  // first. Inside a window each essential list is accumulated
  // term-at-a-time into per-document partial scores — one sequential
  // pass per list, no per-document cursor merge — and then the window's
  // documents are visited in id order. A document whose partial plus
  // the non-essential cap cannot beat the threshold is dropped; the
  // rest probe the non-essential lists, highest cap first, re-checking
  // what the still-unprobed prefix could add before each probe, and a
  // survivor is scored exactly: its per-term contributions re-summed in
  // query order, the exhaustive accumulator's addition sequence (the
  // partial only ever feeds bounds). Every test is strictly inflated
  // (RoundUp), so a document whose true score ties the threshold always
  // reaches exact scoring.
  // The sweep ends when every list is non-essential or exhausted: no
  // remaining document can enter the top k.
  constexpr DocId kNoDoc = static_cast<DocId>(-1);
  constexpr uint32_t kWindow = 1024;
  if (scratch.acc.size() < kWindow) scratch.acc.resize(kWindow);
  double* acc = scratch.acc.data();
  // Per query position: the posting weight each list holds for the
  // document being visited — window slots for the accumulated lists,
  // the probe's find for the others, 0 for none — so a survivor's exact
  // score needs no forward-index lookup. A list's slots are only read
  // while it is accumulated, and demotion never reverses, so each
  // window clears just its accumulated rows.
  if (scratch.win_weight.size() < m * kWindow) {
    scratch.win_weight.resize(m * kWindow);
  }
  float* win_weight = scratch.win_weight.data();
  std::vector<float> probe_weight(m, 0.0f);
  std::vector<char> accumulated(m, 0);
  uint64_t touched[kWindow / 64] = {};
  for (;;) {
    // Block-max skip: cap what any document up to the nearest essential
    // block boundary could score — each essential list's current-block
    // cap (their cursors sit at/before that boundary, so every matching
    // posting up to it is inside that block) plus the non-essential
    // lists' list-level cap. If even that strictly inflated cap cannot
    // exceed the threshold, every id up to the boundary is provably a
    // strict miss and the cursors jump past it. The chain runs on
    // segment metadata alone (SkipSegTo defers compressed landings), so
    // a landing segment the next lap skips again is never decoded.
    DocId boundary = kNoDoc;
    for (;;) {
      double cap = ne > 0 ? prefix[ne - 1] : 0.0;
      boundary = kNoDoc;
      for (size_t j = ne; j < m; ++j) {
        QueryTerm& qt = query[order[j]];
        if (qt.cursor.AtEnd()) continue;
        cap += seg_bound(qt);
        boundary = std::min(boundary, qt.cursor.SegLastDoc());
      }
      if (boundary == kNoDoc || !armed || RoundUp(cap) > threshold) {
        break;
      }
      const DocId next = boundary + 1;  // ids < num_docs: no overflow
      for (size_t j = ne; j < m; ++j) query[order[j]].cursor.SkipSegTo(next);
    }
    if (boundary == kNoDoc) break;

    // The window starts at the lowest essential posting and stops at the
    // boundary, so the skip test above sees every segment it spans.
    DocId lo = kNoDoc;
    for (size_t j = ne; j < m; ++j) {
      PostingCursor& c = query[order[j]].cursor;
      c.EnsureLoaded();
      if (!c.AtEnd()) lo = std::min(lo, c.Doc());
    }
    const DocId hi = lo + std::min(kWindow, boundary - lo + 1);
    const size_t words = (hi - lo + 63) / 64;
    std::fill(touched, touched + words, uint64_t{0});
    const size_t ne_w = ne;  // lists [ne_w, m) are accumulated here
    for (size_t j = 0; j < m; ++j) accumulated[order[j]] = j >= ne_w;
    for (size_t j = ne_w; j < m; ++j) {
      QueryTerm& qt = query[order[j]];
      PostingCursor& c = qt.cursor;
      float* slot = win_weight + order[j] * kWindow;
      std::fill(slot, slot + (hi - lo), 0.0f);
      slot -= lo;
      for (; !c.AtEnd() && c.Doc() < hi; c.Next()) {
        const DocId d = c.Doc();
        const uint32_t off = d - lo;
        touched[off / 64] |= uint64_t{1} << (off % 64);
        const float w = c.Weight();
        slot[d] = w;
        acc[off] += Contribution(qt.idf, static_cast<double>(w), norms.Of(d),
                                 k1);
      }
    }

    for (size_t w = 0; w < words; ++w) {
      for (uint64_t bits = touched[w]; bits != 0; bits &= bits - 1) {
        const uint32_t off =
            static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits));
        const DocId d = lo + off;
        double running = acc[off];
        acc[off] = 0.0;
        const double d_norm = norms.Of(d);
        bool viable = true;
        for (size_t j = ne_w; j-- > 0;) {
          if (armed && RoundUp(running + prefix[j]) <= threshold) {
            viable = false;
            break;
          }
          QueryTerm& qt = query[order[j]];
          qt.cursor.SeekTo(d);
          const bool found = !qt.cursor.AtEnd() && qt.cursor.Doc() == d;
          probe_weight[order[j]] = found ? qt.cursor.Weight() : 0.0f;
          if (found) {
            running += Contribution(
                qt.idf, static_cast<double>(probe_weight[order[j]]), d_norm,
                k1);
          }
        }
        if (!viable || (armed && RoundUp(running) <= threshold)) continue;
        double score = 0.0;
        for (size_t t = 0; t < m; ++t) {
          const float w =
              accumulated[t] ? win_weight[t * kWindow + off] : probe_weight[t];
          if (w > 0.0f) {
            score += Contribution(query[t].idf, static_cast<double>(w), d_norm,
                                  k1);
          }
        }
        offer(SearchHit{d, score});
      }
    }
  }

  uint64_t dec = warm_decoded;
  uint64_t skp = 0;
  uint64_t hits = warm_cache_hits;
  for (const QueryTerm& qt : query) {
    dec += qt.cursor.decoded;
    skp += qt.cursor.skipped;
    hits += qt.cursor.cache_hits;
  }
  stat_blocks_decoded_.fetch_add(dec, std::memory_order_relaxed);
  stat_blocks_skipped_.fetch_add(skp, std::memory_order_relaxed);
  stat_cache_hits_.fetch_add(hits, std::memory_order_relaxed);

  std::sort(heap.begin(), heap.end(), Better);
  return heap;
}

DocInfo InvertedIndex::doc(DocId id) const {
  DS_CHECK(id < docs_.size()) << "doc id out of range";
  return docs_[id];
}

const DocInfo& InvertedIndex::doc_ref(DocId id) const {
  DS_CHECK(id < docs_.size()) << "doc id out of range";
  return docs_[id];
}

size_t InvertedIndex::DocFrequency(const std::string& term) const {
  auto it = dict_.find(term);
  return it == dict_.end() ? 0 : postings_[it->second].count;
}

TermId InvertedIndex::LookupTerm(const std::string& term) const {
  auto it = dict_.find(term);
  return it == dict_.end() ? kInvalidTerm : it->second;
}

bool InvertedIndex::ContainsContent(uint64_t content_hash) const {
  return by_hash_.count(content_hash) > 0;
}

IndexMemoryUsage InvertedIndex::MemoryUsage() const {
  IndexMemoryUsage u;
  for (const PostingList& pl : postings_) {
    u.posting_doc_raw_bytes += pl.docs.size() * sizeof(DocId);
    u.posting_doc_packed_bytes += pl.packed.size();
    u.posting_weight_bytes += pl.weights.size() * sizeof(float);
    u.posting_block_bytes += pl.blocks.size() * sizeof(BlockMeta) +
                             pl.impact_order.size() * sizeof(uint32_t);
    u.num_postings += pl.count;
  }
  // Each term is stored twice (dictionary key + the id -> name table);
  // the flat 32-byte constant stands in for per-entry hash/bucket
  // overhead so the figure stays deterministic across allocators.
  for (const std::string& name : term_names_) {
    u.dictionary_bytes +=
        2 * name.size() + 2 * sizeof(std::string) + sizeof(TermId) + 32;
  }
  {
    std::lock_guard<std::mutex> lock(norm_mu_);
    if (norms_ != nullptr) {
      u.norm_cache_bytes = norms_->norm.size() * sizeof(float);
    }
  }
  const int64_t budget = static_cast<int64_t>(options_.decode_cache_bytes);
  const int64_t left = std::max(
      int64_t{0},
      std::min(budget, decode_cache_left_.load(std::memory_order_relaxed)));
  u.decode_cache_bytes = static_cast<uint64_t>(budget - left);
  return u;
}

SearchStats InvertedIndex::search_stats() const {
  SearchStats s;
  s.queries = stat_queries_.load(std::memory_order_relaxed);
  s.blocks_decoded = stat_blocks_decoded_.load(std::memory_order_relaxed);
  s.blocks_skipped = stat_blocks_skipped_.load(std::memory_order_relaxed);
  s.decode_cache_hits = stat_cache_hits_.load(std::memory_order_relaxed);
  return s;
}

std::vector<std::string> InvertedIndex::CharacteristicTerms(
    const std::string& host, size_t k) const {
  auto it = by_host_.find(host);
  if (it == by_host_.end()) return {};
  // Aggregate term weights over the host's documents via their forward
  // lists: O(host docs × terms per doc), independent of vocabulary size.
  // Host doc lists are in ascending id order, so each term's weights are
  // summed in the same order a postings walk would use.
  std::unordered_map<TermId, double> host_tf;
  for (DocId d : it->second) {
    for (const auto& [tid, w] : forward_[d]) {
      host_tf[tid] += static_cast<double>(w);
    }
  }
  double n = static_cast<double>(docs_.size());
  std::vector<std::pair<double, TermId>> ranked;
  ranked.reserve(host_tf.size());
  for (const auto& [tid, tf] : host_tf) {
    double df = static_cast<double>(postings_[tid].count);
    double idf = std::log(1.0 + n / df);
    ranked.emplace_back(tf * idf, tid);
  }
  std::sort(ranked.begin(), ranked.end(),
            [this](const std::pair<double, TermId>& a,
                   const std::pair<double, TermId>& b) {
              if (a.first != b.first) return a.first > b.first;
              return term_names_[a.second] < term_names_[b.second];
            });
  std::vector<std::string> out;
  for (size_t i = 0; i < ranked.size() && i < k; ++i) {
    out.push_back(term_names_[ranked[i].second]);
  }
  return out;
}

std::vector<DocId> InvertedIndex::DocsForHost(const std::string& host) const {
  auto it = by_host_.find(host);
  return it == by_host_.end() ? std::vector<DocId>{} : it->second;
}

}  // namespace index
}  // namespace deepsurf
