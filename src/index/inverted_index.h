// Copyright 2026 The deepsurf Authors.
//
// The web-search index. Surfaced pages are inserted here "like any other
// page" (paper §3.2) and keyword queries are answered by BM25 over the
// whole corpus — this is precisely the mechanism by which surfacing
// sidesteps the virtual-integration routing problem, so the index is a
// load-bearing substrate, not a mock.
//
// Query-time layout: terms are interned to dense TermIds through a
// dictionary, and each term's postings are stored as fixed-size BLOCKS
// (IndexOptions::posting_block_size postings each, ascending doc id).
// A block that fills up is sealed: a skip entry (last doc id, max
// posting weight, byte offset) is recorded, and — with
// IndexOptions::compress_postings — its doc ids are re-encoded as
// fixed-width bit-packed gaps (index/bitpack_codec.h; SIMD-decoded
// where the CPU allows). The newest postings of a term live in an
// unsealed raw tail, so ingest stays append-only and interleaved
// InsertBatch/search keeps working. Posting weights stay raw floats in
// one parallel array, so the scoring loop reads the exact same bits
// with or without compression.
// Each document's BM25 length normalization is precomputed into a flat
// float array, so scoring never touches DocInfo or hashes a string.
//
// Top-k is answered by one of two scorers. The exhaustive scan adds
// every posting into a per-thread dense accumulator and keeps the top k
// in a bounded heap; it serves single-term queries, tiny candidate
// pools and deep k (see SearchTermsScored). Everything else runs exact
// BLOCK-MAX maxscore pruning, swept over
// doc-id windows: the essential lists are accumulated term-at-a-time
// within a window, and only documents whose partial score plus the
// non-essential bound can still beat the threshold probe the
// non-essential lists (per-term score upper bounds come from the max
// posting weight kept at ingest), plus
// whole-block skips driven by the per-block max weights — when the
// essential lists' current block caps plus the non-essential bound
// cannot beat the top-k threshold, the scorer jumps past every doc up
// to the nearest block boundary without decoding anything. Equivalence
// contract: the pruned path returns results BYTE-IDENTICAL to the
// exhaustive scorer — the same documents, the same IEEE-754 score
// bits, the same (score desc, doc id asc) tie-break order — for every
// query and every k, compressed or not. This holds because (a) all
// bounds (list-level and block-level) are STRICTLY inflated before any
// comparison, and the threshold they are compared with never exceeds
// the final k-th score, so a document is skipped only when its true score
// provably cannot even tie into the top-k — a potential tie always
// survives the bounds and reaches exact scoring, where the total
// (score desc, doc id asc) order decides — and (b) a surviving
// candidate's score is summed over the query terms in original query
// order, the exact addition sequence the exhaustive accumulator
// performs. pruning_test and bench_index
// enforce the contract on randomized corpora; IndexOptions::
// enable_pruning = false selects the exhaustive path outright.

#ifndef DEEPSURF_INDEX_INVERTED_INDEX_H_
#define DEEPSURF_INDEX_INVERTED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/search_index.h"
#include "util/result.h"

namespace deepsurf {
namespace index {

/// Dense id of an interned term (per-index; assigned in first-seen order).
using TermId = uint32_t;

/// Options controlling scoring.
struct IndexOptions {
  double bm25_k1 = 1.2;
  double bm25_b = 0.75;
  /// Weight multiplier for title-term matches.
  double title_boost = 2.0;
  /// When true, AddDocument refuses exact-duplicate content (same hash).
  bool suppress_duplicates = true;
  /// When true, top-k queries run maxscore pruning; when false, the
  /// exhaustive scorer. Results are byte-identical either way (see the
  /// file comment); this is purely a performance knob for corpora or k
  /// where pruning does not pay (the index falls back to exhaustive on
  /// its own when k covers the whole corpus).
  bool enable_pruning = true;
  /// Below this many candidate postings per query, the exhaustive scan
  /// is cheaper than maxscore's cursor machinery and is used even with
  /// pruning enabled (tiny corpora, rare-term-only queries). Above it,
  /// single-term queries and queries whose k is a sizable fraction of
  /// the candidate pool (the deep-k fallback) still go to the exhaustive
  /// scan (see SearchTermsScored). 0 forces maxscore whenever pruning is
  /// on AND disables both of those routes (tests use this to pin the
  /// pruned path).
  size_t pruning_min_postings = 4096;
  /// Postings per sealed block: the granularity of the per-block skip
  /// entries that drive block-max pruning, and the unit of bit-packed
  /// doc-id compression. Values far below 64 waste skip-entry memory;
  /// far above 512 they blunt block-max skipping.
  size_t posting_block_size = 128;
  /// When true, sealed blocks store their doc ids as fixed-width bit-
  /// packed gaps (5x+ fewer doc-id bytes on realistic corpora — see
  /// MemoryUsage and bench_index's bytes_per_posting). Weights stay raw
  /// floats either way, so results are byte-identical; this only trades
  /// block-decode CPU for memory.
  bool compress_postings = false;
  /// Byte budget for pinned block decodes (0 disables them). Sealed
  /// compressed blocks are immutable once written, so the first query
  /// to decode one may publish ("pin") the decoded doc ids into a
  /// per-block atomic slot; every later read of that block is then one
  /// acquire-load and a pointer — the exact cost the uncompressed path
  /// pays — with no lock, no hashing, and no re-decode. Pinning is
  /// first-touch until the budget is spent (under Zipfian queries the
  /// first-touched blocks ARE the hot ones) and entries are never
  /// evicted, so the budget is also the hard cap on this stream. It is
  /// working memory on top of the index image: reported as its own
  /// MemoryUsage stream and never counted against the compression
  /// ratios. Ignored when compress_postings is off.
  size_t decode_cache_bytes = 16u << 20;
};

/// Corpus-wide statistics a sharded wrapper injects so that every shard
/// scores with *global* BM25 statistics. Without this a document's score
/// would depend on which shard it landed in, and sharded results could
/// never be byte-identical to a single index over the same corpus.
struct CorpusStats {
  double num_docs = 0.0;
  double total_length = 0.0;  ///< content tokens across the corpus
  /// Per query-term *position* (parallel to the terms vector handed to
  /// SearchTermsScored): corpus document frequency of that term. Leave
  /// empty to fall back to the index's local frequencies.
  std::vector<size_t> term_df;
};

/// In-memory inverted index with BM25 ranking.
///
/// Thread safety: writes (AddDocument, InsertBatch) may be issued from
/// many threads concurrently — a single ingest lock serializes them.
/// Reads are NOT synchronized against concurrent writes; run queries
/// either before ingestion starts or after it completes (the surfacing
/// driver obeys this: its seed index is distinct from its output index).
/// ShardedIndex (even with one shard) is the read-during-ingest option.
/// Concurrent reads are safe with each other (the lazily rebuilt length-
/// normalization cache is internally synchronized).
class InvertedIndex : public WritableIndex {
 public:
  explicit InvertedIndex(IndexOptions options = {});

  /// Indexes a document; returns its DocId. With duplicate suppression on,
  /// returns the DocId of the already-indexed duplicate instead of adding
  /// a new one (the status distinguishes: Aborted means duplicate).
  /// Thread-safe.
  Result<DocId> AddDocument(const std::string& url, const std::string& title,
                            const std::string& body, bool is_deep_web,
                            const std::string& source_host) override;

  /// Ingests a batch under one lock acquisition; returns how many
  /// documents were newly added (duplicates suppressed, not counted).
  /// When `newly_added` is non-null it is resized to the batch and marks,
  /// per position, whether that document entered the index (false =
  /// suppressed as a duplicate). Thread-safe.
  Result<size_t> InsertBatch(const std::vector<Document>& docs,
                             std::vector<bool>* newly_added =
                                 nullptr) override;  // same default as base

  /// Top-k BM25 hits for a keyword query.
  std::vector<SearchHit> Search(const std::string& query,
                                size_t k) const override;

  /// As Search, but with pre-tokenized terms.
  std::vector<SearchHit> SearchTerms(const std::vector<std::string>& terms,
                                     size_t k) const override;

  /// As SearchTerms, but scored with the given corpus-wide statistics
  /// instead of this index's own (null falls back to local statistics).
  /// This is the primitive ShardedIndex builds its per-shard searches on.
  std::vector<SearchHit> SearchTermsScored(
      const std::vector<std::string>& terms, size_t k,
      const CorpusStats* stats) const;

  DocInfo doc(DocId id) const override;

  /// Borrowed reference into document storage — the serving path's
  /// no-copy accessor. Documents are only ever appended and never moved
  /// (deque storage), so the reference stays valid for the life of the
  /// index, across later ingests included.
  const DocInfo& doc_ref(DocId id) const override;

  size_t num_docs() const override { return docs_.size(); }

  /// Documents only ever enter, so the document count is the epoch.
  uint64_t ingest_epoch() const override { return docs_.size(); }

  /// Sum of content-token counts over all documents. Exact (token counts
  /// are integers far below 2^53), so a sharded wrapper summing shard
  /// totals reconstructs the single-index value bit-for-bit.
  double total_content_length() const { return total_length_; }

  /// Document frequency of a term (0 when unseen).
  size_t DocFrequency(const std::string& term) const;

  /// Interned id of a term, or kInvalidTerm when unseen.
  TermId LookupTerm(const std::string& term) const;

  /// Distinct terms interned so far.
  size_t vocabulary_size() const { return term_names_.size(); }

  static constexpr TermId kInvalidTerm = static_cast<TermId>(-1);

  /// True iff a document with this exact content hash exists.
  bool ContainsContent(uint64_t content_hash) const;

  /// Terms most characteristic of a host's already-indexed pages: ranked
  /// by tf(host) * idf(corpus). This seeds the iterative prober (§4.1).
  /// O(host documents × terms per document) via the per-document forward
  /// term lists maintained at ingest.
  std::vector<std::string> CharacteristicTerms(const std::string& host,
                                               size_t k) const;

  /// Ids of all documents from `host`.
  std::vector<DocId> DocsForHost(const std::string& host) const;

  /// Memory accounting of the query-time structures (see
  /// SearchIndex::MemoryUsage). Counts bytes used, not allocator
  /// capacity, so the numbers are deterministic and benches can gate on
  /// them. Same read-during-ingest caveats as the query methods.
  IndexMemoryUsage MemoryUsage() const override;

  /// Cumulative query-execution counters. Maintained with relaxed
  /// atomics, so concurrent queries never serialize on them; totals are
  /// exact once queries quiesce.
  SearchStats search_stats() const override;

 private:
  /// Skip entry of one sealed posting block (posting_block_size
  /// postings). `last_doc` bounds the ids the block can hold (blocks
  /// partition the list in ascending-id order), `max_weight` drives the
  /// block-max score caps, and `offset` locates the block's bit-packed
  /// run inside PostingList::packed when compression is on (unused
  /// otherwise — raw ids are addressed by position).
  struct BlockMeta {
    DocId last_doc = 0;
    float max_weight = 0.0f;
    size_t offset = 0;
  };

  /// Postings of one term, ascending doc id, stored as sealed fixed-
  /// size blocks plus an unsealed raw tail. Uncompressed: `docs` holds
  /// every id contiguously (sealing only records a BlockMeta).
  /// Compressed: sealed ids live bit-packed in `packed` and `docs`
  /// holds only the tail. `weights` holds every posting's raw float
  /// weight in posting order — the scorer reads the exact same bits
  /// however the ids are stored.
  struct PostingList {
    std::vector<DocId> docs;
    std::vector<float> weights;  ///< tf with title boost applied
    std::vector<uint8_t> packed;
    std::vector<BlockMeta> blocks;
    /// Block indices sorted by descending max_weight (ties: ascending
    /// index) — the impact order the maxscore warm-up visits blocks in.
    std::vector<uint32_t> impact_order;
    /// Per sealed block, the pinned decode slot (see IndexOptions::
    /// decode_cache_bytes): null until some query decodes the block and
    /// wins the publish CAS, then the block's doc ids for the life of
    /// the list. Slots are atomic because concurrent searches race to
    /// publish; the array itself only grows at seal time, which ingest
    /// serializes against reads (same contract as every other field
    /// here). `mutable` because publishing happens on the const query
    /// path. Sized >= blocks.size() (geometric growth), extra slots
    /// null.
    mutable std::unique_ptr<std::atomic<const DocId*>[]> pinned;
    uint32_t pinned_cap = 0;
    float max_weight = 0.0f;       ///< list-level cap (all postings)
    float tail_max_weight = 0.0f;  ///< cap over the unsealed tail only
    uint32_t count = 0;            ///< total postings, sealed + tail

    PostingList() = default;
    PostingList(PostingList&&) noexcept = default;
    PostingList& operator=(PostingList&&) noexcept = default;
    ~PostingList() {
      if (pinned != nullptr) {
        for (uint32_t i = 0; i < pinned_cap; ++i) {
          delete[] pinned[i].load(std::memory_order_relaxed);
        }
      }
    }
  };

  /// Cursor over one posting list. Presents the list as a flat
  /// ascending sequence while touching one "segment" (sealed block or
  /// the tail) at a time: sealed blocks are resolved through
  /// SealedBlockIds only when the cursor lands in them, so a SeekTo
  /// that skips whole blocks (via the BlockMeta skip entries) never
  /// pays their decode. Uncompressed segments are served by pointer
  /// into the raw array — no copy.
  struct PostingCursor {
    void Init(const InvertedIndex* idx, const PostingList* list);
    bool AtEnd() const { return pos >= pl->count; }
    DocId Doc() const { return window[pos - win_begin]; }
    float Weight() const { return pl->weights[pos]; }
    /// Max weight / last doc id of the segment holding the cursor.
    float SegMaxWeight() const;
    DocId SegLastDoc() const;
    /// Advance one posting (loads the next segment on crossing).
    void Next();
    /// Advance to the first posting with doc id >= target. Skipped
    /// sealed blocks are never decoded (they count into `skipped`).
    void SeekTo(DocId target);
    /// As SeekTo, but when the landing segment is a compressed sealed
    /// block its decode is DEFERRED: only the segment metadata (seg /
    /// win_begin / SegLastDoc / SegMaxWeight) moves, and the cursor is
    /// "stale" until EnsureLoaded materializes the window and finishes
    /// the seek. The block-max skip chain runs on metadata alone, so a
    /// landing that is immediately skipped again costs zero decodes —
    /// this is what lets the compressed path match raw-pointer segment
    /// hops. Doc()/Weight()/Next() are invalid while stale.
    void SkipSegTo(DocId target);
    /// Decode the deferred landing segment (if any) and complete the
    /// pending seek. No-op on a non-stale cursor.
    void EnsureLoaded();

    const PostingList* pl = nullptr;
    const InvertedIndex* owner = nullptr;  ///< resolves sealed blocks
    uint32_t block_size = 0;
    bool compressed = false;
    uint32_t pos = 0;        ///< absolute posting position
    uint32_t seg = 0;        ///< segment index (blocks.size() = tail)
    uint32_t win_begin = 0;  ///< absolute position of window[0]
    uint32_t win_end = 0;    ///< absolute position past the window
    const DocId* window = nullptr;
    bool stale = false;  ///< landing segment not yet decoded (SkipSegTo)
    DocId pending = 0;   ///< deferred seek target while stale
    std::vector<DocId> scratch;  ///< decode buffer for unpinned blocks
    uint64_t decoded = 0;     ///< sealed blocks this cursor decoded
    uint64_t skipped = 0;     ///< sealed blocks jumped without decoding
    uint64_t cache_hits = 0;  ///< sealed blocks served pre-decoded

   private:
    void LoadSegment(uint32_t segment);
  };

  /// Per-document BM25 length normalization, rebuilt lazily whenever the
  /// average document length it was computed against changes (ingest, or
  /// a different injected corpus average): norm[d] = k1*(1-b+b*len/avg).
  struct NormCache {
    double avg_len = -1.0;
    size_t num_docs = 0;
    std::vector<float> norm;
  };

  /// How the scoring loops read a document's norm: from the cache when
  /// one is valid, otherwise computed inline from the flat length array
  /// with the exact expression the cache builder uses — identical float
  /// bits either way, so which mode served a query is unobservable in
  /// the results. The inline mode keeps queries O(matched postings)
  /// while ingest is actively invalidating the cache.
  struct NormView {
    const float* cached;  ///< null -> compute inline
    const float* lengths;
    double k1, b, avg_len;
    float Of(DocId d) const {
      if (cached != nullptr) return cached[d];
      return static_cast<float>(
          k1 * (1.0 - b + b * static_cast<double>(lengths[d]) / avg_len));
    }
  };

  /// Resolved query: one entry per query-term position present in the
  /// dictionary, in original query order.
  struct QueryTerm {
    const PostingList* postings;
    double idf;
    double upper_bound;    ///< conservative per-doc score cap (rounded up)
    PostingCursor cursor;  ///< sweep position (maxscore only)
    /// Cached block-max score cap for the segment `cursor` sits in,
    /// recomputed when the cursor crosses a segment boundary.
    double seg_bound = 0.0;
    uint32_t seg_of_bound = std::numeric_limits<uint32_t>::max();
  };

  /// AddDocument without the ingest lock (callers hold ingest_mu_).
  Result<DocId> AddDocumentLocked(const std::string& url,
                                  const std::string& title,
                                  const std::string& body, bool is_deep_web,
                                  const std::string& source_host);

  /// Interns `term`, assigning the next dense id on first sight.
  TermId InternLocked(const std::string& term);

  /// Appends one posting to `pl`, sealing the tail into a block (and
  /// compressing it when compress_postings is on) whenever it reaches
  /// posting_block_size. Callers hold ingest_mu_.
  void AppendPostingLocked(PostingList* pl, DocId id, float w);

  /// The norm array for this average length. Returns the cache when it
  /// is already valid; otherwise builds it only when the query is big
  /// enough (`total_postings`) to amortize the O(num_docs) build, so
  /// interleaved ingest cannot make small queries pay a full rebuild.
  /// Null means "score inline from the length array instead".
  std::shared_ptr<const NormCache> Norms(double avg_len,
                                         size_t total_postings) const;

  /// Term-at-a-time scan of every posting into a per-thread dense
  /// accumulator, then a bounded top-k heap over the touched documents.
  std::vector<SearchHit> SearchExhaustive(const std::vector<QueryTerm>& query,
                                          const NormView& norms,
                                          size_t k) const;
  /// Block-max maxscore. `min_norm` is the smallest length norm in the
  /// corpus (the bound floor both the list-level and the per-block
  /// score caps are computed against).
  std::vector<SearchHit> SearchMaxScore(std::vector<QueryTerm>& query,
                                        const NormView& norms,
                                        double min_norm, size_t k) const;

  /// Doc ids of sealed block `b` of `pl` — the one place a sealed block
  /// is decoded. Uncompressed lists return a pointer into the raw
  /// array. Compressed lists go through the pinned-decode slots: a
  /// pinned block returns its published pointer (`*hit` = true, stable
  /// for the life of the list); otherwise the block is decoded now —
  /// into a freshly pinned buffer while the decode-cache budget lasts,
  /// into `*scratch` (resized as needed, valid until the caller's next
  /// decode) once it is spent or when decode_cache_bytes is 0.
  const DocId* SealedBlockIds(const PostingList& pl, uint32_t b,
                              std::vector<DocId>* scratch, bool* hit) const;

  /// Calls fn(doc, weight) for every posting of `pl` in list order,
  /// sealed blocks through SealedBlockIds. Returns how many sealed
  /// blocks were served pinned (the rest count as decoded).
  template <typename Fn>
  uint64_t ForEachPosting(const PostingList& pl, Fn&& fn) const;

  /// Ensures pl->pinned has a slot for every sealed block (geometric
  /// growth, new slots null). Callers hold ingest_mu_.
  static void GrowPinnedLocked(PostingList* pl);

  mutable std::mutex ingest_mu_;
  IndexOptions options_;
  /// Deque, not vector: appends never move existing elements, which is
  /// what lets doc_ref() hand out references that survive later ingest.
  std::deque<DocInfo> docs_;
  /// Flat copy of docs_[i].length, so scoring never touches DocInfo.
  std::vector<float> doc_lengths_;
  /// Per document: (term, weight) pairs sorted by TermId — the forward
  /// index CharacteristicTerms aggregates over.
  std::vector<std::vector<std::pair<TermId, float>>> forward_;
  std::unordered_map<std::string, TermId> dict_;
  std::vector<std::string> term_names_;  ///< TermId -> term
  std::vector<PostingList> postings_;    ///< by TermId
  std::unordered_map<uint64_t, DocId> by_hash_;
  std::map<std::string, std::vector<DocId>> by_host_;
  double total_length_ = 0.0;
  /// Shortest document so far. The norm is monotone in length and float
  /// rounding is monotone, so norm(min_length) IS the smallest norm —
  /// the maxscore bound floor — without scanning the norm array.
  uint32_t min_length_ = std::numeric_limits<uint32_t>::max();

  mutable std::mutex norm_mu_;
  mutable std::shared_ptr<const NormCache> norms_;

  /// Remaining pinned-decode budget in bytes (see IndexOptions::
  /// decode_cache_bytes); goes down as queries pin blocks, transient
  /// dips below zero are refunded. Atomic because concurrent const
  /// queries spend from it.
  mutable std::atomic<int64_t> decode_cache_left_{0};

  /// search_stats() counters (relaxed: counts, not synchronization).
  mutable std::atomic<uint64_t> stat_queries_{0};
  mutable std::atomic<uint64_t> stat_blocks_decoded_{0};
  mutable std::atomic<uint64_t> stat_blocks_skipped_{0};
  mutable std::atomic<uint64_t> stat_cache_hits_{0};
};

}  // namespace index
}  // namespace deepsurf

#endif  // DEEPSURF_INDEX_INVERTED_INDEX_H_
