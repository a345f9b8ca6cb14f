// Copyright 2026 The deepsurf Authors.
//
// The three workloads. Each one builds its inputs from the seed (set-up,
// timed on its own and repeated), measures for the requested seconds,
// then checks its outputs against the gates in gates.h.
//
//   surface         the paper's offline job: crawl ~400 GET deep sites,
//                   surface every form at nproc threads into a 4-shard
//                   compressed ShardedIndex, then serve a short long-tail
//                   stream over the freshly surfaced pages. core, net,
//                   html and ingest do the work.
//   serve_longtail  nproc-1 clients over a 60k-query pool with near-flat
//                   popularity, against a >=50k-doc ShardedIndex: the
//                   result cache answers few queries, so index search
//                   (block-max skipping, decode cache) does the work.
//                   Closed-loop capacity windows, then an open-loop
//                   nominal step.
//   churn           two clients send Zipf-head traffic at a fixed rate
//                   while one surfacing thread ingests a second corpus
//                   into the same live index: the result cache serves
//                   most queries until ingest invalidates it.
//
// An untraced run (tracer disabled) yields the end-to-end metrics; a
// traced run drives the four core/pipeline.h stages per form itself,
// installs the decorators of layers.h, and yields the per-layer metrics.

#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <thread>

#include "core/pipeline.h"
#include "crawler/crawler.h"
#include "crawler/surfacing_driver.h"
#include "gates.h"
#include "html/parser.h"
#include "html/text.h"
#include "index/sharded_index.h"
#include "layers.h"
#include "net/fetcher.h"
#include "serve/engine.h"
#include "serving.h"
#include "spans.h"
#include "synthweb/corpus.h"
#include "traffic/traffic_gen.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {

using namespace deepsurf;

namespace {

// --- Sizes and fixtures. ---
// The simulated webs are fixed fixtures: a corpus's domain mix moves
// per-form analysis cost by 20% or more from one corpus seed to the next,
// which would drown the changes the benchmark exists to see. --seed
// drives everything sampled from them: SurfacingDriver's per-form
// streams and work order, the query pools and the arrival schedules.
constexpr uint64_t kSurfaceCorpusSeed = 515;
constexpr uint64_t kServeCorpusSeed = 99;
constexpr uint64_t kChurnCorpusSeed = 1234;
constexpr int kSetupReps = 3;           ///< set-ups per run, at least
constexpr double kSetupMinS = 6.0;      ///< and at least this much set-up
constexpr size_t kSurfaceSites = 400;
constexpr size_t kServeSites = 1000;    ///< with kServeMinRows: ~57k documents
constexpr size_t kServeMinRows = 42;
constexpr size_t kChurnSites = 4000;    ///< lasts a 20-s run up to 200 forms/s
constexpr size_t kChurnChunk = 10;      ///< forms per churn SurfacingDriver run
constexpr size_t kServePool = 60000;
constexpr double kFlatZipf = 0.3;       ///< near-flat query popularity
constexpr size_t kWarmQueries = 6000;
constexpr double kNominalQps = 3500.0;
constexpr double kSegmentS = 0.5;       ///< p99 = median over segments
constexpr double kWindowS = 1.0;        ///< closed-loop capacity window
constexpr double kCapacityShare = 0.4;  ///< of the run spent on capacity
constexpr double kChurnSegmentS = 1.0;
constexpr size_t kHeadPool = 2000;      ///< surface and churn query pools
constexpr double kChurnQps = 2000.0;
constexpr double kSurfaceQps = 1000.0;
constexpr double kSurfaceQueryS = 1.0;
constexpr size_t kSampleEvery = 37;     ///< oracle-check 1 in N arrivals
constexpr size_t kSettledChecks = 300;

/// The SurfacingDriver's stream derivation, reproduced so the staged
/// pass takes forms, and ingests each form's pages, in its order. The
/// workloads also derive their own streams from --seed with it.
uint64_t DeriveStream(uint64_t seed, uint64_t index) {
  uint64_t z = seed + (index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Hands memory freed by a finished set-up or pass back to the OS, so
/// peak_rss_mb measures one set-up or pass, not how much the allocator
/// kept from the ones before it (which varies with thread timing).
void ReleaseFreedMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

double Pct(const std::vector<double>& xs, double p) {
  return stats::Percentile(xs, p);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Shards are scanned on the calling thread. With the per-shard worker
/// pool on, a query runs in parallel only when no other query holds the
/// pool, so with several clients a query's cost would depend on which
/// thread wins the pool and on how fast the host wakes its workers.
index::ShardedIndexOptions IndexOpts() {
  index::ShardedIndexOptions o;
  o.num_shards = 4;
  o.parallel_search = false;
  o.index.compress_postings = true;
  return o;
}

/// `v` in a fixed order that visits every part of it evenly: position k
/// takes element (k * stride) % n, with the stride near n / phi and
/// coprime to n. On a list ranked by size, every prefix of the order
/// holds a like mix of sizes.
template <typename T>
std::vector<T> StrideOrder(const std::vector<T>& v) {
  const size_t n = v.size();
  size_t stride = std::max<size_t>(1, static_cast<size_t>(0.618034 * n));
  while (std::gcd(stride, n) != 1) ++stride;
  std::vector<T> out;
  out.reserve(n);
  for (size_t k = 0; k < n; ++k) out.push_back(v[(k * stride) % n]);
  return out;
}

/// Runs `build` at least `min_reps` times and until `min_total_s` of
/// set-up has been timed; returns the last result and the fastest set-up
/// time in seconds. On a shared host, single-threaded work runs about
/// 1.5x slower for phases of one to several seconds, so the median of
/// one run's set-ups lands in either mode; the fastest one lands in the
/// fast mode unless the host was slow for the whole repetition.
template <typename T>
T RepeatSetup(int min_reps, double min_total_s,
              const std::function<T()>& build, double* fastest_s) {
  std::vector<double> times;
  double total_s = 0.0;
  T out;
  while (times.size() < static_cast<size_t>(min_reps) ||
         total_s < min_total_s) {
    out = T();  // release the previous set-up before building the next
    ReleaseFreedMemory();
    const double t0 = NowMs();
    out = build();
    times.push_back((NowMs() - t0) / 1e3);
    total_s += times.back();
  }
  *fastest_s = *std::min_element(times.begin(), times.end());
  std::fprintf(stderr, "set-up: %zu reps, fastest %.4f s, median %.4f s\n",
               times.size(), *fastest_s, stats::Median(times));
  return out;
}

/// Serving over freshly surfaced pages: result cache off, so every
/// query searches the new index (a half-cached mix would make the p50
/// land between the cache's and the index's latency modes).
serve::EngineOptions FreshEngineOpts() {
  serve::EngineOptions o;
  o.cache_capacity = 0;
  return o;
}

// --- Corpora. ---

/// A crawled deep-web corpus: the surfacing work-list.
struct CrawledCorpus {
  synthweb::WebCorpus corpus;
  std::vector<crawler::DiscoveredForm> forms;
  double crawl_ms = 0.0;
};

CrawledCorpus CrawlCorpus(size_t sites, uint64_t seed) {
  CrawledCorpus c;
  synthweb::CorpusOptions o;
  o.num_deep_sites = sites;
  o.num_surface_sites = 4;
  o.seed = seed;
  c.corpus = synthweb::BuildCorpus(o);
  crawler::CrawlOptions co;
  co.index_pages = false;
  crawler::Crawler crawl(c.corpus.web.get(), nullptr, co);
  const double t0 = NowMs();
  DS_CHECK_OK(crawl.Crawl({c.corpus.directory_url}));
  c.crawl_ms = NowMs() - t0;
  c.forms = crawl.forms();
  return c;
}

/// The same sites behind TimedServer decorators.
std::unique_ptr<net::SimulatedWeb> TimedWeb(const synthweb::WebCorpus& corpus,
                                            Tracer* tracer) {
  auto web = std::make_unique<net::SimulatedWeb>();
  for (const auto& s : corpus.deep_sites) {
    DS_CHECK_OK(web->Register(std::make_shared<TimedServer>(s, tracer)));
  }
  for (const auto& s : corpus.surface_sites) {
    DS_CHECK_OK(web->Register(std::make_shared<TimedServer>(s, tracer)));
  }
  return web;
}

/// The serving corpus: crawled surface pages plus every entity record,
/// ingested through a recorder so the oracle can replay the exact order.
struct ServeBase {
  synthweb::WebCorpus corpus;
  std::unique_ptr<index::ShardedIndex> index;
  std::vector<index::Document> docs;  ///< in doc-id order
  double crawl_ms = 0.0;
};

ServeBase BuildServeBase(uint64_t seed) {
  ServeBase b;
  synthweb::CorpusOptions o;
  o.num_deep_sites = kServeSites;
  o.min_rows = kServeMinRows;
  o.seed = seed;
  b.corpus = synthweb::BuildCorpus(o);
  b.index = std::make_unique<index::ShardedIndex>(IndexOpts());
  traffic::RecordingWritableIndex rec(b.index.get());
  crawler::Crawler crawl(b.corpus.web.get(), &rec, {});
  const double t0 = NowMs();
  DS_CHECK_OK(crawl.Crawl({b.corpus.directory_url}));
  b.crawl_ms = NowMs() - t0;
  std::vector<index::Document> entities = synthweb::EntityDocuments(b.corpus);
  for (size_t i = 0; i < entities.size(); i += 1024) {
    const size_t n = std::min<size_t>(1024, entities.size() - i);
    const auto begin = entities.begin() + static_cast<long>(i);
    std::vector<index::Document> batch(begin, begin + static_cast<long>(n));
    DS_CHECK(rec.InsertBatch(batch).ok());
  }
  b.docs = rec.recorded();
  return b;
}

/// Closed-loop searches straight at the index (the result cache stays
/// cold) so lazily built norm caches and pinned decodes are warm.
void WarmIndex(const index::SearchIndex& idx,
               const std::vector<std::string>& pool, size_t n,
               size_t threads) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> ts;
  for (size_t t = 0; t < threads; ++t) {
    ts.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) {
        idx.Search(pool[(i * 7919) % pool.size()], kTopK);
      }
    });
  }
  for (auto& t : ts) t.join();
}

// --- Surfacing. ---

/// One surfacing pass over a work-list, however it was driven.
struct SurfacingPass {
  double wall_ms = 0.0;
  size_t forms = 0, analyzed = 0, skipped_post = 0, failed = 0;
  size_t urls = 0, probes = 0, templates_evaluated = 0,
         templates_informative = 0;
  size_t pages_ok = 0, docs_offered = 0, docs_new = 0;
  uint64_t site_requests = 0;
  net::ProbeSchedulerStats scheduler;  ///< delta over the pass
  double worker_ms = 0.0;              ///< staged: summed worker walls
  std::vector<std::string> url_set;    ///< sorted, deduplicated

  void Add(const SurfacingPass& o) {
    wall_ms += o.wall_ms;
    forms += o.forms;
    analyzed += o.analyzed;
    skipped_post += o.skipped_post;
    failed += o.failed;
    urls += o.urls;
    probes += o.probes;
    templates_evaluated += o.templates_evaluated;
    templates_informative += o.templates_informative;
    pages_ok += o.pages_ok;
    docs_offered += o.docs_offered;
    docs_new += o.docs_new;
    site_requests += o.site_requests;
    scheduler.requests += o.scheduler.requests;
    scheduler.cache_hits += o.scheduler.cache_hits;
    scheduler.cache_misses += o.scheduler.cache_misses;
    scheduler.coalesced += o.scheduler.coalesced;
    scheduler.evictions += o.scheduler.evictions;
    worker_ms += o.worker_ms;
  }
  void TallyResult(const core::FormSurfacingResult& r) {
    ++analyzed;
    urls += r.urls.size();
    probes += r.probes_used;
    templates_evaluated += r.templates_evaluated;
    templates_informative += r.templates_informative;
  }
};

net::ProbeSchedulerStats Delta(const net::ProbeSchedulerStats& a,
                               const net::ProbeSchedulerStats& b) {
  net::ProbeSchedulerStats d;
  d.requests = b.requests - a.requests;
  d.cache_hits = b.cache_hits - a.cache_hits;
  d.cache_misses = b.cache_misses - a.cache_misses;
  d.coalesced = b.coalesced - a.coalesced;
  d.evictions = b.evictions - a.evictions;
  return d;
}

/// Untraced: the library's SurfacingDriver.
SurfacingPass SurfaceWithDriver(
    const std::vector<crawler::DiscoveredForm>& forms,
    net::ProbeScheduler* scheduler, index::WritableIndex* out, size_t threads,
    uint64_t seed) {
  SurfacingPass pass;
  crawler::SurfacingDriverOptions d;
  d.num_threads = threads;
  d.seed = seed;
  crawler::SurfacingDriver driver(scheduler, out, d);
  const uint64_t req0 = scheduler->web()->total_requests();
  const net::ProbeSchedulerStats s0 = scheduler->stats();
  const double t0 = NowMs();
  auto st = driver.Run(forms);
  pass.wall_ms = NowMs() - t0;
  pass.forms = forms.size();
  if (!st.ok()) {
    pass.failed = forms.size();
    return pass;
  }
  pass.skipped_post = st->forms_skipped_post;
  pass.failed = st->forms_failed;
  pass.docs_new = st->pages_indexed;
  for (const auto& o : driver.outcomes()) {
    if (o.status.ok() && !o.result.skipped_post) pass.TallyResult(o.result);
  }
  pass.site_requests = scheduler->web()->total_requests() - req0;
  pass.scheduler = Delta(s0, scheduler->stats());
  pass.url_set = driver.SurfacedUrlSet();
  return pass;
}

/// Traced: one form through the four pipeline stages and ingest, the
/// way SurfacingDriver::ProcessForm does it, with a span per layer.
void SurfaceFormStaged(const crawler::DiscoveredForm& f, size_t index,
                       uint64_t seed, net::ProbeScheduler* scheduler,
                       index::WritableIndex* out, Tracer* tracer,
                       SurfacingPass* tally) {
  Scope form_span(tracer, Layer::kForm);
  ++tally->forms;
  const core::SurfacerOptions opts;
  auto ctx = [&] {
    Scope span(tracer, Layer::kAnalyzeInputs);
    std::string scripts;
    if (auto page = scheduler->Fetch(f.page_url); page.ok()) {
      scripts = html::ExtractScriptText(*html::Parse(page->body));
    }
    return core::AnalyzeInputs(scheduler, nullptr, opts, f.page_url, f.form,
                               scripts);
  }();
  if (!ctx.ok()) {
    ++tally->failed;
    return;
  }
  if (ctx->result.skipped_post) {
    ++tally->skipped_post;
    return;
  }
  Status st;
  {
    Scope span(tracer, Layer::kMineCandidates);
    st = core::MineCandidates(&*ctx);
  }
  if (st.ok()) {
    Scope span(tracer, Layer::kSearchTemplates);
    st = core::SearchTemplates(&*ctx);
  }
  if (st.ok()) {
    Scope span(tracer, Layer::kEmitUrls);
    st = core::EmitUrls(&*ctx);
  }
  if (!st.ok()) {
    ++tally->failed;
    return;
  }
  const core::FormSurfacingResult& r = ctx->result;
  tally->TallyResult(r);
  for (const auto& u : r.urls) {
    tally->url_set.push_back(u.url.ToCanonicalString());
  }

  // Ingest in SurfacingDriver's shuffled order and batch size.
  std::vector<size_t> order(r.urls.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  Rng rng(DeriveStream(seed, index));
  rng.Shuffle(&order);
  const size_t batch_size = crawler::SurfacingDriverOptions().index_batch_size;
  std::vector<index::Document> batch;
  auto flush = [&] {
    if (batch.empty()) return;
    auto added = out->InsertBatch(batch);
    if (added.ok()) tally->docs_new += *added;
    tally->docs_offered += batch.size();
    batch.clear();
  };
  for (size_t k : order) {
    const core::SurfacedUrl& surfaced = r.urls[k];
    Result<net::HttpResponse> resp = Status::Internal("unset");
    {
      Scope span(tracer, Layer::kIngestFetch);
      resp = scheduler->Fetch(surfaced.url);
    }
    if (!resp.ok() || resp->status_code != 200) continue;
    ++tally->pages_ok;
    index::Document doc;
    {
      Scope span(tracer, Layer::kParseExtract);
      auto dom = html::Parse(resp->body);
      doc.title = html::ExtractTitle(*dom);
      doc.body = html::ExtractText(*dom);
    }
    doc.url = surfaced.url.ToCanonicalString();
    doc.is_deep_web = true;
    doc.source_host = surfaced.url.host();
    batch.push_back(std::move(doc));
    if (batch.size() >= batch_size) flush();
  }
  flush();
}

SurfacingPass SurfaceStaged(const std::vector<crawler::DiscoveredForm>& forms,
                            net::ProbeScheduler* scheduler,
                            index::WritableIndex* out, size_t threads,
                            uint64_t seed, Tracer* tracer) {
  threads = std::max<size_t>(1, threads);
  std::vector<SurfacingPass> tallies(threads);
  const uint64_t req0 = scheduler->web()->total_requests();
  const net::ProbeSchedulerStats s0 = scheduler->stats();
  // SurfacingDriver's work order: a seed-keyed permutation of the list.
  std::vector<size_t> order(forms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng(DeriveStream(seed, ~uint64_t{0})).Shuffle(&order);
  std::atomic<size_t> next{0};
  const double t0 = NowMs();
  auto worker = [&](size_t w) {
    const double w0 = NowMs();
    for (size_t pos; (pos = next.fetch_add(1)) < order.size();) {
      SurfaceFormStaged(forms[order[pos]], order[pos], seed, scheduler, out,
                        tracer, &tallies[w]);
    }
    tallies[w].worker_ms = NowMs() - w0;
  };
  std::vector<std::thread> pool;
  for (size_t w = 0; w < threads; ++w) pool.emplace_back(worker, w);
  for (auto& t : pool) t.join();

  SurfacingPass pass;
  for (const auto& t : tallies) {
    pass.Add(t);
    pass.url_set.insert(pass.url_set.end(), t.url_set.begin(),
                        t.url_set.end());
  }
  pass.wall_ms = NowMs() - t0;
  std::sort(pass.url_set.begin(), pass.url_set.end());
  pass.url_set.erase(std::unique(pass.url_set.begin(), pass.url_set.end()),
                     pass.url_set.end());
  pass.site_requests = scheduler->web()->total_requests() - req0;
  pass.scheduler = Delta(s0, scheduler->stats());
  return pass;
}

// --- Per-layer metrics. ---

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  double crawl_ms = 0.0;
  SurfacingPass surf;  ///< traced surfacing (zeros when none)
  serve::EngineStats engine0, engine1;
  index::SearchStats search0, search1;
  double bytes_per_posting = 0.0;
  OpenLoopSummary queries;  ///< traced serving (empty when none)
  double overhead_frac = 0.0;
};

void FillPerLayer(const LayerInputs& in, const LayerTotals& lt,
                  Report* rep) {
  const SurfacingPass& s = in.surf;
  const double forms = static_cast<double>(s.analyzed);
  rep->Set("crawler.crawl_ms", in.crawl_ms);
  rep->Set("core.analyze_inputs_ms_per_form",
           Ratio(lt.self(Layer::kAnalyzeInputs), forms));
  rep->Set("core.mine_candidates_ms_per_form",
           Ratio(lt.self(Layer::kMineCandidates), forms));
  rep->Set("core.search_templates_ms_per_form",
           Ratio(lt.self(Layer::kSearchTemplates), forms));
  rep->Set("core.emit_urls_ms_per_form",
           Ratio(lt.self(Layer::kEmitUrls), forms));
  rep->Set("core.analysis_probes_per_form",
           Ratio(static_cast<double>(s.probes), forms));
  rep->Set("core.templates_informative_frac",
           Ratio(static_cast<double>(s.templates_informative),
                 static_cast<double>(s.templates_evaluated)));
  rep->Set("core.urls_per_form", Ratio(static_cast<double>(s.urls), forms));
  rep->Set("net.probe_hit_rate", s.scheduler.HitRate());
  rep->Set("net.probe_coalesced", static_cast<double>(s.scheduler.coalesced));
  rep->Set("net.probe_evictions", static_cast<double>(s.scheduler.evictions));
  rep->Set("net.site_handle_ms", lt.self(Layer::kSiteHandle));
  rep->Set("net.site_requests_per_form",
           Ratio(static_cast<double>(s.site_requests), forms));
  rep->Set("net.ingest_fetch_ms_per_page",
           Ratio(lt.self(Layer::kIngestFetch),
                 static_cast<double>(lt.n(Layer::kIngestFetch))));
  rep->Set("html.parse_extract_ms_per_page",
           Ratio(lt.self(Layer::kParseExtract),
                 static_cast<double>(lt.n(Layer::kParseExtract))));
  rep->Set("index.insert_batch_ms_per_doc",
           Ratio(lt.self(Layer::kInsertBatch),
                 static_cast<double>(s.docs_offered)));
  rep->Set("index.docs_new_frac", Ratio(static_cast<double>(s.docs_new),
                                        static_cast<double>(s.pages_ok)));

  const double misses =
      static_cast<double>(in.engine1.cache_misses - in.engine0.cache_misses);
  const double queries =
      static_cast<double>(in.engine1.queries - in.engine0.queries);
  const auto decoded = static_cast<double>(in.search1.blocks_decoded -
                                           in.search0.blocks_decoded);
  const auto skipped = static_cast<double>(in.search1.blocks_skipped -
                                           in.search0.blocks_skipped);
  const auto dhits = static_cast<double>(in.search1.decode_cache_hits -
                                         in.search0.decode_cache_hits);
  rep->Set("index.search_ms_p50", Pct(lt.index_search_ms, 50));
  rep->Set("index.search_ms_p99", Pct(lt.index_search_ms, 99));
  rep->Set("index.blocks_decoded_per_query", Ratio(decoded, misses));
  rep->Set("index.blocks_skipped_per_query", Ratio(skipped, misses));
  rep->Set("index.decode_cache_hit_rate", Ratio(dhits, dhits + decoded));
  rep->Set("index.bytes_per_posting", in.bytes_per_posting);
  rep->Set("serve.cache_hit_rate",
           Ratio(static_cast<double>(in.engine1.cache_hits -
                                     in.engine0.cache_hits),
                 queries));
  rep->Set("serve.cache_invalidations",
           static_cast<double>(in.engine1.invalidations -
                               in.engine0.invalidations));
  rep->Set("serve.engine_ms_p50", Pct(lt.engine_ms, 50));
  rep->Set("serve.engine_ms_p99", Pct(lt.engine_ms, 99));
  rep->Set("serve.queue_wait_ms_p99", Pct(lt.queue_wait_ms, 99));
  rep->Set("query.latency_p99_ms", Pct(in.queries.latency_ms, 99));
  rep->Set("loadgen.late_ms_p99", Pct(in.queries.late_ms, 99));

  // Attribution self-check. The measured total is the surfacing
  // workers' wall time plus every sent query's latency, both read
  // from the workload's own clocks; the layers' self times plus the
  // unattributed remainder (root self time and worker time outside any
  // form) must add up to it. That sum holds whenever every span nests
  // under a root, so it guards nesting and orphan spans; coverage, the
  // share of the total that no layer accounts for, is gated on its own.
  const double total = s.worker_ms + in.queries.total_ms;
  double attributed = 0.0;
  for (size_t l = 0; l < kNumLayers; ++l) {
    const auto layer = static_cast<Layer>(l);
    if (layer == Layer::kForm || layer == Layer::kQuery) continue;
    attributed += lt.self_ms[l];
  }
  const double unattributed = lt.self(Layer::kForm) + lt.self(Layer::kQuery) +
                              (s.worker_ms - lt.total(Layer::kForm));
  const double error = Ratio(std::fabs(attributed + unattributed - total),
                             total);
  rep->Set("unattributed_ms", unattributed);
  rep->Set("attribution.total_ms", total);
  rep->Set("attribution.error_frac", error);
  rep->Set("trace.overhead_frac", in.overhead_frac);
  constexpr double kAttributionTolerance = 0.02;
  constexpr double kUnattributedLimit = 0.10;
  if (lt.nesting_errors != 0) {
    rep->Fail("attribution: " + std::to_string(lt.nesting_errors) +
              " spans do not nest");
  }
  if (error > kAttributionTolerance) {
    rep->Fail("attribution: layers + unattributed miss the measured total "
              "by " + std::to_string(100.0 * error) + "%");
  }
  if (Ratio(unattributed, total) > kUnattributedLimit) {
    rep->Fail("attribution: " + std::to_string(100.0 * unattributed / total) +
              "% of the measured total is in no layer");
  }
}

void CheckWitness(const SurfaceWitness& untraced, const SurfaceWitness& traced,
                  Report* rep) {
  const std::string diff = CompareWitness(untraced, traced);
  if (!diff.empty()) rep->Fail("gate (a): " + diff);
}

/// Failure accounting: queries (shed by the Engine's deadline or
/// failed) and forms (analysis failed), over all attempted.
void Account(const OpenLoopSummary& q, size_t forms, size_t forms_failed,
             Report* rep) {
  rep->attempted = q.attempted + forms;
  rep->failed = q.shed + q.errors + forms_failed;
  rep->Info("queries_attempted", static_cast<double>(q.attempted), "count");
  rep->Info("queries_succeeded", static_cast<double>(q.ok), "count");
  rep->Info("queries_shed", static_cast<double>(q.shed), "count");
  rep->Info("queries_failed", static_cast<double>(q.errors), "count");
  rep->Info("forms_attempted", static_cast<double>(forms), "count");
  rep->Info("forms_failed", static_cast<double>(forms_failed), "count");
  rep->Info("failed_frac", Ratio(static_cast<double>(rep->failed),
                                 static_cast<double>(rep->attempted)),
            "frac");
}

/// The end-to-end metrics, reported by every untraced run. `peak_rss_mb`
/// is read before the gates build their oracles, so it measures the
/// workload and not the benchmark's own checking. The gated latency is
/// timed from each request's send: the p50 from the scheduled arrival
/// also holds the wait for a free client, which grows steeply with the
/// clients' load; on a shared host it swung that p50 by up to 60%
/// between runs of one build while the p50 from the send moved by a few
/// percent.
void SetEndToEnd(double setup_s, double throughput, const OpenLoopSummary& q,
                 double peak_rss_mb, Report* rep) {
  rep->Set("setup_s", setup_s);
  rep->Set("throughput_per_s", throughput);
  rep->Set("service_p50_ms", Pct(q.service_ms, 50));
  rep->Info("query_p50_ms", Pct(q.latency_ms, 50), "ms");
  rep->Set("peak_rss_mb", peak_rss_mb);
  rep->Set("success_frac",
           1.0 - Ratio(static_cast<double>(rep->failed),
                       static_cast<double>(rep->attempted)));
}

// --- surface ---

Report RunSurface(const RunOptions& opt) {
  Report rep;
  double setup_s = 0.0;
  CrawledCorpus c = RepeatSetup<CrawledCorpus>(
      kSetupReps, kSetupMinS,
      [&] { return CrawlCorpus(kSurfaceSites, kSurfaceCorpusSeed); }, &setup_s);
  const uint64_t surf_seed = DeriveStream(opt.seed, 2);
  traffic::ZipfStreamOptions zo;
  zo.distinct = kHeadPool;
  zo.total = 0;
  zo.pool_seed = DeriveStream(opt.seed, 3);
  const std::vector<std::string> pool =
      traffic::BuildZipfQueryStream(c.corpus, zo).pool;
  const auto arrivals = traffic::GenerateArrivals(
      {{"fresh", kSurfaceQueryS, kSurfaceQps, kSurfaceQps, kFlatZipf}},
      pool.size(), DeriveStream(opt.seed, 4));
  OpenLoopOptions lo;
  lo.clients = std::max<size_t>(1, opt.threads - 1);

  // One untraced pass: SurfacingDriver at nproc threads into a fresh
  // index and scheduler, then the freshly surfaced pages are queried.
  Tracer off(false);
  // Each pass keeps only its gate (a) witness, not its URL set.
  auto untraced_pass = [&](OpenLoopSummary* q, SurfaceWitness* witness) {
    net::ProbeScheduler scheduler(c.corpus.web.get());
    index::ShardedIndex idx(IndexOpts());
    SurfacingPass p =
        SurfaceWithDriver(c.forms, &scheduler, &idx, opt.threads, surf_seed);
    *witness = Witness(p.url_set, idx.num_docs());
    p.url_set = {};
    serve::Engine engine(&idx, FreshEngineOpts());
    OpenLoopRun run = RunOpenLoop(&engine, pool, arrivals, lo, &off);
    *q = Summarize(arrivals, run, 0.0, 1e18);
    return p;
  };

  // The first pass also pays for the process's cold allocator and page
  // faults; the median over at least three passes discounts it.
  std::vector<SurfacingPass> passes;
  std::vector<SurfaceWitness> witnesses;
  std::vector<double> forms_per_s;
  OpenLoopSummary all_q;
  std::vector<double> pass_p99;  ///< one p99 per pass's query phase
  const double t_start = NowMs();
  const size_t min_passes = opt.trace ? 2 : 3;
  while (passes.size() < min_passes ||
         (!opt.trace && NowMs() - t_start < opt.seconds * 1e3)) {
    OpenLoopSummary q;
    witnesses.emplace_back();
    passes.push_back(untraced_pass(&q, &witnesses.back()));
    ReleaseFreedMemory();
    const SurfacingPass& p = passes.back();
    forms_per_s.push_back(static_cast<double>(p.forms) / (p.wall_ms / 1e3));
    std::fprintf(stderr,
                 "surface pass %zu: %zu forms (%zu analyzed) in %.0f ms, "
                 "%zu urls, %zu docs, %llu site requests\n",
                 passes.size(), p.forms, p.analyzed, p.wall_ms, p.urls,
                 p.docs_new, static_cast<unsigned long long>(p.site_requests));
    all_q.attempted += q.attempted;
    all_q.ok += q.ok;
    all_q.shed += q.shed;
    all_q.errors += q.errors;
    all_q.latency_ms.insert(all_q.latency_ms.end(), q.latency_ms.begin(),
                            q.latency_ms.end());
    all_q.service_ms.insert(all_q.service_ms.end(), q.service_ms.begin(),
                            q.service_ms.end());
    pass_p99.push_back(Pct(q.latency_ms, 99));
  }
  const double peak_rss_mb = PeakRssMb();

  // The traced pass: staged pipeline behind the decorators.
  Tracer tracer(true);
  auto web = TimedWeb(c.corpus, &tracer);
  net::ProbeScheduler scheduler(web.get());
  index::ShardedIndex idx(IndexOpts());
  TimedIndex timed(&idx, &tracer);
  SurfacingPass traced =
      SurfaceStaged(c.forms, &scheduler, &timed, opt.threads, surf_seed,
                    &tracer);

  // Gate (a): every pass surfaced the same URL set into the same docs.
  for (const auto& w : witnesses) CheckWitness(witnesses[0], w, &rep);
  CheckWitness(witnesses[0], Witness(traced.url_set, idx.num_docs()), &rep);

  uint64_t forms_failed = 0, forms_total = 0;
  for (const auto& p : passes) {
    forms_failed += p.failed;
    forms_total += p.forms;
  }
  if (!opt.trace) {
    Account(all_q, forms_total, forms_failed, &rep);
    SetEndToEnd(setup_s, stats::Median(forms_per_s), all_q, peak_rss_mb,
                &rep);
    std::vector<double> docs_per_s, requests_per_form;
    for (const auto& p : passes) {
      docs_per_s.push_back(static_cast<double>(p.docs_new) / (p.wall_ms / 1e3));
      requests_per_form.push_back(Ratio(static_cast<double>(p.site_requests),
                                        static_cast<double>(p.analyzed)));
    }
    rep.Info("forms_per_s", stats::Median(forms_per_s), "1/s");
    rep.Info("docs_per_s", stats::Median(docs_per_s), "1/s");
    rep.Info("site_requests_per_form", stats::Median(requests_per_form),
             "count");
    rep.Info("query_p99_ms", stats::Median(pass_p99), "ms");
    return rep;
  }

  // Traced serving of the surfaced pages, for the search/serve layers.
  LayerInputs in;
  in.crawl_ms = c.crawl_ms;
  in.surf = traced;
  serve::Engine engine(&timed, FreshEngineOpts());
  in.search0 = idx.search_stats();
  OpenLoopRun run = RunOpenLoop(&engine, pool, arrivals, lo, &tracer);
  in.queries = Summarize(arrivals, run, 0.0, 1e18);
  in.engine1 = engine.stats();
  in.search1 = idx.search_stats();
  in.bytes_per_posting = idx.MemoryUsage().bytes_per_posting();
  const double warm_ms = passes.back().wall_ms;
  in.overhead_frac = Ratio(traced.wall_ms - warm_ms, warm_ms);
  Account(in.queries, traced.forms, traced.failed, &rep);
  FillPerLayer(in, tracer.Aggregate(), &rep);
  return rep;
}

// --- serve_longtail ---

struct ServeSetup {
  ServeBase base;
  std::vector<std::string> pool;
};

ServeSetup BuildServeSetup(uint64_t seed, size_t threads) {
  ServeSetup s;
  s.base = BuildServeBase(kServeCorpusSeed);
  traffic::ZipfStreamOptions zo;
  zo.distinct = kServePool;
  zo.total = 0;
  zo.pool_seed = DeriveStream(seed, 12);
  s.pool = traffic::BuildZipfQueryStream(s.base.corpus, zo).pool;
  WarmIndex(*s.base.index, s.pool, kWarmQueries, threads);
  return s;
}

Report RunServeLongtail(const RunOptions& opt) {
  Report rep;
  double setup_s = 0.0;
  ServeSetup s = RepeatSetup<ServeSetup>(
      kSetupReps, kSetupMinS,
      [&] { return BuildServeSetup(opt.seed, opt.threads); }, &setup_s);
  Tracer off(false);
  Tracer tracer(true);
  TimedIndex timed(s.base.index.get(), &off);
  serve::Engine engine(&timed);
  OpenLoopOptions lo;
  lo.clients = std::max<size_t>(1, opt.threads - 1);
  lo.sample_every = kSampleEvery;

  // Capacity: nproc-1 closed-loop clients over the pool, in one-second
  // windows (their median is throughput_per_s). They run before the
  // nominal step and finish warming the index.
  const double t_start = NowMs();
  std::vector<double> capacity;
  if (!opt.trace) {
    Rng rng(DeriveStream(opt.seed, 14));
    ZipfSampler popularity(s.pool.size(), kFlatZipf);
    std::vector<size_t> ranks(kServePool);
    for (auto& r : ranks) r = static_cast<size_t>(popularity.Sample(&rng));
    while (NowMs() - t_start < opt.seconds * kCapacityShare * 1e3) {
      capacity.push_back(
          RunClosedLoop(&engine, s.pool, ranks, lo.clients, kWindowS));
    }
  }

  // The nominal step, about a third of saturation, on the warm index,
  // for the rest of the measured time.
  const double nominal_s =
      opt.seconds * (opt.trace ? 0.5 : 1.0 - kCapacityShare);
  const auto nominal = traffic::GenerateArrivals(
      {{"nominal", nominal_s, kNominalQps, kNominalQps, kFlatZipf}},
      s.pool.size(), DeriveStream(opt.seed, 13));
  OpenLoopRun run = RunOpenLoop(&engine, s.pool, nominal, lo, &off);
  OpenLoopSummary q = Summarize(nominal, run, 0.0, 1e18);
  const double p99 = SegmentMedianP99(nominal, run, nominal_s, kSegmentS);
  std::fprintf(stderr,
               "serve set-up %.2f s: %zu docs, pool %zu; nominal %llu "
               "queries, p50 %.3f p99 %.3f (segment median %.3f) ms\n",
               setup_s, s.base.docs.size(), s.pool.size(),
               static_cast<unsigned long long>(q.attempted),
               Pct(q.latency_ms, 50), Pct(q.latency_ms, 99), p99);
  std::vector<ServedSample> samples = std::move(run.samples);
  const double peak_rss_mb = PeakRssMb();

  LayerInputs in;
  if (opt.trace) {
    // The same schedule again, traced.
    in.engine0 = engine.stats();
    in.search0 = s.base.index->search_stats();
    timed.set_tracer(&tracer);
    OpenLoopRun traced = RunOpenLoop(&engine, s.pool, nominal, lo, &tracer);
    timed.set_tracer(&off);
    in.queries = Summarize(nominal, traced, 0.0, 1e18);
    in.engine1 = engine.stats();
    in.search1 = s.base.index->search_stats();
    in.overhead_frac = Ratio(in.queries.total_ms - q.total_ms, q.total_ms);
    samples.insert(samples.end(), traced.samples.begin(),
                   traced.samples.end());
  }

  // Gate (b): results served under load equal the exhaustive oracle's.
  {
    auto oracle = BuildOracle(s.base.docs);
    const size_t bad = OracleMismatches(*oracle, s.pool, samples);
    if (samples.empty() || bad != 0) {
      rep.Fail("gate (b): " + std::to_string(bad) + " of " +
               std::to_string(samples.size()) +
               " served results differ from the exhaustive oracle");
    }
  }

  if (!opt.trace) {
    Account(q, 0, 0, &rep);
    SetEndToEnd(setup_s, stats::Median(capacity), q, peak_rss_mb, &rep);
    rep.Info("query_p99_ms", p99, "ms");
    return rep;
  }
  in.crawl_ms = s.base.crawl_ms;
  in.bytes_per_posting = s.base.index->MemoryUsage().bytes_per_posting();
  Account(in.queries, 0, 0, &rep);
  FillPerLayer(in, tracer.Aggregate(), &rep);
  return rep;
}

// --- churn ---

struct ChurnSetup {
  ServeBase base;
  CrawledCorpus churn;
  std::vector<std::string> pool;
};

Report RunChurn(const RunOptions& opt) {
  Report rep;
  double setup_s = 0.0;
  ChurnSetup s = RepeatSetup<ChurnSetup>(
      kSetupReps, kSetupMinS,
      [&] {
        ChurnSetup cs;
        cs.base = BuildServeBase(kServeCorpusSeed);
        cs.churn = CrawlCorpus(kChurnSites, kChurnCorpusSeed);
        traffic::ZipfStreamOptions zo;
        zo.distinct = kHeadPool;
        zo.total = 0;
        zo.pool_seed = DeriveStream(opt.seed, 23);
        cs.pool = traffic::BuildZipfQueryStream(cs.base.corpus, zo).pool;
        WarmIndex(*cs.base.index, cs.pool, kWarmQueries, opt.threads);
        return cs;
      },
      &setup_s);

  Tracer off(false);
  Tracer tracer(true);
  Tracer* t = opt.trace ? &tracer : &off;
  traffic::RecordingWritableIndex rec(s.base.index.get());
  TimedIndex timed(&rec, &off);
  serve::Engine engine(&timed);
  // Fill the result cache with the whole pool (the pre-ingest steady
  // state), untimed.
  for (const auto& query : s.pool) engine.Search(query, kTopK);
  timed.set_tracer(t);

  // Traced chunks probe the sites through the decorators; untraced
  // chunks must not, or their site time would land outside any form.
  net::ProbeScheduler scheduler(s.churn.corpus.web.get());
  auto web = TimedWeb(s.churn.corpus, &tracer);
  net::ProbeScheduler timed_scheduler(web.get());
  const auto arrivals = traffic::GenerateArrivals(
      {{"churn", 4 * opt.seconds + 30, kChurnQps, kChurnQps, 1.0}},
      s.pool.size(), DeriveStream(opt.seed, 24));
  std::atomic<bool> stop{false};
  OpenLoopOptions lo;
  lo.clients = 2;
  lo.stop = &stop;

  LayerInputs in;
  in.engine0 = engine.stats();
  in.search0 = s.base.index->search_stats();
  const uint64_t seed = DeriveStream(opt.seed, 25);
  // One surfacing thread, a chunk of forms per SurfacingDriver run, until
  // the measured time is spent. The corpus lists sites largest first, and
  // a run reaches only part of the list, so the work-list is taken in a
  // fixed stride order: every chunk, and every run whatever its seed,
  // gets a like mix of sizes, and the seed does not decide how many of
  // the few large sites a run reaches.
  // Traced runs alternate untraced (SurfacingDriver) and traced (staged)
  // chunks; the difference in time per site request is the tracing
  // overhead.
  s.churn.forms = StrideOrder(s.churn.forms);
  SurfacingPass untraced_sum, traced_sum;
  double ingest_ms = 0.0;
  std::thread ingest([&] {
    const double t0 = NowMs();
    for (size_t i = 0, chunk = 0; i < s.churn.forms.size();
         i += kChurnChunk, ++chunk) {
      if (NowMs() - t0 >= opt.seconds * 1e3) break;
      const size_t end = std::min(s.churn.forms.size(), i + kChurnChunk);
      std::vector<crawler::DiscoveredForm> forms(
          s.churn.forms.begin() + static_cast<long>(i),
          s.churn.forms.begin() + static_cast<long>(end));
      if (opt.trace && chunk % 2 == 1) {
        traced_sum.Add(
            SurfaceStaged(forms, &timed_scheduler, &timed, 1, seed, &tracer));
      } else {
        untraced_sum.Add(SurfaceWithDriver(forms, &scheduler, &rec, 1, seed));
      }
    }
    ingest_ms = NowMs() - t0;
    if (ingest_ms < opt.seconds * 1e3) {
      std::fprintf(stderr,
                   "churn: the work-list ran out after %.1f s, short of the "
                   "measured time\n",
                   ingest_ms / 1e3);
    }
    stop.store(true);
  });
  OpenLoopRun run = RunOpenLoop(&engine, s.pool, arrivals, lo, t);
  ingest.join();
  in.engine1 = engine.stats();
  in.search1 = s.base.index->search_stats();
  OpenLoopSummary q = Summarize(arrivals, run, 0.0, 1e18);
  const double peak_rss_mb = PeakRssMb();

  // Gate (c): settled, the engine serves what an exhaustive oracle
  // replayed from the recorded ingest log serves.
  {
    std::vector<index::Document> docs = s.base.docs;
    const std::vector<index::Document> churned = rec.recorded();
    docs.insert(docs.end(), churned.begin(), churned.end());
    auto oracle = BuildOracle(docs);
    std::vector<ServedSample> settled;
    timed.set_tracer(&off);
    for (size_t i = 0; i < std::min(kSettledChecks, s.pool.size()); ++i) {
      settled.push_back(ServedSample{i, engine.Search(s.pool[i], kTopK).hits});
    }
    const size_t bad = OracleMismatches(*oracle, s.pool, settled);
    if (bad != 0 || churned.empty()) {
      rep.Fail("gate (c): " + std::to_string(bad) + " of " +
               std::to_string(settled.size()) +
               " settled results differ from the replayed oracle (" +
               std::to_string(churned.size()) + " docs ingested)");
    }
  }

  SurfacingPass all = untraced_sum;
  all.Add(traced_sum);
  Account(q, all.forms, all.failed, &rep);
  if (!opt.trace) {
    const double docs_per_s =
        static_cast<double>(all.docs_new) / (ingest_ms / 1e3);
    SetEndToEnd(setup_s, docs_per_s, q, peak_rss_mb, &rep);
    rep.Info("docs_per_s", docs_per_s, "1/s");
    rep.Info("forms_per_s",
             static_cast<double>(all.forms) / (ingest_ms / 1e3), "1/s");
    rep.Info("site_requests_per_form",
             Ratio(static_cast<double>(all.site_requests),
                   static_cast<double>(all.analyzed)),
             "count");
    rep.Info("query_p99_ms",
             SegmentMedianP99(arrivals, run, ingest_ms / 1e3, kChurnSegmentS),
             "ms");
    return rep;
  }
  in.crawl_ms = s.churn.crawl_ms;
  in.surf = traced_sum;
  in.queries = q;
  in.bytes_per_posting = s.base.index->MemoryUsage().bytes_per_posting();
  const double untraced_per_request =
      Ratio(untraced_sum.wall_ms,
            static_cast<double>(untraced_sum.site_requests));
  const double traced_per_request = Ratio(
      traced_sum.wall_ms, static_cast<double>(traced_sum.site_requests));
  in.overhead_frac =
      Ratio(traced_per_request - untraced_per_request, untraced_per_request);
  FillPerLayer(in, tracer.Aggregate(), &rep);
  return rep;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"surface", "serve_longtail",
                                                  "churn"};
  return kNames;
}

Report RunWorkload(const RunOptions& options) {
  if (options.workload == "surface") return RunSurface(options);
  if (options.workload == "serve_longtail") return RunServeLongtail(options);
  if (options.workload == "churn") return RunChurn(options);
  Report rep;
  rep.Fail("unknown workload: " + options.workload);
  return rep;
}

}  // namespace perfbench
