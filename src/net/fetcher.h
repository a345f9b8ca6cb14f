// Copyright 2026 The deepsurf Authors.
//
// The probe scheduler: the shared fetch client between all analysis code
// and the (simulated) web. The paper's scale story — millions of forms
// analyzed offline with a light, polite load on each site — needs a fetch
// layer that (a) never issues the same probe twice across forms, (b)
// accounts per-host load and can enforce a politeness budget, and (c) can
// drive many analyses concurrently. The scheduler provides all three: a
// normalized-URL-keyed LRU probe cache with hit/miss statistics, in-flight
// request coalescing (two threads probing the same URL share one fetch),
// per-host fetch budgets, and an optional worker pool for batch fetching.

#ifndef DEEPSURF_NET_FETCHER_H_
#define DEEPSURF_NET_FETCHER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/url.h"
#include "net/web.h"
#include "util/result.h"

namespace deepsurf {
namespace net {

/// Scheduler configuration.
struct ProbeSchedulerOptions {
  /// Cached responses kept, least-recently-used evicted first. 0 disables
  /// caching entirely (every fetch goes to the network).
  size_t cache_capacity = 4096;
  /// Maximum network fetches charged to any single host (politeness
  /// budget); 0 = unlimited. Cache hits are free — that is the point.
  size_t per_host_budget = 0;
  /// Worker threads serving FetchBatch. 0 = fetch on the calling thread.
  size_t num_workers = 0;
};

/// Cumulative scheduler counters (all since construction).
struct ProbeSchedulerStats {
  uint64_t requests = 0;        ///< Fetch calls
  uint64_t cache_hits = 0;      ///< served from the probe cache
  uint64_t cache_misses = 0;    ///< went to the network
  uint64_t coalesced = 0;       ///< waited on an identical in-flight fetch
  uint64_t evictions = 0;       ///< LRU entries dropped
  uint64_t budget_denials = 0;  ///< refused by the per-host budget

  double HitRate() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(requests);
  }
};

/// Deduplicating, budget-aware, thread-safe fetch client over a
/// SimulatedWeb. All methods are safe to call from any thread.
class ProbeScheduler {
 public:
  explicit ProbeScheduler(SimulatedWeb* web,
                          ProbeSchedulerOptions options = {});
  ~ProbeScheduler();

  ProbeScheduler(const ProbeScheduler&) = delete;
  ProbeScheduler& operator=(const ProbeScheduler&) = delete;

  /// Fetches one URL through the cache. Identical submissions are
  /// deduplicated by the URL's canonical form (query parameters sorted),
  /// so two probes that differ only in parameter order share one cache
  /// entry. Concurrent fetches of the same URL are coalesced into a
  /// single network request. Exceeding the per-host budget fails with
  /// ResourceExhausted (and is not cached). Transport errors and 5xx
  /// responses are treated as transient and are likewise never cached —
  /// a later Fetch retries them.
  Result<HttpResponse> Fetch(const Url& url);

  /// Parse + Fetch.
  Result<HttpResponse> Fetch(const std::string& url);

  /// Fetches a batch, distributing it over the worker pool when one is
  /// configured (calling thread otherwise). Results are positional.
  std::vector<Result<HttpResponse>> FetchBatch(const std::vector<Url>& urls);

  /// Counter snapshot.
  ProbeSchedulerStats stats() const;

  /// Network fetches charged to `host` so far.
  uint64_t HostFetches(const std::string& host) const;

  /// Entries currently cached.
  size_t cache_size() const;

  /// Drops every cached response (counters are kept).
  void ClearCache();

  SimulatedWeb* web() { return web_; }
  const ProbeSchedulerOptions& options() const { return options_; }

 private:
  /// One fetched response, held once and shared by its cache entry and
  /// its in-flight record; callers copy it out after releasing mu_.
  using SharedResponse = std::shared_ptr<const Result<HttpResponse>>;
  struct CacheEntry {
    SharedResponse response;
    std::list<std::string>::iterator lru_it;
  };
  struct InFlight {
    std::condition_variable done_cv;
    bool done = false;
    SharedResponse response;
    size_t waiters = 0;
  };

  /// Inserts into the cache, evicting LRU entries beyond capacity.
  /// Requires mu_ held.
  void InsertLocked(const std::string& key, const SharedResponse& r);

  void WorkerLoop();

  SimulatedWeb* web_;
  const ProbeSchedulerOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> lru_;  ///< front = most recent
  std::map<std::string, std::shared_ptr<InFlight>> in_flight_;
  std::map<std::string, uint64_t> host_fetches_;
  ProbeSchedulerStats stats_;

  // Worker pool (batch fetches only; Fetch always runs on its caller).
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::list<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace net
}  // namespace deepsurf

#endif  // DEEPSURF_NET_FETCHER_H_
