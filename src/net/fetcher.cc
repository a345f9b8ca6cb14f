#include "net/fetcher.h"

#include <atomic>

#include "util/logging.h"

namespace deepsurf {
namespace net {

ProbeScheduler::ProbeScheduler(SimulatedWeb* web,
                               ProbeSchedulerOptions options)
    : web_(web), options_(options) {
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ProbeScheduler::~ProbeScheduler() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    shutting_down_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ProbeScheduler::InsertLocked(const std::string& key,
                                  const SharedResponse& r) {
  if (options_.cache_capacity == 0) return;
  // Transport errors and server errors (5xx) are treated as transient and
  // never cached — one flaky response must not poison a URL for the
  // scheduler's whole lifetime. Deterministic outcomes (2xx-4xx pages)
  // are cached.
  if (!r->ok() || (*r)->status_code >= 500) return;
  // Only the key's single in-flight leader reaches here, and a new leader
  // cannot start while the key is cached — the key is always absent.
  lru_.push_front(key);
  auto [it, inserted] = cache_.emplace(key, CacheEntry{r, lru_.begin()});
  DS_CHECK(inserted) << "duplicate probe cache insert: " << key;
  while (cache_.size() > options_.cache_capacity) {
    const std::string& victim = lru_.back();
    cache_.erase(victim);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

Result<HttpResponse> ProbeScheduler::Fetch(const Url& url) {
  const std::string key = url.ToCanonicalString();
  const std::string host = url.host();
  std::shared_ptr<InFlight> flight;
  SharedResponse hit;  // copied out only once mu_ is released
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.requests;
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++stats_.cache_hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      hit = it->second.response;
    } else if (auto fit = in_flight_.find(key); fit != in_flight_.end()) {
      // Same URL being fetched right now — wait for that result instead
      // of issuing a duplicate request.
      ++stats_.coalesced;
      ++stats_.cache_hits;
      flight = fit->second;
      ++flight->waiters;
      flight->done_cv.wait(lock, [&] { return flight->done; });
      --flight->waiters;
      hit = flight->response;
    } else {
      if (options_.per_host_budget != 0 &&
          host_fetches_[host] >= options_.per_host_budget) {
        ++stats_.budget_denials;
        return Status::ResourceExhausted(
            "per-host fetch budget exhausted: " + host);
      }
      ++stats_.cache_misses;
      ++host_fetches_[host];
      flight = std::make_shared<InFlight>();
      in_flight_.emplace(key, flight);
    }
  }
  if (hit != nullptr) return *hit;

  Result<HttpResponse> response = web_->Get(url);
  // The one copy, made before locking; a copy's buffers are also sized
  // to fit, unlike the ones the page was built in, so it is the copy
  // that the cache keeps.
  auto shared = std::make_shared<const Result<HttpResponse>>(response);
  {
    std::lock_guard<std::mutex> lock(mu_);
    InsertLocked(key, shared);
    flight->response = shared;
    flight->done = true;
    in_flight_.erase(key);
  }
  flight->done_cv.notify_all();
  return response;
}

Result<HttpResponse> ProbeScheduler::Fetch(const std::string& url) {
  DEEPSURF_ASSIGN_OR_RETURN(Url parsed, Url::Parse(url));
  return Fetch(parsed);
}

std::vector<Result<HttpResponse>> ProbeScheduler::FetchBatch(
    const std::vector<Url>& urls) {
  std::vector<Result<HttpResponse>> results(
      urls.size(), Result<HttpResponse>(Status::Internal("not fetched")));
  if (urls.empty()) return results;
  if (workers_.empty()) {
    for (size_t i = 0; i < urls.size(); ++i) results[i] = Fetch(urls[i]);
    return results;
  }

  // Fan the batch out to the pool and wait for the tail.
  auto remaining = std::make_shared<std::atomic<size_t>>(urls.size());
  auto batch_mu = std::make_shared<std::mutex>();
  auto batch_cv = std::make_shared<std::condition_variable>();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (size_t i = 0; i < urls.size(); ++i) {
      queue_.push_back([this, &urls, &results, i, remaining, batch_mu,
                        batch_cv] {
        results[i] = Fetch(urls[i]);
        if (remaining->fetch_sub(1) == 1) {
          std::lock_guard<std::mutex> batch_lock(*batch_mu);
          batch_cv->notify_all();
        }
      });
    }
  }
  queue_cv_.notify_all();
  std::unique_lock<std::mutex> lock(*batch_mu);
  batch_cv->wait(lock, [&] { return remaining->load() == 0; });
  return results;
}

void ProbeScheduler::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ProbeSchedulerStats ProbeScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint64_t ProbeScheduler::HostFetches(const std::string& host) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = host_fetches_.find(host);
  return it == host_fetches_.end() ? 0 : it->second;
}

size_t ProbeScheduler::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

void ProbeScheduler::ClearCache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
  lru_.clear();
}

}  // namespace net
}  // namespace deepsurf
