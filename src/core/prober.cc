#include "core/prober.h"

#include <algorithm>

#include "extract/record_extractor.h"
#include "html/parser.h"
#include "index/analyzer.h"
#include "util/hash.h"

namespace deepsurf {
namespace core {

ProbeResult ReducePage(int status_code, const std::string& body) {
  ProbeResult out;
  out.status_code = status_code;
  if (status_code != 200) return out;
  auto dom = html::Parse(body);
  auto extraction = extract::ExtractRecords(*dom);
  out.record_count = extraction.records.size();
  // Signature over the sorted record hashes: order-independent, so a
  // sort-permuted page has the same signature — presentation inputs thus
  // test as uninformative.
  std::vector<uint64_t> hashes;
  for (const auto& rec : extraction.records) {
    const std::string joined = rec.Joined();
    hashes.push_back(Fnv1a64(joined));
    // One tokenization per record feeds both term maps: the record
    // region is the records' texts joined by newlines, and a newline
    // splits tokens, so its term frequencies are the per-record counts
    // summed.
    std::vector<std::string> tokens = index::ContentTokens(joined);
    std::sort(tokens.begin(), tokens.end());
    for (size_t i = 0; i < tokens.size();) {
      size_t run = i + 1;
      while (run < tokens.size() && tokens[run] == tokens[i]) ++run;
      out.term_frequencies[tokens[i]] += static_cast<double>(run - i);
      out.record_document_frequencies[tokens[i]] += 1.0;
      i = run;
    }
  }
  std::sort(hashes.begin(), hashes.end());
  uint64_t sig = 0x9e3779b97f4a7c15ULL;
  for (uint64_t h : hashes) sig = HashCombine(sig, h);
  out.signature = sig;
  out.record_hashes = std::move(hashes);
  return out;
}

FormProber::FormProber(net::ProbeScheduler* scheduler,
                       const AnalyzedForm& form, size_t budget)
    : scheduler_(scheduler), form_(form), budget_(budget) {}

FormProber::FormProber(net::SimulatedWeb* web, const AnalyzedForm& form,
                       size_t budget)
    : owned_scheduler_(std::make_unique<net::ProbeScheduler>(web)),
      scheduler_(owned_scheduler_.get()),
      form_(form),
      budget_(budget) {}

Result<ProbeResult> FormProber::Probe(const Bindings& bindings) {
  if (form_.is_post) {
    return Status::Unimplemented(
        "POST forms cannot be probed by the surfacer");
  }
  net::Url url = SubmissionUrl(form_, bindings);
  std::string key = url.ToCanonicalString();
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++cache_hits_;
    return it->second;
  }
  if (budget_ != 0 && fetches_ >= budget_) {
    return Status::ResourceExhausted("probe budget exhausted");
  }
  ++fetches_;
  auto resp = scheduler_->Fetch(url);
  if (!resp.ok()) return resp.status();
  ProbeResult result = ReducePage(resp->status_code, resp->body);
  cache_[key] = result;
  return result;
}

}  // namespace core
}  // namespace deepsurf
