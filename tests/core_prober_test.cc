// Tests for the form prober: page reduction, caching, budgets.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/prober.h"
#include "extract/record_extractor.h"
#include "html/parser.h"
#include "index/analyzer.h"
#include "test_support.h"

namespace deepsurf {
namespace core {
namespace {

using testing_support::MakeSite;

TEST(ReducePageTest, NonHtmlStatusShortCircuits) {
  ProbeResult r = ReducePage(404, "<html>irrelevant</html>");
  EXPECT_EQ(r.status_code, 404);
  EXPECT_FALSE(r.HasResults());
  EXPECT_EQ(r.record_count, 0u);
}

TEST(ReducePageTest, CountsRecords) {
  std::string page =
      "<table><tr><th>a</th><th>b</th></tr>"
      "<tr><td>first record body text</td><td>1</td></tr>"
      "<tr><td>second record body text</td><td>2</td></tr></table>";
  ProbeResult r = ReducePage(200, page);
  EXPECT_TRUE(r.HasResults());
  EXPECT_EQ(r.record_count, 2u);
  EXPECT_EQ(r.record_hashes.size(), 2u);
  EXPECT_FALSE(r.term_frequencies.empty());
}

TEST(ReducePageTest, SignatureIsOrderIndependent) {
  std::string page1 =
      "<div class=i><span>alpha record content</span></div>"
      "<div class=i><span>beta record content</span></div>";
  std::string page2 =
      "<div class=i><span>beta record content</span></div>"
      "<div class=i><span>alpha record content</span></div>";
  EXPECT_EQ(ReducePage(200, page1).signature,
            ReducePage(200, page2).signature);
}

TEST(ReducePageTest, DifferentRecordsDifferentSignature) {
  std::string page1 =
      "<div class=i><span>alpha record content</span></div>"
      "<div class=i><span>beta record content</span></div>";
  std::string page2 =
      "<div class=i><span>gamma record content</span></div>"
      "<div class=i><span>delta record content</span></div>";
  EXPECT_NE(ReducePage(200, page1).signature,
            ReducePage(200, page2).signature);
}

TEST(ReducePageTest, TermMapsMatchRegionTextAndPerRecordCounts) {
  // Repeated terms within and across records, stop words ("the", "and",
  // "of") and 1-char tokens ("a", "x", "7"), which the analyzer drops.
  std::string page =
      "<div class=i><span>The red car and the red truck</span>"
      "<span>x 7 red</span></div>"
      "<div class=i><span>a blue car of the year</span>"
      "<span>blue blue 1999</span></div>"
      "<div class=i><span>red bike</span><span>a 7 of x</span></div>";
  ProbeResult r = ReducePage(200, page);
  ASSERT_EQ(r.record_count, 3u);

  // Expected maps straight from the record texts: term frequencies over
  // the newline-joined region text, record frequencies as per-record
  // distinct counts.
  auto extraction = extract::ExtractRecords(*html::Parse(page));
  ASSERT_EQ(extraction.records.size(), 3u);
  std::string region_text;
  std::map<std::string, double> record_df;
  for (const auto& rec : extraction.records) {
    const std::string joined = rec.Joined();
    region_text += joined + "\n";
    const auto tokens = index::ContentTokens(joined);
    for (const auto& t : std::set<std::string>(tokens.begin(), tokens.end())) {
      record_df[t] += 1.0;
    }
  }
  EXPECT_EQ(r.term_frequencies, index::TermFrequencies(region_text));
  EXPECT_EQ(r.record_document_frequencies, record_df);

  // Spot checks that the page exercises what it is meant to.
  EXPECT_EQ(r.term_frequencies.at("red"), 4.0);
  EXPECT_EQ(r.record_document_frequencies.at("red"), 2.0);
  EXPECT_EQ(r.term_frequencies.at("blue"), 3.0);
  EXPECT_EQ(r.record_document_frequencies.at("blue"), 1.0);
  EXPECT_EQ(r.term_frequencies.count("the"), 0u);
  EXPECT_EQ(r.term_frequencies.count("x"), 0u);
  EXPECT_EQ(r.term_frequencies.count("7"), 0u);
}

TEST(ProberTest, ProbeAgainstRealSite) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 3, 80);
  FormProber prober(&h->web, h->analyzed);
  auto result = prober.Probe({});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->HasResults());
  EXPECT_GT(result->record_count, 0u);
}

TEST(ProberTest, CacheAvoidsRefetch) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 3, 80);
  FormProber prober(&h->web, h->analyzed);
  ASSERT_TRUE(prober.Probe({{"make", "Honda"}}).ok());
  size_t fetches_after_first = prober.fetches();
  ASSERT_TRUE(prober.Probe({{"make", "Honda"}}).ok());
  EXPECT_EQ(prober.fetches(), fetches_after_first);
  EXPECT_EQ(prober.cache_hits(), 1u);
}

TEST(ProberTest, CacheKeyIsCanonical) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 3, 80);
  FormProber prober(&h->web, h->analyzed);
  ASSERT_TRUE(prober.Probe({{"make", "Honda"}, {"zip", "10001"}}).ok());
  ASSERT_TRUE(prober.Probe({{"zip", "10001"}, {"make", "Honda"}}).ok());
  EXPECT_EQ(prober.cache_hits(), 1u);  // same canonical URL
}

TEST(ProberTest, BudgetEnforced) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 3, 80);
  FormProber prober(&h->web, h->analyzed, /*budget=*/2);
  ASSERT_TRUE(prober.Probe({{"zip", "10001"}}).ok());
  ASSERT_TRUE(prober.Probe({{"zip", "90001"}}).ok());
  auto third = prober.Probe({{"zip", "60601"}});
  EXPECT_TRUE(third.status().IsResourceExhausted());
  // Cached probes still work after exhaustion.
  EXPECT_TRUE(prober.Probe({{"zip", "10001"}}).ok());
}

TEST(ProberTest, PostFormRefused) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 3, 40);
  AnalyzedForm post_form = h->analyzed;
  post_form.is_post = true;
  FormProber prober(&h->web, post_form);
  EXPECT_TRUE(prober.Probe({}).status().IsUnimplemented());
}

TEST(ProberTest, EmptyResultPageHasNoRecords) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 3, 80);
  FormProber prober(&h->web, h->analyzed);
  auto result = prober.Probe({{"make", "NoSuchMake"}});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->HasResults());
  EXPECT_EQ(result->record_count, 0u);
}

TEST(ProberTest, SortParameterDoesNotChangeSignature) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 5, 40);
  // Find a presentation (sort) input if the generated site has one; the
  // signature must be identical since the same records come back.
  const synthweb::FormInputSpec* sort_input = nullptr;
  for (const auto& in : h->site->spec().inputs) {
    if (in.role == synthweb::InputRole::kPresentation &&
        in.html_name != "radius") {
      sort_input = &in;
    }
  }
  if (sort_input == nullptr) {
    GTEST_SKIP() << "this seed generated no sort input";
  }
  FormProber prober(&h->web, h->analyzed);
  auto plain = prober.Probe({});
  auto sorted = prober.Probe({{sort_input->html_name,
                               sort_input->options.back()}});
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(plain->signature, sorted->signature);
}

}  // namespace
}  // namespace core
}  // namespace deepsurf
