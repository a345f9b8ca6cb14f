// Tests for the simulated web: registration, dispatch, traffic accounting.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "net/web.h"

namespace deepsurf {
namespace net {
namespace {

/// Trivial server echoing the path.
class EchoServer : public WebServer {
 public:
  explicit EchoServer(std::string host) : host_(std::move(host)) {}

  HttpResponse Handle(const HttpRequest& request) override {
    HttpResponse resp;
    if (request.url.path() == "/missing") {
      resp.status_code = 404;
      resp.body = "not found";
      return resp;
    }
    resp.body = "path=" + request.url.path() +
                " method=" +
                (request.method == Method::kGet ? "GET" : "POST");
    return resp;
  }

  const std::string& host() const override { return host_; }

 private:
  std::string host_;
};

TEST(SimulatedWebTest, RegisterAndGet) {
  SimulatedWeb web;
  ASSERT_TRUE(web.Register(std::make_shared<EchoServer>("a.com")).ok());
  auto resp = web.Get("http://a.com/hello");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status_code, 200);
  EXPECT_EQ(resp->body, "path=/hello method=GET");
}

TEST(SimulatedWebTest, DuplicateHostRejected) {
  SimulatedWeb web;
  ASSERT_TRUE(web.Register(std::make_shared<EchoServer>("a.com")).ok());
  EXPECT_TRUE(web.Register(std::make_shared<EchoServer>("a.com"))
                  .IsInvalidArgument());
  // A host too long for std::string's inline buffer lives on the heap,
  // so the rejection message must not read it through the server the
  // failed registration already released.
  const std::string long_host = "a-host-name-longer-than-the-sso-buffer.com";
  ASSERT_TRUE(web.Register(std::make_shared<EchoServer>(long_host)).ok());
  const Status dup = web.Register(std::make_shared<EchoServer>(long_host));
  EXPECT_TRUE(dup.IsInvalidArgument());
  EXPECT_NE(dup.message().find(long_host), std::string::npos);
}

TEST(SimulatedWebTest, UnknownHostIsNotFound) {
  SimulatedWeb web;
  auto resp = web.Get("http://nowhere.com/");
  EXPECT_TRUE(resp.status().IsNotFound());
}

TEST(SimulatedWebTest, MalformedUrlFails) {
  SimulatedWeb web;
  EXPECT_FALSE(web.Get("not a url").ok());
}

TEST(SimulatedWebTest, PostDispatch) {
  SimulatedWeb web;
  ASSERT_TRUE(web.Register(std::make_shared<EchoServer>("a.com")).ok());
  auto url = Url::Parse("http://a.com/submit").value();
  auto resp = web.Post(url, {{"k", "v"}});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->body, "path=/submit method=POST");
}

TEST(SimulatedWebTest, TrafficAccounting) {
  SimulatedWeb web;
  ASSERT_TRUE(web.Register(std::make_shared<EchoServer>("a.com")).ok());
  ASSERT_TRUE(web.Register(std::make_shared<EchoServer>("b.com")).ok());
  (void)web.Get("http://a.com/1");
  (void)web.Get("http://a.com/2");
  (void)web.Get("http://b.com/1");
  auto url = Url::Parse("http://a.com/p").value();
  (void)web.Post(url, {});
  HostTraffic a = web.TrafficFor("a.com");
  HostTraffic b = web.TrafficFor("b.com");
  EXPECT_EQ(a.get_requests, 2u);
  EXPECT_EQ(a.post_requests, 1u);
  EXPECT_EQ(b.get_requests, 1u);
  EXPECT_GT(a.bytes_served, 0u);
  EXPECT_EQ(web.total_requests(), 4u);
}

TEST(SimulatedWebTest, ErrorsCounted) {
  SimulatedWeb web;
  ASSERT_TRUE(web.Register(std::make_shared<EchoServer>("a.com")).ok());
  (void)web.Get("http://a.com/missing");
  EXPECT_EQ(web.TrafficFor("a.com").errors, 1u);
}

TEST(SimulatedWebTest, ResetTraffic) {
  SimulatedWeb web;
  ASSERT_TRUE(web.Register(std::make_shared<EchoServer>("a.com")).ok());
  (void)web.Get("http://a.com/");
  web.ResetTraffic();
  EXPECT_EQ(web.total_requests(), 0u);
  EXPECT_EQ(web.TrafficFor("a.com").get_requests, 0u);
}

TEST(SimulatedWebTest, HostsSorted) {
  SimulatedWeb web;
  ASSERT_TRUE(web.Register(std::make_shared<EchoServer>("c.com")).ok());
  ASSERT_TRUE(web.Register(std::make_shared<EchoServer>("a.com")).ok());
  EXPECT_EQ(web.Hosts(), (std::vector<std::string>{"a.com", "c.com"}));
  EXPECT_TRUE(web.HasHost("a.com"));
  EXPECT_FALSE(web.HasHost("z.com"));
}

TEST(SimulatedWebTest, UnknownHostCountsNothing) {
  SimulatedWeb web;
  HostTraffic t = web.TrafficFor("ghost.com");
  EXPECT_EQ(t.get_requests, 0u);
  EXPECT_EQ(t.bytes_served, 0u);
}

TEST(SimulatedWebTest, ConcurrentTrafficTotalsMatchSingleThreaded) {
  // The per-host counters must not lose updates under concurrent
  // fetches: the totals must equal what a single-threaded run records.
  constexpr size_t kThreads = 8;
  constexpr size_t kFetchesPerThread = 200;

  auto run = [&](size_t num_threads) {
    SimulatedWeb web;
    EXPECT_TRUE(web.Register(std::make_shared<EchoServer>("a.com")).ok());
    EXPECT_TRUE(web.Register(std::make_shared<EchoServer>("b.com")).ok());
    auto fetches = [&web] {
      for (size_t i = 0; i < kFetchesPerThread; ++i) {
        EXPECT_TRUE(web.Get("http://a.com/p" + std::to_string(i)).ok());
        EXPECT_TRUE(web.Get("http://b.com/missing").ok());
      }
    };
    if (num_threads <= 1) {
      for (size_t t = 0; t < kThreads; ++t) fetches();
    } else {
      std::vector<std::thread> pool;
      for (size_t t = 0; t < num_threads; ++t) pool.emplace_back(fetches);
      for (auto& th : pool) th.join();
    }
    return std::make_tuple(web.total_requests(), web.TrafficFor("a.com"),
                           web.TrafficFor("b.com"));
  };

  auto [total1, a1, b1] = run(1);
  auto [totalN, aN, bN] = run(kThreads);
  EXPECT_EQ(total1, totalN);
  EXPECT_EQ(a1.get_requests, aN.get_requests);
  EXPECT_EQ(a1.bytes_served, aN.bytes_served);
  EXPECT_EQ(b1.get_requests, bN.get_requests);
  EXPECT_EQ(b1.errors, bN.errors);
  EXPECT_EQ(bN.errors, kThreads * kFetchesPerThread);
}

}  // namespace
}  // namespace net
}  // namespace deepsurf
