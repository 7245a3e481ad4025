#include <gtest/gtest.h>

#include "httpsim/cookies.h"
#include "httpsim/message.h"
#include "httpsim/network.h"
#include "httpsim/session.h"

namespace mak::httpsim {
namespace {

// --------------------------------------------------------------- message

TEST(ResponseTest, Factories) {
  const auto ok = Response::html("<p>x</p>");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "<p>x</p>");

  const auto redirect = Response::redirect("/next");
  EXPECT_TRUE(redirect.is_redirect());
  EXPECT_EQ(redirect.location, "/next");

  const auto missing = Response::not_found("/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("Not Found"), std::string::npos);

  const auto broken = Response::server_error("boom");
  EXPECT_EQ(broken.status, 500);
}

TEST(ResponseTest, NotFoundEscapesInput) {
  const auto r = Response::not_found("<script>");
  EXPECT_EQ(r.body.find("<script>"), std::string::npos);
  EXPECT_NE(r.body.find("&lt;script&gt;"), std::string::npos);
}

TEST(RequestTest, ParamAndFormAccessors) {
  Request req;
  req.query = url::QueryMap::parse("a=1");
  req.form = url::QueryMap::parse("b=2");
  EXPECT_EQ(req.param("a"), "1");
  EXPECT_EQ(req.param("x", "d"), "d");
  EXPECT_EQ(req.form_value("b"), "2");
  EXPECT_EQ(req.form_value("y", "d"), "d");
}

TEST(RequestTest, DecodedPath) {
  Request req;
  req.url = *url::parse("http://h/a%20b/c");
  EXPECT_EQ(req.decoded_path(), "/a b/c");
}

// --------------------------------------------------------------- cookies

TEST(CookieJarTest, StoreAndRetrieveByHost) {
  CookieJar jar;
  jar.store("h.test", {{"sid", "abc", "/"}});
  const auto got = jar.cookies_for(*url::parse("http://h.test/any"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.at("sid"), "abc");
  EXPECT_TRUE(jar.cookies_for(*url::parse("http://other.test/")).empty());
}

TEST(CookieJarTest, PathScoping) {
  CookieJar jar;
  jar.store("h.test", {{"scoped", "v", "/admin"}});
  EXPECT_TRUE(jar.cookies_for(*url::parse("http://h.test/")).empty());
  EXPECT_EQ(jar.cookies_for(*url::parse("http://h.test/admin/x")).size(), 1u);
}

TEST(CookieJarTest, OverwriteAndDelete) {
  CookieJar jar;
  jar.store("h.test", {{"k", "v1", "/"}});
  jar.store("h.test", {{"k", "v2", "/"}});
  EXPECT_EQ(jar.cookies_for(*url::parse("http://h.test/")).at("k"), "v2");
  jar.store("h.test", {{"k", "", "/"}});  // empty value deletes
  EXPECT_TRUE(jar.cookies_for(*url::parse("http://h.test/")).empty());
}

TEST(CookieJarTest, SizeAndClear) {
  CookieJar jar;
  jar.store("a.test", {{"x", "1", "/"}});
  jar.store("b.test", {{"y", "2", "/"}, {"z", "3", "/"}});
  EXPECT_EQ(jar.size(), 3u);
  jar.clear();
  EXPECT_EQ(jar.size(), 0u);
}

// --------------------------------------------------------------- session

TEST(SessionTest, TypedAccessors) {
  Session s("id1");
  EXPECT_FALSE(s.has("k"));
  s.set("k", "v");
  EXPECT_TRUE(s.has("k"));
  EXPECT_EQ(s.get("k"), "v");
  EXPECT_EQ(s.get("missing", "fallback"), "fallback");
  s.erase("k");
  EXPECT_FALSE(s.has("k"));

  s.set_int("n", 41);
  EXPECT_EQ(s.get_int("n"), 41);
  EXPECT_EQ(s.increment("n"), 42);
  EXPECT_EQ(s.get_int("absent", -7), -7);
  s.set("junk", "not-a-number");
  EXPECT_EQ(s.get_int("junk", 9), 9);

  EXPECT_FALSE(s.get_flag("f"));
  s.set_flag("f", true);
  EXPECT_TRUE(s.get_flag("f"));
  s.set_flag("f", false);
  EXPECT_FALSE(s.get_flag("f"));
}

TEST(SessionTest, Lists) {
  Session s("id2");
  EXPECT_TRUE(s.get_list("cart").empty());
  s.push_list("cart", "a");
  s.push_list("cart", "b");
  ASSERT_EQ(s.get_list("cart").size(), 2u);
  EXPECT_EQ(s.get_list("cart")[1], "b");
  s.clear_list("cart");
  EXPECT_TRUE(s.get_list("cart").empty());
}

TEST(SessionStoreTest, CreateAndFind) {
  SessionStore store;
  Session& a = store.create();
  Session& b = store.create();
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(store.find(a.id()), &a);
  EXPECT_EQ(store.find("nope"), nullptr);
  EXPECT_EQ(store.size(), 2u);
  store.clear();
  EXPECT_EQ(store.size(), 0u);
}

TEST(SessionStoreTest, IdsDeterministicPerStore) {
  SessionStore s1;
  SessionStore s2;
  EXPECT_EQ(s1.create().id(), s2.create().id());
}

// --------------------------------------------------------------- network

class EchoHost : public VirtualHost {
 public:
  Response handle(const Request& request) override {
    ++requests;
    last = request;
    if (request.decoded_path() == "/redirect") {
      auto r = Response::redirect("/target");
      r.set_cookies.push_back({"hop", "1", "/"});
      return r;
    }
    if (request.decoded_path() == "/loop") {
      return Response::redirect("/loop");
    }
    if (request.decoded_path() == "/post-redirect" &&
        request.method == Method::kPost) {
      return Response::redirect("/target", 303);
    }
    Response r = Response::html("<p>" + request.decoded_path() + "</p>");
    return r;
  }

  int requests = 0;
  Request last;
};

class NetworkTest : public ::testing::Test {
 protected:
  support::SimClock clock_;
  Network network_{clock_};
  EchoHost host_;
  CookieJar jar_;

  void SetUp() override { network_.register_host("h.test", host_); }
};

TEST_F(NetworkTest, DispatchesToHost) {
  const auto result = network_.fetch(Method::kGet, *url::parse("http://h.test/x"),
                                     url::QueryMap{}, jar_);
  EXPECT_EQ(result.response.status, 200);
  EXPECT_EQ(result.response.body, "<p>/x</p>");
  EXPECT_EQ(result.final_url.to_string(), "http://h.test/x");
  EXPECT_FALSE(result.network_error);
}

TEST_F(NetworkTest, UnknownHostIs502) {
  const auto result = network_.fetch(
      Method::kGet, *url::parse("http://nope.test/"), url::QueryMap{}, jar_);
  EXPECT_EQ(result.response.status, 502);
}

TEST_F(NetworkTest, FollowsRedirectAndStoresCookies) {
  const auto result = network_.fetch(
      Method::kGet, *url::parse("http://h.test/redirect"), url::QueryMap{},
      jar_);
  EXPECT_EQ(result.response.status, 200);
  EXPECT_EQ(result.final_url.path, "/target");
  EXPECT_EQ(result.redirects, 1);
  // The cookie set on the redirect hop must be visible to the next hop.
  EXPECT_EQ(jar_.cookies_for(*url::parse("http://h.test/")).at("hop"), "1");
}

TEST_F(NetworkTest, RedirectLoopDetected) {
  const auto result = network_.fetch(
      Method::kGet, *url::parse("http://h.test/loop"), url::QueryMap{}, jar_);
  EXPECT_TRUE(result.network_error);
  EXPECT_GE(result.redirects, 8);
}

TEST_F(NetworkTest, PostRedirectDemotesToGet) {
  url::QueryMap form;
  form.add("k", "v");
  const auto result = network_.fetch(
      Method::kPost, *url::parse("http://h.test/post-redirect"), form, jar_);
  EXPECT_EQ(result.final_url.path, "/target");
  EXPECT_EQ(host_.last.method, Method::kGet);
  EXPECT_TRUE(host_.last.form.empty());
}

TEST_F(NetworkTest, ClockAdvancesPerHop) {
  const auto before = clock_.now();
  network_.fetch(Method::kGet, *url::parse("http://h.test/a"),
                 url::QueryMap{}, jar_);
  EXPECT_GT(clock_.now(), before);
}

TEST_F(NetworkTest, RedirectHopsAreCheaper) {
  support::SimClock c2;
  Network n2(c2);
  EchoHost h2;
  n2.register_host("h.test", h2);
  CookieJar j2;
  // /redirect = 1 redirect hop (discounted) + 1 page; /a = 1 page. The
  // difference must be less than a full page cost.
  n2.fetch(Method::kGet, *url::parse("http://h.test/a"), url::QueryMap{}, j2);
  const auto one_page = c2.now();
  n2.fetch(Method::kGet, *url::parse("http://h.test/redirect"),
           url::QueryMap{}, j2);
  const auto with_redirect = c2.now() - one_page;
  EXPECT_GT(with_redirect, one_page);
  EXPECT_LT(with_redirect, 2 * one_page);
}

TEST_F(NetworkTest, CookiesSentToServer) {
  jar_.store("h.test", {{"sid", "s1", "/"}});
  network_.fetch(Method::kGet, *url::parse("http://h.test/x"),
                 url::QueryMap{}, jar_);
  EXPECT_EQ(host_.last.cookies.at("sid"), "s1");
}

TEST_F(NetworkTest, QueryParsedIntoRequest) {
  network_.fetch(Method::kGet, *url::parse("http://h.test/x?q=hello"),
                 url::QueryMap{}, jar_);
  EXPECT_EQ(host_.last.param("q"), "hello");
}

TEST_F(NetworkTest, RequestCountIncludesRedirectHops) {
  network_.fetch(Method::kGet, *url::parse("http://h.test/redirect"),
                 url::QueryMap{}, jar_);
  EXPECT_EQ(network_.request_count(), 2u);
}

// ------------------------------------------------ network under injection

TEST_F(NetworkTest, InjectedErrorPreemptsRedirectLoopDuringWindow) {
  // The host's /loop endpoint redirects forever, but while the degradation
  // window is open the injector sheds the request before the host sees it.
  FaultProfile profile;
  profile.window_period_ms = 1000000;
  profile.window_duration_ms = 1000;
  profile.window_error_rate = 1.0;
  FaultInjector injector(profile, 7, clock_);
  network_.set_fault_injector(&injector);

  const auto degraded = network_.fetch(
      Method::kGet, *url::parse("http://h.test/loop"), url::QueryMap{}, jar_);
  EXPECT_TRUE(degraded.injected_fault);
  EXPECT_GE(degraded.response.status, 500);
  EXPECT_EQ(degraded.redirects, 0);
  EXPECT_EQ(host_.requests, 0);  // shed before dispatch
  EXPECT_EQ(network_.request_count(), 0u);

  // After the window closes the loop is the host's own pathology again.
  clock_.advance(1500);
  const auto looping = network_.fetch(
      Method::kGet, *url::parse("http://h.test/loop"), url::QueryMap{}, jar_);
  EXPECT_FALSE(looping.injected_fault);
  EXPECT_TRUE(looping.network_error);
  EXPECT_GE(looping.redirects, 8);
}

TEST_F(NetworkTest, CookiesPersistAcrossDroppedAndRetriedRequests) {
  // Drops only inside the window [0, 1000).
  FaultProfile profile;
  profile.window_period_ms = 1000000;
  profile.window_duration_ms = 1000;
  profile.window_drop_rate = 1.0;
  FaultInjector injector(profile, 8, clock_);
  network_.set_fault_injector(&injector);

  // The dropped attempt never reaches the host, so no cookie is set...
  const auto dropped = network_.fetch(
      Method::kGet, *url::parse("http://h.test/redirect"), url::QueryMap{},
      jar_);
  EXPECT_TRUE(dropped.dropped);
  EXPECT_EQ(jar_.size(), 0u);

  // ...the manual retry after the window succeeds and stores it...
  clock_.advance(2000);
  const auto retried = network_.fetch(
      Method::kGet, *url::parse("http://h.test/redirect"), url::QueryMap{},
      jar_);
  EXPECT_EQ(retried.response.status, 200);
  EXPECT_EQ(jar_.cookies_for(*url::parse("http://h.test/")).at("hop"), "1");

  // ...and subsequent requests carry it: the jar survived the fault.
  network_.fetch(Method::kGet, *url::parse("http://h.test/x"),
                 url::QueryMap{}, jar_);
  EXPECT_EQ(host_.last.cookies.at("hop"), "1");
}

// Host with server-side session state keyed on a sid cookie.
class SessionCounterHost : public VirtualHost {
 public:
  Response handle(const Request& request) override {
    ++requests;
    if (request.cookies.find("sid") == request.cookies.end()) {
      Response r = Response::html("<p>welcome</p>");
      r.set_cookies.push_back({"sid", "s-1", "/"});
      return r;
    }
    ++counter;
    return Response::html("<p>count " + std::to_string(counter) + "</p>");
  }
  int requests = 0;
  int counter = 0;  // session-scoped state
};

TEST_F(NetworkTest, SessionSurvivesInjected503ThenRecovers) {
  SessionCounterHost session_host;
  network_.register_host("s.test", session_host);

  // Establish the session on a clean network.
  const auto hello = network_.fetch(
      Method::kGet, *url::parse("http://s.test/"), url::QueryMap{}, jar_);
  EXPECT_EQ(hello.response.status, 200);
  ASSERT_EQ(jar_.cookies_for(*url::parse("http://s.test/")).at("sid"), "s-1");

  // The origin degrades: every request answered with an injected 503 while
  // the window (opening now) is live.
  FaultProfile profile;
  profile.window_period_ms = 1000000;
  profile.window_duration_ms = 1000;
  profile.window_offset_ms = clock_.now();
  profile.window_error_rate = 1.0;
  FaultInjector injector(profile, 9, clock_);
  network_.set_fault_injector(&injector);

  const auto shed = network_.fetch(
      Method::kGet, *url::parse("http://s.test/"), url::QueryMap{}, jar_);
  EXPECT_EQ(shed.response.status, 503);
  EXPECT_TRUE(shed.injected_fault);
  EXPECT_EQ(session_host.requests, 1);  // the 503 never hit the app

  // Recovery: same jar, same session — the server-side counter picks up
  // where the session left off.
  clock_.advance(1500);
  const auto recovered = network_.fetch(
      Method::kGet, *url::parse("http://s.test/"), url::QueryMap{}, jar_);
  EXPECT_EQ(recovered.response.status, 200);
  EXPECT_NE(recovered.response.body.find("count 1"), std::string::npos);
  EXPECT_EQ(session_host.requests, 2);
}

}  // namespace
}  // namespace mak::httpsim
