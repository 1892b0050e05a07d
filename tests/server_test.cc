// End-to-end tests for erq_server: every route exercised over real
// sockets (Socket::Connect against a Listener on an ephemeral port),
// tenant isolation, per-tenant quota eviction under the shared budget,
// the HTTP error paths (400/404/405/429/503), and the pure units
// underneath (ServerOptions::Validate, UrlDecode, HttpStatusFromStatus,
// TenantRegistry name validation).

#include "server/server.h"

#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace erq {
namespace {

using ::erq::testing::FixtureDb;

ServerOptions SmallServer() {
  ServerOptions options;
  options.port = 0;  // ephemeral: tests never collide
  options.tenant_config.c_cost = 0.0;  // always run detection
  return options;
}

/// A started server over a FixtureDb, torn down on scope exit.
class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions options = SmallServer())
      : server_(&db_.catalog(), &db_.stats(), std::move(options)) {
    start_status_ = server_.Start();
  }
  ~ServerFixture() { server_.Stop(); }

  const Status& start_status() const { return start_status_; }
  uint16_t port() const { return server_.port(); }
  ErqServer& server() { return server_; }

 private:
  FixtureDb db_;
  ErqServer server_;
  Status start_status_;
};

/// One-shot client: connect, send `request`, read one response.
StatusOr<std::pair<int, JsonValue>> Roundtrip(uint16_t port,
                                              const HttpRequest& request) {
  ERQ_ASSIGN_OR_RETURN(Socket socket, Socket::Connect("127.0.0.1", port));
  ERQ_RETURN_IF_ERROR(socket.SendAll(request.Serialize("127.0.0.1")));
  int status_code = 0;
  std::string body;
  ERQ_RETURN_IF_ERROR(ReadHttpResponse(&socket, &status_code, &body));
  ERQ_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(body));
  return std::make_pair(status_code, std::move(doc));
}

HttpRequest QueryRequestFor(const std::string& sql,
                            const std::string& tenant = "") {
  HttpRequest request;
  request.method = "POST";
  request.path = "/v1/query";
  std::string body = "{\"sql\":" + JsonQuote(sql);
  if (!tenant.empty()) body += ",\"tenant\":" + JsonQuote(tenant);
  request.body = body + "}";
  return request;
}

TEST(ServerOptionsTest, ValidateCatchesBadConfigs) {
  EXPECT_TRUE(SmallServer().Validate().ok());

  ServerOptions options = SmallServer();
  options.host.clear();
  EXPECT_FALSE(options.Validate().ok());

  options = SmallServer();
  options.max_connections = 0;
  EXPECT_FALSE(options.Validate().ok());

  options = SmallServer();
  options.max_tenants = 0;
  EXPECT_FALSE(options.Validate().ok());

  options = SmallServer();
  options.global_n_max = options.max_tenants - 1;  // quota would be zero
  EXPECT_FALSE(options.Validate().ok());

  options = SmallServer();
  options.max_request_bytes = 0;
  EXPECT_FALSE(options.Validate().ok());

  options = SmallServer();
  options.tenant_config.persist.dir = "/tmp/should-not-be-allowed";
  EXPECT_FALSE(options.Validate().ok())
      << "tenants share a process but not a journal directory";
}

TEST(HttpUnitTest, UrlDecode) {
  EXPECT_EQ(UrlDecode("plain"), "plain");
  EXPECT_EQ(UrlDecode("a%20b+c"), "a b c");
  EXPECT_EQ(UrlDecode("%2Fv1%2fquery"), "/v1/query");
  EXPECT_EQ(UrlDecode("bad%2"), "bad%2");  // malformed kept verbatim
  EXPECT_EQ(UrlDecode("%zz"), "%zz");
}

TEST(HttpUnitTest, HttpStatusFromStatus) {
  EXPECT_EQ(HttpStatusFromStatus(Status::OK()), 200);
  EXPECT_EQ(HttpStatusFromStatus(Status::ParseError("x")), 400);
  EXPECT_EQ(HttpStatusFromStatus(Status::BindError("x")), 400);
  EXPECT_EQ(HttpStatusFromStatus(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(HttpStatusFromStatus(Status::NotFound("x")), 404);
  EXPECT_EQ(HttpStatusFromStatus(Status::AlreadyExists("x")), 409);
  EXPECT_EQ(HttpStatusFromStatus(Status::ResourceExhausted("x")), 429);
  EXPECT_EQ(HttpStatusFromStatus(Status::Internal("x")), 500);
  EXPECT_EQ(HttpStatusFromStatus(Status::IoError("x")), 500);
}

/// Feeds `raw` to ReadHttpResponse over a loopback connection.
Status ReadRawResponse(const std::string& raw, int* code, std::string* body) {
  ERQ_ASSIGN_OR_RETURN(Listener listener, Listener::Bind("127.0.0.1", 0));
  ERQ_ASSIGN_OR_RETURN(Socket client,
                       Socket::Connect("127.0.0.1", listener.port()));
  ERQ_ASSIGN_OR_RETURN(Socket peer, listener.Accept());
  ERQ_RETURN_IF_ERROR(peer.SendAll(raw));
  peer.Shutdown();
  return ReadHttpResponse(&client, code, body);
}

TEST(HttpUnitTest, ReadHttpResponseParsesStrictDecimals) {
  int code = 0;
  std::string body;
  ERQ_ASSERT_OK(ReadRawResponse(
      "HTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\nok", &code, &body));
  EXPECT_EQ(code, 201);
  EXPECT_EQ(body, "ok");

  // A negative length used to wrap to a huge size_t, and trailing junk
  // used to be ignored; both are now a ParseError, as is a junk status.
  for (const char* raw :
       {"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\nok",
        "HTTP/1.1 200 OK\r\nContent-Length: 2x\r\n\r\nok",
        "HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\nok"}) {
    Status s = ReadRawResponse(raw, &code, &body);
    EXPECT_EQ(s.code(), StatusCode::kParseError) << raw << ": " << s.ToString();
  }
}

TEST(TenantRegistryTest, NameValidation) {
  EXPECT_TRUE(TenantRegistry::IsValidTenantName("a"));
  EXPECT_TRUE(TenantRegistry::IsValidTenantName("tenant_07"));
  EXPECT_FALSE(TenantRegistry::IsValidTenantName(""));
  EXPECT_FALSE(TenantRegistry::IsValidTenantName("UPPER"));
  EXPECT_FALSE(TenantRegistry::IsValidTenantName("has space"));
  EXPECT_FALSE(TenantRegistry::IsValidTenantName("dot.dot"));
  EXPECT_FALSE(TenantRegistry::IsValidTenantName(std::string(33, 'a')));
}

TEST(ServerTest, QueryEndpointDetectsOnRepeat) {
  ServerFixture fx;
  ERQ_ASSERT_OK(fx.start_status());

  const HttpRequest request = QueryRequestFor("select * from A where a > 100");
  ERQ_ASSERT_OK_AND_ASSIGN(auto first, Roundtrip(fx.port(), request));
  EXPECT_EQ(first.first, 200);
  EXPECT_EQ(first.second.Find("schema")->AsString(), "erq.response.v1");
  EXPECT_TRUE(first.second.Find("outcome")->Find("executed")->AsBool());
  EXPECT_TRUE(first.second.Find("outcome")->Find("result_empty")->AsBool());

  ERQ_ASSERT_OK_AND_ASSIGN(auto second, Roundtrip(fx.port(), request));
  EXPECT_EQ(second.first, 200);
  EXPECT_TRUE(
      second.second.Find("outcome")->Find("detected_empty")->AsBool());
  EXPECT_FALSE(second.second.Find("outcome")->Find("executed")->AsBool());
}

TEST(ServerTest, TenantIsolationEmptiesNeverCross) {
  ServerFixture fx;
  ERQ_ASSERT_OK(fx.start_status());
  const std::string sql = "select * from A where b > 5000";

  // Tenant a executes and harvests; its repeat is detected.
  ERQ_ASSERT_OK_AND_ASSIGN(auto seed,
                           Roundtrip(fx.port(), QueryRequestFor(sql, "a")));
  ASSERT_EQ(seed.first, 200);
  EXPECT_TRUE(seed.second.Find("outcome")->Find("executed")->AsBool());
  ERQ_ASSERT_OK_AND_ASSIGN(auto repeat,
                           Roundtrip(fx.port(), QueryRequestFor(sql, "a")));
  EXPECT_TRUE(repeat.second.Find("outcome")->Find("detected_empty")->AsBool());

  // Tenant b issues the identical query: a's C_aqp must not answer it.
  ERQ_ASSERT_OK_AND_ASSIGN(auto cross,
                           Roundtrip(fx.port(), QueryRequestFor(sql, "b")));
  ASSERT_EQ(cross.first, 200);
  EXPECT_TRUE(cross.second.Find("outcome")->Find("executed")->AsBool());
  EXPECT_FALSE(cross.second.Find("outcome")->Find("detected_empty")->AsBool());
}

TEST(ServerTest, PerTenantQuotaEvictionUnderSharedBudget) {
  // Global budget 8 over max_tenants 4 => quota 2 parts per tenant.
  ServerOptions options = SmallServer();
  options.max_tenants = 4;
  options.global_n_max = 8;
  ServerFixture fx(options);
  ERQ_ASSERT_OK(fx.start_status());
  EXPECT_EQ(fx.server().tenants().quota(), 2u);

  // Tenant "noisy" harvests 4 distinct one-part empties (> quota); the
  // predicates are equalities on different values so no stored part
  // covers another (covered inserts would be skipped, not evicted).
  // Tenant "quiet" harvests exactly one.
  const std::vector<std::string> noisy = {
      "select * from A where a = 100", "select * from A where a = 200",
      "select * from A where b = 5000", "select * from B where d = 999"};
  for (const std::string& sql : noisy) {
    ERQ_ASSERT_OK_AND_ASSIGN(auto r,
                             Roundtrip(fx.port(), QueryRequestFor(sql, "noisy")));
    ASSERT_EQ(r.first, 200);
    ASSERT_TRUE(r.second.Find("outcome")->Find("result_empty")->AsBool());
  }
  ERQ_ASSERT_OK_AND_ASSIGN(
      auto quiet, Roundtrip(fx.port(),
                            QueryRequestFor("select * from A where a > 300",
                                            "quiet")));
  ASSERT_EQ(quiet.first, 200);

  HttpRequest cache_req;
  cache_req.method = "GET";
  cache_req.path = "/v1/admin/cache";
  ERQ_ASSERT_OK_AND_ASSIGN(auto cache, Roundtrip(fx.port(), cache_req));
  ASSERT_EQ(cache.first, 200);
  EXPECT_EQ(cache.second.Find("schema")->AsString(), "erq.admin.cache.v1");
  EXPECT_EQ(cache.second.Find("quota")->AsInt64(), 2);

  const JsonValue* tenants = cache.second.Find("tenants");
  ASSERT_NE(tenants, nullptr);
  const JsonValue* noisy_stats = tenants->Find("noisy");
  ASSERT_NE(noisy_stats, nullptr);
  // The noisy tenant is clamped to its own quota and saw evictions; the
  // quiet tenant keeps its part — the shared budget did not bleed over.
  EXPECT_LE(noisy_stats->Find("size")->AsInt64(), 2);
  EXPECT_EQ(noisy_stats->Find("n_max")->AsInt64(), 2);
  EXPECT_GT(noisy_stats->Find("evictions")->AsInt64(), 0);
  const JsonValue* quiet_stats = tenants->Find("quiet");
  ASSERT_NE(quiet_stats, nullptr);
  EXPECT_EQ(quiet_stats->Find("size")->AsInt64(), 1);
  EXPECT_EQ(quiet_stats->Find("evictions")->AsInt64(), 0);
}

TEST(ServerTest, BatchCarriesPerItemStructuredErrors) {
  ServerFixture fx;
  ERQ_ASSERT_OK(fx.start_status());

  HttpRequest request;
  request.method = "POST";
  request.path = "/v1/query";
  request.body =
      "{\"batch\":[\"select * from A where a > 100\","
      "\"not sql at all\",\"select * from missing\"]}";
  ERQ_ASSERT_OK_AND_ASSIGN(auto result, Roundtrip(fx.port(), request));
  ASSERT_EQ(result.first, 200);  // batch transport succeeds as a whole
  EXPECT_EQ(result.second.Find("schema")->AsString(),
            "erq.response.batch.v1");
  const std::vector<JsonValue>& items = result.second.Find("items")->Items();
  ASSERT_EQ(items.size(), 3u);

  EXPECT_EQ(items[0].Find("http_status")->AsInt64(), 200);
  EXPECT_EQ(items[0].Find("response")->Find("status")->Find("code")->AsString(),
            "OK");

  EXPECT_EQ(items[1].Find("http_status")->AsInt64(), 400);
  EXPECT_EQ(items[1].Find("response")->Find("status")->Find("code")->AsString(),
            "ParseError");

  EXPECT_EQ(items[2].Find("http_status")->AsInt64(), 404);
  EXPECT_EQ(items[2].Find("response")->Find("status")->Find("code")->AsString(),
            "NotFound");
}

TEST(ServerTest, BatchItemIsCheckedAgainstEarlierItems) {
  ServerFixture fx;
  ERQ_ASSERT_OK(fx.start_status());

  // Items run in order, exactly as sequential submissions: the first
  // executes, comes back empty and is harvested, so the second is
  // detected from C_aqp without execution, as is a later batch's item.
  HttpRequest request;
  request.method = "POST";
  request.path = "/v1/query";
  request.body =
      "{\"batch\":[\"select * from A where a > 100\","
      "\"select * from A where a > 100\"]}";
  ERQ_ASSERT_OK_AND_ASSIGN(auto first, Roundtrip(fx.port(), request));
  ASSERT_EQ(first.first, 200);
  const std::vector<JsonValue>& items = first.second.Find("items")->Items();
  ASSERT_EQ(items.size(), 2u);
  const JsonValue* seed = items[0].Find("response")->Find("outcome");
  EXPECT_TRUE(seed->Find("executed")->AsBool());
  EXPECT_FALSE(seed->Find("detected_empty")->AsBool());
  EXPECT_GT(seed->Find("aqps_recorded")->AsInt64(), 0);
  const JsonValue* repeat = items[1].Find("response")->Find("outcome");
  EXPECT_TRUE(repeat->Find("detected_empty")->AsBool());
  EXPECT_FALSE(repeat->Find("executed")->AsBool());

  request.body = "{\"batch\":[\"select * from A where a > 100\"]}";
  ERQ_ASSERT_OK_AND_ASSIGN(auto second, Roundtrip(fx.port(), request));
  ASSERT_EQ(second.first, 200);
  const std::vector<JsonValue>& later = second.second.Find("items")->Items();
  ASSERT_EQ(later.size(), 1u);
  EXPECT_TRUE(later[0]
                  .Find("response")
                  ->Find("outcome")
                  ->Find("detected_empty")
                  ->AsBool());
}

TEST(ServerTest, InvalidateEndpointNotifiesEveryTenant) {
  ServerFixture fx;
  ERQ_ASSERT_OK(fx.start_status());
  const std::string sql = "select * from A where a > 100";

  // Seed detection state in two tenants.
  for (const char* tenant : {"a", "b"}) {
    ERQ_ASSERT_OK_AND_ASSIGN(auto r,
                             Roundtrip(fx.port(), QueryRequestFor(sql, tenant)));
    ASSERT_EQ(r.first, 200);
  }

  HttpRequest invalidate;
  invalidate.method = "POST";
  invalidate.path = "/v1/admin/invalidate";
  invalidate.query["table"] = "A";
  ERQ_ASSERT_OK_AND_ASSIGN(auto result, Roundtrip(fx.port(), invalidate));
  ASSERT_EQ(result.first, 200);
  EXPECT_EQ(result.second.Find("schema")->AsString(),
            "erq.admin.invalidate.v1");
  EXPECT_EQ(result.second.Find("table")->AsString(), "A");
  EXPECT_EQ(result.second.Find("tenants_notified")->AsInt64(), 2);

  // After invalidation the query executes again instead of being detected.
  ERQ_ASSERT_OK_AND_ASSIGN(auto after,
                           Roundtrip(fx.port(), QueryRequestFor(sql, "a")));
  EXPECT_TRUE(after.second.Find("outcome")->Find("executed")->AsBool());

  // Missing ?table= is a 400.
  invalidate.query.clear();
  ERQ_ASSERT_OK_AND_ASSIGN(auto missing, Roundtrip(fx.port(), invalidate));
  EXPECT_EQ(missing.first, 400);
}

TEST(ServerTest, MetricsEndpointServesRegistrySnapshot) {
  ServerFixture fx;
  ERQ_ASSERT_OK(fx.start_status());
  ERQ_ASSERT_OK_AND_ASSIGN(
      auto ignored,
      Roundtrip(fx.port(), QueryRequestFor("select * from A where a > 100")));
  (void)ignored;

  HttpRequest metrics;
  metrics.method = "GET";
  metrics.path = "/metrics";
  ERQ_ASSERT_OK_AND_ASSIGN(auto result, Roundtrip(fx.port(), metrics));
  ASSERT_EQ(result.first, 200);
  EXPECT_EQ(result.second.Find("schema")->AsString(), "erq.metrics.v1");
  const JsonValue* counters = result.second.Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* served = counters->Find("erq.server.requests");
  ASSERT_NE(served, nullptr);
  EXPECT_GE(served->AsInt64(), 1);
}

TEST(ServerTest, ErrorPaths) {
  ServerFixture fx;
  ERQ_ASSERT_OK(fx.start_status());

  HttpRequest request;
  request.method = "GET";
  request.path = "/no/such/route";
  ERQ_ASSERT_OK_AND_ASSIGN(auto not_found, Roundtrip(fx.port(), request));
  EXPECT_EQ(not_found.first, 404);
  EXPECT_EQ(not_found.second.Find("status")->Find("code")->AsString(),
            "NotFound");

  request.method = "GET";  // query is POST-only
  request.path = "/v1/query";
  ERQ_ASSERT_OK_AND_ASSIGN(auto wrong_method, Roundtrip(fx.port(), request));
  EXPECT_EQ(wrong_method.first, 405);

  request.method = "POST";
  request.path = "/v1/query";
  request.body = "{not json";
  ERQ_ASSERT_OK_AND_ASSIGN(auto bad_json, Roundtrip(fx.port(), request));
  EXPECT_EQ(bad_json.first, 400);
  EXPECT_EQ(bad_json.second.Find("status")->Find("code")->AsString(),
            "ParseError");

  // Invalid tenant namespace.
  request.body = "{\"sql\":\"select * from A\",\"tenant\":\"No Caps!\"}";
  ERQ_ASSERT_OK_AND_ASSIGN(auto bad_tenant, Roundtrip(fx.port(), request));
  EXPECT_EQ(bad_tenant.first, 400);

  // sql and batch together.
  request.body = "{\"sql\":\"select * from A\",\"batch\":[\"x\"]}";
  ERQ_ASSERT_OK_AND_ASSIGN(auto both, Roundtrip(fx.port(), request));
  EXPECT_EQ(both.first, 400);
}

TEST(ServerTest, HostileRowLimitAnswers400) {
  ServerFixture fx;
  ERQ_ASSERT_OK(fx.start_status());
  HttpRequest request;
  request.method = "POST";
  request.path = "/v1/query";
  // Out of int64 range, non-finite, fractional, above 2^53, negative,
  // and not a number at all.
  for (const char* limit :
       {"1e300", "1e999", "1.5", "1e16", "-1", "\"10\""}) {
    request.body =
        std::string("{\"sql\":\"select * from A\",\"row_limit\":") + limit +
        "}";
    ERQ_ASSERT_OK_AND_ASSIGN(auto result, Roundtrip(fx.port(), request));
    EXPECT_EQ(result.first, 400) << "row_limit " << limit;
  }
  // The bounds themselves are accepted.
  for (const char* limit : {"0", "9007199254740992", "2.0e1"}) {
    request.body =
        std::string("{\"sql\":\"select * from A\",\"row_limit\":") + limit +
        "}";
    ERQ_ASSERT_OK_AND_ASSIGN(auto result, Roundtrip(fx.port(), request));
    EXPECT_EQ(result.first, 200) << "row_limit " << limit;
  }
}

TEST(ServerTest, TenantLimitAnswers429) {
  ServerOptions options = SmallServer();
  options.max_tenants = 2;
  options.global_n_max = 100;
  ServerFixture fx(options);
  ERQ_ASSERT_OK(fx.start_status());

  const std::string sql = "select * from A where a > 100";
  ERQ_ASSERT_OK_AND_ASSIGN(auto t1,
                           Roundtrip(fx.port(), QueryRequestFor(sql, "t1")));
  EXPECT_EQ(t1.first, 200);
  ERQ_ASSERT_OK_AND_ASSIGN(auto t2,
                           Roundtrip(fx.port(), QueryRequestFor(sql, "t2")));
  EXPECT_EQ(t2.first, 200);
  ERQ_ASSERT_OK_AND_ASSIGN(auto t3,
                           Roundtrip(fx.port(), QueryRequestFor(sql, "t3")));
  EXPECT_EQ(t3.first, 429);
  EXPECT_EQ(t3.second.Find("status")->Find("code")->AsString(),
            "ResourceExhausted");
}

TEST(ServerTest, ConnectionLimitAnswers503) {
  ServerOptions options = SmallServer();
  options.max_connections = 1;
  ServerFixture fx(options);
  ERQ_ASSERT_OK(fx.start_status());

  // Occupy the single slot with a keep-alive connection and prove it is
  // admitted by completing a request on it.
  ERQ_ASSERT_OK_AND_ASSIGN(Socket holder,
                           Socket::Connect("127.0.0.1", fx.port()));
  ERQ_ASSERT_OK(holder.SendAll(
      QueryRequestFor("select * from A where a > 100")
          .Serialize("127.0.0.1")));
  int code = 0;
  std::string body;
  ERQ_ASSERT_OK(ReadHttpResponse(&holder, &code, &body));
  ASSERT_EQ(code, 200);

  // The next connection is turned away at the door.
  ERQ_ASSERT_OK_AND_ASSIGN(Socket extra,
                           Socket::Connect("127.0.0.1", fx.port()));
  ERQ_ASSERT_OK(ReadHttpResponse(&extra, &code, &body));
  EXPECT_EQ(code, 503);
  ERQ_ASSERT_OK_AND_ASSIGN(JsonValue doc, JsonValue::Parse(body));
  EXPECT_EQ(doc.Find("status")->Find("code")->AsString(),
            "ResourceExhausted");
}

TEST(ServerTest, StopIsIdempotentAndRestartForbidden) {
  ServerFixture fx;
  ERQ_ASSERT_OK(fx.start_status());
  fx.server().Stop();
  fx.server().Stop();  // second call is a no-op
  EXPECT_FALSE(fx.server().Start().ok());
}

}  // namespace
}  // namespace erq
