// Unit tests for the QueryRequest/QueryResponse API (core/query_api.h):
// the Execute entry point and its legacy wrapper, row_limit truncation,
// the erq.response.v1 JSON rendering (parsed back with our own JSON
// reader), and the shared text rendering.

#include "core/query_api.h"

#include <string>
#include <vector>

#include "common/json.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace erq {
namespace {

using ::erq::testing::FixtureDb;

EmptyResultConfig CheckEverything() {
  EmptyResultConfig config;
  config.c_cost = 0.0;  // every query is "high cost": always check C_aqp
  return config;
}

TEST(QueryApiTest, ExecuteMatchesLegacyQueryWrapper) {
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), CheckEverything());
  ASSERT_TRUE(manager.init_status().ok());

  const std::string sql = "select * from A where a < 15";
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome via_execute,
                           manager.Execute(QueryRequest::Sql(sql)));
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome via_query, manager.Query(sql));
  EXPECT_EQ(via_execute.result_rows, via_query.result_rows);
  EXPECT_EQ(via_execute.executed, via_query.executed);
}

TEST(QueryApiTest, EmptySqlStillReportsParseError) {
  // Back-compat: Query("") has always surfaced the parser's error, not a
  // request-validation error.
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), CheckEverything());
  auto result = manager.Execute(QueryRequest::Sql(""));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(QueryResponseTest, RowLimitTruncates) {
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), CheckEverything());
  QueryRequest request = QueryRequest::Sql("select * from A");
  request.row_limit = 3;
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome, manager.Execute(request));
  ASSERT_EQ(outcome.result_rows, 10u);  // fixture A has 10 rows

  QueryResponse response = QueryResponse::FromOutcome(outcome, request);
  EXPECT_EQ(response.rows.size(), 3u);
  EXPECT_TRUE(response.rows_truncated);
  EXPECT_EQ(response.result_rows, 10u);
  EXPECT_EQ(response.columns, (std::vector<std::string>{"a", "b", "c"}));

  request.row_limit = 0;  // metadata only
  response = QueryResponse::FromOutcome(outcome, request);
  EXPECT_TRUE(response.rows.empty());
  EXPECT_TRUE(response.rows_truncated);
}

TEST(QueryResponseTest, ToJsonRoundTripsThroughOurParser) {
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), CheckEverything());
  QueryRequest request = QueryRequest::Sql("select * from A where a > 100");
  request.explain = ExplainVerbosity::kFull;
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome, manager.Execute(request));

  const QueryResponse response = QueryResponse::FromOutcome(outcome, request);
  ERQ_ASSERT_OK_AND_ASSIGN(JsonValue doc, JsonValue::Parse(response.ToJson()));
  EXPECT_EQ(doc.Find("schema")->AsString(), "erq.response.v1");
  EXPECT_EQ(doc.Find("status")->Find("code")->AsString(), "OK");
  const JsonValue* out = doc.Find("outcome");
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->Find("executed")->AsBool());
  EXPECT_TRUE(out->Find("result_empty")->AsBool());
  EXPECT_EQ(out->Find("result_rows")->AsInt64(), 0);
  ASSERT_NE(doc.Find("timings"), nullptr);
  EXPECT_NE(doc.Find("timings")->Find("total_seconds"), nullptr);
  ASSERT_NE(doc.Find("plan"), nullptr);       // kFull carries the plan
  ASSERT_NE(doc.Find("empty_causes"), nullptr);
  EXPECT_GE(doc.Find("empty_causes")->Items().size(), 1u);
}

TEST(QueryResponseTest, ErrorJsonCarriesSchemaAndStatusOnly) {
  const QueryResponse response =
      QueryResponse::FromStatus(Status::NotFound("nope"));
  ERQ_ASSERT_OK_AND_ASSIGN(JsonValue doc, JsonValue::Parse(response.ToJson()));
  EXPECT_EQ(doc.Find("schema")->AsString(), "erq.response.v1");
  EXPECT_EQ(doc.Find("status")->Find("code")->AsString(), "NotFound");
  EXPECT_EQ(doc.Find("outcome"), nullptr);
  EXPECT_EQ(doc.Find("rows"), nullptr);
}

TEST(QueryResponseTest, ToTextMatchesLegacyOutcomeToString) {
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), CheckEverything());
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome outcome,
      manager.Execute(QueryRequest::Sql("select * from A where a < 15")));
  // QueryOutcome::ToString() delegates to the shared renderer; both paths
  // must agree byte for byte (full verbosity, unlimited rows).
  QueryRequest full;
  full.row_limit = 0;
  full.explain = ExplainVerbosity::kFull;
  EXPECT_EQ(outcome.ToString(),
            QueryResponse::FromOutcome(outcome, full).ToText());
  EXPECT_NE(outcome.ToString().find("executed: 5 rows"), std::string::npos);
}

TEST(QueryResponseTest, TextRendersRows) {
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats(), CheckEverything());
  QueryRequest request = QueryRequest::Sql("select a from A where a < 12");
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome, manager.Execute(request));
  const std::string text =
      QueryResponse::FromOutcome(outcome, request).ToText();
  EXPECT_NE(text.find("executed: 2 rows"), std::string::npos);
  EXPECT_NE(text.find("\na\n10\n11"), std::string::npos) << text;
  EXPECT_NE(text.find("timings:"), std::string::npos);
}

}  // namespace
}  // namespace erq
