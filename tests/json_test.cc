// Unit tests for the shared JSON helpers (src/common/json.h): the quote /
// number renderers every wire surface uses, and the request-body parser —
// including round-trips against MetricsRegistry::ToJson, which must stay
// parseable by our own reader.

#include "common/json.h"

#include <string>

#include "common/metrics.h"
#include "gtest/gtest.h"

namespace erq {
namespace {

TEST(JsonQuoteTest, EscapesSpecials) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonQuote("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
  EXPECT_EQ(JsonQuote(std::string("a\x01") + "b"), "\"a\\u0001b\"");
}

TEST(JsonNumberTest, IntegersRenderWithoutFraction) {
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(42.0), "42");
  EXPECT_EQ(JsonNumber(-7.0), "-7");
}

TEST(JsonNumberTest, NonFiniteBecomesNull) {
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonParseTest, Scalars) {
  auto v = JsonValue::Parse("null");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());

  v = JsonValue::Parse("true");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_bool());
  EXPECT_TRUE(v->AsBool());

  v = JsonValue::Parse("  -12.5e2 ");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_number());
  EXPECT_DOUBLE_EQ(v->AsDouble(), -1250.0);

  v = JsonValue::Parse("\"hi\\n\\u0041\"");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_string());
  EXPECT_EQ(v->AsString(), "hi\nA");
}

TEST(JsonParseTest, NestedDocument) {
  auto v = JsonValue::Parse(
      R"({"sql":"select 1","batch":["a","b"],"row_limit":10,)"
      R"("nested":{"x":[1,2,{"y":false}]}})");
  ASSERT_TRUE(v.ok()) << v.status();
  ASSERT_TRUE(v->is_object());
  ASSERT_NE(v->Find("sql"), nullptr);
  EXPECT_EQ(v->Find("sql")->AsString(), "select 1");
  ASSERT_NE(v->Find("batch"), nullptr);
  ASSERT_EQ(v->Find("batch")->Items().size(), 2u);
  EXPECT_EQ(v->Find("batch")->Items()[1].AsString(), "b");
  EXPECT_EQ(v->Find("row_limit")->AsInt64(), 10);
  const JsonValue* nested = v->Find("nested");
  ASSERT_NE(nested, nullptr);
  ASSERT_NE(nested->Find("x"), nullptr);
  EXPECT_FALSE(nested->Find("x")->Items()[2].Find("y")->AsBool());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",           "{",       "[1,",      "{\"a\":}",     "{\"a\" 1}",
      "\"open",     "nul",     "01x",      "[1] trailing", "{\"a\":1,}",
      "\"\\q\"",    "\"\\u12\"",
  };
  for (const char* doc : bad) {
    EXPECT_FALSE(JsonValue::Parse(doc).ok()) << doc;
  }
}

TEST(JsonParseTest, RejectsNonFiniteNumbers) {
  // strtod maps these to +/-inf; JSON has no non-finite numbers.
  for (const char* doc : {"1e999", "-1e999", "[1e400]", "{\"n\":1E999}"}) {
    EXPECT_FALSE(JsonValue::Parse(doc).ok()) << doc;
  }
  auto tiny = JsonValue::Parse("1e-999");  // underflow stays finite
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny->AsDouble(), 0.0);
  auto big = JsonValue::Parse("1e300");
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->AsDouble(), 1e300);
}

TEST(JsonParseTest, RejectsPathologicalNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonParseTest, DumpRoundTrips) {
  const std::string doc =
      R"({"a":[1,2.5,"x"],"b":{"c":null,"d":true},"e":"q\"uote"})";
  auto v = JsonValue::Parse(doc);
  ASSERT_TRUE(v.ok());
  auto again = JsonValue::Parse(v->Dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(v->Dump(), again->Dump());
}

TEST(JsonParseTest, ReadsMetricsRegistryDocument) {
  MetricsRegistry registry;
  registry.GetCounter("erq.test.count")->Increment(3);
  registry.GetHistogram("erq.test.latency")->Observe(0.001);
  auto doc = JsonValue::Parse(registry.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->Find("schema")->AsString(), "erq.metrics.v1");
  EXPECT_EQ(doc->Find("counters")->Find("erq.test.count")->AsInt64(), 3);
  EXPECT_EQ(
      doc->Find("histograms")->Find("erq.test.latency")->Find("count")
          ->AsInt64(),
      1);
}

}  // namespace
}  // namespace erq
