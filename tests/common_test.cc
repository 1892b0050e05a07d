#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/string_util.h"
#include "gtest/gtest.h"

namespace erq {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("table t");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "table t");
  EXPECT_EQ(s.ToString(), "NotFound: table t");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::BindError("x").code(), StatusCode::kBindError);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

StatusOr<int> Quarter(int x) {
  ERQ_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(StatusOrTest, ValueAndError) {
  StatusOr<int> ok = Half(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  StatusOr<int> err = Half(3);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_TRUE(Quarter(8).ok());
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("AbC_9"), "abc_9");
  EXPECT_EQ(ToUpper("aBc"), "ABC");
}

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  std::vector<std::string> parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, StripAndPrefix) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_TRUE(StartsWith("lineitem.partkey", "lineitem."));
  EXPECT_FALSE(StartsWith("a", "ab"));
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("OrderDate", "orderdate"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
}

TEST(StringUtilTest, ParseDecimalAcceptsDigitsUpToMax) {
  EXPECT_EQ(ParseDecimal("0", 10).value(), 0u);
  EXPECT_EQ(ParseDecimal("0042", 100).value(), 42u);
  EXPECT_EQ(ParseDecimal("65535", 65535).value(), 65535u);
  EXPECT_EQ(ParseDecimal("18446744073709551615", UINT64_MAX).value(),
            UINT64_MAX);
}

TEST(StringUtilTest, ParseDecimalRejectsJunkAndOverflow) {
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1.5"}) {
    StatusOr<uint64_t> v = ParseDecimal(bad, UINT64_MAX);
    ASSERT_FALSE(v.ok()) << "'" << bad << "'";
    EXPECT_EQ(v.status().code(), StatusCode::kParseError) << bad;
  }
  EXPECT_FALSE(ParseDecimal("70000", 65535).ok());
  EXPECT_FALSE(ParseDecimal("7", 5).ok());  // one digit above a small max
  EXPECT_FALSE(ParseDecimal("18446744073709551616", UINT64_MAX).ok());
  EXPECT_FALSE(ParseDecimal("99999999999999999999999", UINT64_MAX).ok());
}

TEST(HashTest, Mix64SpreadsBits) {
  EXPECT_NE(Mix64(1), Mix64(2));
  EXPECT_NE(Mix64(0), 0u);
}

TEST(HashTest, HashCombineOrderSensitive) {
  size_t ab = 0, ba = 0;
  HashCombine(&ab, 1);
  HashCombine(&ab, 2);
  HashCombine(&ba, 2);
  HashCombine(&ba, 1);
  EXPECT_NE(ab, ba);
}

}  // namespace
}  // namespace erq
