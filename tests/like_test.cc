// LIKE predicates: the matcher itself, parsing, execution, and the
// sargable shapes (wildcard-free => point, pure prefix "abc%" => string
// interval) that let LIKE conditions participate in empty-result coverage.

#include "core/manager.h"
#include "expr/dnf.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace erq {
namespace {

using erq::testing::FixtureDb;

struct LikeCase {
  const char* text;
  const char* pattern;
  bool expected;
};

class LikeMatcherTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeMatcherTest, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(LikeMatches(c.text, c.pattern), c.expected)
      << "'" << c.text << "' LIKE '" << c.pattern << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LikeMatcherTest,
    ::testing::Values(
        LikeCase{"hello", "hello", true}, LikeCase{"hello", "hell", false},
        LikeCase{"hello", "h%", true}, LikeCase{"hello", "%o", true},
        LikeCase{"hello", "%ell%", true}, LikeCase{"hello", "h_llo", true},
        LikeCase{"hello", "h__lp", false}, LikeCase{"hello", "_____", true},
        LikeCase{"hello", "______", false}, LikeCase{"", "%", true},
        LikeCase{"", "", true}, LikeCase{"", "_", false},
        LikeCase{"abc", "%%", true}, LikeCase{"abc", "a%c", true},
        LikeCase{"abc", "a%b", false}, LikeCase{"aXbXc", "a%b%c", true},
        LikeCase{"banana", "%ana", true}, LikeCase{"banana", "%anana%", true},
        LikeCase{"Customer#42", "Customer#%", true},
        LikeCase{"customer", "Customer%", false}  // case-sensitive
        ));

TEST(LikeParseTest, ParsedAndRendered) {
  auto e = Parser::ParseExpression("name like 'Cust%'");
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ((*e)->kind(), Expr::Kind::kLike);
  EXPECT_FALSE((*e)->negated());
  auto n = Parser::ParseExpression("name not like 'Cust%'");
  ASSERT_TRUE(n.ok());
  EXPECT_TRUE((*n)->negated());
  EXPECT_NE((*n)->ToString().find("NOT LIKE"), std::string::npos);
  EXPECT_FALSE(Parser::ParseExpression("name like 42").ok());
}

TEST(LikeExecTest, FiltersRows) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult r,
                           db.Run("select * from C where g like 'o%'"));
  ASSERT_EQ(r.rows.size(), 1u);  // "one"
  EXPECT_EQ(r.rows[0][1].AsString(), "one");
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult tw,
                           db.Run("select * from C where g like 't_o'"));
  ASSERT_EQ(tw.rows.size(), 1u);  // "two"
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult not_like,
      db.Run("select * from C where g not like '%o%'"));
  EXPECT_EQ(not_like.rows.size(), 0u);  // zero/one/two all contain 'o'
}

TEST(LikePrimitiveTest, WildcardFreeBecomesPoint) {
  using namespace erq::eb;  // NOLINT
  auto term = PrimitiveTerm::FromExpr(
      Expr::MakeLike(Col("c", "g"), Str("one"), false));
  ASSERT_TRUE(term.ok());
  EXPECT_EQ(term->kind(), PrimitiveTerm::Kind::kInterval);
  EXPECT_TRUE(term->interval().ContainsPoint(Value::String("one")));
  EXPECT_FALSE(term->interval().ContainsPoint(Value::String("one!")));
}

TEST(LikePrimitiveTest, PrefixBecomesInterval) {
  using namespace erq::eb;  // NOLINT
  auto term = PrimitiveTerm::FromExpr(
      Expr::MakeLike(Col("c", "g"), Str("abc%"), false));
  ASSERT_TRUE(term.ok());
  ASSERT_EQ(term->kind(), PrimitiveTerm::Kind::kInterval);
  EXPECT_TRUE(term->interval().ContainsPoint(Value::String("abc")));
  EXPECT_TRUE(term->interval().ContainsPoint(Value::String("abczzz")));
  EXPECT_FALSE(term->interval().ContainsPoint(Value::String("abd")));
  EXPECT_FALSE(term->interval().ContainsPoint(Value::String("abb")));
}

TEST(LikePrimitiveTest, ComplexShapesStayOpaque) {
  using namespace erq::eb;  // NOLINT
  for (const char* pattern : {"%abc", "a_c", "a%c", "%"}) {
    auto term = PrimitiveTerm::FromExpr(
        Expr::MakeLike(Col("c", "g"), Str(pattern), false));
    ASSERT_TRUE(term.ok()) << pattern;
    EXPECT_EQ(term->kind(), PrimitiveTerm::Kind::kOpaque) << pattern;
  }
  // Negated LIKE is opaque even with a prefix pattern.
  auto negated = PrimitiveTerm::FromExpr(
      Expr::MakeLike(Col("c", "g"), Str("abc%"), true));
  ASSERT_TRUE(negated.ok());
  EXPECT_EQ(negated->kind(), PrimitiveTerm::Kind::kOpaque);
}

TEST(LikePrimitiveTest, PrefixIntervalContainment) {
  using namespace erq::eb;  // NOLINT
  auto broad = PrimitiveTerm::FromExpr(
      Expr::MakeLike(Col("c", "g"), Str("ab%"), false));
  auto narrow = PrimitiveTerm::FromExpr(
      Expr::MakeLike(Col("c", "g"), Str("abc%"), false));
  ASSERT_TRUE(broad.ok() && narrow.ok());
  EXPECT_TRUE(broad->Covers(*narrow))
      << "'ab%' subsumes 'abc%' via interval containment";
  EXPECT_FALSE(narrow->Covers(*broad));
}

TEST(LikeDetectTest, PrefixLikeKnowledgeGeneralizes) {
  FixtureDb db;
  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&db.catalog(), &db.stats(), config);
  // No C.g starts with 'q'.
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome first,
                           manager.Query("select * from C where g like 'q%'"));
  EXPECT_TRUE(first.executed);
  EXPECT_TRUE(first.result_empty);
  EXPECT_GT(first.aqps_recorded, 0u);
  // A narrower prefix is covered without execution.
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome second, manager.Query("select * from C where g like 'qu%'"));
  EXPECT_TRUE(second.detected_empty);
  // So is an equality inside the prefix range.
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome third, manager.Query("select * from C where g = 'quark'"));
  EXPECT_TRUE(third.detected_empty);
  // A different prefix is not.
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome fourth, manager.Query("select * from C where g like 'z%'"));
  EXPECT_TRUE(fourth.executed);
}

TEST(LikeDetectTest, OpaqueLikeStillExactMatches) {
  FixtureDb db;
  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&db.catalog(), &db.stats(), config);
  std::string sql = "select * from C where g like '%xyz%'";
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome first, manager.Query(sql));
  EXPECT_TRUE(first.executed);
  EXPECT_TRUE(first.result_empty);
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome second, manager.Query(sql));
  EXPECT_TRUE(second.detected_empty)
      << "opaque terms still match via exact structural equality";
}

TEST(LikeOptimizerTest, PrefixPatternUsesIndex) {
  FixtureDb db;
  db.AddFillerRows();
  ASSERT_TRUE(db.catalog().CreateIndex("C", "g").ok());
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan,
                           db.Prepare("select * from C where g like 'on%'"));
  std::function<const PhysicalOperator*(const PhysOpPtr&)> find_index =
      [&](const PhysOpPtr& op) -> const PhysicalOperator* {
    if (op->kind == PhysOpKind::kIndexScan) return op.get();
    for (const PhysOpPtr& c : op->children) {
      const PhysicalOperator* f = find_index(c);
      if (f != nullptr) return f;
    }
    return nullptr;
  };
  const PhysicalOperator* scan = find_index(plan);
  ASSERT_NE(scan, nullptr) << plan->ToString();
  EXPECT_EQ(scan->index_column, "g");
  // Results must match the unindexed run.
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult r, Executor::Run(plan));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].AsString(), "one");
}

TEST(LikeOptimizerTest, InnerWildcardDoesNotUseIndex) {
  FixtureDb db;
  ASSERT_TRUE(db.catalog().CreateIndex("C", "g").ok());
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan,
                           db.Prepare("select * from C where g like '%ne'"));
  std::function<bool(const PhysOpPtr&)> has_index = [&](const PhysOpPtr& op) {
    if (op->kind == PhysOpKind::kIndexScan) return true;
    for (const PhysOpPtr& c : op->children) {
      if (has_index(c)) return true;
    }
    return false;
  };
  EXPECT_FALSE(has_index(plan));
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult r, Executor::Run(plan));
  EXPECT_EQ(r.rows.size(), 1u);
}

}  // namespace
}  // namespace erq
