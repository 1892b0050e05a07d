#include "expr/primitive.h"

#include <algorithm>
#include <random>
#include <vector>

#include "expr/expr_builder.h"
#include "gtest/gtest.h"

namespace erq {
namespace {

using namespace erq::eb;  // NOLINT

ColumnId Aa() { return ColumnId::Make("A", "a"); }
ColumnId Ab() { return ColumnId::Make("A", "b"); }
ColumnId Bd() { return ColumnId::Make("B", "d"); }

TEST(ValueIntervalTest, PointAndRanges) {
  ValueInterval p = ValueInterval::Point(Value::Int(5));
  EXPECT_TRUE(p.ContainsPoint(Value::Int(5)));
  EXPECT_FALSE(p.ContainsPoint(Value::Int(6)));
  EXPECT_FALSE(p.IsEmpty());

  ValueInterval lt = ValueInterval::LessThan(Value::Int(10), false);
  EXPECT_TRUE(lt.ContainsPoint(Value::Int(9)));
  EXPECT_FALSE(lt.ContainsPoint(Value::Int(10)));

  ValueInterval ge = ValueInterval::GreaterThan(Value::Int(10), true);
  EXPECT_TRUE(ge.ContainsPoint(Value::Int(10)));
  EXPECT_FALSE(ge.ContainsPoint(Value::Int(9)));
}

TEST(ValueIntervalTest, ContainmentWithInclusivity) {
  ValueInterval wide = ValueInterval::Range(Value::Int(0), true,
                                            Value::Int(10), true);
  ValueInterval narrow = ValueInterval::Range(Value::Int(2), true,
                                              Value::Int(8), true);
  EXPECT_TRUE(wide.Contains(narrow));
  EXPECT_FALSE(narrow.Contains(wide));
  EXPECT_TRUE(wide.Contains(wide));

  // Open endpoint does not contain closed endpoint at the same value.
  ValueInterval open = ValueInterval::Range(Value::Int(0), false,
                                            Value::Int(10), false);
  ValueInterval closed = ValueInterval::Range(Value::Int(0), true,
                                              Value::Int(10), true);
  EXPECT_FALSE(open.Contains(closed));
  EXPECT_TRUE(closed.Contains(open));

  // Unbounded contains bounded.
  EXPECT_TRUE(ValueInterval::All().Contains(closed));
  EXPECT_FALSE(closed.Contains(ValueInterval::All()));
}

TEST(ValueIntervalTest, IntersectionAndEmptiness) {
  ValueInterval a = ValueInterval::GreaterThan(Value::Int(5), false);
  ASSERT_TRUE(a.IntersectWith(ValueInterval::LessThan(Value::Int(10), false)));
  EXPECT_TRUE(a.ContainsPoint(Value::Int(7)));
  EXPECT_FALSE(a.ContainsPoint(Value::Int(5)));
  EXPECT_FALSE(a.IsEmpty());

  // a = 5 AND a = 6 -> empty.
  ValueInterval p5 = ValueInterval::Point(Value::Int(5));
  ASSERT_TRUE(p5.IntersectWith(ValueInterval::Point(Value::Int(6))));
  EXPECT_TRUE(p5.IsEmpty());

  // a > 5 AND a < 5 -> empty; a >= 5 AND a <= 5 -> point.
  ValueInterval gt5 = ValueInterval::GreaterThan(Value::Int(5), false);
  ASSERT_TRUE(gt5.IntersectWith(ValueInterval::LessThan(Value::Int(5), false)));
  EXPECT_TRUE(gt5.IsEmpty());
  ValueInterval ge5 = ValueInterval::GreaterThan(Value::Int(5), true);
  ASSERT_TRUE(ge5.IntersectWith(ValueInterval::LessThan(Value::Int(5), true)));
  EXPECT_FALSE(ge5.IsEmpty());
}

TEST(ValueIntervalTest, PointValueNeedsBoundsComparingEqual) {
  const ValueInterval five = ValueInterval::Point(Value::Int(5));
  const Value* v = five.PointValue();
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->Compare(Value::Int(5)), 0);
  // INT and DOUBLE bounds that compare equal pin the value too, and an
  // open end makes an empty point, still pinned.
  EXPECT_NE(ValueInterval::Range(Value::Int(5), true, Value::Double(5.0), true)
                .PointValue(),
            nullptr);
  EXPECT_NE(ValueInterval::Range(Value::Int(5), false, Value::Int(5), true)
                .PointValue(),
            nullptr);
  EXPECT_EQ(ValueInterval::Range(Value::Int(5), true, Value::Int(6), true)
                .PointValue(),
            nullptr);
  EXPECT_EQ(ValueInterval::Range(Value::Int(7), true, Value::Int(3), true)
                .PointValue(),
            nullptr);
  EXPECT_EQ(ValueInterval::LessThan(Value::Int(5), true).PointValue(),
            nullptr);
  EXPECT_EQ(ValueInterval::Range(Value::Int(5), true, Value::String("5"), true)
                .PointValue(),
            nullptr);
}

TEST(ValueIntervalTest, IncomparableTypesRefuseToIntersect) {
  ValueInterval ints = ValueInterval::Point(Value::Int(5));
  ValueInterval original = ints;
  EXPECT_FALSE(ints.IntersectWith(ValueInterval::Point(Value::String("x"))));
  EXPECT_TRUE(ints == original);
}

TEST(PrimitiveTermTest, FromExprClassification) {
  // col < 40 -> interval.
  auto t1 = PrimitiveTerm::FromExpr(Lt(Col("A", "a"), Int(40)));
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1->kind(), PrimitiveTerm::Kind::kInterval);
  // 40 > col normalizes to col < 40.
  auto t2 = PrimitiveTerm::FromExpr(Gt(Int(40), Col("A", "a")));
  ASSERT_TRUE(t2.ok());
  EXPECT_TRUE(t1->Equals(*t2));
  // col <> 7 -> not-equal.
  auto t3 = PrimitiveTerm::FromExpr(Ne(Col("A", "a"), Int(7)));
  ASSERT_TRUE(t3.ok());
  EXPECT_EQ(t3->kind(), PrimitiveTerm::Kind::kNotEqual);
  // col = col -> col-col canonicalized.
  auto t4 = PrimitiveTerm::FromExpr(Eq(Col("B", "d"), Col("A", "c")));
  ASSERT_TRUE(t4.ok());
  EXPECT_EQ(t4->kind(), PrimitiveTerm::Kind::kColCol);
  auto t5 = PrimitiveTerm::FromExpr(Eq(Col("A", "c"), Col("B", "d")));
  ASSERT_TRUE(t5.ok());
  EXPECT_TRUE(t4->Equals(*t5)) << "operand order must canonicalize";
  // BETWEEN -> closed interval.
  auto t6 = PrimitiveTerm::FromExpr(Between(Col("A", "a"), Int(50), Int(100)));
  ASSERT_TRUE(t6.ok());
  EXPECT_EQ(t6->kind(), PrimitiveTerm::Kind::kInterval);
  EXPECT_TRUE(t6->interval().ContainsPoint(Value::Int(50)));
  // col + 1 < col2 -> opaque.
  auto t7 = PrimitiveTerm::FromExpr(
      Lt(Add(Col("A", "a"), Int(1)), Col("B", "d")));
  ASSERT_TRUE(t7.ok());
  EXPECT_EQ(t7->kind(), PrimitiveTerm::Kind::kOpaque);
}

TEST(PrimitiveTermTest, PaperRule2IntervalContainment) {
  // p: A.a < 50 covers q: A.a < 40 (paper's example).
  PrimitiveTerm p = PrimitiveTerm::MakeInterval(
      Aa(), ValueInterval::LessThan(Value::Int(50), false));
  PrimitiveTerm q = PrimitiveTerm::MakeInterval(
      Aa(), ValueInterval::LessThan(Value::Int(40), false));
  EXPECT_TRUE(p.Covers(q));
  EXPECT_FALSE(q.Covers(p));
  // p: 20 < A.a < 40 covers q: A.a = 30 (paper's second example).
  PrimitiveTerm r = PrimitiveTerm::MakeInterval(
      Aa(), ValueInterval::Range(Value::Int(20), false, Value::Int(40), false));
  PrimitiveTerm point = PrimitiveTerm::MakeInterval(
      Aa(), ValueInterval::Point(Value::Int(30)));
  EXPECT_TRUE(r.Covers(point));
  // Different column: no coverage.
  PrimitiveTerm other_col = PrimitiveTerm::MakeInterval(
      Ab(), ValueInterval::LessThan(Value::Int(40), false));
  EXPECT_FALSE(p.Covers(other_col));
}

TEST(PrimitiveTermTest, PaperRule3NotEqual) {
  // p: A.a != c1 covers q: A.a = c2 when c1 != c2.
  PrimitiveTerm p = PrimitiveTerm::MakeNotEqual(Aa(), Value::Int(5));
  PrimitiveTerm q_ok = PrimitiveTerm::MakeInterval(
      Aa(), ValueInterval::Point(Value::Int(6)));
  PrimitiveTerm q_bad = PrimitiveTerm::MakeInterval(
      Aa(), ValueInterval::Point(Value::Int(5)));
  EXPECT_TRUE(p.Covers(q_ok));
  EXPECT_FALSE(p.Covers(q_bad));
  // Sound generalization: covers any interval excluding the constant.
  PrimitiveTerm range = PrimitiveTerm::MakeInterval(
      Aa(), ValueInterval::Range(Value::Int(6), true, Value::Int(9), true));
  EXPECT_TRUE(p.Covers(range));
  PrimitiveTerm containing = PrimitiveTerm::MakeInterval(
      Aa(), ValueInterval::Range(Value::Int(0), true, Value::Int(9), true));
  EXPECT_FALSE(p.Covers(containing));
}

TEST(PrimitiveTermTest, ColColCoverage) {
  PrimitiveTerm le = PrimitiveTerm::MakeColCol(Aa(), CompareOp::kLe, Bd());
  PrimitiveTerm lt = PrimitiveTerm::MakeColCol(Aa(), CompareOp::kLt, Bd());
  PrimitiveTerm eq = PrimitiveTerm::MakeColCol(Aa(), CompareOp::kEq, Bd());
  PrimitiveTerm ne = PrimitiveTerm::MakeColCol(Aa(), CompareOp::kNe, Bd());
  EXPECT_TRUE(le.Covers(lt));
  EXPECT_TRUE(le.Covers(eq));
  EXPECT_FALSE(lt.Covers(le));
  EXPECT_FALSE(lt.Covers(eq));
  EXPECT_TRUE(ne.Covers(lt));
  EXPECT_FALSE(ne.Covers(eq));
  EXPECT_TRUE(eq.Covers(eq));
}

TEST(PrimitiveTermTest, OpaqueCoversOnlyExactEquality) {
  ExprPtr e1 = Lt(Col("A", "a"), Add(Col("B", "d"), Int(1)));
  ExprPtr e2 = Lt(Col("A", "a"), Add(Col("B", "d"), Int(2)));
  PrimitiveTerm p1 = PrimitiveTerm::MakeOpaque(e1);
  PrimitiveTerm p1b = PrimitiveTerm::MakeOpaque(e1);
  PrimitiveTerm p2 = PrimitiveTerm::MakeOpaque(e2);
  EXPECT_TRUE(p1.Covers(p1b));
  EXPECT_FALSE(p1.Covers(p2));
}

TEST(PrimitiveTermTest, CollectRelations) {
  PrimitiveTerm t = PrimitiveTerm::MakeColCol(Aa(), CompareOp::kEq, Bd());
  std::vector<std::string> rels;
  t.CollectRelations(&rels);
  ASSERT_EQ(rels.size(), 2u);
  EXPECT_EQ(rels[0], "a");
  EXPECT_EQ(rels[1], "b");
}

TEST(ConjunctionTest, MergesIntervalsOnSameColumn) {
  // a > 12 AND a < 15 becomes one interval.
  Conjunction c = Conjunction::Make(
      {PrimitiveTerm::MakeInterval(
           Aa(), ValueInterval::GreaterThan(Value::Int(12), false)),
       PrimitiveTerm::MakeInterval(
           Aa(), ValueInterval::LessThan(Value::Int(15), false))});
  ASSERT_EQ(c.size(), 1u);
  EXPECT_FALSE(c.unsatisfiable());
  // Stored 10 < a < 20 covers it.
  Conjunction stored = Conjunction::Make({PrimitiveTerm::MakeInterval(
      Aa(),
      ValueInterval::Range(Value::Int(10), false, Value::Int(20), false))});
  EXPECT_TRUE(stored.Covers(c));
}

TEST(ConjunctionTest, DetectsContradictions) {
  Conjunction c = Conjunction::Make(
      {PrimitiveTerm::MakeInterval(Aa(), ValueInterval::Point(Value::Int(5))),
       PrimitiveTerm::MakeInterval(Aa(), ValueInterval::Point(Value::Int(6)))});
  EXPECT_TRUE(c.unsatisfiable());

  Conjunction ne_contradiction = Conjunction::Make(
      {PrimitiveTerm::MakeNotEqual(Aa(), Value::Int(5)),
       PrimitiveTerm::MakeInterval(Aa(), ValueInterval::Point(Value::Int(5)))});
  EXPECT_TRUE(ne_contradiction.unsatisfiable());

  Conjunction fine = Conjunction::Make(
      {PrimitiveTerm::MakeNotEqual(Aa(), Value::Int(5)),
       PrimitiveTerm::MakeInterval(Aa(), ValueInterval::Point(Value::Int(6)))});
  EXPECT_FALSE(fine.unsatisfiable());
}

TEST(ConjunctionTest, PaperCoverExample) {
  // §2.1: P1 = sigma_{A.a<40}(A) covers
  //       P2 = sigma_{A.a=20 AND A.c=B.d}(A x B).
  Conjunction p1 = Conjunction::Make({PrimitiveTerm::MakeInterval(
      Aa(), ValueInterval::LessThan(Value::Int(40), false))});
  Conjunction p2 = Conjunction::Make(
      {PrimitiveTerm::MakeInterval(Aa(), ValueInterval::Point(Value::Int(20))),
       PrimitiveTerm::MakeColCol(ColumnId::Make("A", "c"), CompareOp::kEq,
                                 Bd())});
  EXPECT_TRUE(p1.Covers(p2));
  EXPECT_FALSE(p2.Covers(p1));  // n <= m fails (2 > 1)
}

TEST(ConjunctionTest, RequiresEveryTermCovered) {
  Conjunction p = Conjunction::Make(
      {PrimitiveTerm::MakeInterval(Aa(), ValueInterval::Point(Value::Int(1))),
       PrimitiveTerm::MakeInterval(Ab(), ValueInterval::Point(Value::Int(2)))});
  Conjunction q_match = Conjunction::Make(
      {PrimitiveTerm::MakeInterval(Aa(), ValueInterval::Point(Value::Int(1))),
       PrimitiveTerm::MakeInterval(Ab(), ValueInterval::Point(Value::Int(2)))});
  Conjunction q_partial = Conjunction::Make(
      {PrimitiveTerm::MakeInterval(Aa(), ValueInterval::Point(Value::Int(1))),
       PrimitiveTerm::MakeInterval(Ab(), ValueInterval::Point(Value::Int(3)))});
  EXPECT_TRUE(p.Covers(q_match));
  EXPECT_FALSE(p.Covers(q_partial));
}

TEST(ConjunctionTest, EqualsAndHashOrderInsensitive) {
  Conjunction c1 = Conjunction::Make(
      {PrimitiveTerm::MakeInterval(Aa(), ValueInterval::Point(Value::Int(1))),
       PrimitiveTerm::MakeInterval(Ab(), ValueInterval::Point(Value::Int(2)))});
  Conjunction c2 = Conjunction::Make(
      {PrimitiveTerm::MakeInterval(Ab(), ValueInterval::Point(Value::Int(2))),
       PrimitiveTerm::MakeInterval(Aa(), ValueInterval::Point(Value::Int(1)))});
  EXPECT_TRUE(c1.Equals(c2));
  EXPECT_EQ(c1.Hash(), c2.Hash());
}

// The canonical order is by each term's rendering, whatever order the
// terms arrive in, so Equals, Hash and ToString do not depend on it.
TEST(ConjunctionTest, ShuffledTermsGiveOneCanonicalForm) {
  std::vector<PrimitiveTerm> terms = {
      PrimitiveTerm::MakeInterval(Aa(), ValueInterval::Point(Value::Date(9000))),
      PrimitiveTerm::MakeInterval(
          Ab(), ValueInterval::Range(Value::String("a"), true,
                                     Value::String("m"), false)),
      PrimitiveTerm::MakeNotEqual(Bd(), Value::Double(2.5)),
      PrimitiveTerm::MakeColCol(Aa(), CompareOp::kLt, Bd()),
      PrimitiveTerm::MakeInterval(ColumnId::Make("B", "e"),
                                  ValueInterval::LessThan(Value::Int(7), true)),
      PrimitiveTerm::MakeOpaque(
          Expr::MakeIsNull(Expr::MakeColumnRef("b", "f"), false)),
  };
  const Conjunction reference = Conjunction::Make(terms);
  ASSERT_EQ(reference.size(), terms.size());
  for (size_t i = 1; i < reference.size(); ++i) {
    EXPECT_LE(reference.terms()[i - 1].ToString(),
              reference.terms()[i].ToString());
  }
  std::mt19937_64 rng(7);
  for (int round = 0; round < 50; ++round) {
    std::shuffle(terms.begin(), terms.end(), rng);
    Conjunction shuffled = Conjunction::Make(terms);
    EXPECT_TRUE(shuffled.Equals(reference));
    EXPECT_EQ(shuffled.Hash(), reference.Hash());
    EXPECT_EQ(shuffled.ToString(), reference.ToString());
  }
}

TEST(ConjunctionTest, EmptyConjunctionIsTrueAndCoversEverything) {
  Conjunction empty;
  Conjunction any = Conjunction::Make({PrimitiveTerm::MakeInterval(
      Aa(), ValueInterval::Point(Value::Int(1)))});
  EXPECT_TRUE(empty.Covers(any));
  EXPECT_FALSE(any.Covers(empty));
  EXPECT_EQ(empty.ToString(), "TRUE");
}

TEST(ConjunctionTest, ToExprRoundTripEvaluates) {
  Conjunction c = Conjunction::Make(
      {PrimitiveTerm::MakeInterval(
           ColumnId::Make("t", "x"),
           ValueInterval::Range(Value::Int(2), true, Value::Int(5), false)),
       PrimitiveTerm::MakeNotEqual(ColumnId::Make("t", "x"), Value::Int(3))});
  ExprPtr e = c.ToExpr();
  // Bind t.x to slot 0 by rebuilding via Equals-preserving WithSlot... use
  // a simple check: the string mentions both conditions.
  std::string s = e->ToString();
  EXPECT_NE(s.find(">= 2"), std::string::npos);
  EXPECT_NE(s.find("< 5"), std::string::npos);
  EXPECT_NE(s.find("<> 3"), std::string::npos);
}

}  // namespace
}  // namespace erq
