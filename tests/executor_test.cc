#include "exec/executor.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace erq {
namespace {

using erq::testing::FixtureDb;
using erq::testing::Sorted;

TEST(ExecutorTest, TableScanAllRows) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult r, db.Run("select * from A"));
  EXPECT_EQ(r.rows.size(), 10u);
  EXPECT_EQ(r.layout.size(), 3u);
}

TEST(ExecutorTest, FilterComparisons) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult r,
                           db.Run("select a from A where a >= 15 and a < 18"));
  ASSERT_EQ(r.rows.size(), 3u);
}

TEST(ExecutorTest, ProjectionAndExpressions) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult r,
                           db.Run("select a + 1, b from A where a = 10"));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 11);
  EXPECT_EQ(r.rows[0][1].AsInt(), 100);
}

TEST(ExecutorTest, HashJoinMatchesNestedLoops) {
  FixtureDb db;
  OptimizerOptions nl;
  nl.enable_hash_join = false;
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult hash,
      db.Run("select * from A, B where A.c = B.d"));
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult nested,
      db.Run("select * from A, B where A.c = B.d", nl));
  EXPECT_EQ(hash.rows.size(), 10u);  // every A.c in 0..4 matches one B.d
  EXPECT_EQ(Sorted(hash.rows), Sorted(nested.rows));
}

TEST(ExecutorTest, ThreeWayJoin) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult r,
      db.Run("select * from A, B, C where A.c = B.d and B.d = C.f"));
  // A.c in {0..4}; C.f in {0,1,2} => rows where A.c in {0,1,2}: a%5<3
  // a=10,11,12,15,16,17 -> 6 rows.
  EXPECT_EQ(r.rows.size(), 6u);
}

TEST(ExecutorTest, NonEquiJoin) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult r,
      db.Run("select * from B x, B y where x.d < y.d"));
  EXPECT_EQ(r.rows.size(), 10u);  // C(5,2) pairs
}

TEST(ExecutorTest, IndexScanEquivalentToTableScan) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult no_index,
                           db.Run("select * from A where a between 12 and 16"));
  ASSERT_TRUE(db.catalog().CreateIndex("A", "a").ok());
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult with_index,
                           db.Run("select * from A where a between 12 and 16"));
  EXPECT_EQ(Sorted(no_index.rows), Sorted(with_index.rows));
  EXPECT_EQ(with_index.rows.size(), 5u);
}

TEST(ExecutorTest, SortAscDesc) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult r,
                           db.Run("select a from A order by a desc"));
  ASSERT_EQ(r.rows.size(), 10u);
  EXPECT_EQ(r.rows.front()[0].AsInt(), 19);
  EXPECT_EQ(r.rows.back()[0].AsInt(), 10);
}

TEST(ExecutorTest, Distinct) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult r,
                           db.Run("select distinct c from A"));
  EXPECT_EQ(r.rows.size(), 5u);
}

TEST(ExecutorTest, GroupedAggregate) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult r,
      db.Run("select c, count(*), sum(a), min(a), max(a), avg(a) "
             "from A group by c order by c"));
  ASSERT_EQ(r.rows.size(), 5u);
  // Group c=0: a in {10, 15}.
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
  EXPECT_EQ(r.rows[0][2].AsInt(), 25);
  EXPECT_EQ(r.rows[0][3].AsInt(), 10);
  EXPECT_EQ(r.rows[0][4].AsInt(), 15);
  EXPECT_DOUBLE_EQ(r.rows[0][5].AsDouble(), 12.5);
}

TEST(ExecutorTest, ScalarAggregateOnEmptyInput) {
  FixtureDb db;
  // count(∅) = 0 and one output row — the §2.5 special case.
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult r, db.Run("select count(*), sum(a) from A where a > 99"));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST(ExecutorTest, GroupedAggregateOnEmptyInputIsEmpty) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult r,
      db.Run("select c, count(*) from A where a > 99 group by c"));
  EXPECT_TRUE(r.rows.empty());
}

TEST(ExecutorTest, UnionDistinctAndAll) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult d,
                           db.Run("select c from A union select d from B"));
  EXPECT_EQ(d.rows.size(), 5u);  // c and d are both {0..4}
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult a, db.Run("select c from A union all select d from B"));
  EXPECT_EQ(a.rows.size(), 15u);
}

TEST(ExecutorTest, ExceptDistinctAndAll) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult d,
                           db.Run("select d from B except select f from C"));
  EXPECT_EQ(d.rows.size(), 2u);  // {0..4} minus {0,1,2}
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult a,
      db.Run("select c from A except all select d from B"));
  // A.c has each of 0..4 twice; B.d once each -> one copy each remains.
  EXPECT_EQ(a.rows.size(), 5u);
}

TEST(ExecutorTest, LeftOuterJoinPadsNulls) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult r,
      db.Run("select * from B left outer join C on B.d = C.f"));
  ASSERT_EQ(r.rows.size(), 5u);
  size_t padded = 0;
  for (const Row& row : r.rows) {
    if (row[2].is_null()) ++padded;
  }
  EXPECT_EQ(padded, 2u);  // d=3, d=4 unmatched
}

TEST(ExecutorTest, NullsNeverJoin) {
  Catalog catalog;
  auto l = catalog.CreateTable("L", Schema({{"k", DataType::kInt64}}));
  auto r = catalog.CreateTable("R", Schema({{"k", DataType::kInt64}}));
  ASSERT_TRUE(l.ok() && r.ok());
  l.value()->AppendUnchecked({Value::Null()});
  l.value()->AppendUnchecked({Value::Int(1)});
  r.value()->AppendUnchecked({Value::Null()});
  r.value()->AppendUnchecked({Value::Int(1)});
  StatsCatalog stats;
  ASSERT_TRUE(stats.AnalyzeAll(catalog).ok());
  auto stmt = Parser::Parse("select * from L, R where L.k = R.k");
  ASSERT_TRUE(stmt.ok());
  Planner planner(&catalog);
  auto planned = planner.PlanStatement(**stmt);
  ASSERT_TRUE(planned.ok());
  Optimizer optimizer(&catalog, &stats);
  auto plan = optimizer.Optimize(planned->root);
  ASSERT_TRUE(plan.ok());
  auto result = Executor::Run(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u) << "NULL = NULL must not match";
}

TEST(ExecutorTest, ActualCardinalitiesRecorded) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan,
                           db.Prepare("select a from A where a < 13"));
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult r, Executor::Run(plan));
  EXPECT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(plan->actual_rows, 3);
  // The scan below saw all 10 rows.
  PhysOpPtr node = plan;
  while (!node->children.empty()) node = node->children[0];
  EXPECT_EQ(node->actual_rows, 10);
  // Plan text includes actuals (Operation O1 display).
  EXPECT_NE(plan->ToString().find("actual="), std::string::npos);
}

TEST(ExecutorTest, EmptyResultObservable) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult r,
                           db.Run("select * from A where a > 1000"));
  EXPECT_TRUE(r.empty());
}

TEST(ExecutorTest, WhereWithOrAndNot) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult r,
      db.Run("select a from A where not (a < 18) or a in (10, 11)"));
  EXPECT_EQ(r.rows.size(), 4u);  // 18, 19, 10, 11
}

TEST(ExecutorTest, StringPredicates) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult r,
                           db.Run("select * from C where g = 'one'"));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
}

}  // namespace
}  // namespace erq
