#include "core/detector.h"

#include "exec/executor.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace erq {
namespace {

using erq::testing::FixtureDb;

class DetectorTest : public ::testing::Test {
 protected:
  DetectorTest() : detector_(EmptyResultConfig{}) {}

  /// Executes the query and, if empty, harvests it.
  void ExecuteAndRecord(const std::string& sql) {
    auto plan = db_.Prepare(sql);
    ASSERT_TRUE(plan.ok()) << plan.status();
    auto result = Executor::Run(*plan);
    ASSERT_TRUE(result.ok()) << result.status();
    if (result->rows.empty()) {
      detector_.RecordEmpty(*plan);
    }
  }

  bool Check(const std::string& sql) {
    auto plan = db_.Plan(sql);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return detector_.CheckEmpty(*plan).provably_empty;
  }

  FixtureDb db_;
  EmptyResultDetector detector_;
};

TEST_F(DetectorTest, ExactRepeatDetected) {
  std::string sql = "select * from A where a = 999";
  EXPECT_FALSE(Check(sql));
  ExecuteAndRecord(sql);
  EXPECT_TRUE(Check(sql));
}

TEST_F(DetectorTest, NonEmptyQueryNeverRecorded) {
  ExecuteAndRecord("select * from A");
  EXPECT_EQ(detector_.cache().size(), 0u);
  EXPECT_FALSE(Check("select * from A"));
}

TEST_F(DetectorTest, CoverageAcrossDifferentQueries) {
  // Record: a > 100 empty. A narrower query a > 500 must be detected.
  ExecuteAndRecord("select * from A where a > 100");
  EXPECT_TRUE(Check("select * from A where a > 500"));
  EXPECT_TRUE(Check("select * from A where a = 200"));
  EXPECT_FALSE(Check("select * from A where a > 15"));
}

TEST_F(DetectorTest, ProjectionIgnoredPerT1) {
  // §2.6: emptiness information transcends projection differences.
  ExecuteAndRecord("select a from A where a > 100");
  EXPECT_TRUE(Check("select b, c from A where a > 100"));
  EXPECT_TRUE(Check("select distinct c from A where a > 100 order by c"));
}

TEST_F(DetectorTest, JoinQueryDetectedFromSelectionPart) {
  // The empty selection on A alone is recorded (lowest-level part) and
  // then covers any join on top (Theorem 1 / relation-subset rule).
  ExecuteAndRecord("select * from A where a > 100");
  EXPECT_TRUE(Check("select * from A, B where A.c = B.d and A.a > 100"));
}

TEST_F(DetectorTest, PaperSection22DisjunctionCombination) {
  // §2.2's example, transposed to the fixture: Q1 = sigma_{a=150 OR
  // b=135}(A) and Q2 = sigma_{a=160 OR b=145}(A) are both empty (A.b only
  // holds multiples of 10). Q = sigma_{a=150 OR a=160}(A) must be detected
  // from the combination of their atomic parts.
  ExecuteAndRecord("select * from A where a = 150 or b = 135");
  ExecuteAndRecord("select * from A where a = 160 or b = 145");
  EXPECT_EQ(detector_.cache().size(), 4u);
  EXPECT_TRUE(Check("select * from A where a = 150 or a = 160"));
  EXPECT_TRUE(Check("select * from A where b = 135 or b = 145"));
  EXPECT_FALSE(Check("select * from A where a = 150 or a = 170"));
}

TEST_F(DetectorTest, UnsatisfiableQueryDetectedWithoutHistory) {
  EXPECT_TRUE(Check("select * from A where a = 1 and a = 2"));
  EXPECT_TRUE(Check("select * from A where a > 5 and a < 5"));
}

TEST_F(DetectorTest, ScalarAggregateNeverEmpty) {
  ExecuteAndRecord("select * from A where a > 100");
  // count(∅) = 0: the aggregate query still returns one row.
  EXPECT_FALSE(Check("select count(*) from A where a > 100"));
}

TEST_F(DetectorTest, GroupedAggregateEmptyWithInput) {
  ExecuteAndRecord("select * from A where a > 100");
  EXPECT_TRUE(Check("select c, count(*) from A where a > 100 group by c"));
}

TEST_F(DetectorTest, UnionNeedsBothBranchesEmpty) {
  ExecuteAndRecord("select * from A where a > 100");
  EXPECT_FALSE(Check("select a from A where a > 100 "
                     "union select d from B where d = 3"));
  ExecuteAndRecord("select * from B where d = 999");
  EXPECT_TRUE(Check("select a from A where a > 100 "
                    "union select d from B where d = 999"));
}

TEST_F(DetectorTest, ExceptNeedsLeftBranchEmpty) {
  ExecuteAndRecord("select * from A where a > 100");
  EXPECT_TRUE(Check("select a from A where a > 100 "
                    "except select d from B"));
  EXPECT_FALSE(Check("select d from B "
                     "except select a from A where a > 100"));
}

TEST_F(DetectorTest, OuterJoinNeedsLeftInputEmpty) {
  ExecuteAndRecord("select * from A where a > 100");
  // Left side empty => outer join empty. Our planner applies outer joins
  // above the filtered left side.
  EXPECT_TRUE(Check(
      "select * from A left outer join B on A.c = B.d where A.a > 100"));
}

TEST_F(DetectorTest, LowestLevelPartIsStoredNotTheWholeQuery) {
  // The join query is empty because the selection on A is empty; only the
  // selection part should be harvested (redundant higher parts skipped).
  ExecuteAndRecord("select * from A, B where A.c = B.d and A.a > 100");
  std::vector<AtomicQueryPart> snapshot = detector_.cache().Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].relations().Key(), "a");
  // And it covers single-table queries, which whole-query storage could
  // not.
  EXPECT_TRUE(Check("select * from A where a > 100"));
}

TEST_F(DetectorTest, SelfJoinHandledWithRenaming) {
  ExecuteAndRecord("select * from A x, A y where x.c = y.c and x.a > 100");
  // The lowest empty part is the filtered scan of x -> stored as {a}.
  EXPECT_TRUE(Check("select * from A where a > 100"));
  EXPECT_TRUE(Check("select * from A x, A y where x.c = y.c and x.a > 100"));
}

TEST_F(DetectorTest, InvalidationModes) {
  ExecuteAndRecord("select * from A where a > 100");
  ExecuteAndRecord("select * from B where d = 999");
  ASSERT_EQ(detector_.cache().size(), 2u);
  detector_.OnRelationUpdated("A");  // default: drop touched
  EXPECT_EQ(detector_.cache().size(), 1u);
  EXPECT_FALSE(Check("select * from A where a > 100"));
  EXPECT_TRUE(Check("select * from B where d = 999"));

  EmptyResultConfig drop_all;
  drop_all.invalidation = InvalidationMode::kDropAll;
  EmptyResultDetector detector2(drop_all);
  auto plan = db_.Prepare("select * from B where d = 999");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(Executor::Run(*plan).ok());
  detector2.RecordEmpty(*plan);
  ASSERT_EQ(detector2.cache().size(), 1u);
  detector2.OnRelationUpdated("A");  // unrelated table, but drop-all mode
  EXPECT_EQ(detector2.cache().size(), 0u);
}

TEST_F(DetectorTest, PartsCheckedMatchesCombinationFactor) {
  auto plan = db_.Plan(
      "select * from A, B where A.c = B.d and (A.a = 1 or A.a = 2) "
      "and (B.e = 3 or B.e = 4)");
  ASSERT_TRUE(plan.ok());
  CheckResult r = detector_.CheckEmpty(*plan);
  EXPECT_EQ(r.parts_checked, 4u);  // F = 2 x 2
  EXPECT_FALSE(r.provably_empty);
}

TEST_F(DetectorTest, DnfBlowupFallsBackToNotEmpty) {
  EmptyResultConfig config;
  config.dnf.max_terms = 4;
  EmptyResultDetector limited(config);
  std::string where = "(A.a = 1 or A.b = 2) and (A.a = 3 or A.b = 4) "
                      "and (A.a = 5 or A.b = 6)";
  auto plan = db_.Plan("select * from A where " + where);
  ASSERT_TRUE(plan.ok());
  CheckResult r = limited.CheckEmpty(*plan);
  EXPECT_FALSE(r.provably_empty);
  EXPECT_EQ(r.parts_checked, 0u);
}

TEST_F(DetectorTest, VerdictsAcrossCoveredAndUncoveredShapes) {
  ExecuteAndRecord("select * from A where a > 100");
  ExecuteAndRecord("select * from B where e = 999");
  struct Case {
    std::string sql;
    bool empty;
  };
  const std::vector<Case> cases = {
      {"select * from A where a > 500", true},
      {"select * from A where a > 15", false},
      {"select * from B where e = 999", true},
      {"select * from A, B where A.c = B.d and A.a > 100", true},  // join
      {"select * from B", false},
      // §2.5 UNION: empty only when both branches are.
      {"select a from A where a > 500 union select a from A where a = 200",
       true},
      {"select a from A where a > 500 union select a from A", false},
  };
  for (const Case& c : cases) {
    auto plan = db_.Plan(c.sql);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(detector_.CheckEmpty(*plan).provably_empty, c.empty) << c.sql;
  }
}

TEST_F(DetectorTest, RecordEmptyReturnsInsertCount) {
  auto plan = db_.Prepare(
      "select * from A where (a = 150 or a = 160) and (b = 1 or b = 2)");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(Executor::Run(*plan).ok());
  size_t inserted = detector_.RecordEmpty(*plan);
  EXPECT_EQ(inserted, 4u);
}

}  // namespace
}  // namespace erq
