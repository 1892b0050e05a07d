#include "core/manager.h"

#include "core/query_api.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace erq {
namespace {

using erq::testing::FixtureDb;

class ManagerTest : public ::testing::Test {
 protected:
  EmptyResultConfig HighCostEverything() {
    EmptyResultConfig config;
    config.c_cost = 0.0;  // every query is "high cost"
    return config;
  }

  FixtureDb db_;
};

TEST_F(ManagerTest, DetectsRepeatedEmptyQueryWithoutExecution) {
  EmptyResultManager manager(&db_.catalog(), &db_.stats(),
                             HighCostEverything());
  std::string sql = "select * from A where a > 100";

  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome first, manager.Query(sql));
  EXPECT_TRUE(first.executed);
  EXPECT_TRUE(first.result_empty);
  EXPECT_FALSE(first.detected_empty);
  EXPECT_GT(first.aqps_recorded, 0u);

  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome second, manager.Query(sql));
  EXPECT_TRUE(second.detected_empty);
  EXPECT_FALSE(second.executed);
  EXPECT_TRUE(second.result_empty);
  EXPECT_EQ(second.result.rows.size(), 0u);

  EXPECT_EQ(manager.stats_snapshot().queries, 2u);
  EXPECT_EQ(manager.stats_snapshot().detected_empty, 1u);
  EXPECT_EQ(manager.stats_snapshot().executed, 1u);
}

TEST_F(ManagerTest, NonEmptyQueriesFlowThrough) {
  EmptyResultManager manager(&db_.catalog(), &db_.stats(),
                             HighCostEverything());
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                           manager.Query("select * from A where a < 15"));
  EXPECT_TRUE(outcome.executed);
  EXPECT_FALSE(outcome.result_empty);
  EXPECT_EQ(outcome.result_rows, 5u);
  ASSERT_NE(outcome.plan, nullptr);
  EXPECT_NE(outcome.plan->ToString().find("actual="), std::string::npos)
      << "Operation O1 requires per-operator cardinalities in the plan";
}

TEST_F(ManagerTest, LowCostQueriesSkipTheCheck) {
  EmptyResultConfig config;
  config.c_cost = 1e12;  // everything is low-cost
  EmptyResultManager manager(&db_.catalog(), &db_.stats(), config);
  std::string sql = "select * from A where a > 100";
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome first, manager.Query(sql));
  EXPECT_TRUE(first.executed);
  EXPECT_FALSE(first.high_cost);
  EXPECT_EQ(first.aqps_recorded, 0u) << "low-cost empties are not stored";
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome second, manager.Query(sql));
  EXPECT_TRUE(second.executed) << "no check for low-cost queries";
  EXPECT_EQ(manager.stats_snapshot().checks, 0u);
  EXPECT_EQ(manager.stats_snapshot().low_cost, 2u);
}

TEST_F(ManagerTest, DetectionDisabledBaseline) {
  EmptyResultConfig config;
  config.detection_enabled = false;
  EmptyResultManager manager(&db_.catalog(), &db_.stats(), config);
  std::string sql = "select * from A where a > 100";
  ERQ_ASSERT_OK(manager.Query(sql).status());
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome second, manager.Query(sql));
  EXPECT_TRUE(second.executed);
  EXPECT_EQ(manager.detector().cache().size(), 0u);
}

TEST_F(ManagerTest, UpdateInvalidatesAffectedParts) {
  EmptyResultManager manager(&db_.catalog(), &db_.stats(),
                             HighCostEverything());
  ERQ_ASSERT_OK(manager.Query("select * from A where a > 100").status());
  ERQ_ASSERT_OK(manager.Query("select * from B where d = 999").status());
  ASSERT_EQ(manager.detector().cache().size(), 2u);

  // Appending a row through the catalog must invalidate A's parts: the
  // new row could make a previously empty query non-empty.
  ERQ_ASSERT_OK(db_.catalog().AppendRows(
      "A", {{Value::Int(200), Value::Int(0), Value::Int(0)}}));
  EXPECT_EQ(manager.detector().cache().size(), 1u);

  // The previously-empty query now matches the new row; it must execute
  // and return it (no stale detection).
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                           manager.Query("select * from A where a > 100"));
  EXPECT_TRUE(outcome.executed);
  EXPECT_EQ(outcome.result_rows, 1u);
}

TEST_F(ManagerTest, CorrectnessDetectedImpliesActuallyEmpty) {
  EmptyResultManager manager(&db_.catalog(), &db_.stats(),
                             HighCostEverything());
  // Seed with several empty queries.
  for (const char* sql : {
           "select * from A where a > 100",
           "select * from A where b = 55",
           "select * from B where d = 100 or e = 77",
           "select * from A, B where A.c = B.d and A.a = 150",
       }) {
    ERQ_ASSERT_OK(manager.Query(sql).status());
  }
  // Fire a batch of probe queries; whenever detection claims empty,
  // force-execute and verify.
  for (const char* sql : {
           "select * from A where a > 200",
           "select a from A where b = 55 and c = 1",
           "select * from A where a = 12",
           "select * from B where e = 77 and d = 100",
           "select * from A, B where A.c = B.d and A.a = 150 and B.e = 0",
       }) {
    ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome, manager.Query(sql));
    if (outcome.detected_empty) {
      ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan, manager.Prepare(sql));
      ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult forced, Executor::Run(plan));
      EXPECT_TRUE(forced.rows.empty()) << "FALSE POSITIVE on: " << sql;
    }
  }
}

TEST_F(ManagerTest, PrepareReturnsCostedPlan) {
  EmptyResultManager manager(&db_.catalog(), &db_.stats());
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan,
                           manager.Prepare("select * from A"));
  EXPECT_GT(plan->estimated_cost, 0.0);
}

TEST_F(ManagerTest, ParseErrorsPropagate) {
  EmptyResultManager manager(&db_.catalog(), &db_.stats());
  EXPECT_FALSE(manager.Query("selec * from A").ok());
  EXPECT_FALSE(manager.Query("select * from missing_table").ok());
}

TEST_F(ManagerTest, MalformedStatementInAStreamFailsAlone) {
  EmptyResultManager manager(&db_.catalog(), &db_.stats(),
                             HighCostEverything());
  ERQ_ASSERT_OK(manager.Query("select * from A where a > 100").status());

  std::vector<StatusOr<QueryOutcome>> results;
  for (const char* sql : {
           "select * from A where a > 500",  // detected empty from C_aqp
           "select * from A where a < 15",   // executes, 5 rows
           "selec * from A",                 // parse error: only this fails
           "select * from A where a = 200",  // detected empty
       }) {
    results.push_back(manager.Execute(QueryRequest::Sql(sql)));
  }

  ASSERT_TRUE(results[0].ok()) << results[0].status();
  EXPECT_TRUE(results[0]->detected_empty);
  EXPECT_FALSE(results[0]->executed);

  ASSERT_TRUE(results[1].ok()) << results[1].status();
  EXPECT_TRUE(results[1]->executed);
  EXPECT_EQ(results[1]->result_rows, 5u);

  EXPECT_FALSE(results[2].ok());

  ASSERT_TRUE(results[3].ok()) << results[3].status();
  EXPECT_TRUE(results[3]->detected_empty);

  // The parse error never reaches the pipeline, so it is not counted.
  const ManagerStats stats = manager.stats_snapshot();
  EXPECT_EQ(stats.queries, 4u);  // 1 seed + 3 well-formed statements
  EXPECT_EQ(stats.checks, 4u);
  EXPECT_EQ(stats.detected_empty, 2u);
  EXPECT_EQ(stats.executed, 2u);
}

TEST_F(ManagerTest, StatsAccumulateAcrossStream) {
  EmptyResultManager manager(&db_.catalog(), &db_.stats(),
                             HighCostEverything());
  ERQ_ASSERT_OK(manager.Query("select * from A where a > 100").status());
  ERQ_ASSERT_OK(manager.Query("select * from A where a > 100").status());
  ERQ_ASSERT_OK(manager.Query("select * from A").status());
  const ManagerStats& stats = manager.stats_snapshot();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.detected_empty, 1u);
  EXPECT_EQ(stats.empty_results, 1u);
  manager.ResetStats();
  EXPECT_EQ(manager.stats_snapshot().queries, 0u);
}

}  // namespace
}  // namespace erq
