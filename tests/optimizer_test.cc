#include "plan/optimizer.h"

#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "types/date.h"
#include "workload/query_gen.h"

namespace erq {
namespace {

using erq::testing::FixtureDb;

const PhysicalOperator* FindOp(const PhysOpPtr& root, PhysOpKind kind) {
  if (root->kind == kind) return root.get();
  for (const PhysOpPtr& c : root->children) {
    const PhysicalOperator* found = FindOp(c, kind);
    if (found != nullptr) return found;
  }
  return nullptr;
}

int CountOps(const PhysOpPtr& root, PhysOpKind kind) {
  int n = root->kind == kind ? 1 : 0;
  for (const PhysOpPtr& c : root->children) n += CountOps(c, kind);
  return n;
}

TEST(OptimizerTest, TableScanWhenNoIndex) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan,
                           db.Prepare("select * from A where a < 15"));
  EXPECT_NE(FindOp(plan, PhysOpKind::kTableScan), nullptr);
  EXPECT_NE(FindOp(plan, PhysOpKind::kFilter), nullptr);
  EXPECT_EQ(FindOp(plan, PhysOpKind::kIndexScan), nullptr);
}

TEST(OptimizerTest, IndexScanWhenIndexExists) {
  FixtureDb db;
  db.AddFillerRows();
  ASSERT_TRUE(db.catalog().CreateIndex("A", "a").ok());
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan,
                           db.Prepare("select * from A where a = 12"));
  const PhysicalOperator* scan = FindOp(plan, PhysOpKind::kIndexScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->index_column, "a");
  ASSERT_NE(scan->index_condition, nullptr);
}

TEST(OptimizerTest, IndexScanDisabledByOption) {
  FixtureDb db;
  ASSERT_TRUE(db.catalog().CreateIndex("A", "a").ok());
  OptimizerOptions options;
  options.enable_index_scan = false;
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr plan, db.Prepare("select * from A where a = 12", options));
  EXPECT_EQ(FindOp(plan, PhysOpKind::kIndexScan), nullptr);
}

TEST(OptimizerTest, IndexScanOnlyWhenCheaperThanTableScan) {
  Catalog catalog;
  ERQ_ASSERT_OK_AND_ASSIGN(
      Table * t, catalog.CreateTable("T", Schema({{"k", DataType::kInt64},
                                                  {"v", DataType::kInt64}})));
  for (int64_t i = 0; i < 310; ++i) {
    t->AppendUnchecked({Value::Int(i % 31), Value::Int(i)});
  }
  ASSERT_TRUE(catalog.CreateIndex("T", "k").ok());
  StatsCatalog stats;
  ERQ_ASSERT_OK(stats.AnalyzeAll(catalog));
  auto prepare = [&](const std::string& pred) {
    return erq::testing::PreparePlan(&catalog, &stats,
                                     "select * from T where " + pred);
  };
  // Ranges over nearly every row read the table in order and filter it.
  for (const std::string pred : {"k > -2", "k < 20 or k > 5"}) {
    ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan, prepare(pred));
    EXPECT_EQ(FindOp(plan, PhysOpKind::kIndexScan), nullptr)
        << pred << "\n" << plan->ToString();
    EXPECT_NE(FindOp(plan, PhysOpKind::kTableScan), nullptr) << pred;
    EXPECT_NE(FindOp(plan, PhysOpKind::kFilter), nullptr) << pred;
  }
  // A selective one still probes the index.
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr point, prepare("k = 7"));
  EXPECT_NE(FindOp(point, PhysOpKind::kIndexScan), nullptr)
      << point->ToString();
}

TEST(OptimizerTest, EquiJoinUsesHashJoin) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr plan, db.Prepare("select * from A, B where A.c = B.d"));
  EXPECT_NE(FindOp(plan, PhysOpKind::kHashJoin), nullptr);
  EXPECT_EQ(FindOp(plan, PhysOpKind::kNestedLoopsJoin), nullptr);
}

TEST(OptimizerTest, PreferMergeJoinOption) {
  FixtureDb db;
  OptimizerOptions options;
  options.prefer_merge_join = true;
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr plan,
      db.Prepare("select * from A, B where A.c = B.d", options));
  EXPECT_NE(FindOp(plan, PhysOpKind::kMergeJoin), nullptr);
}

TEST(OptimizerTest, NonEquiJoinUsesNestedLoops) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr plan, db.Prepare("select * from A, B where A.c < B.d"));
  EXPECT_NE(FindOp(plan, PhysOpKind::kNestedLoopsJoin), nullptr);
}

TEST(OptimizerTest, CrossProductWhenNoPredicate) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan, db.Prepare("select * from A, B"));
  const PhysicalOperator* nl = FindOp(plan, PhysOpKind::kNestedLoopsJoin);
  ASSERT_NE(nl, nullptr);
  EXPECT_EQ(nl->join_condition, nullptr);
}

TEST(OptimizerTest, ThreeWayJoinProducesTwoJoins) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr plan,
      db.Prepare(
          "select * from A, B, C where A.c = B.d and B.d = C.f"));
  EXPECT_EQ(CountOps(plan, PhysOpKind::kHashJoin), 2);
  EXPECT_EQ(CountOps(plan, PhysOpKind::kTableScan), 3);
}

TEST(OptimizerTest, SingleTablePredicatesPushedToAccessPath) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr plan,
      db.Prepare("select * from A, B where A.c = B.d and A.a < 12"));
  // The filter on A must sit below the join.
  const PhysicalOperator* join = FindOp(plan, PhysOpKind::kHashJoin);
  ASSERT_NE(join, nullptr);
  bool found_filter_below_join = false;
  for (const PhysOpPtr& child : join->children) {
    if (child->kind == PhysOpKind::kFilter) found_filter_below_join = true;
  }
  EXPECT_TRUE(found_filter_below_join);
}

TEST(OptimizerTest, CostsAreCumulativeAndPositive) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr plan, db.Prepare("select * from A, B where A.c = B.d"));
  EXPECT_GT(plan->estimated_cost, 0.0);
  for (const PhysOpPtr& c : plan->children) {
    EXPECT_LE(c->estimated_cost, plan->estimated_cost);
  }
}

TEST(OptimizerTest, CostGrowsWithDataSize) {
  // Two databases of different sizes: the larger must cost more.
  auto build = [](int rows) {
    auto catalog = std::make_unique<Catalog>();
    auto t = catalog->CreateTable("t", Schema({{"x", DataType::kInt64}}));
    EXPECT_TRUE(t.ok());
    for (int i = 0; i < rows; ++i) {
      t.value()->AppendUnchecked({Value::Int(i)});
    }
    return catalog;
  };
  auto small = build(100);
  auto large = build(10000);
  StatsCatalog small_stats, large_stats;
  ASSERT_TRUE(small_stats.AnalyzeAll(*small).ok());
  ASSERT_TRUE(large_stats.AnalyzeAll(*large).ok());
  auto prepare = [](Catalog* c, StatsCatalog* s) {
    auto stmt = Parser::Parse("select * from t where x > 5");
    EXPECT_TRUE(stmt.ok());
    Planner planner(c);
    auto planned = planner.PlanStatement(**stmt);
    EXPECT_TRUE(planned.ok());
    Optimizer optimizer(c, s);
    auto plan = optimizer.Optimize(planned->root);
    EXPECT_TRUE(plan.ok());
    return plan.value()->estimated_cost;
  };
  EXPECT_GT(prepare(large.get(), &large_stats),
            prepare(small.get(), &small_stats));
}

TEST(OptimizerTest, AggregateAndSortNodes) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr plan,
      db.Prepare("select c, count(*) from A group by c order by c"));
  ASSERT_EQ(plan->kind, PhysOpKind::kSort);
  EXPECT_EQ(plan->children[0]->kind, PhysOpKind::kAggregate);
}

TEST(OptimizerTest, UnionArityMismatchRejected) {
  FixtureDb db;
  auto plan = db.Prepare("select a, b from A union select d from B");
  EXPECT_FALSE(plan.ok());
}

TEST(OptimizerTest, EstimatedRowsReflectSelectivity) {
  FixtureDb db;
  // A has 10 rows with distinct `a`; equality should estimate ~1 row.
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr eq_plan,
                           db.Prepare("select * from A where a = 12"));
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr all_plan, db.Prepare("select * from A"));
  EXPECT_LT(eq_plan->estimated_rows, all_plan->estimated_rows);
}

/// Optimizes `sql` against a small indexed TPC-R instance.
class TpcrPlanTest : public ::testing::Test {
 protected:
  TpcrPlanTest() {
    TpcrConfig config;
    config.customers_per_unit = 100;
    config.seed = 5;
    auto inst = BuildTpcr(&catalog_, config);
    EXPECT_TRUE(inst.ok());
    instance_ = *inst;
    EXPECT_TRUE(BuildTpcrIndexes(&catalog_).ok());
    EXPECT_TRUE(stats_.AnalyzeAll(catalog_).ok());
  }

  StatusOr<PhysOpPtr> Prepare(const std::string& sql) {
    return erq::testing::PreparePlan(&catalog_, &stats_, sql);
  }

  std::string Date(size_t i) const {
    return "DATE '" + DateToString(instance_.present_dates[i]) + "'";
  }

  Catalog catalog_;
  StatsCatalog stats_;
  TpcrInstance instance_;
};

/// The IndexScan over `table`, or null.
const PhysicalOperator* FindIndexScanOn(const PhysOpPtr& root,
                                        const std::string& table) {
  if (root->kind == PhysOpKind::kIndexScan && root->table_name == table) {
    return root.get();
  }
  for (const PhysOpPtr& c : root->children) {
    const PhysicalOperator* found = FindIndexScanOn(c, table);
    if (found != nullptr) return found;
  }
  return nullptr;
}

TEST_F(TpcrPlanTest, Q1DateDisjunctionIsOneTwoRangeIndexScan) {
  QueryGenerator gen(&instance_, 3);
  Q1Spec spec = gen.GenerateQ1(2, 1, /*want_empty=*/true);
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan, Prepare(spec.ToSql()));
  const PhysicalOperator* orders = FindIndexScanOn(plan, "orders");
  ASSERT_NE(orders, nullptr) << plan->ToString();
  EXPECT_EQ(orders->index_column, "orderdate");
  EXPECT_EQ(orders->index_ranges.size(), 2u);
  // The whole OR stays the index condition, so T3 sees what it saw when
  // a Filter applied it.
  ASSERT_NE(orders->index_condition, nullptr);
  EXPECT_EQ(orders->index_condition->kind(), Expr::Kind::kOr);
  EXPECT_NE(plan->ToString().find("ON orderdate (2 ranges)"),
            std::string::npos)
      << plan->ToString();
  const PhysicalOperator* lineitem = FindIndexScanOn(plan, "lineitem");
  ASSERT_NE(lineitem, nullptr);
  EXPECT_EQ(lineitem->index_ranges.size(), 1u);
  EXPECT_EQ(lineitem->ToString().find("ranges)"), std::string::npos);
}

TEST_F(TpcrPlanTest, InListIsOneTwoRangeIndexScan) {
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr plan, Prepare("select * from orders o where o.orderdate in (" +
                              Date(0) + ", " + Date(1) + ")"));
  const PhysicalOperator* orders = FindIndexScanOn(plan, "orders");
  ASSERT_NE(orders, nullptr) << plan->ToString();
  EXPECT_EQ(orders->index_column, "orderdate");
  EXPECT_EQ(orders->index_ranges.size(), 2u);
  EXPECT_EQ(FindOp(plan, PhysOpKind::kTableScan), nullptr);
  EXPECT_NE(plan->ToString().find("ON orderdate (2 ranges)"),
            std::string::npos);
}

TEST_F(TpcrPlanTest, UnservableDisjunctionsStayTableScanAndFilter) {
  const std::string d0 = "o.orderdate = " + Date(0);
  for (const std::string& pred : std::vector<std::string>{
           d0 + " or o.custkey = 7", d0 + " or o.orderdate <> " + Date(1),
        d0 + " or o.orderdate is null",
        "o.orderdate not in (" + Date(0) + ", " + Date(1) + ")",
        "o.custkey in (7, null)"}) {
    ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan,
                             Prepare("select * from orders o where " + pred));
    EXPECT_EQ(FindOp(plan, PhysOpKind::kIndexScan), nullptr)
        << pred << "\n" << plan->ToString();
    EXPECT_NE(FindOp(plan, PhysOpKind::kTableScan), nullptr) << pred;
    EXPECT_NE(FindOp(plan, PhysOpKind::kFilter), nullptr) << pred;
  }
}

TEST_F(TpcrPlanTest, IndexScanCostChargesOneProbePerRange) {
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr one, Prepare("select * from orders o where o.custkey = 7"));
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr three,
      Prepare("select * from orders o where o.custkey in (7, 8, 9)"));
  const PhysicalOperator* a = FindIndexScanOn(one, "orders");
  const PhysicalOperator* b = FindIndexScanOn(three, "orders");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->index_ranges.size(), 3u);
  CostModel model(&stats_);
  double table_rows = static_cast<double>(instance_.orders->num_rows());
  EXPECT_DOUBLE_EQ(b->estimated_cost,
                   model.IndexScanCost(table_rows, b->estimated_rows, 3));
  // Three descents cost more than one over the same matching rows.
  EXPECT_GT(model.IndexScanCost(table_rows, a->estimated_rows, 3),
            a->estimated_cost);
}

TEST(OptimizerTest, IndexScanDisabledByOptionCoversDisjunctions) {
  FixtureDb db;
  ASSERT_TRUE(db.catalog().CreateIndex("A", "a").ok());
  OptimizerOptions options;
  options.enable_index_scan = false;
  for (const char* sql : {"select * from A where a = 12 or a = 14",
                          "select * from A where a in (12, 14)"}) {
    ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan, db.Prepare(sql, options));
    EXPECT_EQ(FindOp(plan, PhysOpKind::kIndexScan), nullptr) << sql;
  }
}

TEST(OptimizerTest, NestedDisjunctionsFlattenIntoRanges) {
  FixtureDb db;
  db.AddFillerRows();
  ASSERT_TRUE(db.catalog().CreateIndex("A", "a").ok());
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr plan,
      db.Prepare("select * from A where a < 11 or (a in (13, 15) or "
                 "a between 17 and 18)"));
  const PhysicalOperator* scan = FindOp(plan, PhysOpKind::kIndexScan);
  ASSERT_NE(scan, nullptr) << plan->ToString();
  EXPECT_EQ(scan->index_ranges.size(), 4u);
  EXPECT_EQ(FindOp(plan, PhysOpKind::kFilter), nullptr);
}

TEST(SplitConjunctsTest, FlattensNestedAnds) {
  using namespace erq::eb;  // NOLINT
  ExprPtr e = And({And({Eq(Col("t", "a"), Int(1)), Eq(Col("t", "b"), Int(2))}),
                   Eq(Col("t", "c"), Int(3))});
  EXPECT_EQ(SplitConjuncts(e).size(), 3u);
  EXPECT_TRUE(SplitConjuncts(nullptr).empty());
  EXPECT_EQ(SplitConjuncts(Eq(Col("t", "a"), Int(1))).size(), 1u);
}

}  // namespace
}  // namespace erq
