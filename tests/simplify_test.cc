#include "core/simplify.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace erq {
namespace {

using erq::testing::FixtureDb;

TEST(SimplifyTest, T1DropsProjectionSortDistinct) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr plan,
      db.Prepare("select distinct a from A where a < 15 order by a"));
  ERQ_ASSERT_OK_AND_ASSIGN(SimplifiedQueryPart part,
                           SimplifyPhysicalPart(plan));
  ASSERT_EQ(part.scans.size(), 1u);
  EXPECT_EQ(part.scans[0].second, "A");
  ASSERT_EQ(part.conjuncts.size(), 1u);
  EXPECT_NE(part.conjuncts[0]->ToString().find("< 15"), std::string::npos);
}

TEST(SimplifyTest, T2ReplacesPhysicalJoinsWithConditions) {
  FixtureDb db;
  for (bool hash : {true, false}) {
    OptimizerOptions options;
    options.enable_hash_join = hash;
    ERQ_ASSERT_OK_AND_ASSIGN(
        PhysOpPtr plan,
        db.Prepare("select * from A, B where A.c = B.d and A.a < 15",
                   options));
    EXPECT_NE(plan->ToString().find(hash ? "HashJoin" : "NestedLoopsJoin"),
              std::string::npos);
    ERQ_ASSERT_OK_AND_ASSIGN(SimplifiedQueryPart part,
                             SimplifyPhysicalPart(plan));
    EXPECT_EQ(part.scans.size(), 2u);
    // Join condition + selection survive as conjuncts regardless of the
    // physical join algorithm.
    ASSERT_EQ(part.conjuncts.size(), 2u) << "hash=" << hash;
  }
}

TEST(SimplifyTest, T3IndexScanBecomesScanPlusSelection) {
  FixtureDb db;
  db.AddFillerRows();
  ASSERT_TRUE(db.catalog().CreateIndex("A", "a").ok());
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan,
                           db.Prepare("select * from A where a = 12"));
  // Sanity: the plan really uses an index scan.
  std::function<bool(const PhysOpPtr&)> has_index =
      [&](const PhysOpPtr& op) {
        if (op->kind == PhysOpKind::kIndexScan) return true;
        for (const PhysOpPtr& c : op->children) {
          if (has_index(c)) return true;
        }
        return false;
      };
  ASSERT_TRUE(has_index(plan));
  ERQ_ASSERT_OK_AND_ASSIGN(SimplifiedQueryPart part,
                           SimplifyPhysicalPart(plan));
  ASSERT_EQ(part.scans.size(), 1u);
  ASSERT_EQ(part.conjuncts.size(), 1u);
  EXPECT_NE(part.conjuncts[0]->ToString().find("= 12"), std::string::npos);
}

TEST(SimplifyTest, NonSpjOperatorsRejected) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr agg, db.Prepare("select count(*) from A"));
  EXPECT_FALSE(SimplifyPhysicalPart(agg).ok());
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr setop, db.Prepare("select a from A union select d from B"));
  EXPECT_FALSE(SimplifyPhysicalPart(setop).ok());
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr outer,
      db.Prepare("select * from A left outer join B on A.c = B.d"));
  EXPECT_FALSE(SimplifyPhysicalPart(outer).ok());
}

TEST(SimplifyTest, LogicalPartMirrorsPhysical) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      LogicalOpPtr logical,
      db.Plan("select a from A, B where A.c = B.d and A.a < 15"));
  ERQ_ASSERT_OK_AND_ASSIGN(SimplifiedQueryPart part,
                           SimplifyLogicalPart(logical));
  EXPECT_EQ(part.scans.size(), 2u);
  EXPECT_EQ(part.conjuncts.size(), 2u);
}

TEST(SimplifyTest, AliasesPreserved) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(
      PhysOpPtr plan,
      db.Prepare("select * from A x, A y where x.c = y.c"));
  ERQ_ASSERT_OK_AND_ASSIGN(SimplifiedQueryPart part,
                           SimplifyPhysicalPart(plan));
  ASSERT_EQ(part.scans.size(), 2u);
  EXPECT_NE(part.scans[0].first, part.scans[1].first);
  EXPECT_EQ(part.scans[0].second, "A");
  EXPECT_EQ(part.scans[1].second, "A");
}

TEST(SimplifyTest, ToStringReadable) {
  FixtureDb db;
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan,
                           db.Prepare("select * from A where a < 15"));
  ERQ_ASSERT_OK_AND_ASSIGN(SimplifiedQueryPart part,
                           SimplifyPhysicalPart(plan));
  EXPECT_NE(part.ToString().find("A"), std::string::npos);
}

}  // namespace
}  // namespace erq
