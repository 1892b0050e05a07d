// Tests for the lock hierarchy machinery: the rank table in
// common/lock_order.h and the ERQ_DEBUG_LOCK_ORDER runtime validator in
// common/thread_annotations.h. The violation-detection cases inject a
// handler instead of letting the default abort, so they are exact and
// TSan-friendly; they skip themselves in builds without the validator
// (the TSan CI job builds with -DERQ_DEBUG_LOCK_ORDER=ON and runs this
// suite via the concurrency label).

#include <string>
#include <vector>

#include "common/lock_order.h"
#include "common/thread_annotations.h"
#include "core/caqp_cache.h"
#include "gtest/gtest.h"
#include "mv/mv_cache.h"
#include "test_util.h"

namespace erq {
namespace {

using debug_lock_order::Enabled;
using debug_lock_order::HeldCount;
using debug_lock_order::SetViolationHandler;
using debug_lock_order::Violation;

// Test-only ranks above every production level so holding them cannot
// interact with real module locks.
constexpr LockRank kOuter{90, "TestOuter"};
constexpr LockRank kInner{95, "TestInner"};

std::vector<Violation>& Captured() {
  static std::vector<Violation> v;
  return v;
}

void CaptureHandler(const Violation& violation) {
  Captured().push_back(violation);
}

class ScopedCapture {
 public:
  ScopedCapture() {
    Captured().clear();
    SetViolationHandler(&CaptureHandler);
  }
  ~ScopedCapture() { SetViolationHandler(nullptr); }
};

TEST(LockOrderTest, RankTableAscendsInDeclaredOrder) {
  const LockRank* order[] = {
      &lock_order::kManager,     &lock_order::kCaqpCache,
      &lock_order::kMvCache,     &lock_order::kStatsCatalog,
      &lock_order::kPersistence, &lock_order::kFailPoint,
      &lock_order::kMetrics,
  };
  for (size_t i = 1; i < std::size(order); ++i) {
    EXPECT_LT(order[i - 1]->level, order[i]->level)
        << order[i - 1]->name << " must rank below " << order[i]->name;
  }
}

TEST(LockOrderTest, EnabledMatchesBuildFlag) {
#ifdef ERQ_DEBUG_LOCK_ORDER
  EXPECT_TRUE(Enabled());
#else
  EXPECT_FALSE(Enabled());
  EXPECT_EQ(HeldCount(), 0u);
#endif
}

TEST(LockOrderTest, AscendingAcquisitionIsClean) {
  if (!Enabled()) GTEST_SKIP() << "built without ERQ_DEBUG_LOCK_ORDER";
  ScopedCapture capture;
  Mutex outer{kOuter};
  Mutex inner{kInner};
  {
    MutexLock hold_outer(&outer);
    MutexLock hold_inner(&inner);
    EXPECT_EQ(HeldCount(), 2u);
  }
  EXPECT_EQ(HeldCount(), 0u);
  EXPECT_TRUE(Captured().empty());
}

TEST(LockOrderTest, DescendingAcquisitionReportsViolation) {
  if (!Enabled()) GTEST_SKIP() << "built without ERQ_DEBUG_LOCK_ORDER";
  ScopedCapture capture;
  Mutex outer{kOuter};
  Mutex inner{kInner};
  {
    MutexLock hold_inner(&inner);
    MutexLock hold_outer(&outer);  // 90 after 95: inversion
  }
  ASSERT_EQ(Captured().size(), 1u);
  const Violation& v = Captured()[0];
  EXPECT_EQ(v.held_level, 95);
  EXPECT_STREQ(v.held_name, "TestInner");
  EXPECT_EQ(v.acquired_level, 90);
  EXPECT_STREQ(v.acquired_name, "TestOuter");
}

TEST(LockOrderTest, SameLevelReacquisitionReportsViolation) {
  if (!Enabled()) GTEST_SKIP() << "built without ERQ_DEBUG_LOCK_ORDER";
  ScopedCapture capture;
  Mutex first{kOuter};
  Mutex second{kOuter};
  {
    MutexLock hold_first(&first);
    MutexLock hold_second(&second);  // equal levels never ascend
  }
  ASSERT_EQ(Captured().size(), 1u);
  EXPECT_EQ(Captured()[0].held_level, Captured()[0].acquired_level);
}

TEST(LockOrderTest, UnrankedMutexesAreTrackedButNeverChecked) {
  if (!Enabled()) GTEST_SKIP() << "built without ERQ_DEBUG_LOCK_ORDER";
  ScopedCapture capture;
  Mutex ranked{kInner};
  Mutex plain;  // no rank: participates in HeldCount, exempt from checks
  {
    MutexLock hold_ranked(&ranked);
    MutexLock hold_plain(&plain);
    EXPECT_EQ(HeldCount(), 2u);
  }
  {
    MutexLock hold_plain(&plain);
    MutexLock hold_ranked(&ranked);
  }
  EXPECT_TRUE(Captured().empty());
}

TEST(LockOrderTest, TryLockNeverReportsAnInversion) {
  if (!Enabled()) GTEST_SKIP() << "built without ERQ_DEBUG_LOCK_ORDER";
  ScopedCapture capture;
  Mutex outer{kOuter};
  Mutex inner{kInner};
  MutexLock hold_inner(&inner);
  // TryLock cannot block, so descending order cannot deadlock here and
  // the validator stays silent — but the lock still counts as held.
  ASSERT_TRUE(outer.TryLock());
  EXPECT_EQ(HeldCount(), 2u);
  EXPECT_TRUE(Captured().empty());
  outer.Unlock();
}

// The production modules, exercised together, must satisfy the declared
// hierarchy: C_aqp (20) and the MV cache (30) call into the metrics
// registry (70) under their own locks, which ascends.
TEST(LockOrderTest, ProductionCachePathsSatisfyHierarchy) {
  if (!Enabled()) GTEST_SKIP() << "built without ERQ_DEBUG_LOCK_ORDER";
  ScopedCapture capture;

  CaqpCache cache(/*n_max=*/16);
  AtomicQueryPart part(
      RelationSet({"t"}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make("t", "x"), ValueInterval::Point(Value::Int(5)))}));
  cache.Insert(part);
  EXPECT_TRUE(cache.CoveredBy(part));

  testing::FixtureDb db;
  auto plan = db.Plan("SELECT a FROM A WHERE a = 1");
  ASSERT_TRUE(plan.ok());
  MvEmptyCache mv(/*max_views=*/4);
  mv.RecordEmpty(*plan);
  EXPECT_TRUE(mv.CheckEmpty(*plan));

  EXPECT_TRUE(Captured().empty());
  EXPECT_EQ(HeldCount(), 0u);
}

}  // namespace
}  // namespace erq
