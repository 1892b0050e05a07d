#include "common/metrics.h"

#include <cmath>
#include <string>
#include <vector>

#include "core/caqp_cache.h"
#include "core/query_api.h"
#include "gtest/gtest.h"
#include "mv/mv_cache.h"
#include "test_util.h"

namespace erq {
namespace {

using erq::testing::FixtureDb;

// ---------------------------------------------------------------------------
// Instrument primitives
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterBasics) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(MetricsTest, GaugeBasics) {
  Gauge g;
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
  g.Add(-10);
  EXPECT_EQ(g.Value(), -3);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(MetricsTest, HistogramBucketLadder) {
  // Exponential ladder: 1us * 2^i, strictly increasing.
  EXPECT_DOUBLE_EQ(Histogram::UpperBound(0), 1e-6);
  for (size_t i = 1; i < Histogram::kNumFiniteBuckets; ++i) {
    EXPECT_DOUBLE_EQ(Histogram::UpperBound(i),
                     2.0 * Histogram::UpperBound(i - 1));
  }
  // Boundary behavior: a value exactly on a bound lands in that bucket.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1e-6), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1.5e-6), 1u);
  EXPECT_EQ(Histogram::BucketIndex(1e9), Histogram::kNumFiniteBuckets);
}

TEST(MetricsTest, HistogramObserveAndSnapshot) {
  Histogram h;
  h.Observe(0.5e-6);  // bucket 0
  h.Observe(3e-6);    // bucket 2
  h.Observe(1e9);     // overflow
  h.Observe(-1.0);    // clamped to 0 -> bucket 0
  Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[Histogram::kNumFiniteBuckets], 1u);
  uint64_t total = 0;
  for (uint64_t b : snap.buckets) total += b;
  EXPECT_EQ(total, snap.count) << "every observation lands in one bucket";
  EXPECT_GT(snap.sum_seconds, 0.0);
  EXPECT_GT(snap.AverageSeconds(), 0.0);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("erq.test.a");
  Counter* again = registry.GetCounter("erq.test.a");
  EXPECT_EQ(a, again) << "same name must resolve to the same instrument";
  a->Increment();
  EXPECT_EQ(again->Value(), 1u);
  EXPECT_NE(registry.GetCounter("erq.test.b"), a);
}

TEST(MetricsTest, ScopeForwardsEveryUpdateToItsParent) {
  MetricsRegistry parent;
  Counter* total = parent.GetCounter("erq.test.events");
  Gauge* level = parent.GetGauge("erq.test.level");
  Histogram* latency = parent.GetHistogram("erq.test.latency");
  {
    MetricsRegistry a(&parent);
    MetricsRegistry b(&parent);
    a.GetCounter("erq.test.events")->Increment(3);
    b.GetCounter("erq.test.events")->Increment(4);
    EXPECT_EQ(a.GetCounter("erq.test.events")->Value(), 3u);
    EXPECT_EQ(total->Value(), 7u);

    // Gauges: Set forwards the delta, so the parent is the sum.
    a.GetGauge("erq.test.level")->Set(5);
    b.GetGauge("erq.test.level")->Add(2);
    a.GetGauge("erq.test.level")->Set(1);
    EXPECT_EQ(level->Value(), 3);

    a.GetHistogram("erq.test.latency")->Observe(1e-6);
    EXPECT_EQ(latency->Count(), 1u);

    // Reset is local: a scope's reset leaves the aggregate alone.
    a.Reset();
    EXPECT_EQ(a.GetCounter("erq.test.events")->Value(), 0u);
    EXPECT_EQ(a.GetHistogram("erq.test.latency")->Count(), 0u);
    EXPECT_EQ(total->Value(), 7u);
    EXPECT_EQ(latency->Count(), 1u);
  }
  // A destroyed scope takes its gauge values out of the parent; counted
  // events stay counted.
  EXPECT_EQ(level->Value(), 0);
  EXPECT_EQ(total->Value(), 7u);
}

TEST(MetricsTest, ResetLeavesGaugesAlone) {
  MetricsRegistry registry;
  registry.GetCounter("erq.test.events")->Increment(2);
  registry.GetGauge("erq.test.level")->Set(9);
  registry.Reset();
  EXPECT_EQ(registry.GetCounter("erq.test.events")->Value(), 0u);
  EXPECT_EQ(registry.GetGauge("erq.test.level")->Value(), 9);
}

TEST(MetricsTest, GlobalResetKeepsLiveCaqpSize) {
  // Occupancy survives a snapshot reset: metrics_dump resets Global()
  // after recovery has refilled the cache, and the emitted gauge must
  // still count those parts.
  CaqpCache cache(16);
  for (int64_t x = 0; x < 3; ++x) {
    cache.Insert(AtomicQueryPart(
        RelationSet({"t"}),
        Conjunction::Make({PrimitiveTerm::MakeInterval(
            ColumnId::Make("t", "x"), ValueInterval::Point(Value::Int(x)))})));
  }
  ASSERT_EQ(cache.size(), 3u);
  MetricsRegistry::Global().Reset();
  EXPECT_EQ(MetricsRegistry::Global().GetGauge("erq.caqp.size")->Value(),
            static_cast<int64_t>(cache.size()));
}

// ---------------------------------------------------------------------------
// Golden schema: after a representative workload, ToJson() exposes every
// pipeline instrument the observability layer promises (ISSUE 3 acceptance
// criterion), and the histogram invariants hold.
// ---------------------------------------------------------------------------

/// Naive extraction of top-level-object keys per section; good enough for
/// the schema we emit (sections are flat maps keyed by metric name).
bool JsonMentions(const std::string& json, const std::string& name) {
  return json.find("\"" + name + "\"") != std::string::npos;
}

TEST(MetricsGoldenSchemaTest, ToJsonExposesTheWholePipeline) {
  MetricsRegistry::Global().Reset();
  FixtureDb db;
  EmptyResultConfig config;
  config.c_cost = 0.0;  // everything is high-cost: full pipeline runs
  EmptyResultManager manager(&db.catalog(), &db.stats(), config);
  // Empty result -> record; repeat -> detection hit; non-empty -> execute.
  ERQ_ASSERT_OK(manager.Query("select * from A where a > 100").status());
  ERQ_ASSERT_OK(manager.Query("select * from A where a > 100").status());
  ERQ_ASSERT_OK(manager.Query("select * from A").status());

  const std::string json = MetricsRegistry::Global().ToJson();
  SCOPED_TRACE(json);

  EXPECT_NE(json.find("\"schema\": \"erq.metrics.v1\""), std::string::npos);
  for (const char* section : {"counters", "gauges", "histograms"}) {
    EXPECT_TRUE(JsonMentions(json, section));
  }

  // Per-stage latency histograms (parse/plan/optimize/gate/check/execute/
  // record) plus the whole-call histogram.
  for (const char* name :
       {"erq.manager.stage.parse", "erq.manager.stage.plan",
        "erq.manager.stage.optimize", "erq.manager.stage.gate",
        "erq.manager.stage.check", "erq.manager.stage.execute",
        "erq.manager.stage.record", "erq.manager.query_total"}) {
    EXPECT_TRUE(JsonMentions(json, name)) << "missing histogram " << name;
  }
  // Manager counters.
  for (const char* name :
       {"erq.manager.queries", "erq.manager.low_cost", "erq.manager.checks",
        "erq.manager.detected_empty", "erq.manager.executed",
        "erq.manager.empty_results", "erq.manager.recorded",
        "erq.manager.branches_pruned"}) {
    EXPECT_TRUE(JsonMentions(json, name)) << "missing counter " << name;
  }
  // All CaqpCache counters + the size gauge.
  for (const char* name :
       {"erq.caqp.lookups", "erq.caqp.hits", "erq.caqp.misses",
        "erq.caqp.conditions_scanned", "erq.caqp.insert_attempts",
        "erq.caqp.inserted", "erq.caqp.skipped_covered",
        "erq.caqp.removed_covered", "erq.caqp.evictions",
        "erq.caqp.invalidation_drops", "erq.caqp.postings_scanned",
        "erq.caqp.candidate_entries", "erq.caqp.signature_rejects",
        "erq.caqp.size"}) {
    EXPECT_TRUE(JsonMentions(json, name)) << "missing C_aqp metric " << name;
  }
  // Detector, gate, and executor instruments.
  for (const char* name :
       {"erq.detector.checks", "erq.detector.parts_checked",
        "erq.detector.provably_empty", "erq.detector.record_calls",
        "erq.detector.parts_recorded", "erq.gate.observed_executed",
        "erq.gate.observed_detected", "erq.exec.runs",
        "erq.exec.rows_scanned", "erq.exec.rows_emitted"}) {
    EXPECT_TRUE(JsonMentions(json, name)) << "missing metric " << name;
  }

  // Spot-check the counted workload: 3 queries, 1 detection hit, 2 runs.
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("erq.manager.queries")->Value(),
            3u);
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("erq.manager.detected_empty")->Value(),
      1u);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("erq.exec.runs")->Value(), 2u);
  EXPECT_GT(MetricsRegistry::Global().GetCounter("erq.exec.rows_scanned")->Value(),
            0u);
  EXPECT_EQ(MetricsRegistry::Global().GetGauge("erq.caqp.size")->Value(),
            static_cast<int64_t>(manager.detector().cache().size()));

  // Histogram invariants inside the JSON's source snapshots: bucket counts
  // sum to the observation count, stage histograms saw every query.
  Histogram* plan_h =
      MetricsRegistry::Global().GetHistogram("erq.manager.stage.plan");
  Histogram::Snapshot snap = plan_h->TakeSnapshot();
  EXPECT_EQ(snap.count, 3u);
  uint64_t total = 0;
  for (uint64_t b : snap.buckets) total += b;
  EXPECT_EQ(total, snap.count);
}

TEST(MetricsGoldenSchemaTest, MvCacheCountersAreExposed) {
  MetricsRegistry::Global().Reset();
  FixtureDb db;
  MvEmptyCache mv(4);
  ERQ_ASSERT_OK_AND_ASSIGN(LogicalOpPtr plan,
                           db.Plan("select * from A where a > 100"));
  mv.CheckEmpty(plan);   // miss
  mv.RecordEmpty(plan);  // store
  mv.CheckEmpty(plan);   // hit
  const std::string json = MetricsRegistry::Global().ToJson();
  SCOPED_TRACE(json);
  for (const char* name : {"erq.mv.lookups", "erq.mv.hits", "erq.mv.stored",
                           "erq.mv.evictions"}) {
    EXPECT_TRUE(JsonMentions(json, name)) << "missing MV metric " << name;
  }
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("erq.mv.lookups")->Value(), 2u);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("erq.mv.hits")->Value(), 1u);
  MvEmptyCache::MvStats stats = mv.stats_snapshot();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.stored, 1u);
}

// ---------------------------------------------------------------------------
// QueryOutcome structured API
// ---------------------------------------------------------------------------

TEST(QueryOutcomeTest, StageTimingsSumToTotalWallTime) {
  FixtureDb db;
  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&db.catalog(), &db.stats(), config);
  ERQ_ASSERT_OK(manager.Query("select * from B where d = 77").status());

  for (const char* sql :
       {"select * from A where a < 15", "select * from B where d = 77",
        "select a, e from A, B where c = d and b > 100"}) {
    ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome, manager.Query(sql));
    const QueryOutcome::Timings& t = outcome.timings;
    SCOPED_TRACE(std::string(sql) + "\n" + t.ToString());
    EXPECT_GT(t.total_seconds, 0.0);
    // The stage spans are disjoint sub-intervals of the total interval, so
    // their sum cannot exceed the total (tiny epsilon for clock rounding).
    EXPECT_LE(t.AccountedSeconds(), t.total_seconds + 2e-3);
    // And the glue between stages is trivial, so the stages must account
    // for approximately the whole call.
    EXPECT_LE(t.total_seconds - t.AccountedSeconds(), 50e-3)
        << "stage spans lost too much of the wall time";
    EXPECT_GE(t.parse_seconds, 0.0);
    EXPECT_GT(t.plan_seconds, 0.0);
    EXPECT_GT(t.optimize_seconds, 0.0);
  }
}

TEST(QueryOutcomeTest, DetectedEmptyCarriesPlanAndExplanation) {
  FixtureDb db;
  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&db.catalog(), &db.stats(), config);
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome first,
                           manager.Query("select * from A where a > 100"));
  EXPECT_TRUE(first.executed);
  EXPECT_TRUE(first.result_empty);
  ASSERT_NE(first.plan, nullptr);
  ASSERT_TRUE(first.explanation.has_value())
      << "executed-empty outcome must carry Operation O1 explanation";
  EXPECT_FALSE(first.explanation->minimal_causes.empty());

  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome second,
                           manager.Query("select * from A where a > 100"));
  EXPECT_TRUE(second.detected_empty);
  ASSERT_NE(second.plan, nullptr);
  ASSERT_TRUE(second.explanation.has_value());
  EXPECT_NE(second.explanation->ToString().find("C_aqp"), std::string::npos);

  // ToString() compatibility surface: status, timings, and the plan.
  std::string text = second.ToString();
  EXPECT_NE(text.find("detected empty"), std::string::npos);
  EXPECT_NE(text.find("timings:"), std::string::npos);
}

TEST(QueryOutcomeTest, NonEmptyResultHasNoExplanation) {
  FixtureDb db;
  EmptyResultManager manager(&db.catalog(), &db.stats());
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                           manager.Query("select * from A"));
  EXPECT_FALSE(outcome.result_empty);
  EXPECT_FALSE(outcome.explanation.has_value());
  ASSERT_NE(outcome.plan, nullptr);
  EXPECT_NE(outcome.plan->ToString().find("actual="), std::string::npos);
}

// ---------------------------------------------------------------------------
// EmptyResultConfig::Validate
// ---------------------------------------------------------------------------

TEST(ConfigValidateTest, RejectsBadConfigs) {
  EmptyResultConfig ok;
  ERQ_EXPECT_OK(ok.Validate());

  EmptyResultConfig zero_nmax;
  zero_nmax.n_max = 0;
  EXPECT_FALSE(zero_nmax.Validate().ok());

  EmptyResultConfig negative_cost;
  negative_cost.c_cost = -1.0;
  EXPECT_FALSE(negative_cost.Validate().ok());

  EmptyResultConfig nan_cost;
  nan_cost.c_cost = std::nan("");
  EXPECT_FALSE(nan_cost.Validate().ok());

  EmptyResultConfig zero_terms;
  zero_terms.dnf.max_terms = 0;
  EXPECT_FALSE(zero_terms.Validate().ok());
}

TEST(ConfigValidateTest, ManagerSurfacesTheErrorFromEveryEntryPoint) {
  FixtureDb db;
  EmptyResultConfig bad;
  bad.n_max = 0;
  EmptyResultManager manager(&db.catalog(), &db.stats(), bad);
  EXPECT_FALSE(manager.init_status().ok());
  EXPECT_EQ(manager.Query("select * from A").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.Prepare("select * from A").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      manager.Execute(QueryRequest::Sql("select * from A")).status().code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace erq
