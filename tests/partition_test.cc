// Unit tests for the horizontal-partitioning layer: schemes, zone maps,
// table maintenance, and zone-map refutation.

#include "catalog/partition.h"

#include <algorithm>

#include "catalog/catalog.h"
#include "catalog/table.h"
#include "gtest/gtest.h"
#include "stats/partition_stats.h"
#include "test_util.h"

namespace erq {
namespace {

using ::erq::testing::FixtureDb;

Schema TwoColSchema() {
  return Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
}

PartitionScheme RangeOnK(std::vector<Value> bounds) {
  PartitionScheme s;
  s.kind = PartitionScheme::Kind::kRange;
  s.key_column = "k";
  s.range_bounds = std::move(bounds);
  return s;
}

PartitionScheme HashOnK(size_t fanout) {
  PartitionScheme s;
  s.kind = PartitionScheme::Kind::kHash;
  s.key_column = "k";
  s.partitions = fanout;
  return s;
}

TEST(PartitionScheme, CountPerKind) {
  PartitionScheme none;
  EXPECT_EQ(none.Count(), 1u);
  EXPECT_FALSE(none.partitioned());

  EXPECT_EQ(HashOnK(4).Count(), 4u);
  EXPECT_EQ(RangeOnK({Value::Int(10), Value::Int(20)}).Count(), 3u);
  EXPECT_EQ(RangeOnK({}).Count(), 1u);
}

TEST(PartitionScheme, ValidateRejectsBadSchemes) {
  Schema schema = TwoColSchema();

  PartitionScheme unknown = RangeOnK({Value::Int(1)});
  unknown.key_column = "nope";
  EXPECT_FALSE(unknown.Validate(schema).ok());

  PartitionScheme zero_fanout = HashOnK(0);
  EXPECT_FALSE(zero_fanout.Validate(schema).ok());

  PartitionScheme descending =
      RangeOnK({Value::Int(20), Value::Int(10)});
  EXPECT_FALSE(descending.Validate(schema).ok());

  PartitionScheme duplicate = RangeOnK({Value::Int(10), Value::Int(10)});
  EXPECT_FALSE(duplicate.Validate(schema).ok());

  EXPECT_TRUE(RangeOnK({Value::Int(10), Value::Int(20)}).Validate(schema).ok());
  EXPECT_TRUE(HashOnK(8).Validate(schema).ok());
  EXPECT_TRUE(PartitionScheme{}.Validate(schema).ok());
}

TEST(PartitionScheme, RangePartitionOf) {
  PartitionScheme s = RangeOnK({Value::Int(10), Value::Int(20)});
  EXPECT_EQ(s.PartitionOf(Value::Int(-5)), 0u);
  EXPECT_EQ(s.PartitionOf(Value::Int(9)), 0u);
  EXPECT_EQ(s.PartitionOf(Value::Int(10)), 1u);  // bounds are exclusive
  EXPECT_EQ(s.PartitionOf(Value::Int(19)), 1u);
  EXPECT_EQ(s.PartitionOf(Value::Int(20)), 2u);
  EXPECT_EQ(s.PartitionOf(Value::Int(1000)), 2u);
  EXPECT_EQ(s.PartitionOf(Value::Null()), 0u);
}

TEST(PartitionScheme, HashPartitionOfIsDeterministicAndInRange) {
  PartitionScheme s = HashOnK(4);
  for (int64_t i = 0; i < 100; ++i) {
    size_t p = s.PartitionOf(Value::Int(i));
    EXPECT_LT(p, 4u);
    EXPECT_EQ(p, s.PartitionOf(Value::Int(i)));  // pure function of the key
  }
  EXPECT_EQ(s.PartitionOf(Value::Null()), 0u);
}

TEST(StableHash, EqualValuesHashEqual) {
  EXPECT_EQ(StableValueHash(Value::Int(42)), StableValueHash(Value::Int(42)));
  // Integral doubles compare equal to the same int64 and must land in the
  // same partition.
  EXPECT_EQ(StableValueHash(Value::Int(5)), StableValueHash(Value::Double(5.0)));
  EXPECT_NE(StableValueHash(Value::Int(5)), StableValueHash(Value::Int(6)));
  EXPECT_EQ(StableValueHash(Value::String("abc")),
            StableValueHash(Value::String("abc")));
}

TEST(EquiWidth, SplitsObservedRange) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) {
    // Built in two steps: the braced temporary trips a GCC 12
    // -Wmaybe-uninitialized false positive through the Value variant
    // under -O2 with sanitizers enabled.
    Row row;
    row.push_back(Value::Int(i));
    rows.push_back(std::move(row));
  }
  std::vector<Value> bounds = EquiWidthBounds(rows, 0, 4);
  ASSERT_EQ(bounds.size(), 3u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1].Compare(bounds[i]), 0);
  }
  // Every observed key must land in [0, 4).
  PartitionScheme s = RangeOnK(bounds);
  for (const Row& r : rows) EXPECT_LT(s.PartitionOf(r[0]), 4u);
}

TEST(EquiWidth, DegenerateInputsYieldCatchAll) {
  std::vector<Row> same;
  for (int i = 0; i < 10; ++i) same.push_back({Value::Int(7)});
  EXPECT_TRUE(EquiWidthBounds(same, 0, 4).empty());

  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back({Value::Int(i)});
  EXPECT_TRUE(EquiWidthBounds(rows, 0, 1).empty());
  EXPECT_TRUE(EquiWidthBounds({}, 0, 4).empty());

  std::vector<Row> strings{{Value::String("a")}, {Value::String("z")}};
  EXPECT_TRUE(EquiWidthBounds(strings, 0, 4).empty());
}

TEST(ZoneMap, ObserveTracksBoundsAndDistinct) {
  ColumnZoneMap zm;
  zm.Observe(Value::Int(5), 4);
  zm.Observe(Value::Int(1), 4);
  zm.Observe(Value::Int(9), 4);
  zm.Observe(Value::Null(), 4);  // NULLs never affect the summaries
  ASSERT_TRUE(zm.min.has_value());
  ASSERT_TRUE(zm.max.has_value());
  EXPECT_EQ(zm.min->Compare(Value::Int(1)), 0);
  EXPECT_EQ(zm.max->Compare(Value::Int(9)), 0);
  EXPECT_EQ(zm.non_null, 3u);
  EXPECT_FALSE(zm.distinct_overflow);
  EXPECT_EQ(zm.distinct.size(), 3u);

  zm.Observe(Value::Int(5), 4);  // duplicate: no growth
  EXPECT_EQ(zm.distinct.size(), 3u);

  zm.Observe(Value::Int(2), 4);
  zm.Observe(Value::Int(3), 4);  // fifth distinct value: past the cap
  EXPECT_TRUE(zm.distinct_overflow);
  EXPECT_TRUE(zm.distinct.empty());
}

TEST(Table, SetPartitioningBuildsSnapshot) {
  Catalog catalog;
  auto table = catalog.CreateTable("t", TwoColSchema());
  ASSERT_TRUE(table.ok());
  for (int64_t i = 0; i < 30; ++i) {
    (*table)->AppendUnchecked({Value::Int(i), Value::Int(i * 10)});
  }
  EXPECT_EQ((*table)->partition_snapshot(), nullptr);  // unpartitioned

  ERQ_ASSERT_OK(catalog.SetPartitioning(
      "t", RangeOnK({Value::Int(10), Value::Int(20)})));
  EXPECT_TRUE((*table)->partitioned());

  auto snap = (*table)->partition_snapshot();
  ASSERT_NE(snap, nullptr);
  ASSERT_EQ(snap->partitions.size(), 3u);
  for (const PartitionState& p : snap->partitions) {
    EXPECT_EQ(p.row_count(), 10u);
    ASSERT_EQ(p.columns.size(), 2u);
  }
  // Partition 1 holds k in [10, 20).
  EXPECT_EQ(snap->partitions[1].columns[0].min->Compare(Value::Int(10)), 0);
  EXPECT_EQ(snap->partitions[1].columns[0].max->Compare(Value::Int(19)), 0);

  // Snapshots are cached between mutations.
  EXPECT_EQ(snap.get(), (*table)->partition_snapshot().get());
}

TEST(Table, AppendMaintainsZoneMapsIncrementally) {
  Table table("t", TwoColSchema());
  ERQ_ASSERT_OK(table.SetPartitioning(RangeOnK({Value::Int(10)})));
  uint64_t v0 = table.version();

  ERQ_ASSERT_OK(table.Append({Value::Int(3), Value::Int(30)}));
  ERQ_ASSERT_OK(table.Append({Value::Int(15), Value::Int(150)}));
  EXPECT_GT(table.version(), v0);

  auto snap = table.partition_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->partitions[0].row_count(), 1u);
  EXPECT_EQ(snap->partitions[1].row_count(), 1u);
  EXPECT_EQ(snap->partitions[1].columns[1].min->Compare(Value::Int(150)), 0);
  EXPECT_EQ(snap->version, table.version());
}

TEST(Table, DeleteRebuildsPartitionsExactly) {
  Table table("t", TwoColSchema());
  for (int64_t i = 0; i < 20; ++i) {
    table.AppendUnchecked({Value::Int(i), Value::Int(i)});
  }
  ERQ_ASSERT_OK(table.SetPartitioning(RangeOnK({Value::Int(10)})));

  size_t removed = table.DeleteWhere(
      [](const Row& r) { return r[0].Compare(Value::Int(5)) < 0; });
  EXPECT_EQ(removed, 5u);

  auto snap = table.partition_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->partitions[0].row_count(), 5u);
  EXPECT_EQ(snap->partitions[1].row_count(), 10u);
  // Bounds are exact after a delete (not merely sound): min shrank to 5.
  EXPECT_EQ(snap->partitions[0].columns[0].min->Compare(Value::Int(5)), 0);

  // Row ids in a snapshot are ascending positions into rows().
  for (const PartitionState& p : snap->partitions) {
    EXPECT_TRUE(std::is_sorted(p.row_ids.begin(), p.row_ids.end()));
    for (size_t id : p.row_ids) EXPECT_LT(id, table.num_rows());
  }
}

Conjunction IntervalOnT(const char* column, ValueInterval iv) {
  return Conjunction::Make(
      {PrimitiveTerm::MakeInterval(ColumnId::Make("t", column), iv)});
}

TEST(ZoneMapRefute, IntervalAgainstBounds) {
  Table table("t", TwoColSchema());
  for (int64_t i = 0; i < 20; ++i) {
    table.AppendUnchecked({Value::Int(i), Value::Int(i * 10)});
  }
  ERQ_ASSERT_OK(table.SetPartitioning(RangeOnK({Value::Int(10)})));
  auto snap = table.partition_snapshot();
  ASSERT_NE(snap, nullptr);
  const Schema& schema = table.schema();

  // Partition 0 holds k in [0, 10): k >= 50 is refuted there but not in
  // partition 1... (not there either: its max is 19). k <= 5 survives 0.
  Conjunction high = IntervalOnT("k", ValueInterval::GreaterThan(
                                          Value::Int(50), true));
  EXPECT_TRUE(ZoneMapsRefute(snap->partitions[0], schema, "t", high));
  EXPECT_TRUE(ZoneMapsRefute(snap->partitions[1], schema, "t", high));

  Conjunction low =
      IntervalOnT("k", ValueInterval::LessThan(Value::Int(5), true));
  EXPECT_FALSE(ZoneMapsRefute(snap->partitions[0], schema, "t", low));
  EXPECT_TRUE(ZoneMapsRefute(snap->partitions[1], schema, "t", low));

  // A different relation's terms prove nothing about this table.
  Conjunction other = Conjunction::Make({PrimitiveTerm::MakeInterval(
      ColumnId::Make("u", "k"),
      ValueInterval::GreaterThan(Value::Int(50), true))});
  EXPECT_FALSE(ZoneMapsRefute(snap->partitions[0], schema, "t", other));
}

TEST(ZoneMapRefute, CompleteDistinctSummary) {
  Table table("t", TwoColSchema());
  // v takes only the values {0, 100} — few enough for a complete summary.
  for (int64_t i = 0; i < 10; ++i) {
    table.AppendUnchecked({Value::Int(i), Value::Int(i % 2 == 0 ? 0 : 100)});
  }
  ERQ_ASSERT_OK(table.SetPartitioning(RangeOnK({Value::Int(5)})));
  auto snap = table.partition_snapshot();
  ASSERT_NE(snap, nullptr);

  // [40, 60] lies inside [min, max] = [0, 100] but contains no member of
  // the (complete) distinct set: refuted only thanks to the summary.
  Conjunction middle = IntervalOnT(
      "v", ValueInterval::Range(Value::Int(40), true, Value::Int(60), true));
  EXPECT_TRUE(
      ZoneMapsRefute(snap->partitions[0], table.schema(), "t", middle));

  Conjunction hits = IntervalOnT(
      "v", ValueInterval::Range(Value::Int(90), true, Value::Int(110), true));
  EXPECT_FALSE(
      ZoneMapsRefute(snap->partitions[0], table.schema(), "t", hits));
}

TEST(ZoneMapRefute, AllNullColumnRefutesComparisons) {
  Table table("t", TwoColSchema());
  for (int64_t i = 0; i < 4; ++i) {
    table.AppendUnchecked({Value::Int(i), Value::Null()});
  }
  ERQ_ASSERT_OK(table.SetPartitioning(RangeOnK({})));
  auto snap = table.partition_snapshot();
  ASSERT_NE(snap, nullptr);

  // Comparisons need a non-NULL value; a column with none refutes both
  // interval and not-equal terms.
  Conjunction iv =
      IntervalOnT("v", ValueInterval::GreaterThan(Value::Int(0), true));
  EXPECT_TRUE(ZoneMapsRefute(snap->partitions[0], table.schema(), "t", iv));
  Conjunction ne = Conjunction::Make({PrimitiveTerm::MakeNotEqual(
      ColumnId::Make("t", "v"), Value::Int(1))});
  EXPECT_TRUE(ZoneMapsRefute(snap->partitions[0], table.schema(), "t", ne));
}

TEST(ZoneMapRefute, EstimateSurvivorsTallies) {
  Table table("t", TwoColSchema());
  for (int64_t i = 0; i < 30; ++i) {
    table.AppendUnchecked({Value::Int(i), Value::Int(i)});
  }
  ERQ_ASSERT_OK(
      table.SetPartitioning(RangeOnK({Value::Int(10), Value::Int(20)})));
  auto snap = table.partition_snapshot();
  ASSERT_NE(snap, nullptr);

  Conjunction low =
      IntervalOnT("k", ValueInterval::LessThan(Value::Int(10), false));
  PartitionSurvivorEstimate est =
      EstimateSurvivors(*snap, table.schema(), "t", low);
  EXPECT_EQ(est.surviving_partitions, 1u);
  EXPECT_EQ(est.pruned_partitions, 2u);
  EXPECT_EQ(est.surviving_rows, 10u);
}

}  // namespace
}  // namespace erq
