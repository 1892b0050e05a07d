// End-to-end partition pruning through the managed pipeline: zone-map
// data skipping inside non-empty queries, C_aqp staying free of
// partition knowledge, and result parity against the partitions=1
// ablation.

#include <cstdio>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/manager.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/tpcr.h"

namespace erq {
namespace {

using ::erq::testing::FixtureDb;

// items(id, price): 100 rows, id = 0..99, range-partitioned on id into
// four 25-row partitions. Price layout per partition p, offset o = id % 25:
//   o == 0 -> 0, o == 1 -> 1000          (every partition spans [0, 1000])
//   else   -> p == 0 ? 550 : 200 + o     (only partition 0 has prices in
//                                         the [500, 600] band)
// Each partition sees 25 distinct prices, past the default distinct cap of
// 16, so the summaries overflow: zone maps can never refute a probe
// inside [0, 1000].
int64_t ItemPrice(int64_t id) {
  int64_t p = id / 25, o = id % 25;
  if (o == 0) return 0;
  if (o == 1) return 1000;
  return p == 0 ? 550 : 200 + o;
}

void BuildItems(Catalog* catalog, size_t partitions) {
  auto table = catalog->CreateTable(
      "items",
      Schema({{"id", DataType::kInt64}, {"price", DataType::kInt64}}));
  ASSERT_TRUE(table.ok());
  for (int64_t id = 0; id < 100; ++id) {
    (*table)->AppendUnchecked({Value::Int(id), Value::Int(ItemPrice(id))});
  }
  if (partitions > 1) {
    PartitionScheme scheme;
    scheme.kind = PartitionScheme::Kind::kRange;
    scheme.key_column = "id";
    scheme.range_bounds = {Value::Int(25), Value::Int(50), Value::Int(75)};
    ERQ_ASSERT_OK(catalog->SetPartitioning("items", std::move(scheme)));
  }
}

class PartitionPruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BuildItems(&catalog_, 4);
    ERQ_ASSERT_OK(stats_.AnalyzeAll(catalog_));
  }

  Catalog catalog_;
  StatsCatalog stats_;
};

TEST_F(PartitionPruningTest, ZoneMapsSkipPartitionsOfNonEmptyQuery) {
  EmptyResultManager manager(&catalog_, &stats_);
  ERQ_ASSERT_OK(manager.init_status());

  // Selective on the partitioning key: zone maps refute 3 of 4 partitions
  // even though the query itself is non-empty.
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                           manager.Query("SELECT id FROM items WHERE id < 10"));
  EXPECT_TRUE(outcome.executed);
  EXPECT_EQ(outcome.result_rows, 10u);
  EXPECT_EQ(outcome.partitions_scanned, 1u);
  EXPECT_EQ(outcome.partitions_pruned, 3u);
}

TEST_F(PartitionPruningTest, PruningDisabledScansEverything) {
  EmptyResultConfig config;
  config.partition_pruning = false;
  EmptyResultManager manager(&catalog_, &stats_, config);
  ERQ_ASSERT_OK(manager.init_status());

  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome outcome,
                           manager.Query("SELECT id FROM items WHERE id < 10"));
  EXPECT_EQ(outcome.result_rows, 10u);
  EXPECT_EQ(outcome.partitions_scanned, 0u);  // scan ran unpartitioned
  EXPECT_EQ(outcome.partitions_pruned, 0u);
}

TEST_F(PartitionPruningTest, NonEmptyQueryStoresNothing) {
  EmptyResultManager manager(&catalog_, &stats_);
  ERQ_ASSERT_OK(manager.init_status());

  // q1: mid-range price band. Zone maps cannot refute any partition (all
  // span [0, 1000] with overflowed distinct summaries), so all four are
  // scanned. Three of them hold no matching row, but q1 is non-empty, so
  // C_aqp records nothing.
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome q1,
      manager.Query(
          "SELECT id FROM items WHERE price >= 500 AND price <= 600"));
  EXPECT_EQ(q1.result_rows, 23u);  // partition 0, offsets 2..24
  EXPECT_EQ(q1.partitions_scanned, 4u);
  EXPECT_EQ(q1.partitions_pruned, 0u);
  EXPECT_EQ(manager.detector().cache().size(), 0u);

  // q2: a narrower band. Nothing was stored, so every partition is read
  // again; the result is unchanged.
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome q2,
      manager.Query(
          "SELECT id FROM items WHERE price >= 520 AND price <= 580"));
  EXPECT_EQ(q2.result_rows, 23u);
  EXPECT_EQ(q2.partitions_scanned, 4u);
  EXPECT_EQ(q2.partitions_pruned, 0u);
}

TEST_F(PartitionPruningTest, RepartitioningKeepsStoredEmptiness) {
  EmptyResultConfig config;
  config.c_cost = 0.0;  // record every empty query, however cheap
  EmptyResultManager manager(&catalog_, &stats_, config);
  ERQ_ASSERT_OK(manager.init_status());

  // No row has price 700, and no zone map can refute it, so the scan
  // runs and its emptiness is recorded.
  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome empty,
      manager.Query("SELECT id FROM items WHERE price = 700"));
  EXPECT_TRUE(empty.executed);
  EXPECT_EQ(empty.result_rows, 0u);
  const size_t stored = manager.detector().cache().size();
  ASSERT_GT(stored, 0u);

  // Repartitioning moves no row: every stored part stays true.
  PartitionScheme scheme;
  scheme.kind = PartitionScheme::Kind::kRange;
  scheme.key_column = "id";
  scheme.range_bounds = {Value::Int(50)};
  ERQ_ASSERT_OK(catalog_.SetPartitioning("items", std::move(scheme)));
  EXPECT_EQ(manager.detector().cache().size(), stored);

  ERQ_ASSERT_OK_AND_ASSIGN(
      QueryOutcome refined,
      manager.Query("SELECT id FROM items WHERE price = 700 AND id < 50"));
  EXPECT_TRUE(refined.detected_empty);
  EXPECT_FALSE(refined.executed);
}

TEST_F(PartitionPruningTest, PrunedScanReturnsIdenticalRows) {
  // Parity: the partitioned database against an identical unpartitioned
  // one, across a sweep of generated predicates on both columns. Results
  // must match exactly, including order (pruned scans merge row ids in
  // global ascending order).
  Catalog flat_catalog;
  BuildItems(&flat_catalog, 1);
  StatsCatalog flat_stats;
  ERQ_ASSERT_OK(flat_stats.AnalyzeAll(flat_catalog));

  EmptyResultManager part(&catalog_, &stats_);
  EmptyResultManager flat(&flat_catalog, &flat_stats);
  ERQ_ASSERT_OK(part.init_status());
  ERQ_ASSERT_OK(flat.init_status());

  std::vector<std::string> queries;
  for (int lo = -50; lo <= 1100; lo += 110) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "SELECT id, price FROM items WHERE id >= %d AND id < %d",
                  lo / 10, lo / 10 + 17);
    queries.push_back(buf);
    std::snprintf(
        buf, sizeof(buf),
        "SELECT id, price FROM items WHERE price >= %d AND price <= %d", lo,
        lo + 75);
    queries.push_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "SELECT id FROM items WHERE price = %d AND id < 80", lo);
    queries.push_back(buf);
  }
  queries.push_back("SELECT id FROM items WHERE id <> 50 AND id >= 40");
  queries.push_back("SELECT id, price FROM items");

  for (const std::string& sql : queries) {
    ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome with, part.Query(sql));
    ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome without, flat.Query(sql));
    ASSERT_EQ(with.result.rows.size(), without.result.rows.size()) << sql;
    for (size_t i = 0; i < with.result.rows.size(); ++i) {
      const Row& a = with.result.rows[i];
      const Row& b = without.result.rows[i];
      ASSERT_EQ(a.size(), b.size()) << sql;
      for (size_t c = 0; c < a.size(); ++c) {
        ASSERT_EQ(a[c].Compare(b[c]), 0) << sql << " row " << i;
      }
    }
  }
}

TEST(PartitionTpcr, SelectiveQuerySkipsPartitionsWithIdenticalResults) {
  // The acceptance pin: a TPC-R-shaped selective query over a partitioned
  // instance skips partitions and returns byte-identical rows to the
  // partitions=1 ablation.
  TpcrConfig config;
  config.scale = 0.2;
  config.partitions = 8;
  Catalog part_catalog;
  ERQ_ASSERT_OK_AND_ASSIGN(TpcrInstance part_inst,
                           BuildTpcr(&part_catalog, config));
  (void)part_inst;
  StatsCatalog part_stats;
  ERQ_ASSERT_OK(part_stats.AnalyzeAll(part_catalog));

  TpcrConfig flat_config = config;
  flat_config.partitions = 1;
  Catalog flat_catalog;
  ERQ_ASSERT_OK_AND_ASSIGN(TpcrInstance flat_inst,
                           BuildTpcr(&flat_catalog, flat_config));
  (void)flat_inst;
  StatsCatalog flat_stats;
  ERQ_ASSERT_OK(flat_stats.AnalyzeAll(flat_catalog));

  EmptyResultManager part(&part_catalog, &part_stats);
  EmptyResultManager flat(&flat_catalog, &flat_stats);
  ERQ_ASSERT_OK(part.init_status());
  ERQ_ASSERT_OK(flat.init_status());

  const std::string sql =
      "SELECT orderkey, totalprice FROM orders "
      "WHERE orderkey >= 100 AND orderkey < 160";
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome with, part.Query(sql));
  ERQ_ASSERT_OK_AND_ASSIGN(QueryOutcome without, flat.Query(sql));

  EXPECT_GT(with.partitions_pruned, 0u);
  EXPECT_EQ(without.partitions_pruned, 0u);
  ASSERT_EQ(with.result.rows.size(), without.result.rows.size());
  EXPECT_EQ(with.result.rows.size(), 60u);
  for (size_t i = 0; i < with.result.rows.size(); ++i) {
    const Row& a = with.result.rows[i];
    const Row& b = without.result.rows[i];
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
      ASSERT_EQ(a[c].Compare(b[c]), 0) << "row " << i;
    }
  }
}

}  // namespace
}  // namespace erq
