// Multi-range index scans: an OR or IN list of sargable predicates on one
// indexed column is served by one IndexScan over several key ranges. These
// tests check that such a scan returns exactly the rows, in exactly the
// order, of the table scan + Filter it replaces, and that harvesting an
// executed multi-range plan records the same atomic query parts as
// harvesting the table-scan plan.

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/detector.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "types/date.h"
#include "workload/query_gen.h"

namespace erq {
namespace {

using erq::testing::FixtureDb;

bool HasIndexScan(const PhysicalOperator& op) {
  if (op.kind == PhysOpKind::kIndexScan) return true;
  for (const PhysOpPtr& c : op.children) {
    if (HasIndexScan(*c)) return true;
  }
  return false;
}

StatusOr<PhysOpPtr> Prepare(Catalog* catalog, StatsCatalog* stats,
                            const std::string& sql, bool index_scans) {
  OptimizerOptions options;
  options.enable_index_scan = index_scans;
  return erq::testing::PreparePlan(catalog, stats, sql, options);
}

/// Draws random OR / IN predicates over T(k INT, d DOUBLE, dt DATE, v INT)
/// whose indexed columns k, d and dt hold NULLs and repeated keys.
class PredicateGen {
 public:
  PredicateGen(uint64_t seed, int32_t first_day) : rng_(seed), day0_(first_day) {}

  /// An OR of 2–4 sargable disjuncts or an IN list of 1–5 items, all on one
  /// column, sometimes conjoined with a residual on the unindexed `v`.
  std::string Predicate() {
    const char* cols[] = {"k", "d", "dt"};
    std::string col = cols[Uniform(0, 2)];
    std::string pred;
    if (Uniform(0, 2) == 0) {
      pred = InList(col);
    } else {
      int n = Uniform(2, 4);
      pred = "(";
      for (int i = 0; i < n; ++i) {
        if (i > 0) pred += " or ";
        pred += Disjunct(col);
      }
      pred += ")";
    }
    if (Uniform(0, 3) == 0) pred += " and v < " + std::to_string(Uniform(50, 250));
    return pred;
  }

 private:
  int Uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  /// A literal for `col`: INT or DOUBLE for the numeric columns (so INT
  /// keys meet DOUBLE bounds and vice versa), a DATE for dt.
  std::string Literal(const std::string& col) {
    if (col == "dt") {
      return "DATE '" + DateToString(day0_ + Uniform(-2, 42)) + "'";
    }
    int whole = Uniform(-2, 32);
    switch (Uniform(0, 2)) {
      case 0:
        return std::to_string(whole);
      case 1:
        return std::to_string(whole) + ".5";
      default:
        return std::to_string(whole) + ".0";
    }
  }

  std::string InList(const std::string& col) {
    int n = Uniform(1, 5);
    std::vector<std::string> items;
    for (int i = 0; i < n; ++i) {
      // Repeat an earlier item now and then.
      if (!items.empty() && Uniform(0, 3) == 0) {
        items.push_back(items[static_cast<size_t>(
            Uniform(0, static_cast<int>(items.size()) - 1))]);
      } else {
        items.push_back(Literal(col));
      }
    }
    std::string out = col + " in (";
    for (size_t i = 0; i < items.size(); ++i) {
      out += (i > 0 ? ", " : "") + items[i];
    }
    return out + ")";
  }

  std::string Disjunct(const std::string& col) {
    const char* ops[] = {"=", "<", "<=", ">", ">="};
    switch (Uniform(0, 4)) {
      case 0:
        return col + " " + ops[Uniform(0, 4)] + " " + Literal(col);
      case 1:
        return Literal(col) + " " + ops[Uniform(0, 4)] + " " + col;
      case 2:
        return col + " between " + Literal(col) + " and " + Literal(col);
      case 3:
        return InList(col);
      default:
        return col + " = " + Literal(col);
    }
  }

  std::mt19937_64 rng_;
  int32_t day0_;
};

TEST(MultiRangeScanTest, MatchesTableScanRowsAndOrder) {
  Catalog catalog;
  ERQ_ASSERT_OK_AND_ASSIGN(
      Table * t, catalog.CreateTable("T", Schema({{"k", DataType::kInt64},
                                                  {"d", DataType::kDouble},
                                                  {"dt", DataType::kDate},
                                                  {"v", DataType::kInt64}})));
  ERQ_ASSERT_OK_AND_ASSIGN(int32_t day0, DateFromYmd(1995, 3, 1));
  std::mt19937_64 rng(20);
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (int64_t i = 0; i < 300; ++i) {
    Value k = pick(0, 9) == 0 ? Value::Null() : Value::Int(pick(0, 30));
    Value d = pick(0, 9) == 0 ? Value::Null() : Value::Double(pick(0, 60) / 2.0);
    Value dt = pick(0, 9) == 0 ? Value::Null() : Value::Date(day0 + pick(0, 40));
    t->AppendUnchecked({k, d, dt, Value::Int(i)});
  }
  for (const char* col : {"k", "d", "dt"}) {
    ASSERT_TRUE(catalog.CreateIndex("T", col).ok());
  }
  StatsCatalog stats;
  ERQ_ASSERT_OK(stats.AnalyzeAll(catalog));

  PredicateGen gen(/*seed=*/7, day0);
  size_t nonempty = 0;
  size_t index_plans = 0;
  for (int q = 0; q < 400; ++q) {
    std::string sql = "select * from T where " + gen.Predicate();
    ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr indexed,
                             Prepare(&catalog, &stats, sql, true));
    ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr scanned,
                             Prepare(&catalog, &stats, sql, false));
    // The index serves the predicate exactly when that is cheaper than
    // filtering the whole table.
    const bool cheaper = indexed->estimated_cost < scanned->estimated_cost;
    ASSERT_EQ(HasIndexScan(*indexed), cheaper)
        << sql << "\n" << indexed->ToString();
    if (cheaper) ++index_plans;
    ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult got, Executor::Run(indexed));
    ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult want, Executor::Run(scanned));
    ASSERT_EQ(got.rows.size(), want.rows.size()) << sql;
    for (size_t i = 0; i < got.rows.size(); ++i) {
      ASSERT_EQ(got.rows[i], want.rows[i]) << sql << " row " << i;
    }
    if (!got.rows.empty()) ++nonempty;
  }
  // The draw must exercise both outcomes, and both access paths.
  EXPECT_GT(nonempty, 100u);
  EXPECT_LT(nonempty, 400u);
  EXPECT_GT(index_plans, 100u);
  EXPECT_LT(index_plans, 400u);
}

TEST(MultiRangeScanTest, OverlappingRangesEmitEachRowOnce) {
  FixtureDb db;
  ASSERT_TRUE(db.catalog().CreateIndex("A", "a").ok());
  ERQ_ASSERT_OK_AND_ASSIGN(
      ExecutionResult result,
      db.Run("select a from A where a < 13 or a between 11 and 14 or "
             "a in (12, 12, 19)"));
  std::vector<int64_t> got;
  for (const Row& row : result.rows) got.push_back(row[0].AsInt());
  EXPECT_EQ(got, (std::vector<int64_t>{10, 11, 12, 13, 14, 19}));
}

class MultiRangeParityTest : public ::testing::Test {
 protected:
  MultiRangeParityTest() {
    TpcrConfig config;
    config.customers_per_unit = 100;
    config.seed = 11;
    auto inst = BuildTpcr(&catalog_, config);
    EXPECT_TRUE(inst.ok());
    instance_ = *inst;
    EXPECT_TRUE(BuildTpcrIndexes(&catalog_).ok());
    EXPECT_TRUE(stats_.AnalyzeAll(catalog_).ok());
  }

  /// Executes `sql` with or without index scans, harvests it into a fresh
  /// detector if empty, and returns the recorded parts, sorted.
  std::vector<std::string> Harvest(const std::string& sql, bool index_scans,
                                   bool* used_multi_range) {
    std::vector<std::string> parts;
    auto plan = Prepare(&catalog_, &stats_, sql, index_scans);
    EXPECT_TRUE(plan.ok()) << plan.status();
    if (!plan.ok()) return parts;
    auto result = Executor::Run(*plan);
    EXPECT_TRUE(result.ok()) << result.status();
    if (!result.ok() || !result->rows.empty()) return parts;
    if (used_multi_range != nullptr) {
      *used_multi_range = (*plan)->ToString().find("ranges)") !=
                          std::string::npos;
    }
    EmptyResultDetector detector{EmptyResultConfig{}};
    detector.RecordEmpty(*plan);
    for (const AtomicQueryPart& part : detector.cache().Snapshot()) {
      parts.push_back(part.ToString());
    }
    std::sort(parts.begin(), parts.end());
    return parts;
  }

  Catalog catalog_;
  StatsCatalog stats_;
  TpcrInstance instance_;
};

TEST_F(MultiRangeParityTest, RecordEmptyYieldsTableScanParts) {
  QueryGenerator gen(&instance_, 9);
  std::vector<std::string> queries;
  for (size_t e = 2; e <= 3; ++e) {
    for (size_t f = 1; f <= 2; ++f) {
      queries.push_back(gen.GenerateQ1(e, f, /*want_empty=*/true).ToSql());
      queries.push_back(gen.GenerateQ2(e, f, 2, /*want_empty=*/true).ToSql());
    }
  }
  // Selections that are empty on their own: dates before the data starts.
  const std::string early0 =
      "DATE '" + DateToString(instance_.first_date - 3) + "'";
  const std::string early1 =
      "DATE '" + DateToString(instance_.first_date - 9) + "'";
  queries.push_back("select * from orders o where o.orderdate = " + early0 +
                    " or o.orderdate = " + early1);
  // Non-empty ranges under an empty residual Filter: T3 must put the
  // whole IN list back beside the residual.
  queries.push_back("select * from orders o where o.orderdate in (DATE '" +
                    DateToString(instance_.present_dates[0]) + "', DATE '" +
                    DateToString(instance_.present_dates[1]) +
                    "') and o.totalprice < 0.0");

  for (const std::string& sql : queries) {
    bool multi_range = false;
    std::vector<std::string> indexed = Harvest(sql, true, &multi_range);
    std::vector<std::string> scanned = Harvest(sql, false, nullptr);
    EXPECT_TRUE(multi_range) << sql;
    EXPECT_FALSE(indexed.empty()) << sql;
    EXPECT_EQ(indexed, scanned) << sql;
  }
}

}  // namespace
}  // namespace erq
