#pragma once

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/manager.h"
#include "exec/executor.h"
#include "gtest/gtest.h"
#include "plan/optimizer.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "stats/analyzer.h"

namespace erq::testing {

// Copy (not bind a reference): `expr` is often `.status()` of a temporary
// StatusOr, and a reference would dangle once the temporary dies.
#define ERQ_ASSERT_OK(expr)                                 \
  do {                                                      \
    const ::erq::Status _s = (expr);                        \
    ASSERT_TRUE(_s.ok()) << "status: " << _s.ToString();    \
  } while (false)

#define ERQ_EXPECT_OK(expr)                                 \
  do {                                                      \
    const ::erq::Status _s = (expr);                        \
    EXPECT_TRUE(_s.ok()) << "status: " << _s.ToString();    \
  } while (false)

#define ERQ_ASSERT_OK_AND_ASSIGN(lhs, expr)                        \
  ERQ_ASSERT_OK_AND_ASSIGN_IMPL_(                                  \
      ERQ_STATUS_CONCAT_(_erq_test_statusor, __LINE__), lhs, expr)

#define ERQ_ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, expr)                 \
  auto tmp = (expr);                                                   \
  ASSERT_TRUE(tmp.ok()) << "status: " << tmp.status().ToString();      \
  lhs = std::move(tmp).value()

/// Parses, plans and optimizes `sql` against `catalog`.
inline StatusOr<PhysOpPtr> PreparePlan(Catalog* catalog, StatsCatalog* stats,
                                       const std::string& sql,
                                       OptimizerOptions options = {}) {
  ERQ_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt, Parser::Parse(sql));
  Planner planner(catalog);
  ERQ_ASSIGN_OR_RETURN(PlannedQuery planned, planner.PlanStatement(*stmt));
  Optimizer optimizer(catalog, stats, options);
  return optimizer.Optimize(planned.root);
}

/// A small three-table fixture database:
///   A(a INT, b INT, c INT)           -- c is a join column to B.d
///   B(d INT, e INT)
///   C(f INT, g STRING)
/// used throughout the unit tests. Rows are deterministic.
class FixtureDb {
 public:
  FixtureDb() {
    auto a = catalog_.CreateTable("A", Schema({{"a", DataType::kInt64},
                                               {"b", DataType::kInt64},
                                               {"c", DataType::kInt64}}));
    auto b = catalog_.CreateTable(
        "B", Schema({{"d", DataType::kInt64}, {"e", DataType::kInt64}}));
    auto c = catalog_.CreateTable(
        "C", Schema({{"f", DataType::kInt64}, {"g", DataType::kString}}));
    EXPECT_TRUE(a.ok() && b.ok() && c.ok());
    // A: a = 10..19, b = a*10, c = a % 5
    for (int64_t i = 10; i < 20; ++i) {
      a.value()->AppendUnchecked(
          {Value::Int(i), Value::Int(i * 10), Value::Int(i % 5)});
    }
    // B: d = 0..4, e = d*d
    for (int64_t i = 0; i < 5; ++i) {
      b.value()->AppendUnchecked({Value::Int(i), Value::Int(i * i)});
    }
    // C: f = 0..2
    const char* names[] = {"zero", "one", "two"};
    for (int64_t i = 0; i < 3; ++i) {
      c.value()->AppendUnchecked({Value::Int(i), Value::String(names[i])});
    }
    EXPECT_TRUE(stats_.AnalyzeAll(catalog_).ok());
  }

  Catalog& catalog() { return catalog_; }
  StatsCatalog& stats() { return stats_; }

  /// Appends 200 rows to A (a = 100..299) and to C (f = 100..299, g =
  /// "filler"), outside every fixture value, and re-analyzes. The fixture
  /// tables are so small that scanning them costs less than one index
  /// probe; call this before CreateIndex in tests of the index path.
  void AddFillerRows() {
    Table* a = catalog_.GetTable("A").value();
    Table* c = catalog_.GetTable("C").value();
    for (int64_t i = 100; i < 300; ++i) {
      a->AppendUnchecked(
          {Value::Int(i), Value::Int(i * 10), Value::Int(i % 5)});
      c->AppendUnchecked({Value::Int(i), Value::String("filler")});
    }
    EXPECT_TRUE(stats_.AnalyzeAll(catalog_).ok());
  }

  /// Parses, plans, optimizes, executes; returns the result rows.
  StatusOr<ExecutionResult> Run(const std::string& sql,
                                OptimizerOptions options = {}) {
    ERQ_ASSIGN_OR_RETURN(PhysOpPtr physical, Prepare(sql, options));
    return Executor::Run(physical);
  }

  /// Plans and optimizes only.
  StatusOr<PhysOpPtr> Prepare(const std::string& sql,
                              OptimizerOptions options = {}) {
    return PreparePlan(&catalog_, &stats_, sql, options);
  }

  /// Logical plan only.
  StatusOr<LogicalOpPtr> Plan(const std::string& sql) {
    ERQ_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt, Parser::Parse(sql));
    Planner planner(&catalog_);
    ERQ_ASSIGN_OR_RETURN(PlannedQuery planned, planner.PlanStatement(*stmt));
    return planned.root;
  }

 private:
  Catalog catalog_;
  StatsCatalog stats_;
};

/// Sorts rows lexicographically for order-insensitive comparison.
inline std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
    for (size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
      int c = x[i].Compare(y[i]);
      if (c != 0) return c < 0;
    }
    return x.size() < y.size();
  });
  return rows;
}

}  // namespace erq::testing

