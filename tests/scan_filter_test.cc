// Filter-over-TableScan evaluates its predicate against the stored rows in
// place. This seeded differential test draws random predicates and runs
// them over an unpartitioned table and over 16-way partitioned copies of
// it, checking result rows and order against a direct loop over
// Table::rows(), the per-node and registry row counts against the zone
// map survivor tally, and harvest delivery under the row cap.

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "stats/partition_stats.h"
#include "test_util.h"

namespace erq {
namespace {

constexpr int kRows = 400;

const PhysicalOperator* FindOp(const PhysicalOperator& op, PhysOpKind kind) {
  if (op.kind == kind) return &op;
  for (const PhysOpPtr& c : op.children) {
    if (const PhysicalOperator* found = FindOp(*c, kind)) return found;
  }
  return nullptr;
}

/// t(k INT, d DOUBLE, s STRING, p INT, v INT) with NULLs in k, d and s.
/// p is a permutation of the row positions, so range partitions on p
/// interleave in row order and a pruned scan must merge their row ids.
/// `bounds` (range bounds on p) empty leaves the table unpartitioned.
void BuildT(Catalog* catalog, const std::vector<int64_t>& bounds) {
  auto table = catalog->CreateTable(
      "t", Schema({{"k", DataType::kInt64},
                   {"d", DataType::kDouble},
                   {"s", DataType::kString},
                   {"p", DataType::kInt64},
                   {"v", DataType::kInt64}}));
  ASSERT_TRUE(table.ok());
  std::mt19937_64 rng(3);
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const char* words[] = {"apple", "apricot", "banana", "blueberry",
                         "cherry", "cranberry", "date", "fig"};
  for (int64_t i = 0; i < kRows; ++i) {
    auto maybe_null = [&](Value v) { return pick(0, 9) == 0 ? Value() : v; };
    Value k = maybe_null(Value::Int(pick(0, 30)));
    Value d = maybe_null(Value::Double(pick(0, 60) / 2.0));
    Value s = maybe_null(Value::String(words[pick(0, 7)]));
    (*table)->AppendUnchecked(
        {k, d, s, Value::Int(i * 37 % kRows), Value::Int(i)});
  }
  if (bounds.empty()) return;
  PartitionScheme scheme;
  scheme.kind = PartitionScheme::Kind::kRange;
  scheme.key_column = "p";
  for (int64_t b : bounds) scheme.range_bounds.push_back(Value::Int(b));
  ERQ_ASSERT_OK(catalog->SetPartitioning("t", std::move(scheme)));
}

/// Draws random predicates over t: comparisons against INT, DOUBLE and
/// NULL literals, column-to-column and arithmetic comparisons (which the
/// evaluator computes through EvalScalar), BETWEEN, IN, LIKE and IS NULL,
/// combined under AND, OR and NOT.
class PredicateGen {
 public:
  explicit PredicateGen(uint64_t seed) : rng_(seed) {}

  std::string Predicate(int depth = 0) {
    if (depth < 2) {
      switch (Uniform(0, 5)) {
        case 0:
          return "(" + Predicate(depth + 1) + " and " + Predicate(depth + 1) +
                 ")";
        case 1:
          return "(" + Predicate(depth + 1) + " or " + Predicate(depth + 1) +
                 ")";
        case 2:
          return "not (" + Predicate(depth + 1) + ")";
        default:
          break;
      }
    }
    return Atom();
  }

 private:
  int Uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  std::string NumCol() {
    const char* cols[] = {"k", "d", "p", "v"};
    return cols[Uniform(0, 3)];
  }

  /// An INT, DOUBLE or (rarely) NULL literal near `col`'s domain.
  std::string Literal(const std::string& col) {
    if (Uniform(0, 11) == 0) return "null";
    int hi = col == "p" || col == "v" ? kRows + 20 : 34;
    int whole = Uniform(-4, hi);
    switch (Uniform(0, 2)) {
      case 0:
        return std::to_string(whole);
      case 1:
        return std::to_string(whole) + ".5";
      default:
        return std::to_string(whole) + ".0";
    }
  }

  std::string Op() {
    const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
    return ops[Uniform(0, 5)];
  }

  std::string Atom() {
    std::string col = NumCol();
    switch (Uniform(0, 8)) {
      case 0:
        return Literal(col) + " " + Op() + " " + col;
      case 1:
        return col + " " + Op() + " " + NumCol();
      case 2: {
        const char* arith[] = {"k + 1", "p * 2", "d - 1", "v / 4"};
        return std::string(arith[Uniform(0, 3)]) + " " + Op() + " " +
               (Uniform(0, 1) ? Literal(col) : NumCol());
      }
      case 3:
        return col + (Uniform(0, 3) == 0 ? " not" : "") + " between " +
               Literal(col) + " and " + Literal(col);
      case 4: {
        std::string out = col + (Uniform(0, 3) == 0 ? " not" : "") + " in (";
        int n = Uniform(1, 4);
        for (int i = 0; i < n; ++i) out += (i > 0 ? ", " : "") + Literal(col);
        return out + ")";
      }
      case 5: {
        const char* patterns[] = {"'a%'", "'b%rry'", "'%an%'", "'_ate'",
                                  "'cherry'", "'%'"};
        return std::string("s") + (Uniform(0, 3) == 0 ? " not" : "") +
               " like " + patterns[Uniform(0, 5)];
      }
      case 6:
        return (Uniform(0, 1) ? "s" : col) +
               (Uniform(0, 1) ? " is null" : " is not null");
      default:
        return col + " " + Op() + " " + Literal(col);
    }
  }

  std::mt19937_64 rng_;
};

/// One database under test: t, optionally partitioned.
struct Db {
  explicit Db(const std::vector<int64_t>& bounds) {
    BuildT(&catalog, bounds);
    EXPECT_TRUE(stats.AnalyzeAll(catalog).ok());
    table = catalog.GetTable("t").value();
  }

  Catalog catalog;
  StatsCatalog stats;
  Table* table = nullptr;
};

/// Queries per pruning outcome and result size, for coverage accounting.
struct Coverage {
  size_t no_condition = 0;
  size_t none = 0;        // no partition refuted
  size_t only_empty = 0;  // only the partitions holding no row
  size_t some = 0;        // some partitions holding rows
  size_t all = 0;         // every partition
  size_t nonempty = 0;    // queries with a non-empty result
  size_t over_cap = 0;    // queries whose result exceeds the harvest cap
};

/// Runs `sql` on `db` and checks rows, order and counters; `harvest_cap`
/// bounds the harvest buffer.
void CheckScan(Db* db, const std::string& sql, bool prune, size_t harvest_cap,
               Coverage* coverage) {
  SCOPED_TRACE(sql);
  ERQ_ASSERT_OK_AND_ASSIGN(PhysOpPtr plan,
                           erq::testing::PreparePlan(&db->catalog, &db->stats,
                                                     sql));
  const PhysicalOperator* filter = FindOp(*plan, PhysOpKind::kFilter);
  const PhysicalOperator* scan = FindOp(*plan, PhysOpKind::kTableScan);
  ASSERT_NE(filter, nullptr) << plan->ToString();
  ASSERT_NE(scan, nullptr) << plan->ToString();
  ASSERT_EQ(filter->children[0].get(), scan) << plan->ToString();

  // The reference: the predicate over every stored row, in row order.
  std::vector<Row> want;
  for (const Row& row : db->table->rows()) {
    ERQ_ASSERT_OK_AND_ASSIGN(bool pass,
                             PredicatePasses(*filter->predicate, row));
    if (pass) want.push_back(row);
  }

  std::vector<HarvestedIntermediate> harvest;
  ExecOptions options;
  options.prune_partitions = prune;
  options.harvest = &harvest;
  options.harvest_max_rows = harvest_cap;
  Counter* scanned_counter =
      MetricsRegistry::Global().GetCounter("erq.exec.rows_scanned");
  const uint64_t scanned_before = scanned_counter->Value();
  ERQ_ASSERT_OK_AND_ASSIGN(ExecutionResult got, Executor::Run(plan, options));
  ASSERT_EQ(got.rows, want);

  // The scan visits the rows of every partition the zone maps could not
  // refute, or the whole table when it does not prune.
  std::shared_ptr<const PartitionSnapshot> snapshot =
      db->table->partition_snapshot();
  int64_t visited = static_cast<int64_t>(db->table->num_rows());
  if (prune && snapshot != nullptr && scan->has_scan_condition) {
    PartitionSurvivorEstimate est = EstimateSurvivors(
        *snapshot, db->table->schema(), "t", scan->scan_condition);
    EXPECT_EQ(scan->partitions_scanned,
              static_cast<int64_t>(est.surviving_partitions));
    EXPECT_EQ(scan->partitions_pruned,
              static_cast<int64_t>(est.pruned_partitions));
    visited = static_cast<int64_t>(est.surviving_rows);
    size_t empty = 0;
    for (const PartitionState& part : snapshot->partitions) {
      if (part.row_count() == 0) ++empty;
    }
    if (est.surviving_partitions == 0) {
      ++coverage->all;
    } else if (est.pruned_partitions == 0) {
      ++coverage->none;
    } else if (est.pruned_partitions == empty) {
      ++coverage->only_empty;
    } else {
      ++coverage->some;
    }
  } else {
    EXPECT_EQ(scan->partitions_scanned, -1);
    EXPECT_EQ(scan->partitions_pruned, -1);
    ++coverage->no_condition;
  }
  EXPECT_EQ(scan->actual_rows, visited);
  EXPECT_EQ(filter->actual_rows, static_cast<int64_t>(want.size()));
  EXPECT_EQ(scanned_counter->Value() - scanned_before,
            static_cast<uint64_t>(visited));

  // Harvest delivers the Filter's complete output, or nothing over the cap.
  if (want.size() <= harvest_cap) {
    ASSERT_EQ(harvest.size(), 1u);
    EXPECT_EQ(harvest[0].node.get(), filter);
    EXPECT_EQ(*harvest[0].rows, want);
  } else {
    EXPECT_TRUE(harvest.empty());
    ++coverage->over_cap;
  }
  if (!want.empty()) ++coverage->nonempty;
}

TEST(ScanFilterTest, MatchesDirectLoopOverRows) {
  Db flat({});
  // 16 partitions of 25 rows each.
  std::vector<int64_t> dense_bounds;
  for (int64_t b = 25; b < kRows; b += 25) dense_bounds.push_back(b);
  Db dense(dense_bounds);
  // 16 partitions, two of them empty (below -10 and from 1000 on).
  std::vector<int64_t> sparse_bounds = {-10};
  for (int64_t b = 25; b <= 325; b += 25) sparse_bounds.push_back(b);
  sparse_bounds.push_back(1000);
  Db sparse(sparse_bounds);
  ASSERT_EQ(dense.table->partition_snapshot()->partitions.size(), 16u);
  ASSERT_EQ(sparse.table->partition_snapshot()->partitions.size(), 16u);

  PredicateGen gen(/*seed=*/25);
  Coverage flat_cov, dense_cov, sparse_cov, unpruned_cov;
  for (int q = 0; q < 300; ++q) {
    std::string sql = "select * from t where " + gen.Predicate();
    const size_t cap = q % 2 == 0 ? 40 : kRows;
    CheckScan(&flat, sql, true, cap, &flat_cov);
    CheckScan(&dense, sql, true, cap, &dense_cov);
    CheckScan(&dense, sql, false, cap, &unpruned_cov);
    CheckScan(&sparse, sql, true, cap, &sparse_cov);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The draw exercises every pruning outcome.
  EXPECT_EQ(flat_cov.no_condition, 300u);
  EXPECT_EQ(unpruned_cov.no_condition, 300u);
  EXPECT_GT(dense_cov.none, 10u);
  EXPECT_GT(dense_cov.some, 10u);
  EXPECT_GT(dense_cov.all, 10u);
  EXPECT_GT(dense_cov.no_condition, 10u);
  EXPECT_GT(sparse_cov.only_empty, 10u);
  EXPECT_GT(sparse_cov.some, 10u);
  EXPECT_GT(sparse_cov.all, 10u);
  // ... and both empty and non-empty results, over and under the cap.
  EXPECT_GT(flat_cov.nonempty, 60u);
  EXPECT_LT(flat_cov.nonempty, 240u);
  EXPECT_GT(flat_cov.over_cap, 30u);
}

TEST(ScanFilterTest, IncomparableCompareIsBindError) {
  std::vector<int64_t> bounds;
  for (int64_t b = 25; b < kRows; b += 25) bounds.push_back(b);
  Db flat({});
  Db dense(bounds);
  using namespace erq::eb;  // NOLINT
  const ExprPtr s = Expr::MakeBoundColumnRef("t", "s", 2);
  const ExprPtr k = Expr::MakeBoundColumnRef("t", "k", 0);
  const std::string string_int = "BindError: cannot compare STRING with INT";
  const std::vector<std::pair<ExprPtr, std::string>> preds = {
      {Lt(s, Int(5)), string_int},
      {Gt(Int(5), s), "BindError: cannot compare INT with STRING"},
      {Or({Eq(k, Int(3)), Eq(s, Int(5))}), string_int},
      {Between(s, Int(1), Int(9)), string_int},
      {In(s, {Str("fig"), Int(5)}), string_int}};
  for (Db* db : {&flat, &dense}) {
    // The binder rejects the comparison before any plan runs...
    StatusOr<PhysOpPtr> rejected = erq::testing::PreparePlan(
        &db->catalog, &db->stats, "select * from t where s < 5");
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().ToString(),
              "BindError: cannot compare STRING with INT in (t.s < 5)");
    // ... and the scan surfaces the evaluator's error when one reaches it.
    for (const auto& [pred, want] : preds) {
      ERQ_ASSERT_OK_AND_ASSIGN(
          PhysOpPtr plan,
          erq::testing::PreparePlan(&db->catalog, &db->stats,
                                    "select * from t where k >= 0"));
      PhysicalOperator* filter = plan.get();
      while (filter->kind != PhysOpKind::kFilter) {
        ASSERT_FALSE(filter->children.empty()) << plan->ToString();
        filter = filter->children[0].get();
      }
      filter->predicate = pred;
      ExecOptions options;
      options.prune_partitions = true;
      StatusOr<ExecutionResult> r = Executor::Run(plan, options);
      ASSERT_FALSE(r.ok()) << pred->ToString();
      EXPECT_EQ(r.status().ToString(), want);
    }
  }
}

}  // namespace
}  // namespace erq
