// Randomized property suites for the soundness guarantees the paper's
// method depends on:
//   1. NO FALSE POSITIVES: whenever the detector claims a query is empty,
//      executing it really produces zero rows (Theorems 1-3 end to end).
//   2. Coverage soundness: Covers(p, q) implies "q true => p true" on
//      every concrete row.
//   3. Cache-vs-bruteforce equivalence: CaqpCache::CoveredBy agrees with a
//      linear scan over all stored parts.

#include <random>

#include "core/manager.h"
#include "exec/executor.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace erq {
namespace {

// ---------------------------------------------------------------------
// 1. End-to-end no-false-positive property on random databases/queries.
// ---------------------------------------------------------------------

class EndToEndPropertyTest : public ::testing::TestWithParam<int> {};

std::string RandomPredicateSql(std::mt19937_64& rng, int depth,
                               bool include_u) {
  auto value = [&]() { return std::to_string(rng() % 30); };
  auto column = [&]() -> std::string {
    switch (rng() % (include_u ? 3 : 2)) {
      case 0:
        return "t.x";
      case 1:
        return "t.y";
      default:
        return "u.z";
    }
  };
  if (depth == 0 || rng() % 3 == 0) {
    switch (rng() % 5) {
      case 0:
        return column() + " = " + value();
      case 1:
        return column() + " < " + value();
      case 2:
        return column() + " > " + value();
      case 3:
        return column() + " between " + std::to_string(rng() % 15) + " and " +
               value();
      default:
        return column() + " <> " + value();
    }
  }
  std::string op = rng() % 2 == 0 ? " and " : " or ";
  std::string lhs = RandomPredicateSql(rng, depth - 1, include_u);
  std::string rhs = RandomPredicateSql(rng, depth - 1, include_u);
  std::string out = "(" + lhs + op + rhs + ")";
  if (rng() % 4 == 0) out = "not " + out;
  return out;
}

TEST_P(EndToEndPropertyTest, DetectedEmptyQueriesAreActuallyEmpty) {
  std::mt19937_64 rng(GetParam());

  // Random two-table database.
  Catalog catalog;
  auto t = catalog.CreateTable(
      "t", Schema({{"x", DataType::kInt64}, {"y", DataType::kInt64}}));
  auto u = catalog.CreateTable(
      "u", Schema({{"z", DataType::kInt64}, {"w", DataType::kInt64}}));
  ASSERT_TRUE(t.ok() && u.ok());
  size_t t_rows = 20 + rng() % 30, u_rows = 10 + rng() % 20;
  for (size_t i = 0; i < t_rows; ++i) {
    t.value()->AppendUnchecked(
        {Value::Int(static_cast<int64_t>(rng() % 25)),
         Value::Int(static_cast<int64_t>(rng() % 25))});
  }
  for (size_t i = 0; i < u_rows; ++i) {
    u.value()->AppendUnchecked(
        {Value::Int(static_cast<int64_t>(rng() % 25)),
         Value::Int(static_cast<int64_t>(rng() % 25))});
  }
  StatsCatalog stats;
  ASSERT_TRUE(stats.AnalyzeAll(catalog).ok());

  EmptyResultConfig config;
  config.c_cost = 0.0;
  EmptyResultManager manager(&catalog, &stats, config);

  size_t detected = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::string sql;
    if (rng() % 2 == 0) {
      sql = "select * from t where " +
            RandomPredicateSql(rng, 2, /*include_u=*/false);
    } else {
      sql = "select * from t, u where t.x = u.z and " +
            RandomPredicateSql(rng, 2, /*include_u=*/true);
    }
    auto outcome = manager.Query(sql);
    ASSERT_TRUE(outcome.ok()) << sql << " -> " << outcome.status();
    if (outcome->detected_empty) {
      ++detected;
      // Force execution and verify: zero tolerance for false positives.
      auto plan = manager.Prepare(sql);
      ASSERT_TRUE(plan.ok());
      auto forced = Executor::Run(*plan);
      ASSERT_TRUE(forced.ok());
      ASSERT_TRUE(forced->rows.empty()) << "FALSE POSITIVE: " << sql;
    } else if (outcome->executed) {
      ASSERT_EQ(outcome->result_empty, outcome->result_rows == 0);
    }
  }
  // With 300 random repetitive queries some detections must occur,
  // otherwise the property test is vacuous.
  EXPECT_GT(detected, 0u) << "property test never exercised detection";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEndPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------
// 2. Coverage soundness: Covers(p, q) => (q true => p true) on all rows.
// ---------------------------------------------------------------------

class CoverSoundnessTest : public ::testing::TestWithParam<int> {};

PrimitiveTerm RandomTerm(std::mt19937_64& rng) {
  ColumnId col = ColumnId::Make("t", rng() % 2 == 0 ? "x" : "y");
  switch (rng() % 4) {
    case 0:
      return PrimitiveTerm::MakeInterval(
          col, ValueInterval::Point(Value::Int(static_cast<int64_t>(rng() % 12))));
    case 1: {
      int64_t lo = static_cast<int64_t>(rng() % 12);
      int64_t hi = lo + static_cast<int64_t>(rng() % 6);
      return PrimitiveTerm::MakeInterval(
          col, ValueInterval::Range(Value::Int(lo), rng() % 2 == 0,
                                    Value::Int(hi), rng() % 2 == 0));
    }
    case 2:
      return PrimitiveTerm::MakeNotEqual(
          col, Value::Int(static_cast<int64_t>(rng() % 12)));
    default:
      return rng() % 2 == 0
                 ? PrimitiveTerm::MakeInterval(
                       col, ValueInterval::LessThan(
                                Value::Int(static_cast<int64_t>(rng() % 12)),
                                rng() % 2 == 0))
                 : PrimitiveTerm::MakeInterval(
                       col, ValueInterval::GreaterThan(
                                Value::Int(static_cast<int64_t>(rng() % 12)),
                                rng() % 2 == 0));
  }
}

// Evaluates a term on a concrete (x, y) assignment.
bool TermHolds(const PrimitiveTerm& term, int64_t x, int64_t y) {
  Value v = Value::Int(term.column().column == "x" ? x : y);
  switch (term.kind()) {
    case PrimitiveTerm::Kind::kInterval:
      return term.interval().ContainsPoint(v);
    case PrimitiveTerm::Kind::kNotEqual:
      return v != term.value();
    default:
      return false;
  }
}

TEST_P(CoverSoundnessTest, TermCoversImpliesImplication) {
  std::mt19937_64 rng(GetParam());
  for (int iter = 0; iter < 3000; ++iter) {
    PrimitiveTerm p = RandomTerm(rng);
    PrimitiveTerm q = RandomTerm(rng);
    if (!p.Covers(q)) continue;
    for (int64_t x = -1; x <= 13; ++x) {
      for (int64_t y = -1; y <= 13; ++y) {
        if (TermHolds(q, x, y)) {
          ASSERT_TRUE(TermHolds(p, x, y))
              << p.ToString() << " claimed to cover " << q.ToString()
              << " but fails at x=" << x << " y=" << y;
        }
      }
    }
  }
}

TEST_P(CoverSoundnessTest, ConjunctionCoversImpliesImplication) {
  std::mt19937_64 rng(GetParam());
  for (int iter = 0; iter < 1500; ++iter) {
    std::vector<PrimitiveTerm> p_terms, q_terms;
    size_t np = 1 + rng() % 2, nq = 1 + rng() % 3;
    for (size_t i = 0; i < np; ++i) p_terms.push_back(RandomTerm(rng));
    for (size_t i = 0; i < nq; ++i) q_terms.push_back(RandomTerm(rng));
    Conjunction p = Conjunction::Make(std::move(p_terms));
    Conjunction q = Conjunction::Make(std::move(q_terms));
    if (!p.Covers(q)) continue;
    auto holds = [](const Conjunction& c, int64_t x, int64_t y) {
      for (const PrimitiveTerm& t : c.terms()) {
        if (!TermHolds(t, x, y)) return false;
      }
      return true;
    };
    for (int64_t x = -1; x <= 13; ++x) {
      for (int64_t y = -1; y <= 13; ++y) {
        if (holds(q, x, y)) {
          ASSERT_TRUE(holds(p, x, y))
              << p.ToString() << " vs " << q.ToString() << " at (" << x
              << "," << y << ")";
        }
      }
    }
  }
}

TEST_P(CoverSoundnessTest, UnsatisfiableFlagNeverLies) {
  std::mt19937_64 rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<PrimitiveTerm> terms;
    size_t n = 1 + rng() % 4;
    for (size_t i = 0; i < n; ++i) terms.push_back(RandomTerm(rng));
    Conjunction c = Conjunction::Make(std::move(terms));
    if (!c.unsatisfiable()) continue;
    for (int64_t x = -1; x <= 13; ++x) {
      for (int64_t y = -1; y <= 13; ++y) {
        for (const PrimitiveTerm& t : c.terms()) {
          if (!TermHolds(t, x, y)) goto next_assignment;
        }
        FAIL() << "conjunction flagged unsatisfiable but holds at (" << x
               << "," << y << "): " << c.ToString();
      next_assignment:;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverSoundnessTest,
                         ::testing::Values(1, 7, 13, 19));

// ---------------------------------------------------------------------
// 3. Cache agrees with brute force.
// ---------------------------------------------------------------------

class CacheEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(CacheEquivalenceTest, CoveredByMatchesLinearScan) {
  std::mt19937_64 rng(GetParam());
  CaqpCache cache(10000);
  std::vector<AtomicQueryPart> stored;
  const char* rels[] = {"r", "s"};
  auto random_part = [&]() {
    std::vector<std::string> names;
    names.push_back(rels[rng() % 2]);
    if (rng() % 3 == 0) names.push_back(rels[(rng() % 2)]);
    std::vector<PrimitiveTerm> terms;
    size_t n = 1 + rng() % 2;
    for (size_t i = 0; i < n; ++i) {
      ColumnId col = ColumnId::Make(names[rng() % names.size()], "x");
      int64_t v = static_cast<int64_t>(rng() % 10);
      terms.push_back(rng() % 2 == 0
                          ? PrimitiveTerm::MakeInterval(
                                col, ValueInterval::Point(Value::Int(v)))
                          : PrimitiveTerm::MakeInterval(
                                col, ValueInterval::LessThan(Value::Int(v),
                                                             true)));
    }
    return AtomicQueryPart(RelationSet(names),
                           Conjunction::Make(std::move(terms)));
  };
  // Note: Insert prunes covered parts, so the reference set must mirror
  // the cache's semantics: we compare CoveredBy against a scan of the
  // cache's own snapshot instead of tracking inserts separately.
  for (int i = 0; i < 120; ++i) cache.Insert(random_part());
  for (int probe = 0; probe < 300; ++probe) {
    AtomicQueryPart q = random_part();
    std::vector<AtomicQueryPart> snapshot = cache.Snapshot();
    bool brute = false;
    for (const AtomicQueryPart& s : snapshot) {
      if (s.Covers(q)) {
        brute = true;
        break;
      }
    }
    EXPECT_EQ(cache.CoveredBy(q), brute) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheEquivalenceTest,
                         ::testing::Values(3, 6, 9, 12));

}  // namespace
}  // namespace erq
