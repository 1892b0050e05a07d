// Randomized property suites for the soundness guarantees the paper's
// method depends on:
//   1. NO FALSE POSITIVES: whenever the detector claims a query is empty,
//      executing it really produces zero rows (Theorems 1-3 end to end).
//   2. Coverage soundness: Covers(p, q) implies "q true => p true" on
//      every concrete row.
//   3. Cache-vs-bruteforce equivalence: CaqpCache::CoveredBy agrees with a
//      linear scan over all stored parts, and the stored parts agree with
//      a model of the insert rule.

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

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

// Canonical relation sets: repeated occurrences are numbered from the
// first ("r", "r#2"), as decomposition names them, so occurrence
// remapping is exercised.
const std::vector<std::vector<std::string>>& RelationSets() {
  static const std::vector<std::vector<std::string>> sets = {
      {"r"}, {"s"}, {"r", "s"}, {"r", "r#2"}, {"r", "r#2", "s"}};
  return sets;
}

// A random part drawing every term shape: points, one- and two-sided
// ranges (two-sided ones may be inverted), `!=`, col-col and opaque terms.
// Values come from a small domain, a quarter of them as DOUBLE, so points
// collide, ranges nest and INT 3 meets DOUBLE 3.0.
AtomicQueryPart RandomCachePart(std::mt19937_64& rng) {
  const std::vector<std::string>& names =
      RelationSets()[rng() % RelationSets().size()];
  auto relation = [&]() { return names[rng() % names.size()]; };
  auto column = [&]() {
    return ColumnId::Make(relation(), rng() % 2 == 0 ? "x" : "y");
  };
  auto value = [&]() {
    const auto v = static_cast<int64_t>(rng() % 6);
    return rng() % 4 == 0 ? Value::Double(static_cast<double>(v))
                          : Value::Int(v);
  };
  static const CompareOp kOps[] = {CompareOp::kLt, CompareOp::kLe,
                                   CompareOp::kEq, CompareOp::kNe};
  std::vector<PrimitiveTerm> terms;
  const size_t n = 1 + rng() % 3;
  for (size_t i = 0; i < n; ++i) {
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
        terms.push_back(
            PrimitiveTerm::MakeInterval(column(), ValueInterval::Point(value())));
        break;
      case 3:
        terms.push_back(PrimitiveTerm::MakeInterval(
            column(), rng() % 2 == 0
                          ? ValueInterval::LessThan(value(), rng() % 2 == 0)
                          : ValueInterval::GreaterThan(value(), rng() % 2 == 0)));
        break;
      case 4: {
        Value lo = value();
        Value hi = value();
        terms.push_back(PrimitiveTerm::MakeInterval(
            column(), ValueInterval::Range(std::move(lo), rng() % 2 == 0,
                                           std::move(hi), rng() % 2 == 0)));
        break;
      }
      case 5:
        terms.push_back(PrimitiveTerm::MakeNotEqual(column(), value()));
        break;
      case 6:
        terms.push_back(
            PrimitiveTerm::MakeColCol(column(), kOps[rng() % 4], column()));
        break;
      default:
        terms.push_back(PrimitiveTerm::MakeOpaque(Expr::MakeIsNull(
            Expr::MakeColumnRef(relation(), "z"), rng() % 2 == 0)));
        break;
    }
  }
  return AtomicQueryPart(RelationSet(names),
                         Conjunction::Make(std::move(terms)));
}

bool BruteCovered(const std::vector<AtomicQueryPart>& parts,
                  const AtomicQueryPart& q) {
  for (const AtomicQueryPart& s : parts) {
    if (s.Covers(q)) return true;
  }
  return false;
}

// The insert rule without capacity: skip a part something covers, else
// drop every stored part it covers and store it.
void ModelInsert(std::vector<AtomicQueryPart>* model,
                 const AtomicQueryPart& p) {
  if (BruteCovered(*model, p)) return;
  model->erase(std::remove_if(model->begin(), model->end(),
                              [&](const AtomicQueryPart& m) {
                                return p.Covers(m);
                              }),
               model->end());
  model->push_back(p);
}

// Multiset equality under AtomicQueryPart::Equals.
bool SameParts(std::vector<AtomicQueryPart> a,
               const std::vector<AtomicQueryPart>& b) {
  if (a.size() != b.size()) return false;
  for (const AtomicQueryPart& part : b) {
    auto it = std::find_if(a.begin(), a.end(), [&](const AtomicQueryPart& x) {
      return x.Equals(part);
    });
    if (it == a.end()) return false;
    a.erase(it);
  }
  return true;
}

// A stateful run of inserts, invalidations and DropIf sweeps. After every
// step CoveredBy must agree with a scan of the cache's own Snapshot(); in
// the large-capacity phase Snapshot() must also equal the model of the
// insert rule, and in the small-capacity phase eviction runs constantly.
TEST_P(CacheEquivalenceTest, CoveredByMatchesLinearScan) {
  std::mt19937_64 rng(GetParam());
  for (size_t n_max : {size_t{100000}, size_t{12}}) {
    const bool modeled = n_max > 1000;
    CaqpCache cache(n_max);
    std::vector<AtomicQueryPart> model;
    for (int step = 0; step < 400; ++step) {
      const uint64_t action = rng() % 20;
      std::string what;
      if (action < 16) {
        AtomicQueryPart p = RandomCachePart(rng);
        what = "insert " + p.ToString();
        cache.Insert(p);
        if (modeled) ModelInsert(&model, p);
      } else if (action < 18) {
        const std::string base = rng() % 2 == 0 ? "r" : "s";
        what = "invalidate " + base;
        cache.InvalidateRelation(base);
        auto mentions = [&](const AtomicQueryPart& m) {
          for (const std::string& name : m.relations().names()) {
            if (name == base || name.rfind(base + "#", 0) == 0) return true;
          }
          return false;
        };
        model.erase(std::remove_if(model.begin(), model.end(), mentions),
                    model.end());
      } else {
        const size_t terms = 1 + rng() % 3;
        what = "drop parts of " + std::to_string(terms) + " terms";
        auto pred = [terms](const AtomicQueryPart& m) {
          return m.condition().size() == terms;
        };
        cache.DropIf(pred);
        model.erase(std::remove_if(model.begin(), model.end(), pred),
                    model.end());
      }
      std::vector<AtomicQueryPart> snapshot = cache.Snapshot();
      ASSERT_LE(snapshot.size(), n_max);
      // One copy of the state: the count, the published parts and the
      // entry table agree after every mutation.
      ASSERT_EQ(cache.size(), snapshot.size()) << "step " << step;
      std::set<std::string> relation_sets;
      for (const AtomicQueryPart& m : snapshot) {
        relation_sets.insert(m.relations().Key());
      }
      ASSERT_EQ(cache.stats_snapshot().entries_live, relation_sets.size())
          << "step " << step << " after " << what;
      if (modeled) {
        ASSERT_TRUE(SameParts(snapshot, model))
            << "step " << step << " after " << what << ": cache holds "
            << snapshot.size() << " parts, model " << model.size();
      }
      for (int probe = 0; probe < 4; ++probe) {
        AtomicQueryPart q = RandomCachePart(rng);
        ASSERT_EQ(cache.CoveredBy(q), BruteCovered(snapshot, q))
            << "step " << step << " after " << what << ": " << q.ToString();
      }
    }
    if (!modeled) {
      EXPECT_GT(cache.stats_snapshot().evictions, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheEquivalenceTest,
                         ::testing::Values(3, 6, 9, 12));

}  // namespace
}  // namespace erq
