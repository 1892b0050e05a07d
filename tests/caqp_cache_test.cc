#include "core/caqp_cache.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace erq {
namespace {

AtomicQueryPart Point(const char* rel, const char* col, int64_t v) {
  return AtomicQueryPart(
      RelationSet({rel}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make(rel, col), ValueInterval::Point(Value::Int(v)))}));
}

AtomicQueryPart Range(const char* rel, const char* col, int64_t lo,
                      int64_t hi) {
  return AtomicQueryPart(
      RelationSet({rel}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make(rel, col),
          ValueInterval::Range(Value::Int(lo), true, Value::Int(hi), true))}));
}

TEST(CaqpCacheTest, InsertAndHit) {
  CaqpCache cache(100);
  cache.Insert(Point("t", "x", 5));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.CoveredBy(Point("t", "x", 5)));
  EXPECT_FALSE(cache.CoveredBy(Point("t", "x", 6)));
  EXPECT_EQ(cache.stats_snapshot().hits, 1u);
  EXPECT_EQ(cache.stats_snapshot().lookups, 2u);
}

TEST(CaqpCacheTest, CoverageAcrossGenerality) {
  CaqpCache cache(100);
  cache.Insert(Range("t", "x", 0, 100));
  // More specific queries are covered.
  EXPECT_TRUE(cache.CoveredBy(Point("t", "x", 50)));
  EXPECT_TRUE(cache.CoveredBy(Range("t", "x", 10, 20)));
  EXPECT_FALSE(cache.CoveredBy(Range("t", "x", 50, 150)));
}

TEST(CaqpCacheTest, RelationSubsetRule) {
  CaqpCache cache(100);
  // Stored: sigma over {t} alone is empty.
  cache.Insert(Point("t", "x", 5));
  // Query part over {t, u} with the same condition on t is covered.
  AtomicQueryPart joined(
      RelationSet({"t", "u"}),
      Conjunction::Make(
          {PrimitiveTerm::MakeInterval(ColumnId::Make("t", "x"),
                                       ValueInterval::Point(Value::Int(5))),
           PrimitiveTerm::MakeColCol(ColumnId::Make("t", "k"), CompareOp::kEq,
                                     ColumnId::Make("u", "k"))}));
  EXPECT_TRUE(cache.CoveredBy(joined));
  // But not the other way around.
  CaqpCache reverse(100);
  reverse.Insert(joined);
  EXPECT_FALSE(reverse.CoveredBy(Point("t", "x", 5)));
}

TEST(CaqpCacheTest, RedundantInsertSkipped) {
  CaqpCache cache(100);
  cache.Insert(Range("t", "x", 0, 100));
  cache.Insert(Point("t", "x", 50));  // covered by the range: skipped
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats_snapshot().skipped_covered, 1u);
}

TEST(CaqpCacheTest, MoreGeneralInsertDisplacesCovered) {
  CaqpCache cache(100);
  cache.Insert(Point("t", "x", 50));
  cache.Insert(Point("t", "x", 60));
  cache.Insert(Range("t", "x", 0, 100));  // covers both points
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats_snapshot().removed_covered, 2u);
  EXPECT_TRUE(cache.CoveredBy(Point("t", "x", 60)));
}

TEST(CaqpCacheTest, GeneralInsertDisplacesAcrossEntries) {
  CaqpCache cache(100);
  AtomicQueryPart joined(
      RelationSet({"t", "u"}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make("t", "x"), ValueInterval::Point(Value::Int(5)))}));
  cache.Insert(joined);
  // {t} with TRUE condition covers the {t,u} part: it should displace it.
  AtomicQueryPart table_empty(RelationSet({"t"}), Conjunction{});
  cache.Insert(table_empty);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.CoveredBy(joined));
}

TEST(CaqpCacheTest, CapacityEnforced) {
  CaqpCache cache(10);
  for (int64_t i = 0; i < 25; ++i) {
    cache.Insert(Point("t", "x", i));
  }
  EXPECT_EQ(cache.size(), 10u);
  EXPECT_GE(cache.stats_snapshot().evictions, 15u);
}

TEST(CaqpCacheTest, ClockKeepsRecentlyHitParts) {
  CaqpCache cache(4);
  for (int64_t i = 0; i < 4; ++i) cache.Insert(Point("t", "x", i));
  // Touch part 2 before every insert so its reference bit is set whenever
  // the clock hand reaches it. (Part 0 would be evicted by the very first
  // full revolution — the hand clears every bit, wraps, and takes the
  // first slot — which is standard clock behavior.)
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(cache.CoveredBy(Point("t", "x", 2))) << "round " << i;
    cache.Insert(Point("t", "x", 100 + i));  // forces eviction each time
    ASSERT_EQ(cache.size(), 4u);
  }
  EXPECT_TRUE(cache.CoveredBy(Point("t", "x", 2)))
      << "the hot part must survive clock replacement";
}

TEST(CaqpCacheTest, InvalidateRelationDropsRenamedOccurrences) {
  CaqpCache cache(100);
  cache.Insert(Point("orders", "k", 1));
  cache.Insert(Point("lineitem", "k", 2));
  AtomicQueryPart self_join(
      RelationSet({"orders", "orders#2"}),
      Conjunction::Make({PrimitiveTerm::MakeColCol(
          ColumnId::Make("orders", "k"), CompareOp::kLt,
          ColumnId::Make("orders#2", "k"))}));
  cache.Insert(self_join);
  EXPECT_EQ(cache.size(), 3u);
  cache.InvalidateRelation("orders");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.CoveredBy(Point("lineitem", "k", 2)));
  EXPECT_FALSE(cache.CoveredBy(Point("orders", "k", 1)));
}

TEST(CaqpCacheTest, ClearResetsEverything) {
  CaqpCache cache(100);
  cache.Insert(Point("t", "x", 1));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.CoveredBy(Point("t", "x", 1)));
  // Reusable after clear.
  cache.Insert(Point("t", "x", 2));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CaqpCacheTest, ZeroCapacityStoresNothing) {
  CaqpCache cache(0);
  cache.Insert(Point("t", "x", 5));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.CoveredBy(Point("t", "x", 5)));
}

TEST(CaqpCacheTest, SnapshotReturnsLiveParts) {
  CaqpCache cache(100);
  cache.Insert(Point("t", "x", 1));
  cache.Insert(Point("u", "y", 2));
  std::vector<AtomicQueryPart> snap = cache.Snapshot();
  EXPECT_EQ(snap.size(), 2u);
}

// Regression for the dead-entry leak: InvalidateRelation/DropIf used to
// empty entry.items but leave the Entry and its entry_index_ key behind
// forever, so churny update workloads grew entries_ without bound.
TEST(CaqpCacheTest, EntryGarbageCollectionBoundsGrowth) {
  CaqpCache cache(1000);
  for (int round = 0; round < 100; ++round) {
    // Each round uses fresh relation names => fresh entries.
    std::string rel = "t" + std::to_string(round);
    std::string other = "u" + std::to_string(round);
    cache.Insert(Point(rel.c_str(), "x", 1));
    cache.Insert(Point(other.c_str(), "x", 1));
    // At most the two entries of this round are live.
    EXPECT_LE(cache.stats_snapshot().entries_live, 2u);
    cache.InvalidateRelation(rel);
    size_t dropped = cache.DropIf([&](const AtomicQueryPart& part) {
      return part.relations().Contains(other);
    });
    EXPECT_EQ(dropped, 1u);
    EXPECT_EQ(cache.size(), 0u);
  }
  CaqpCache::CacheStats stats = cache.stats_snapshot();
  EXPECT_EQ(stats.entries_live, 0u);
  EXPECT_EQ(stats.index_names, 0u);
}

TEST(CaqpCacheTest, EvictionReclaimsEmptyEntries) {
  CaqpCache cache(4);
  // Four parts over four distinct relation sets: evicting a part must
  // also reclaim its singleton entry.
  for (int64_t i = 0; i < 4; ++i) {
    cache.Insert(Point(("r" + std::to_string(i)).c_str(), "x", i));
  }
  EXPECT_EQ(cache.stats_snapshot().entries_live, 4u);
  for (int64_t i = 0; i < 8; ++i) {
    cache.Insert(Point(("s" + std::to_string(i)).c_str(), "x", i));
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_EQ(cache.stats_snapshot().entries_live, 4u);
  }
  // The evicted parts' entries left the index, names included.
  EXPECT_EQ(cache.stats_snapshot().entries_live, 4u);
  EXPECT_EQ(cache.stats_snapshot().index_names, 4u);
}

// Refilling to capacity after a broad invalidation exercises eviction
// after invalidation churn (the emptied entry collected, the clock hand
// left past the index's end): the bounded sweep must terminate.
TEST(CaqpCacheTest, EvictionAfterMassInvalidationTerminates) {
  CaqpCache cache(64);
  for (int64_t i = 0; i < 64; ++i) cache.Insert(Point("t", "x", i));
  cache.InvalidateRelation("t");  // all 64 parts gone
  EXPECT_EQ(cache.size(), 0u);
  // Refill past capacity: evictions run from a stale clock hand and must
  // not spin.
  for (int64_t i = 0; i < 80; ++i) cache.Insert(Point("u", "x", i));
  EXPECT_EQ(cache.size(), 64u);
}

TEST(CaqpCacheTest, IndexInstrumentationCountsWork) {
  CaqpCache cache(100);
  cache.Insert(Point("a", "x", 1));
  cache.Insert(Point("b", "x", 1));
  cache.Insert(Point("c", "x", 1));
  cache.ResetStats();

  // Probe on {a}: the index enumerates only a's posting list (1 element,
  // 1 candidate entry), never touching b's or c's entries.
  EXPECT_TRUE(cache.CoveredBy(Point("a", "x", 1)));
  CaqpCache::CacheStats stats = cache.stats_snapshot();
  EXPECT_EQ(stats.postings_scanned, 1u);
  EXPECT_EQ(stats.candidate_entries, 1u);
  EXPECT_EQ(stats.conditions_scanned, 1u);

  // Probe on a relation with no posting list: zero candidates.
  cache.ResetStats();
  EXPECT_FALSE(cache.CoveredBy(Point("zzz", "x", 1)));
  stats = cache.stats_snapshot();
  EXPECT_EQ(stats.postings_scanned, 0u);
  EXPECT_EQ(stats.candidate_entries, 0u);
  EXPECT_EQ(stats.conditions_scanned, 0u);
}

TEST(CaqpCacheTest, SignatureRejectsAreCounted) {
  // Signatures only filter within enumerated candidates, so build a probe
  // whose name set overlaps a stored entry's without being a superset:
  // entry {a, b} posts under "a"; probe {a, c} enumerates it, and either
  // the signature filter or the exact subset test rejects it.
  CaqpCache cache(100);
  AtomicQueryPart ab(
      RelationSet({"a", "b"}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make("a", "x"), ValueInterval::Point(Value::Int(1)))}));
  cache.Insert(ab);
  cache.ResetStats();
  AtomicQueryPart ac(
      RelationSet({"a", "c"}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make("a", "x"), ValueInterval::Point(Value::Int(1)))}));
  EXPECT_FALSE(cache.CoveredBy(ac));
  CaqpCache::CacheStats stats = cache.stats_snapshot();
  EXPECT_EQ(stats.candidate_entries, 1u);
  // The candidate never reached a cover test.
  EXPECT_EQ(stats.conditions_scanned, 0u);
}

TEST(CaqpCacheTest, ExplainDescribesInternals) {
  CaqpCache cache(100);
  cache.Insert(Point("orders", "k", 1));
  cache.Insert(Point("lineitem", "k", 2));
  cache.CoveredBy(Point("orders", "k", 1));
  std::string text = cache.Explain();
  EXPECT_NE(text.find("2/100 parts"), std::string::npos) << text;
  EXPECT_NE(text.find("2 entries"), std::string::npos) << text;
  EXPECT_NE(text.find("lookups=1 hits=1"), std::string::npos) << text;
  EXPECT_NE(text.find("point index: 2 anchored, 0 residual, largest key "
                      "bucket 1"),
            std::string::npos)
      << text;
}

// Paper §2.2 example: Q1 = sigma_{A.a=50 OR A.b=30}(A) and
// Q2 = sigma_{A.a=60 OR A.b=40}(A) are stored as four atomic parts;
// Q = sigma_{A.a=50 OR A.a=60}(A) is then detectable from P1 and P3.
TEST(CaqpCacheTest, PaperSection22CombinationExample) {
  CaqpCache cache(100);
  cache.Insert(Point("a", "a", 50));
  cache.Insert(Point("a", "b", 30));
  cache.Insert(Point("a", "a", 60));
  cache.Insert(Point("a", "b", 40));
  // Q decomposes into two parts; both must be covered.
  EXPECT_TRUE(cache.CoveredBy(Point("a", "a", 50)));
  EXPECT_TRUE(cache.CoveredBy(Point("a", "a", 60)));
}

// Coverage, displacement and invalidation over many relation names: a
// general part displaces the parts it covers, and invalidating one
// relation leaves the others' parts in place.
TEST(CaqpCacheTest, DisplacementAndInvalidationAcrossEntries) {
  CaqpCache cache(100);
  for (int64_t i = 0; i < 20; ++i) {
    cache.Insert(Point(("r" + std::to_string(i)).c_str(), "x", i));
  }
  EXPECT_EQ(cache.size(), 20u);
  for (int64_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(cache.CoveredBy(Point(("r" + std::to_string(i)).c_str(),
                                      "x", i)));
    EXPECT_FALSE(cache.CoveredBy(Point(("r" + std::to_string(i)).c_str(),
                                       "x", i + 100)));
  }
  // {r3} with TRUE covers any part mentioning r3.
  AtomicQueryPart r3_empty(RelationSet({"r3"}), Conjunction{});
  cache.Insert(r3_empty);
  EXPECT_EQ(cache.size(), 20u);  // one displaced, one inserted
  EXPECT_TRUE(cache.CoveredBy(Point("r3", "x", 3)));
  cache.InvalidateRelation("r5");
  EXPECT_FALSE(cache.CoveredBy(Point("r5", "x", 5)));
  EXPECT_EQ(cache.size(), 19u);
}

// A stored multi-relation part is posted under its *first* relation name
// but must be found through any of the probe's names.
TEST(CaqpCacheTest, MultiRelationEntriesFoundThroughAnyProbeName) {
  CaqpCache cache(100);
  AtomicQueryPart joined(
      RelationSet({"orders", "lineitem"}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make("orders", "k"), ValueInterval::Point(Value::Int(5)))}));
  cache.Insert(joined);
  // Probe with a superset relation set whose own first name is different:
  // the candidate walk goes through "orders"/"lineitem"'s postings.
  AtomicQueryPart wider(
      RelationSet({"customer", "lineitem", "orders"}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make("orders", "k"), ValueInterval::Point(Value::Int(5)))}));
  EXPECT_TRUE(cache.CoveredBy(wider));
}

TEST(CaqpCacheTest, SnapshotSeesAllEntries) {
  CaqpCache cache(100);
  for (int64_t i = 0; i < 12; ++i) {
    cache.Insert(Point(("s" + std::to_string(i)).c_str(), "x", i));
  }
  EXPECT_EQ(cache.Snapshot().size(), 12u);
}

// ---- In-entry point index ----

AtomicQueryPart Part(std::vector<std::string> rels,
                     std::vector<PrimitiveTerm> terms) {
  return AtomicQueryPart(RelationSet(std::move(rels)),
                         Conjunction::Make(std::move(terms)));
}

PrimitiveTerm Eq(const char* rel, const char* col, Value v) {
  return PrimitiveTerm::MakeInterval(ColumnId::Make(rel, col),
                                     ValueInterval::Point(std::move(v)));
}

// The scaling claim in one number: a hit among 3000 distinct points of one
// entry makes at most two cover tests, where a scan of the entry makes
// about one per stored part.
TEST(CaqpCacheTest, HitAmongManyPointsMakesFewCoverTests) {
  CaqpCache cache(5000);
  for (int64_t i = 0; i < 3000; ++i) cache.Insert(Point("t", "x", i));
  ASSERT_EQ(cache.size(), 3000u);
  cache.ResetStats();
  EXPECT_TRUE(cache.CoveredBy(Point("t", "x", 2999)));
  EXPECT_LE(cache.stats_snapshot().conditions_scanned, 2u);
  cache.ResetStats();
  EXPECT_FALSE(cache.CoveredBy(Point("t", "x", 3000)));
  EXPECT_EQ(cache.stats_snapshot().conditions_scanned, 0u);
}

// Value::Hash agrees with Value::Compare across INT and DOUBLE, so a
// DOUBLE probe finds the INT anchor it equals.
TEST(CaqpCacheTest, IntAnchorHitByDoubleProbe) {
  CaqpCache cache(100);
  for (int64_t i = 0; i < 10; ++i) cache.Insert(Point("t", "x", i));
  cache.ResetStats();
  EXPECT_TRUE(cache.CoveredBy(Part({"t"}, {Eq("t", "x", Value::Double(5.0))})));
  EXPECT_EQ(cache.stats_snapshot().conditions_scanned, 1u);
  EXPECT_FALSE(
      cache.CoveredBy(Part({"t"}, {Eq("t", "x", Value::Double(5.5))})));
}

// Keys strip the occurrence suffix, so a part stored about "a" is found
// for a probe pinning the same column of "a#2" (Covers remaps it).
TEST(CaqpCacheTest, RemappedOccurrenceHit) {
  CaqpCache cache(100);
  for (int64_t i = 0; i < 10; ++i) cache.Insert(Point("a", "x", i));
  AtomicQueryPart self_join =
      Part({"a", "a#2"}, {Eq("a", "x", Value::Int(70)),
                          Eq("a#2", "x", Value::Int(4)),
                          PrimitiveTerm::MakeColCol(ColumnId::Make("a", "k"),
                                                    CompareOp::kEq,
                                                    ColumnId::Make("a#2", "k"))});
  cache.ResetStats();
  EXPECT_TRUE(cache.CoveredBy(self_join));
  EXPECT_EQ(cache.stats_snapshot().conditions_scanned, 1u);
}

// Parts with no equality term cannot be anchored: every probe of their
// entry tests them, and only them besides its own key's anchors.
TEST(CaqpCacheTest, RangeOnlyPartsServedFromResidual) {
  CaqpCache cache(100);
  for (int64_t i = 0; i < 20; ++i) cache.Insert(Point("t", "x", i));
  cache.Insert(Range("t", "y", 0, 10));
  cache.Insert(Range("t", "y", 100, 110));
  cache.Insert(Range("t", "y", 200, 210));
  ASSERT_EQ(cache.size(), 23u);
  EXPECT_NE(cache.Explain().find("20 anchored, 3 residual"), std::string::npos)
      << cache.Explain();
  cache.ResetStats();
  EXPECT_TRUE(cache.CoveredBy(Range("t", "y", 102, 104)));
  EXPECT_LE(cache.stats_snapshot().conditions_scanned, 3u);
  cache.ResetStats();
  EXPECT_FALSE(cache.CoveredBy(Range("t", "y", 50, 60)));
  EXPECT_EQ(cache.stats_snapshot().conditions_scanned, 3u);
}

// A general part displaces exactly the stored parts carrying its equality
// term that it covers; parts pinned elsewhere stay.
TEST(CaqpCacheTest, GeneralPartDisplacesOnlyItsKeysParts) {
  CaqpCache cache(100);
  for (int64_t y = 0; y < 5; ++y) {
    cache.Insert(Part({"t"}, {Eq("t", "x", Value::Int(5)),
                              Eq("t", "y", Value::Int(y))}));
    cache.Insert(Part({"t"}, {Eq("t", "x", Value::Int(6)),
                              Eq("t", "y", Value::Int(y))}));
  }
  // Over a superset relation set and remapped: also displaced.
  cache.Insert(Part({"t", "t#2"}, {Eq("t#2", "x", Value::Int(5))}));
  ASSERT_EQ(cache.size(), 11u);
  cache.Insert(Point("t", "x", 5));
  EXPECT_EQ(cache.stats_snapshot().removed_covered, 6u);
  ASSERT_EQ(cache.size(), 6u);
  for (const AtomicQueryPart& part : cache.Snapshot()) {
    if (part.condition().size() == 1) {
      EXPECT_TRUE(part.Equals(Point("t", "x", 5))) << part.ToString();
    } else {
      EXPECT_NE(part.ToString().find("[6, 6]"), std::string::npos)
          << part.ToString();
    }
  }
}

// A stored point contains an inverted (lo > hi, hence unsatisfiable)
// interval on its column too: the probe's column-wide key finds it, and a
// stored inverted term is displaced through its column-wide posting.
TEST(CaqpCacheTest, InvertedIntervalsMatchTheWholeColumn) {
  CaqpCache cache(100);
  for (int64_t i = 0; i < 10; ++i) cache.Insert(Point("t", "x", i));
  EXPECT_TRUE(cache.CoveredBy(Range("t", "x", 7, 3)));
  EXPECT_FALSE(cache.CoveredBy(Range("t", "x", 30, 20)));

  CaqpCache reverse(100);
  AtomicQueryPart inverted = Part(
      {"t"},
      {PrimitiveTerm::MakeInterval(
           ColumnId::Make("t", "x"),
           ValueInterval::Range(Value::Int(7), true, Value::Int(3), true)),
       Eq("t", "y", Value::Int(1))});
  reverse.Insert(inverted);
  reverse.Insert(Point("t", "x", 5));
  EXPECT_EQ(reverse.stats_snapshot().removed_covered, 1u);
  EXPECT_EQ(reverse.size(), 1u);
}

}  // namespace
}  // namespace erq
