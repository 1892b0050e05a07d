// CaqpCache, MvEmptyCache, and EmptyResultManager are internally
// synchronized (many RDBMS sessions consult C_aqp concurrently, and even
// lookups flip clock bits / LRU order). These tests hammer the shared
// structures from multiple threads and verify the invariants hold
// afterwards. They carry the `concurrency` ctest label so the TSan build
// can run exactly this binary (`ctest -L concurrency`); the assertions are
// deliberately light — under TSan the value of these tests is the absence
// of data-race reports, not the final counts.

#include <atomic>
#include <random>
#include <thread>

#include "common/metrics.h"
#include "core/caqp_cache.h"
#include "core/manager.h"
#include "gtest/gtest.h"
#include "mv/mv_cache.h"
#include "test_util.h"

namespace erq {
namespace {

AtomicQueryPart Point(const std::string& rel, int64_t x) {
  return AtomicQueryPart(
      RelationSet({rel}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make(rel, "x"), ValueInterval::Point(Value::Int(x)))}));
}

TEST(ConcurrencyTest, MixedLookupsAndInsertsKeepInvariants) {
  const size_t n_max = 200;
  CaqpCache cache(n_max);
  const int kThreads = 8;
  const int kOpsPerThread = 5000;
  std::atomic<uint64_t> hits{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        int64_t id = static_cast<int64_t>(rng() % 500);
        AtomicQueryPart part = Point("t", id);
        if (cache.CoveredBy(part)) {
          hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.Insert(part);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Invariants: capacity respected, snapshot consistent, cache usable.
  EXPECT_LE(cache.size(), n_max);
  std::vector<AtomicQueryPart> snapshot = cache.Snapshot();
  EXPECT_EQ(snapshot.size(), cache.size());
  EXPECT_GT(hits.load(), 0u);
  CaqpCache::CacheStats stats = cache.stats_snapshot();
  EXPECT_EQ(stats.lookups,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  // Every live part is findable.
  for (const AtomicQueryPart& part : snapshot) {
    EXPECT_TRUE(cache.CoveredBy(part));
  }
}

TEST(ConcurrencyTest, InvalidationRacesWithLookups) {
  CaqpCache cache(10000);
  for (int64_t i = 0; i < 200; ++i) {
    cache.Insert(Point("r", i));
    cache.Insert(Point("s", i));
  }
  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    for (int round = 0; round < 50; ++round) {
      cache.InvalidateRelation("r");
      for (int64_t i = 0; i < 50; ++i) cache.Insert(Point("r", i));
      cache.DropIf([](const AtomicQueryPart& part) {
        return part.relations().Contains("r") &&
               part.condition().size() > 0 &&
               part.condition().terms()[0].interval().ContainsPoint(
                   Value::Int(7));
      });
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(t);
      while (!stop.load()) {
        // s-parts are never invalidated: they must always be found.
        int64_t id = static_cast<int64_t>(rng() % 200);
        ASSERT_TRUE(cache.CoveredBy(Point("s", id)));
        cache.CoveredBy(Point("r", static_cast<int64_t>(rng() % 200)));
      }
    });
  }
  invalidator.join();
  for (std::thread& t : readers) t.join();
  EXPECT_LE(cache.size(), 10000u);
}

TEST(ConcurrencyTest, ConcurrentSerializationIsConsistent) {
  CaqpCache cache(1000);
  for (int64_t i = 0; i < 100; ++i) cache.Insert(Point("t", i));
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(t);
      for (int op = 0; op < 500; ++op) {
        if (op % 3 == 0) {
          cache.Insert(Point("t", static_cast<int64_t>(rng() % 400)));
        } else {
          std::vector<AtomicQueryPart> snap = cache.Snapshot();
          if (snap.size() > 1000) failed.store(true);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
}

// A deliberately tiny capacity keeps the cache at its limit the whole
// time, so every writer drives the clock hand, the free list, and the
// redundancy sweep while readers scan the same entries — the hottest
// interleaving for TSan to chew on.
TEST(ConcurrencyTest, EvictionChurnUnderContention) {
  const size_t n_max = 32;
  CaqpCache cache(n_max);
  const int kWriters = 4;
  const int kReaders = 4;
  const int kOpsPerThread = 3000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(7000 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        // Key space far wider than n_max => nearly every insert evicts.
        cache.Insert(Point("t", static_cast<int64_t>(rng() % 4096)));
      }
      stop.store(true);
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(t);
      while (!stop.load()) {
        cache.CoveredBy(Point("t", static_cast<int64_t>(rng() % 4096)));
        if (rng() % 64 == 0) {
          // Insert evicts before it stores, under the writer mutex, and
          // every part lives in the one entry {t} whose item list is
          // published atomically, so even a mid-flight snapshot holds at
          // most N_max parts.
          std::vector<AtomicQueryPart> snap = cache.Snapshot();
          ASSERT_LE(snap.size(), n_max);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_LE(cache.size(), n_max);
  CaqpCache::CacheStats stats = cache.stats_snapshot();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.insert_attempts,
            static_cast<uint64_t>(kWriters) * kOpsPerThread);
}

// Lookup-heavy stress for the shared-lock read path: a wall of readers
// hammers CoveredBy (shared acquisitions, relaxed clock-bit/LRU updates)
// while two writers insert fresh parts and invalidate a disjoint relation.
// Parts on "stable" are never invalidated or evicted (capacity is ample),
// so every reader must find them throughout; parts on "churn" flap. Under
// TSan the value is the absence of race reports between the const reader
// path and the writer-side index/GC mutations.
TEST(ConcurrencyTest, LookupHeavyReadersRaceInsertAndInvalidate) {
  CaqpCache cache(100000);
  const int64_t kStable = 300;
  for (int64_t i = 0; i < kStable; ++i) cache.Insert(Point("stable", i));

  const int kReaders = 6;
  const int kLookupsPerReader = 20000;
  std::atomic<int> readers_done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(500 + t);
      for (int op = 0; op < kLookupsPerReader; ++op) {
        int64_t id = static_cast<int64_t>(rng() % kStable);
        ASSERT_TRUE(cache.CoveredBy(Point("stable", id)));
        cache.CoveredBy(Point("churn", static_cast<int64_t>(rng() % 64)));
      }
      readers_done.fetch_add(1);
    });
  }
  std::thread inserter([&] {
    std::mt19937_64 rng(77);
    while (readers_done.load() < kReaders) {
      cache.Insert(Point("churn", static_cast<int64_t>(rng() % 64)));
      // Fresh relation names force entry creation + GC churn in the
      // inverted index while readers walk it.
      std::string rel = "flux" + std::to_string(rng() % 16);
      cache.Insert(AtomicQueryPart(
          RelationSet({rel}),
          Conjunction::Make({PrimitiveTerm::MakeInterval(
              ColumnId::Make(rel, "x"),
              ValueInterval::Point(Value::Int(static_cast<int64_t>(
                  rng() % 8))))})));
    }
  });
  std::thread invalidator([&] {
    std::mt19937_64 rng(88);
    while (readers_done.load() < kReaders) {
      cache.InvalidateRelation("churn");
      cache.InvalidateRelation("flux" + std::to_string(rng() % 16));
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) t.join();
  inserter.join();
  invalidator.join();

  CaqpCache::CacheStats stats = cache.stats_snapshot();
  EXPECT_GE(stats.lookups, static_cast<uint64_t>(kReaders) *
                               kLookupsPerReader * 2);
  EXPECT_GE(stats.hits, static_cast<uint64_t>(kReaders) * kLookupsPerReader);
  // The stable entry plus at most the live churn/flux entries remain; GC
  // keeps the entry table bounded despite thousands of invalidations.
  EXPECT_LE(stats.entries_live, 32u);
  for (int64_t i = 0; i < kStable; ++i) {
    ASSERT_TRUE(cache.CoveredBy(Point("stable", i)));
  }
}

// Lock-free lookups racing inserts, churn invalidations, and (on a second,
// tiny cache) evictions: writers republish snapshots while readers hold
// epoch pins, the interleaving most likely to expose a reclamation bug
// (use-after-free of a retired Index/EntryItems) to TSan/ASan. Parts on
// "anchor<i>" relations are never invalidated and capacity is ample, so
// every anchor lookup must report covered throughout.
TEST(ConcurrencyTest, AnchoredLookupsRaceMutations) {
  CaqpCache cache(100000);
  const int64_t kAnchors = 64;
  std::vector<AtomicQueryPart> anchors;
  for (int64_t i = 0; i < kAnchors; ++i) {
    std::string rel = "anchor" + std::to_string(i);
    anchors.push_back(AtomicQueryPart(
        RelationSet({rel}),
        Conjunction::Make({PrimitiveTerm::MakeInterval(
            ColumnId::Make(rel, "x"), ValueInterval::Point(Value::Int(i)))})));
    cache.Insert(anchors.back());
  }

  const int kReaders = 4;
  const int kProbesPerThread = 18000;
  std::atomic<int> readers_done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(900 + t);
      for (int op = 0; op < kProbesPerThread; ++op) {
        // Mix stable hits with probes over the churning relations.
        if (rng() % 2 == 0) {
          // Anchors are never invalidated.
          ASSERT_TRUE(cache.CoveredBy(anchors[rng() % kAnchors]));
        } else {
          cache.CoveredBy(Point("churn" + std::to_string(rng() % 4),
                                static_cast<int64_t>(rng() % 32)));
        }
      }
      readers_done.fetch_add(1);
    });
  }
  std::thread inserter([&] {
    std::mt19937_64 rng(111);
    while (readers_done.load() < kReaders) {
      cache.Insert(Point("churn" + std::to_string(rng() % 4),
                         static_cast<int64_t>(rng() % 32)));
    }
  });
  std::thread invalidator([&] {
    std::mt19937_64 rng(222);
    while (readers_done.load() < kReaders) {
      cache.InvalidateRelation("churn" + std::to_string(rng() % 4));
      std::this_thread::yield();
    }
  });
  // A second cache at tiny capacity drives eviction churn under readers
  // (the big cache above never evicts).
  std::thread evict_churn([&] {
    CaqpCache tiny(16);
    std::mt19937_64 rng(333);
    std::vector<AtomicQueryPart> probes;
    for (int64_t i = 0; i < 8; ++i) probes.push_back(Point("e", i));
    while (readers_done.load() < kReaders) {
      tiny.Insert(Point("e", static_cast<int64_t>(rng() % 256)));
      for (const AtomicQueryPart& p : probes) tiny.CoveredBy(p);
    }
  });
  for (std::thread& t : threads) t.join();
  inserter.join();
  invalidator.join();
  evict_churn.join();

  CaqpCache::CacheStats stats = cache.stats_snapshot();
  // Retired snapshots drain once the readers are gone.
  EXPECT_GT(stats.lookups, 0u);
  for (const AtomicQueryPart& anchor : anchors) {
    ASSERT_TRUE(cache.CoveredBy(anchor));
  }
}

TEST(ConcurrencyTest, MvCacheConcurrentRecordAndCheck) {
  testing::FixtureDb db;
  std::vector<LogicalOpPtr> plans;
  for (int i = 0; i < 16; ++i) {
    auto plan = db.Plan("SELECT a FROM A WHERE a = " + std::to_string(i));
    ASSERT_TRUE(plan.ok());
    plans.push_back(*plan);
  }

  MvEmptyCache mv(8);  // smaller than the plan set => LRU churn
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(t);
      for (int op = 0; op < 2000; ++op) {
        const LogicalOpPtr& plan = plans[rng() % plans.size()];
        switch (rng() % 4) {
          case 0:
            mv.RecordEmpty(plan);
            break;
          case 1:
            mv.CheckEmpty(plan);
            break;
          case 2:
            ASSERT_LE(mv.size(), 8u);
            break;
          case 3:
            if (rng() % 32 == 0) mv.Clear();
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_LE(mv.size(), 8u);
  MvEmptyCache::MvStats stats = mv.stats_snapshot();
  EXPECT_GT(stats.lookups, 0u);
  EXPECT_GT(stats.stored, 0u);
}

// Whole-pipeline stress: concurrent sessions issue queries (some provably
// empty, some not) through one manager while another thread fires
// invalidations, exercising the stats/cost-gate mutex and the detector's
// cache lock together.
TEST(ConcurrencyTest, ManagerConcurrentQueriesAndInvalidation) {
  testing::FixtureDb db;
  EmptyResultConfig config;
  config.c_cost = 0.0;  // every query is "high cost" => always check
  EmptyResultManager manager(&db.catalog(), &db.stats(), config);

  const int kSessions = 4;
  const int kQueriesPerSession = 60;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> issued{0};

  std::vector<std::thread> sessions;
  for (int t = 0; t < kSessions; ++t) {
    sessions.emplace_back([&, t] {
      std::mt19937_64 rng(t);
      for (int op = 0; op < kQueriesPerSession; ++op) {
        // a ranges over 10..19, so half of these come back empty and get
        // harvested into C_aqp; repeats then hit the detection path.
        int64_t a = 10 + static_cast<int64_t>(rng() % 20);
        auto outcome =
            manager.Query("SELECT a, b FROM A WHERE a = " + std::to_string(a));
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        issued.fetch_add(1, std::memory_order_relaxed);
        if (outcome->detected_empty) {
          EXPECT_TRUE(outcome->result_empty);
          EXPECT_FALSE(outcome->executed);
        }
      }
    });
  }
  std::thread invalidator([&] {
    std::mt19937_64 rng(99);
    while (!stop.load()) {
      manager.OnTableUpdated(rng() % 2 == 0 ? "A" : "B");
      std::this_thread::yield();
    }
  });
  for (std::thread& t : sessions) t.join();
  stop.store(true);
  invalidator.join();

  ManagerStats stats = manager.stats_snapshot();
  EXPECT_EQ(stats.queries,
            static_cast<uint64_t>(kSessions) * kQueriesPerSession);
  EXPECT_EQ(stats.queries, issued.load());
  EXPECT_EQ(stats.detected_empty + stats.executed, stats.queries);
}

TEST(ConcurrencyTest, MetricsHammeredFromEightThreads) {
  // The observability hot path (Counter::Increment, Gauge::Add,
  // Histogram::Observe) is lock-free relaxed atomics; registration and
  // ToJson() take the registry mutex. Hammer all of it from 8 threads —
  // under TSan the value of this test is the absence of race reports, and
  // relaxed counting must still lose no increments.
  MetricsRegistry registry;  // private registry: counts are exactly ours
  const int kThreads = 8;
  const int kOpsPerThread = 20000;

  Counter* shared_counter = registry.GetCounter("erq.test.hammer.counter");
  Gauge* shared_gauge = registry.GetGauge("erq.test.hammer.gauge");
  Histogram* shared_histogram =
      registry.GetHistogram("erq.test.hammer.histogram");

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(7000 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        shared_counter->Increment();
        shared_gauge->Add(op % 2 == 0 ? 1 : -1);
        // Spread observations across the whole bucket ladder (1us..>67s).
        shared_histogram->Observe(1e-6 * static_cast<double>(rng() % 100000));
        if (op % 1000 == 0) {
          // Concurrent registration of the same + distinct names, and a
          // concurrent JSON snapshot racing the relaxed updates.
          Counter* mine = registry.GetCounter(
              "erq.test.hammer.t" + std::to_string(t));
          mine->Increment();
          EXPECT_EQ(registry.GetCounter("erq.test.hammer.counter"),
                    shared_counter);
          std::string json = registry.ToJson();
          EXPECT_NE(json.find("erq.test.hammer.counter"), std::string::npos);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const uint64_t expected =
      static_cast<uint64_t>(kThreads) * static_cast<uint64_t>(kOpsPerThread);
  EXPECT_EQ(shared_counter->Value(), expected);
  EXPECT_EQ(shared_gauge->Value(), 0);  // balanced +1/-1 per thread
  Histogram::Snapshot snap = shared_histogram->TakeSnapshot();
  EXPECT_EQ(snap.count, expected);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(
        registry.GetCounter("erq.test.hammer.t" + std::to_string(t))->Value(),
        static_cast<uint64_t>(kOpsPerThread + 999) / 1000);
  }
}

}  // namespace
}  // namespace erq
