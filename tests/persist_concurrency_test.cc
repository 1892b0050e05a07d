// Persistence under concurrent cache traffic: several threads insert,
// probe, and invalidate against a journaled CaqpCache (with snapshot
// rotation forced mid-run) while another flushes and polls the
// persistence object from outside the cache lock; afterwards a recovery
// must reproduce exactly the final cache contents. Runs under
// TSan in CI (label "concurrency") to validate the cache-mutex →
// persistence-mutex lock order.

#include <unistd.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/serialize.h"
#include "gtest/gtest.h"
#include "persist/io.h"
#include "persist/journal.h"
#include "persist/persistence.h"
#include "persist/snapshot.h"
#include "test_util.h"

namespace erq {
namespace {

AtomicQueryPart PointPart(int64_t x) {
  return AtomicQueryPart(
      RelationSet({"t"}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make("t", "x"), ValueInterval::Point(Value::Int(x)))}));
}

std::set<std::string> SerializedSet(const std::vector<AtomicQueryPart>& parts) {
  std::set<std::string> out;
  for (const AtomicQueryPart& p : parts) {
    auto line = SerializePart(p);
    if (line.ok()) out.insert(*line);
  }
  return out;
}

TEST(PersistConcurrencyTest, ConcurrentMutationsRecoverExactly) {
  const std::string dir =
      std::string(::testing::TempDir()) + "erq_persist_concurrency";
  (void)RemoveFileIfExists(dir + "/" + kJournalFileName);
  (void)RemoveFileIfExists(dir + "/" + kSnapshotFileName);
  ::rmdir(dir.c_str());

  PersistOptions options;
  options.dir = dir;
  options.snapshot_journal_bytes = 2048;  // several rotations mid-run
  options.fsync_every_n = 16;             // keep the 1-CPU runner fast

  std::set<std::string> final_caqp;
  {
    auto open = Persistence::Open(options);
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    std::unique_ptr<Persistence> p = std::move(open).value();
    CaqpCache cache(10000);
    ASSERT_TRUE(p->AttachCaqp(&cache).ok());

    constexpr int kWriters = 4;
    constexpr int kPerWriter = 120;
    std::vector<std::thread> threads;
    for (int t = 0; t < kWriters; ++t) {
      threads.emplace_back([&cache, t] {
        for (int i = 0; i < kPerWriter; ++i) {
          cache.Insert(PointPart(t * 10000 + i));
          if (i % 7 == 0) (void)cache.CoveredBy(PointPart(t * 10000 + i));
        }
      });
    }
    // An invalidator racing the writers: drops one specific value per pass.
    threads.emplace_back([&cache] {
      for (int i = 0; i < kPerWriter; i += 3) {
        cache.DropIf([i](const AtomicQueryPart& aqp) {
          return aqp.Equals(PointPart(i));  // writer 0's values
        });
      }
    });
    // A Persistence::mu_ contender that holds no cache lock: fsyncs and
    // status polls interleave with the listener-driven appends.
    threads.emplace_back([&p] {
      for (int i = 0; i < 60; ++i) {
        EXPECT_TRUE(p->Flush().ok());
        EXPECT_TRUE(p->status().ok());
      }
    });
    for (std::thread& th : threads) th.join();

    ASSERT_TRUE(p->status().ok()) << p->status().ToString();
    ASSERT_TRUE(p->Flush().ok());
    final_caqp = SerializedSet(cache.Snapshot());
  }

  auto reopened = Persistence::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(SerializedSet((*reopened)->recovered().parts), final_caqp);

  CaqpCache cache(10000);
  ASSERT_TRUE((*reopened)->AttachCaqp(&cache).ok());
  EXPECT_EQ(SerializedSet(cache.Snapshot()), final_caqp);
  EXPECT_EQ(cache.size(), final_caqp.size());

  (void)RemoveFileIfExists(dir + "/" + kJournalFileName);
  (void)RemoveFileIfExists(dir + "/" + kSnapshotFileName);
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace erq
