// Crash-at-every-write-boundary proof for the persistence layer
// (DESIGN.md §7): a counting pass enumerates every failpoint seam a fixed
// workload crosses, then the workload is re-run once per (seam, hit)
// pair with a simulated crash there, and recovery is checked against
// durability invariants derived from a shadow model:
//
//   * every entry durably acked before the crash is recovered,
//   * no entry durably removed before the crash is resurrected,
//   * nothing is fabricated (recovered ⊆ ever inserted),
//   * recovery itself always succeeds (a crash never corrupts the store).
//
// The shadow model tracks disk state by diffing cache snapshots around
// each operation, so displacements and clock evictions are handled
// without re-deriving the cache's replacement decisions. The operation
// during which the crash fires is "in limbo" (its records may be
// partially journaled) and is exempt from both directions.

#include <unistd.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "persist/failpoint.h"
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

AtomicQueryPart RangePart(int64_t lo, int64_t hi) {
  return AtomicQueryPart(
      RelationSet({"t"}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make("t", "x"),
          ValueInterval::Range(Value::Int(lo), true, Value::Int(hi), true))}));
}

AtomicQueryPart OpaquePart() {
  using namespace erq::eb;  // NOLINT
  return AtomicQueryPart(
      RelationSet({"t"}),
      Conjunction::Make({PrimitiveTerm::MakeOpaque(
          Lt(Col("t", "x"), Add(Col("t", "y"), Int(1))))}));
}

std::set<std::string> SerializedSet(const std::vector<AtomicQueryPart>& parts) {
  std::set<std::string> out;
  for (const AtomicQueryPart& p : parts) {
    auto line = SerializePart(p);
    if (line.ok()) out.insert(*line);  // opaque parts are memory-only
  }
  return out;
}

/// Shadow model of what must / must not be on disk. Keys are serialized
/// C_aqp part lines.
struct Shadow {
  bool crashed = false;
  std::set<std::string> on_disk;  // durably inserted, not durably removed
  std::set<std::string> limbo;    // touched by the op the crash hit
  std::set<std::string> ever;     // everything ever inserted

  /// Accounts one completed operation that inserted `ins` and removed
  /// `rem` (removes are journaled before inserts within one op).
  void Apply(const std::set<std::string>& ins,
             const std::set<std::string>& rem) {
    for (const std::string& k : ins) ever.insert(k);
    if (crashed) return;  // IO is dead: disk no longer changes
    if (FailPoint::Global().failed()) {
      // The crash fired inside this op: its records may be half-journaled.
      crashed = true;
      for (const std::string& k : rem) {
        if (on_disk.erase(k) > 0) limbo.insert(k);
      }
      for (const std::string& k : ins) limbo.insert(k);
      return;
    }
    for (const std::string& k : rem) on_disk.erase(k);
    for (const std::string& k : ins) on_disk.insert(k);
  }

  /// Checks a recovered key set against the invariants.
  void Verify(const std::set<std::string>& recovered) const {
    for (const std::string& k : on_disk) {
      EXPECT_TRUE(recovered.count(k)) << "durably acked entry lost: " << k;
    }
    for (const std::string& k : recovered) {
      EXPECT_TRUE(ever.count(k)) << "fabricated entry: " << k;
      // Anything recovered must be either believed-on-disk or in limbo;
      // a durably removed or never-durably-inserted key is a resurrection.
      EXPECT_TRUE(on_disk.count(k) || limbo.count(k))
          << "resurrected entry: " << k;
    }
  }
};

/// The fixed workload: inserts, a displacing insert, an invalidation, an
/// opaque (memory-only) insert, clock evictions, a wholesale clear, and
/// enough bytes to trigger snapshot rotations.
/// Returns false when Persistence::Open itself crashed (the workload
/// never ran; the shadow stays empty, which Verify handles).
bool RunWorkload(const std::string& dir, Shadow* caqp) {
  PersistOptions options;
  options.dir = dir;
  options.snapshot_journal_bytes = 400;  // rotate every handful of records
  StatusOr<std::unique_ptr<Persistence>> open = Persistence::Open(options);
  if (!open.ok()) return false;
  std::unique_ptr<Persistence> p = std::move(open).value();

  CaqpCache cache(6);
  std::set<std::string> before = SerializedSet(cache.Snapshot());
  (void)p->AttachCaqp(&cache);  // may fail under an armed seam: keep going
  auto step = [&](const std::function<void()>& op) {
    op();
    std::set<std::string> after = SerializedSet(cache.Snapshot());
    std::set<std::string> ins, rem;
    for (const std::string& k : after) {
      if (before.count(k) == 0) ins.insert(k);
    }
    for (const std::string& k : before) {
      if (after.count(k) == 0) rem.insert(k);
    }
    caqp->Apply(ins, rem);
    before = std::move(after);
  };

  step([] {});  // accounts the attach itself (rotation seams)
  for (int64_t i = 0; i < 6; ++i) {
    step([&] { cache.Insert(PointPart(i)); });
  }
  step([&] { cache.Insert(RangePart(2, 3)); });  // displaces 2, 3
  step([&] {
    cache.DropIf(
        [](const AtomicQueryPart& aqp) { return aqp.Equals(PointPart(5)); });
  });
  step([&] { cache.Insert(OpaquePart()); });  // never journaled
  step([&] { cache.Insert(PointPart(6)); });
  step([&] { cache.Insert(PointPart(7)); });  // over capacity: evictions

  step([&] { cache.Clear(); });
  step([&] { cache.Insert(PointPart(8)); });
  // Destructor: detach, flush, close (its seams are part of the census).
  return true;
}

class PersistFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "erq_persist_fault";
    FailPoint::Global().Reset();
    CleanDir();
  }
  void TearDown() override {
    FailPoint::Global().Reset();
    CleanDir();
  }
  void CleanDir() {
    (void)RemoveFileIfExists(dir_ + "/" + kJournalFileName);
    (void)RemoveFileIfExists(dir_ + "/" + kSnapshotFileName);
    (void)RemoveFileIfExists(dir_ + "/" + kSnapshotFileName + ".tmp");
    ::rmdir(dir_.c_str());
  }

  std::string dir_;
};

TEST_F(PersistFaultTest, CrashAtEveryWriteBoundaryRecovers) {
  FailPoint& fp = FailPoint::Global();

  // Pass 1: census. Count how often each seam is crossed by the workload.
  fp.SetCounting(true);
  {
    Shadow caqp;
    ASSERT_TRUE(RunWorkload(dir_, &caqp));
    ASSERT_FALSE(caqp.crashed);
  }
  struct Boundary {
    std::string name;
    uint64_t hits;
  };
  std::vector<Boundary> boundaries;
  uint64_t total = 0;
  for (const std::string& name : fp.Names()) {
    boundaries.push_back({name, fp.Hits(name)});
    total += fp.Hits(name);
  }
  fp.Reset();
  ASSERT_GT(boundaries.size(), 5u) << "failpoint seams went missing";
  ASSERT_GT(total, 20u);

  // Pass 2: one run per (seam, hit), crashing there, then recovering.
  for (const Boundary& b : boundaries) {
    for (uint64_t k = 0; k < b.hits; ++k) {
      SCOPED_TRACE(b.name + " @ hit " + std::to_string(k));
      CleanDir();
      fp.Reset();
      fp.Arm(b.name, k);
      Shadow caqp;
      RunWorkload(dir_, &caqp);
      EXPECT_TRUE(fp.failed()) << "armed boundary never fired";

      // "Reboot": failpoints cleared, recovery must always succeed.
      fp.Reset();
      PersistOptions options;
      options.dir = dir_;
      StatusOr<std::unique_ptr<Persistence>> reopened =
          Persistence::Open(options);
      ASSERT_TRUE(reopened.ok())
          << "recovery failed: " << reopened.status().ToString();
      caqp.Verify(SerializedSet((*reopened)->recovered().parts));

      // The recovered state also loads into a live cache unchanged.
      CaqpCache cache(100);
      ASSERT_TRUE((*reopened)->AttachCaqp(&cache).ok());
      EXPECT_EQ(SerializedSet(cache.Snapshot()),
                SerializedSet((*reopened)->recovered().parts));
    }
  }
}

}  // namespace
}  // namespace erq
