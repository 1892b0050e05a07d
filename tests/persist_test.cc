#include <unistd.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "core/serialize.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "persist/crc32.h"
#include "persist/failpoint.h"
#include "persist/io.h"
#include "persist/journal.h"
#include "persist/persistence.h"
#include "persist/record.h"
#include "persist/snapshot.h"
#include "test_util.h"

namespace erq {
namespace {

// Unique temp dir per test, removed on teardown.
class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::string(::testing::TempDir()) + "erq_persist_" +
           info->test_suite_name() + "_" + info->name();
    RemoveDir();
    FailPoint::Global().Reset();
  }
  void TearDown() override {
    FailPoint::Global().Reset();
    RemoveDir();
  }
  void RemoveDir() {
    (void)RemoveFileIfExists(dir_ + "/" + kJournalFileName);
    (void)RemoveFileIfExists(dir_ + "/" + kSnapshotFileName);
    (void)RemoveFileIfExists(dir_ + "/" + kSnapshotFileName + ".tmp");
    ::rmdir(dir_.c_str());
  }

  std::string JournalPath() const { return dir_ + "/" + kJournalFileName; }

  std::string dir_;
};

AtomicQueryPart PointPart(int64_t x) {
  return AtomicQueryPart(
      RelationSet({"t"}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make("t", "x"), ValueInterval::Point(Value::Int(x)))}));
}

// Interval [lo, hi] on t.x: covers the point parts inside it.
AtomicQueryPart RangePart(int64_t lo, int64_t hi) {
  return AtomicQueryPart(
      RelationSet({"t"}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make("t", "x"),
          ValueInterval::Range(Value::Int(lo), true, Value::Int(hi), true))}));
}

std::set<std::string> SerializedSet(const std::vector<AtomicQueryPart>& parts) {
  std::set<std::string> out;
  for (const AtomicQueryPart& p : parts) {
    auto line = SerializePart(p);
    if (line.ok()) out.insert(*line);
  }
  return out;
}

TEST(Crc32Test, KnownVectors) {
  // The standard CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32Test, SeedChainsBuffers) {
  uint32_t whole = Crc32("hello world");
  uint32_t chained =
      Crc32(std::string_view(" world"), Crc32("hello"));
  EXPECT_EQ(whole, chained);
}

TEST(RecordTest, RoundTrip) {
  std::string buf;
  AppendRecord(RecordType::kCaqpInsert, "payload one", &buf);
  AppendRecord(RecordType::kMvStore, "", &buf);
  AppendRecord(RecordType::kCaqpClear, std::string("\0\xff\n|;", 5), &buf);

  size_t offset = 0;
  Record rec;
  ASSERT_EQ(ParseRecord(buf, &offset, &rec), RecordParse::kOk);
  EXPECT_EQ(rec.type, RecordType::kCaqpInsert);
  EXPECT_EQ(rec.payload, "payload one");
  ASSERT_EQ(ParseRecord(buf, &offset, &rec), RecordParse::kOk);
  EXPECT_EQ(rec.type, RecordType::kMvStore);
  EXPECT_EQ(rec.payload, "");
  ASSERT_EQ(ParseRecord(buf, &offset, &rec), RecordParse::kOk);
  EXPECT_EQ(rec.type, RecordType::kCaqpClear);
  EXPECT_EQ(rec.payload, std::string("\0\xff\n|;", 5));
  EXPECT_EQ(ParseRecord(buf, &offset, &rec), RecordParse::kEof);
  EXPECT_EQ(offset, buf.size());
}

TEST(RecordTest, EveryTruncationIsTornNeverMisparsed) {
  std::string buf;
  AppendRecord(RecordType::kCaqpInsert, "some payload", &buf);
  for (size_t len = 0; len < buf.size(); ++len) {
    if (len == 0) continue;  // empty buffer is clean EOF
    std::string prefix = buf.substr(0, len);
    size_t offset = 0;
    Record rec;
    EXPECT_EQ(ParseRecord(prefix, &offset, &rec), RecordParse::kTorn) << len;
    EXPECT_EQ(offset, 0u) << len;
  }
}

TEST(RecordTest, EveryBitFlipIsDetected) {
  std::string clean;
  AppendRecord(RecordType::kCaqpInsert, "bit flip target", &clean);
  for (size_t i = 0; i < clean.size(); ++i) {
    std::string corrupt = clean;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    size_t offset = 0;
    Record rec;
    EXPECT_EQ(ParseRecord(corrupt, &offset, &rec), RecordParse::kTorn)
        << "flipped byte " << i;
  }
}

TEST(RecordTest, UnknownTypeByteIsTorn) {
  // Forge a CRC-valid record with type byte 200: a future format this
  // build cannot replay must stop the scan, not be skipped silently.
  std::string buf;
  AppendRecord(RecordType::kCaqpInsert, "x", &buf);
  buf[4] = static_cast<char>(200);
  // Recompute the CRC so only the type is "wrong".
  uint32_t crc = Crc32(buf.data() + 4, buf.size() - 8);
  for (int i = 0; i < 4; ++i) {
    buf[buf.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  size_t offset = 0;
  Record rec;
  EXPECT_EQ(ParseRecord(buf, &offset, &rec), RecordParse::kTorn);
}

TEST(FailPointTest, ArmFiresOnceThenSticky) {
  FailPoint& fp = FailPoint::Global();
  fp.Reset();
  EXPECT_FALSE(FailPointShouldFail("p.a"));  // inactive: no counting
  fp.Arm("p.a", 1);                          // fire on the 2nd hit
  EXPECT_FALSE(FailPointShouldFail("p.a"));
  EXPECT_FALSE(fp.failed());
  EXPECT_TRUE(FailPointShouldFail("p.a"));
  EXPECT_TRUE(fp.failed());
  // Sticky: every boundary fails now, armed or not.
  EXPECT_TRUE(FailPointShouldFail("p.other"));
  fp.Reset();
  EXPECT_FALSE(FailPointShouldFail("p.other"));
}

TEST(FailPointTest, CountingCensus) {
  FailPoint& fp = FailPoint::Global();
  fp.Reset();
  fp.SetCounting(true);
  EXPECT_FALSE(FailPointShouldFail("p.x"));
  EXPECT_FALSE(FailPointShouldFail("p.x"));
  EXPECT_FALSE(FailPointShouldFail("p.y"));
  EXPECT_EQ(fp.Hits("p.x"), 2u);
  EXPECT_EQ(fp.Hits("p.y"), 1u);
  std::vector<std::string> names = fp.Names();
  EXPECT_EQ(names.size(), 2u);
  fp.Reset();
  EXPECT_EQ(fp.Hits("p.x"), 0u);
}

TEST_F(PersistTest, JournalRoundTrip) {
  ERQ_ASSERT_OK(CreateDirIfMissing(dir_));
  PersistOptions options;
  options.dir = dir_;
  {
    JournalWriter w;
    ERQ_ASSERT_OK(w.Open(dir_, /*truncate=*/true, options));
    ERQ_ASSERT_OK(w.Append(RecordType::kCaqpInsert, "part a"));
    ERQ_ASSERT_OK(w.Append(RecordType::kCaqpRemove, "part a"));
    EXPECT_EQ(w.appended_records(), 2u);
  }
  ERQ_ASSERT_OK_AND_ASSIGN(JournalScan scan, ScanJournal(dir_));
  EXPECT_FALSE(scan.missing);
  EXPECT_EQ(scan.truncated_bytes, 0u);
  ASSERT_EQ(scan.records.size(), 3u);  // header + 2
  EXPECT_EQ(scan.records[0].type, RecordType::kFileHeader);
  EXPECT_EQ(scan.records[0].payload, kJournalHeaderPayload);
  EXPECT_EQ(scan.records[1].payload, "part a");
  EXPECT_EQ(scan.records[2].type, RecordType::kCaqpRemove);
}

TEST_F(PersistTest, JournalScanStopsAtTornTail) {
  ERQ_ASSERT_OK(CreateDirIfMissing(dir_));
  PersistOptions options;
  options.dir = dir_;
  uint64_t clean_bytes = 0;
  {
    JournalWriter w;
    ERQ_ASSERT_OK(w.Open(dir_, /*truncate=*/true, options));
    ERQ_ASSERT_OK(w.Append(RecordType::kCaqpInsert, "good"));
    clean_bytes = w.size_bytes();
  }
  // Append garbage straight to the file: a torn tail.
  {
    AppendFile f;
    ERQ_ASSERT_OK(f.Open(JournalPath(), /*truncate=*/false, "test.garbage"));
    ERQ_ASSERT_OK(f.Append("torn garbage bytes"));
  }
  ERQ_ASSERT_OK_AND_ASSIGN(JournalScan scan, ScanJournal(dir_));
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.valid_bytes, clean_bytes);
  EXPECT_EQ(scan.truncated_bytes, 18u);
}

TEST_F(PersistTest, JournalFsyncPolicies) {
  ERQ_ASSERT_OK(CreateDirIfMissing(dir_));
  Counter* fsyncs =
      MetricsRegistry::Global().GetCounter("erq.persist.fsyncs");

  // every-N policy: 6 appends at N=3 -> exactly 2 policy syncs.
  PersistOptions every3;
  every3.dir = dir_;
  every3.fsync_every_n = 3;
  {
    JournalWriter w;
    ERQ_ASSERT_OK(w.Open(dir_, /*truncate=*/true, every3));
    uint64_t base = fsyncs->Value();  // Open's header sync included
    for (int i = 0; i < 6; ++i) {
      ERQ_ASSERT_OK(w.Append(RecordType::kCaqpInsert, "p"));
    }
    EXPECT_EQ(fsyncs->Value() - base, 2u);
  }

  // off policy (both knobs 0): appends never sync; manual Sync works.
  PersistOptions off;
  off.dir = dir_;
  off.fsync_every_n = 0;
  off.fsync_interval_ms = 0;
  {
    JournalWriter w;
    ERQ_ASSERT_OK(w.Open(dir_, /*truncate=*/true, off));
    uint64_t base = fsyncs->Value();
    for (int i = 0; i < 10; ++i) {
      ERQ_ASSERT_OK(w.Append(RecordType::kCaqpInsert, "p"));
    }
    EXPECT_EQ(fsyncs->Value() - base, 0u);
    ERQ_ASSERT_OK(w.Sync());
    EXPECT_EQ(fsyncs->Value() - base, 1u);
  }

  // interval policy: a 0ms-elapsed threshold of 1ms means the first
  // append after any measurable delay syncs; with a huge interval none do.
  PersistOptions interval;
  interval.dir = dir_;
  interval.fsync_every_n = 0;
  interval.fsync_interval_ms = 3600 * 1000;
  {
    JournalWriter w;
    ERQ_ASSERT_OK(w.Open(dir_, /*truncate=*/true, interval));
    uint64_t base = fsyncs->Value();
    for (int i = 0; i < 5; ++i) {
      ERQ_ASSERT_OK(w.Append(RecordType::kCaqpInsert, "p"));
    }
    EXPECT_EQ(fsyncs->Value() - base, 0u);
  }
}

TEST_F(PersistTest, SnapshotRoundTripAndCorruptionRejected) {
  ERQ_ASSERT_OK(CreateDirIfMissing(dir_));
  std::vector<Record> body;
  body.push_back(Record{RecordType::kCaqpInsert, "line 1"});
  body.push_back(Record{RecordType::kMvStore, "fp 1"});
  ERQ_ASSERT_OK(WriteSnapshot(dir_, body));

  ERQ_ASSERT_OK_AND_ASSIGN(SnapshotScan scan, ReadSnapshot(dir_));
  EXPECT_FALSE(scan.missing);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].payload, "line 1");
  EXPECT_EQ(scan.records[1].type, RecordType::kMvStore);

  // Flip one byte: ReadSnapshot must fail, not repair (atomic rename
  // means a damaged snapshot is external corruption).
  std::string path = dir_ + "/" + kSnapshotFileName;
  ERQ_ASSERT_OK_AND_ASSIGN(std::string raw, ReadFileToString(path));
  raw[raw.size() / 2] = static_cast<char>(raw[raw.size() / 2] ^ 0x40);
  ERQ_ASSERT_OK(WriteFileAtomic(path, raw, "test.corrupt"));
  EXPECT_FALSE(ReadSnapshot(dir_).ok());

  // Truncated snapshot (lost footer) is also rejected.
  ERQ_ASSERT_OK(WriteSnapshot(dir_, body));
  ERQ_ASSERT_OK_AND_ASSIGN(raw, ReadFileToString(path));
  ERQ_ASSERT_OK(
      WriteFileAtomic(path, raw.substr(0, raw.size() - 5), "test.corrupt"));
  EXPECT_FALSE(ReadSnapshot(dir_).ok());
}

TEST_F(PersistTest, MissingFilesRecoverEmpty) {
  PersistOptions options;
  options.dir = dir_;
  ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                           Persistence::Open(options));
  EXPECT_TRUE(p->recovered().parts.empty());
  EXPECT_EQ(p->recovered().truncated_bytes, 0u);
}

TEST_F(PersistTest, InsertSurvivesRestart) {
  PersistOptions options;
  options.dir = dir_;
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    CaqpCache cache(100);
    ERQ_ASSERT_OK(p->AttachCaqp(&cache));
    for (int64_t i = 0; i < 10; ++i) cache.Insert(PointPart(i));
  }
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    EXPECT_EQ(p->recovered().parts.size(), 10u);
    CaqpCache cache(100);
    ERQ_ASSERT_OK(p->AttachCaqp(&cache));
    EXPECT_EQ(cache.size(), 10u);
    for (int64_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(cache.CoveredBy(PointPart(i))) << i;
    }
  }
}

TEST_F(PersistTest, DisplacementAndInvalidationAreNotResurrected) {
  PersistOptions options;
  options.dir = dir_;
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    CaqpCache cache(100);
    ERQ_ASSERT_OK(p->AttachCaqp(&cache));
    for (int64_t i = 0; i < 10; ++i) cache.Insert(PointPart(i));
    // Displaces points 2..5 (they are covered by the range).
    cache.Insert(RangePart(2, 5));
    // Invalidates point 8.
    cache.DropIf([](const AtomicQueryPart& aqp) {
      return aqp.Equals(PointPart(8));
    });
    EXPECT_EQ(cache.size(), 6u);  // 0,1,6,7,9 + range
  }
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    CaqpCache cache(100);
    ERQ_ASSERT_OK(p->AttachCaqp(&cache));
    EXPECT_EQ(cache.size(), 6u);
    std::set<std::string> got = SerializedSet(cache.Snapshot());
    EXPECT_EQ(got, SerializedSet({PointPart(0), PointPart(1), PointPart(6),
                                  PointPart(7), PointPart(9),
                                  RangePart(2, 5)}));
  }
}

TEST_F(PersistTest, ClearSurvivesRestart) {
  PersistOptions options;
  options.dir = dir_;
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    CaqpCache cache(100);
    ERQ_ASSERT_OK(p->AttachCaqp(&cache));
    for (int64_t i = 0; i < 5; ++i) cache.Insert(PointPart(i));
    cache.Clear();
    cache.Insert(PointPart(42));
  }
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    ASSERT_EQ(p->recovered().parts.size(), 1u);
    EXPECT_TRUE(p->recovered().parts[0].Equals(PointPart(42)));
  }
}

TEST_F(PersistTest, EvictionsAreDurable) {
  PersistOptions options;
  options.dir = dir_;
  std::set<std::string> before_close;
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    CaqpCache cache(4);
    ERQ_ASSERT_OK(p->AttachCaqp(&cache));
    for (int64_t i = 0; i < 10; ++i) cache.Insert(PointPart(i));
    EXPECT_EQ(cache.size(), 4u);
    before_close = SerializedSet(cache.Snapshot());
  }
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    EXPECT_EQ(p->recovered().parts.size(), 4u);
    EXPECT_EQ(SerializedSet(p->recovered().parts), before_close);
  }
}

TEST_F(PersistTest, ShrunkenCapacityDoesNotResurrectOnSecondRestart) {
  PersistOptions options;
  options.dir = dir_;
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    CaqpCache cache(100);
    ERQ_ASSERT_OK(p->AttachCaqp(&cache));
    for (int64_t i = 0; i < 10; ++i) cache.Insert(PointPart(i));
  }
  size_t first_restart_size = 0;
  std::set<std::string> first_restart_parts;
  {
    // Restart with a smaller cache: only 3 parts survive the attach.
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    CaqpCache cache(3);
    ERQ_ASSERT_OK(p->AttachCaqp(&cache));
    first_restart_size = cache.size();
    EXPECT_EQ(first_restart_size, 3u);
    first_restart_parts = SerializedSet(cache.Snapshot());
  }
  {
    // The attach-time compaction re-based disk on the shrunken state, so
    // the dropped parts must not come back.
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    EXPECT_EQ(p->recovered().parts.size(), first_restart_size);
    EXPECT_EQ(SerializedSet(p->recovered().parts), first_restart_parts);
  }
}

TEST_F(PersistTest, OpaquePartsStayMemoryOnly) {
  using namespace erq::eb;  // NOLINT
  AtomicQueryPart opaque(
      RelationSet({"t"}),
      Conjunction::Make({PrimitiveTerm::MakeOpaque(
          Lt(Col("t", "x"), Add(Col("t", "y"), Int(1))))}));
  Counter* skipped =
      MetricsRegistry::Global().GetCounter("erq.persist.skipped_opaque");
  uint64_t base = skipped->Value();
  PersistOptions options;
  options.dir = dir_;
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    CaqpCache cache(100);
    ERQ_ASSERT_OK(p->AttachCaqp(&cache));
    cache.Insert(opaque);
    cache.Insert(PointPart(1));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(skipped->Value() - base, 1u);
    ERQ_ASSERT_OK(p->status());
  }
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    ASSERT_EQ(p->recovered().parts.size(), 1u);
    EXPECT_TRUE(p->recovered().parts[0].Equals(PointPart(1)));
  }
}

TEST_F(PersistTest, RotationCompactsJournal) {
  PersistOptions options;
  options.dir = dir_;
  options.snapshot_journal_bytes = 512;  // rotate every handful of inserts
  Counter* snapshots =
      MetricsRegistry::Global().GetCounter("erq.persist.snapshots");
  uint64_t base = snapshots->Value();
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    CaqpCache cache(1000);
    ERQ_ASSERT_OK(p->AttachCaqp(&cache));
    for (int64_t i = 0; i < 200; ++i) cache.Insert(PointPart(i));
    ERQ_ASSERT_OK(p->status());
    ERQ_ASSERT_OK(p->SnapshotNow());
  }
  EXPECT_GT(snapshots->Value() - base, 2u);
  // The journal stayed bounded: far smaller than 200 records' worth.
  ERQ_ASSERT_OK_AND_ASSIGN(JournalScan scan, ScanJournal(dir_));
  EXPECT_LT(scan.valid_bytes, 4u * options.snapshot_journal_bytes);
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    EXPECT_EQ(p->recovered().parts.size(), 200u);
  }
}

TEST_F(PersistTest, TornJournalTailIsTruncatedOnRecovery) {
  PersistOptions options;
  options.dir = dir_;
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    CaqpCache cache(100);
    ERQ_ASSERT_OK(p->AttachCaqp(&cache));
    for (int64_t i = 0; i < 5; ++i) cache.Insert(PointPart(i));
  }
  {
    AppendFile f;
    ERQ_ASSERT_OK(f.Open(JournalPath(), /*truncate=*/false, "test.garbage"));
    ERQ_ASSERT_OK(f.Append("half-written rec"));
  }
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    EXPECT_EQ(p->recovered().parts.size(), 5u);
    EXPECT_EQ(p->recovered().truncated_bytes, 16u);
  }
  // The truncation is durable: a second recovery sees a clean journal.
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    EXPECT_EQ(p->recovered().truncated_bytes, 0u);
    EXPECT_EQ(p->recovered().parts.size(), 5u);
  }
}

TEST_F(PersistTest, OpenReadOnlyReportsTornTailWithoutTruncating) {
  PersistOptions options;
  options.dir = dir_;
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    CaqpCache cache(100);
    ERQ_ASSERT_OK(p->AttachCaqp(&cache));
    for (int64_t i = 0; i < 5; ++i) cache.Insert(PointPart(i));
  }
  {
    AppendFile f;
    ERQ_ASSERT_OK(f.Open(JournalPath(), /*truncate=*/false, "test.garbage"));
    ERQ_ASSERT_OK(f.Append("half-written rec"));
  }
  ERQ_ASSERT_OK_AND_ASSIGN(std::string before, ReadFileToString(JournalPath()));
  // Two read-only opens in a row: both see the torn tail (it is never
  // repaired), and the journal file never changes — an inspector must not
  // mutate what it examines.
  for (int round = 0; round < 2; ++round) {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::OpenReadOnly(options));
    EXPECT_EQ(p->recovered().parts.size(), 5u);
    EXPECT_EQ(p->recovered().truncated_bytes, 16u);
  }
  ERQ_ASSERT_OK_AND_ASSIGN(std::string after, ReadFileToString(JournalPath()));
  EXPECT_EQ(after.size(), before.size());
  // A real Open() afterwards still repairs it durably.
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    EXPECT_EQ(p->recovered().truncated_bytes, 16u);
  }
  ERQ_ASSERT_OK_AND_ASSIGN(std::string fixed, ReadFileToString(JournalPath()));
  EXPECT_EQ(fixed.size(), before.size() - 16u);
}

TEST_F(PersistTest, CorruptSnapshotFailsOpen) {
  PersistOptions options;
  options.dir = dir_;
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    CaqpCache cache(100);
    ERQ_ASSERT_OK(p->AttachCaqp(&cache));
    cache.Insert(PointPart(1));
  }
  std::string path = dir_ + "/" + kSnapshotFileName;
  ERQ_ASSERT_OK_AND_ASSIGN(std::string raw, ReadFileToString(path));
  raw[raw.size() / 2] = static_cast<char>(raw[raw.size() / 2] ^ 0x10);
  ERQ_ASSERT_OK(WriteFileAtomic(path, raw, "test.corrupt"));
  StatusOr<std::unique_ptr<Persistence>> p = Persistence::Open(options);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kIoError);
}

TEST_F(PersistTest, ReplayIsIdempotent) {
  PersistOptions options;
  options.dir = dir_;
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    CaqpCache cache(100);
    ERQ_ASSERT_OK(p->AttachCaqp(&cache));
    for (int64_t i = 0; i < 8; ++i) cache.Insert(PointPart(i));
    cache.Insert(RangePart(1, 3));  // displacements in the journal
  }
  // Duplicate the journal's own records back onto it: replaying the same
  // mutation stream twice must not change the outcome.
  ERQ_ASSERT_OK_AND_ASSIGN(JournalScan scan, ScanJournal(dir_));
  {
    AppendFile f;
    ERQ_ASSERT_OK(f.Open(JournalPath(), /*truncate=*/false, "test.dup"));
    std::string dup;
    for (size_t i = 1; i < scan.records.size(); ++i) {  // skip header
      AppendRecord(scan.records[i].type, scan.records[i].payload, &dup);
    }
    ERQ_ASSERT_OK(f.Append(dup));
  }
  std::set<std::string> once, twice;
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    twice = SerializedSet(p->recovered().parts);
  }
  once = SerializedSet({PointPart(0), PointPart(4), PointPart(5),
                        PointPart(6), PointPart(7), RangePart(1, 3)});
  EXPECT_EQ(twice, once);
}

TEST_F(PersistTest, LegacyMvRecordsAreSkippedOnReplay) {
  // Older builds journaled the MV baseline cache as record types 5-7. A
  // file holding one must still recover every C_aqp record after it: an
  // unknown type would read as a torn tail and truncate the rest.
  PersistOptions options;
  options.dir = dir_;
  ERQ_ASSERT_OK_AND_ASSIGN(std::string first, SerializePart(PointPart(1)));
  ERQ_ASSERT_OK_AND_ASSIGN(std::string second, SerializePart(PointPart(2)));
  ERQ_ASSERT_OK(CreateDirIfMissing(dir_));
  {
    JournalWriter w;
    ERQ_ASSERT_OK(w.Open(dir_, /*truncate=*/true, options));
    ERQ_ASSERT_OK(w.Append(RecordType::kCaqpInsert, first));
    ERQ_ASSERT_OK(w.Append(RecordType::kMvStore, "fp1"));
    ERQ_ASSERT_OK(w.Append(RecordType::kCaqpInsert, second));
    ERQ_ASSERT_OK(w.Sync());
  }
  ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                           Persistence::Open(options));
  EXPECT_EQ(p->recovered().truncated_bytes, 0u);
  EXPECT_EQ(p->recovered().journal_records, 3u);
  EXPECT_EQ(SerializedSet(p->recovered().parts),
            (std::set<std::string>{first, second}));
}

TEST_F(PersistTest, LegacyPartitionFactsAreDroppedOnRecovery) {
  // Older builds stored per-partition facts over "base@k"
  // pseudo-relations. Recovery drops them and keeps every ordinary part;
  // the attach-time compaction then leaves them out of the snapshot.
  PersistOptions options;
  options.dir = dir_;
  AtomicQueryPart legacy(
      RelationSet({"items@2"}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make("items@2", "price"),
          ValueInterval::Range(Value::Int(500), true, Value::Int(600),
                               true))}));
  ERQ_ASSERT_OK_AND_ASSIGN(std::string ordinary, SerializePart(PointPart(7)));
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    CaqpCache cache(100);
    ERQ_ASSERT_OK(p->AttachCaqp(&cache));
    cache.Insert(legacy);
    cache.Insert(PointPart(7));
    ASSERT_EQ(cache.size(), 2u);
  }
  {
    ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                             Persistence::Open(options));
    EXPECT_EQ(p->recovered().truncated_bytes, 0u);
    EXPECT_EQ(p->recovered().journal_records, 2u);
    EXPECT_EQ(SerializedSet(p->recovered().parts),
              (std::set<std::string>{ordinary}));
    CaqpCache cache(100);
    ERQ_ASSERT_OK(p->AttachCaqp(&cache));
    EXPECT_EQ(cache.size(), 1u);
  }
  ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                           Persistence::OpenReadOnly(options));
  EXPECT_EQ(p->recovered().snapshot_records, 1u);
  EXPECT_EQ(SerializedSet(p->recovered().parts),
            (std::set<std::string>{ordinary}));
}

TEST_F(PersistTest, StickyIoErrorStopsJournalingButNotTheCache) {
  PersistOptions options;
  options.dir = dir_;
  ERQ_ASSERT_OK_AND_ASSIGN(std::unique_ptr<Persistence> p,
                           Persistence::Open(options));
  CaqpCache cache(100);
  ERQ_ASSERT_OK(p->AttachCaqp(&cache));
  cache.Insert(PointPart(1));
  ERQ_ASSERT_OK(p->status());
  FailPoint::Global().Arm("persist.journal.append.before", 0);
  cache.Insert(PointPart(2));  // journaling fails, cache insert succeeds
  EXPECT_FALSE(p->status().ok());
  EXPECT_EQ(p->status().code(), StatusCode::kIoError);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.CoveredBy(PointPart(2)));
  // Further mutations are served from memory; status stays the first error.
  cache.Insert(PointPart(3));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(p->Flush().ok());
  FailPoint::Global().Reset();
}

TEST_F(PersistTest, ValidateRejectsBadOptions) {
  PersistOptions disabled;
  ERQ_ASSERT_OK(disabled.Validate());  // disabled: everything else ignored

  PersistOptions zero_rotate;
  zero_rotate.dir = "/tmp/x";
  zero_rotate.snapshot_journal_bytes = 0;
  EXPECT_FALSE(zero_rotate.Validate().ok());

  PersistOptions negative_interval;
  negative_interval.dir = "/tmp/x";
  negative_interval.fsync_interval_ms = -5;
  EXPECT_FALSE(negative_interval.Validate().ok());
}

}  // namespace
}  // namespace erq
