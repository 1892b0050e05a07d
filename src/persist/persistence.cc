#include "persist/persistence.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "core/serialize.h"
#include "persist/failpoint.h"
#include "persist/io.h"
#include "persist/snapshot.h"

namespace erq {

namespace {

/// Persistence-layer instruments (journal-level ones live in journal.cc).
struct PersistMetrics {
  Counter* snapshots;
  Counter* recovery_replayed;
  Counter* recovery_truncated_bytes;
  Counter* skipped_opaque;
  Histogram* recovery_seconds;

  static const PersistMetrics& Get() {
    static const PersistMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return PersistMetrics{
          r.GetCounter("erq.persist.snapshots"),
          r.GetCounter("erq.persist.recovery_replayed"),
          r.GetCounter("erq.persist.recovery_truncated_bytes"),
          r.GetCounter("erq.persist.skipped_opaque"),
          r.GetHistogram("erq.persist.recovery_seconds"),
      };
    }();
    return m;
  }
};

}  // namespace

bool Persistence::Mirror::Add(const std::string& key) {
  if (index.find(key) != index.end()) return false;
  order.push_back(key);
  index.emplace(key, std::prev(order.end()));
  return true;
}

bool Persistence::Mirror::Erase(const std::string& key) {
  auto it = index.find(key);
  if (it == index.end()) return false;
  order.erase(it->second);
  index.erase(it);
  return true;
}

void Persistence::Mirror::Clear() {
  order.clear();
  index.clear();
}

Persistence::Persistence(PersistOptions options)
    : options_(std::move(options)) {}

StatusOr<std::unique_ptr<Persistence>> Persistence::Open(
    const PersistOptions& options) {
  return OpenImpl(options, /*read_only=*/false);
}

StatusOr<std::unique_ptr<Persistence>> Persistence::OpenReadOnly(
    const PersistOptions& options) {
  return OpenImpl(options, /*read_only=*/true);
}

StatusOr<std::unique_ptr<Persistence>> Persistence::OpenImpl(
    const PersistOptions& options, bool read_only) {
  ERQ_RETURN_IF_ERROR(options.Validate());
  if (!options.enabled()) {
    return Status::InvalidArgument("Persistence::Open: empty persist dir");
  }
  if (!read_only) ERQ_RETURN_IF_ERROR(CreateDirIfMissing(options.dir));
  std::unique_ptr<Persistence> p(new Persistence(options));
  p->read_only_ = read_only;
  MutexLock lock(&p->mu_);
  ERQ_RETURN_IF_ERROR(p->RecoverLocked());
  return p;
}

Status Persistence::RecoverLocked() {
  Timer timer;
  ERQ_ASSIGN_OR_RETURN(SnapshotScan snapshot, ReadSnapshot(options_.dir));
  ERQ_ASSIGN_OR_RETURN(JournalScan journal, ScanJournal(options_.dir));
  if (journal.truncated_bytes > 0) {
    recovered_.truncated_bytes = journal.truncated_bytes;
    // A read-only open reports the torn tail but must not repair it.
    if (!read_only_) {
      ERQ_RETURN_IF_ERROR(TruncateFileTo(
          options_.dir + "/" + kJournalFileName, journal.valid_bytes));
      PersistMetrics::Get().recovery_truncated_bytes->Increment(
          journal.truncated_bytes);
    }
  }
  // Replay into the mirror: insert records are exactly the parts that
  // entered the cache, remove records exactly those that left it, so
  // literal application reproduces the final cache contents (replay is
  // idempotent: Add/Erase of an already-applied key is a no-op).
  auto apply = [this](const Record& rec) {
    switch (rec.type) {
      case RecordType::kCaqpInsert:
        caqp_mirror_.Add(rec.payload);
        break;
      case RecordType::kCaqpRemove:
        caqp_mirror_.Erase(rec.payload);
        break;
      case RecordType::kCaqpClear:
        caqp_mirror_.Clear();
        break;
      // Legacy MV-baseline records from older files: parsed (so they do
      // not read as a torn tail) and skipped.
      case RecordType::kMvStore:
      case RecordType::kMvRemove:
      case RecordType::kMvClear:
      case RecordType::kFileHeader:
      case RecordType::kSnapshotFooter:
        break;
    }
  };
  for (const Record& rec : snapshot.records) apply(rec);
  for (const Record& rec : journal.records) apply(rec);
  recovered_.snapshot_records = snapshot.records.size();
  recovered_.journal_records =
      journal.records.empty() ? 0 : journal.records.size() - 1;

  recovered_.parts.reserve(caqp_mirror_.size());
  for (const std::string& line : caqp_mirror_.order) {
    // Every line survived a CRC check, so a parse failure means the file
    // was written by an incompatible build — surface it, don't guess.
    ERQ_ASSIGN_OR_RETURN(AtomicQueryPart part, ParsePart(line));
    // Older builds stored per-partition facts over "base@k"
    // pseudo-relations. Nothing probes or invalidates them any more, so
    // they are dropped here ('@' occurs in no SQL identifier and no "#k"
    // occurrence name); AttachCaqp's re-based mirror leaves them out of
    // the next snapshot.
    const std::vector<std::string>& names = part.relations().names();
    if (std::any_of(names.begin(), names.end(), [](const std::string& n) {
          return n.find('@') != std::string::npos;
        })) {
      continue;
    }
    recovered_.parts.push_back(std::move(part));
  }

  recovered_.recovery_seconds = timer.Seconds();
  if (read_only_) return Status::OK();

  ERQ_RETURN_IF_ERROR(
      journal_.Open(options_.dir, /*truncate=*/false, options_));
  const PersistMetrics& m = PersistMetrics::Get();
  m.recovery_replayed->Increment(recovered_.snapshot_records +
                                 recovered_.journal_records);
  m.recovery_seconds->Observe(recovered_.recovery_seconds);
  return Status::OK();
}

Persistence::~Persistence() {
  // Detach before closing so no callback is in flight once the journal
  // goes away. SetChangeListener takes the cache lock; mu_ must not be
  // held here (lock order is cache → persistence).
  if (caqp_ != nullptr) caqp_->SetChangeListener(nullptr);
  MutexLock lock(&mu_);
  if (journal_.is_open() && io_status_.ok()) {
    (void)journal_.Sync();
  }
  journal_.Close();
}

Status Persistence::AttachCaqp(CaqpCache* cache) {
  for (const AtomicQueryPart& part : recovered_.parts) {
    cache->Insert(part);
  }
  // Re-base the mirror on what the cache actually kept: a smaller n_max
  // than the previous run's may have evicted some recovered parts, and
  // those evictions must not resurrect on the next startup. The snapshot
  // is taken before mu_ — lock order is cache → persistence, so no cache
  // lock may be acquired while mu_ is held. AttachCaqp runs before the
  // cache is shared (see header), so nothing mutates it in between.
  std::vector<AtomicQueryPart> kept = cache->Snapshot();
  {
    MutexLock lock(&mu_);
    caqp_mirror_.Clear();
    for (const AtomicQueryPart& part : kept) {
      StatusOr<std::string> line = SerializePart(part);
      if (line.ok()) caqp_mirror_.Add(*line);
    }
    caqp_ = cache;
  }
  cache->SetChangeListener(this);
  // Compact: after this, disk is exactly one snapshot of the live state
  // plus an empty journal, so journals never accumulate across restarts.
  MutexLock lock(&mu_);
  ERQ_RETURN_IF_ERROR(RotateLocked());
  return Status::OK();
}

void Persistence::AppendLocked(RecordType type, std::string_view payload) {
  if (!io_status_.ok()) return;
  Status s = journal_.Append(type, payload);
  if (!s.ok()) {
    io_status_ = s;
    return;
  }
  MaybeRotateLocked();
}

void Persistence::MaybeRotateLocked() {
  if (!io_status_.ok()) return;
  if (journal_.size_bytes() <= options_.snapshot_journal_bytes) return;
  Status s = RotateLocked();
  if (!s.ok()) io_status_ = s;
}

Status Persistence::RotateLocked() {
  std::vector<Record> body;
  body.reserve(caqp_mirror_.size());
  for (const std::string& line : caqp_mirror_.order) {
    body.push_back(Record{RecordType::kCaqpInsert, line});
  }
  ERQ_RETURN_IF_ERROR(WriteSnapshot(options_.dir, body));
  PersistMetrics::Get().snapshots->Increment();
  if (FailPointShouldFail("persist.journal.reset")) {
    return Status::IoError("simulated crash at persist.journal.reset");
  }
  journal_.Close();
  return journal_.Open(options_.dir, /*truncate=*/true, options_);
}

Status Persistence::Flush() {
  MutexLock lock(&mu_);
  if (!io_status_.ok()) return io_status_;
  Status s = journal_.Sync();
  if (!s.ok()) io_status_ = s;
  return s;
}

Status Persistence::SnapshotNow() {
  MutexLock lock(&mu_);
  if (!io_status_.ok()) return io_status_;
  Status s = RotateLocked();
  if (!s.ok()) io_status_ = s;
  return s;
}

Status Persistence::status() const {
  MutexLock lock(&mu_);
  return io_status_;
}

void Persistence::OnInsert(const AtomicQueryPart& aqp) {
  StatusOr<std::string> line = SerializePart(aqp);
  if (!line.ok()) {
    // Opaque terms have no serialized form: the part stays memory-only
    // (symmetrically skipped on removal via the mirror membership test).
    PersistMetrics::Get().skipped_opaque->Increment();
    return;
  }
  MutexLock lock(&mu_);
  if (caqp_mirror_.Add(*line)) AppendLocked(RecordType::kCaqpInsert, *line);
}

void Persistence::OnRemove(const AtomicQueryPart& aqp,
                           CaqpCache::RemoveReason /*reason*/) {
  StatusOr<std::string> line = SerializePart(aqp);
  if (!line.ok()) return;  // never journaled: nothing to remove
  MutexLock lock(&mu_);
  if (caqp_mirror_.Erase(*line)) AppendLocked(RecordType::kCaqpRemove, *line);
}

void Persistence::OnClear() {
  MutexLock lock(&mu_);
  caqp_mirror_.Clear();
  AppendLocked(RecordType::kCaqpClear, "");
}

}  // namespace erq
