#pragma once

/// \file
/// Crash-safe persistence for C_aqp: a snapshot plus an append-only
/// journal of every mutation, recovered on startup (DESIGN.md §7). The
/// `Persistence` object is the single owner of the on-disk state; it
/// observes cache mutations through the cache's change-listener hook and
/// never calls back into the cache, so the lock order is strictly
/// cache-mutex → persistence-mutex.

#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/lock_order.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "core/caqp_cache.h"
#include "persist/journal.h"
#include "persist/options.h"
#include "persist/record.h"

namespace erq {

/// Durability engine for C_aqp. Open() recovers the previous process's
/// state from `snapshot.erq` + `journal.erq`; AttachCaqp() loads that
/// state into a live cache and starts journaling its mutations.
///
/// Rotation: the object keeps an in-memory *mirror* of the durable state
/// (the serialized form of every live entry, maintained by the listener
/// callbacks). When the journal outgrows
/// PersistOptions::snapshot_journal_bytes, the mirror is written as a new
/// snapshot (atomic rename) and the journal is reset — all without
/// touching the cache, so rotation may run inside a listener callback.
///
/// IO errors are sticky: after the first failed write, journaling stops,
/// status() reports the error, and the cache keeps serving from memory;
/// the on-disk state remains a valid (if stale) recovery point.
class Persistence : public CaqpCache::ChangeListener {
 public:
  /// What recovery reconstructed from disk.
  struct RecoveredState {
    /// C_aqp parts, in original insertion order (parts over legacy
    /// "base@k" partition pseudo-relations left out).
    std::vector<AtomicQueryPart> parts;
    /// Body records read from the snapshot.
    uint64_t snapshot_records = 0;
    /// Records replayed from the journal (header excluded).
    uint64_t journal_records = 0;
    /// Torn journal-tail bytes dropped by recovery.
    uint64_t truncated_bytes = 0;
    /// Wall-clock recovery time.
    double recovery_seconds = 0.0;
  };

  /// Creates the persist directory if needed, recovers state from the
  /// snapshot and journal (truncating a torn journal tail), and opens the
  /// journal for appending. Fails on real IO errors or a corrupt
  /// snapshot — never on a torn journal.
  ERQ_NODISCARD static StatusOr<std::unique_ptr<Persistence>> Open(
      const PersistOptions& options);

  /// Like Open(), but strictly read-only: reconstructs RecoveredState
  /// without creating the directory, truncating a torn tail (its size is
  /// still reported in recovered().truncated_bytes), opening the journal
  /// for appending, or touching the recovery metrics. For inspection
  /// tools (cache_inspect) that must never repair what they examine; the
  /// returned object must not be attached to a cache or journaled to.
  ERQ_NODISCARD static StatusOr<std::unique_ptr<Persistence>> OpenReadOnly(
      const PersistOptions& options);

  /// Detaches from the cache, flushes and closes the journal.
  ~Persistence() override;

  Persistence(const Persistence&) = delete;
  Persistence& operator=(const Persistence&) = delete;

  /// State reconstructed by Open(); fixed thereafter.
  const RecoveredState& recovered() const { return recovered_; }

  /// Loads the recovered parts into `cache`, starts journaling its
  /// mutations, and compacts (fresh snapshot + empty journal) so disk
  /// exactly matches the live cache. Call once, before `cache` is shared
  /// with other threads; `cache` must outlive this object.
  ERQ_NODISCARD Status AttachCaqp(CaqpCache* cache);

  /// Forces an fsync of the journal (clean-shutdown flush).
  ERQ_NODISCARD Status Flush() ERQ_EXCLUDES(mu_);

  /// Forces a snapshot rotation now, regardless of journal size.
  ERQ_NODISCARD Status SnapshotNow() ERQ_EXCLUDES(mu_);

  /// OK until the first IO failure; then the sticky first error.
  ERQ_NODISCARD Status status() const ERQ_EXCLUDES(mu_);

  /// CaqpCache::ChangeListener — runs under the cache's exclusive lock.
  void OnInsert(const AtomicQueryPart& aqp) override;
  /// Journals a removal (eviction, displacement, or invalidation).
  void OnRemove(const AtomicQueryPart& aqp,
                CaqpCache::RemoveReason reason) override;
  /// Journals a wholesale clear of C_aqp.
  void OnClear() override;

 private:
  /// Insertion-ordered set of serialized entries (the durable mirror of
  /// the cache): a list for order plus an index for O(1) membership.
  struct Mirror {
    std::list<std::string> order;
    std::unordered_map<std::string, std::list<std::string>::iterator> index;

    bool Add(const std::string& key);
    bool Erase(const std::string& key);
    void Clear();
    size_t size() const { return order.size(); }
  };

  explicit Persistence(PersistOptions options);

  /// Shared body of Open() / OpenReadOnly().
  ERQ_NODISCARD static StatusOr<std::unique_ptr<Persistence>> OpenImpl(
      const PersistOptions& options, bool read_only);

  /// Replays snapshot + journal records into the mirror and fills
  /// recovered_ (called once from Open).
  ERQ_NODISCARD Status RecoverLocked() ERQ_REQUIRES(mu_);

  /// Appends one record; on failure latches io_status_ and stops
  /// journaling.
  void AppendLocked(RecordType type, std::string_view payload)
      ERQ_REQUIRES(mu_);

  /// Writes the mirror as a fresh snapshot and resets the journal.
  ERQ_NODISCARD Status RotateLocked() ERQ_REQUIRES(mu_);
  void MaybeRotateLocked() ERQ_REQUIRES(mu_);

  const PersistOptions options_;
  /// True for OpenReadOnly instances: no truncation, no journal writes.
  bool read_only_ = false;

  // Acquired under the cache's lock (listener callbacks) and held across
  // IO seams that consult FailPoint and register metrics, hence the two
  // ACQUIRED_BEFORE edges.
  mutable Mutex mu_ ERQ_ACQUIRED_AFTER(lock_order::kPersistence)
      ERQ_ACQUIRED_BEFORE(lock_order::kFailPoint,
                          lock_order::kMetrics){lock_order::kPersistence};
  JournalWriter journal_ ERQ_GUARDED_BY(mu_);
  Status io_status_ ERQ_GUARDED_BY(mu_);
  Mirror caqp_mirror_ ERQ_GUARDED_BY(mu_);

  /// Written once by Open before the object is shared.
  RecoveredState recovered_;
  /// The attached cache (detached in the destructor).
  CaqpCache* caqp_ = nullptr;
};

}  // namespace erq
