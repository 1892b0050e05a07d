#pragma once

/// \file
/// CaqpCache — the bounded, epoch-protected C_aqp collection.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/epoch.h"
#include "common/lock_order.h"
#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "core/atomic_query_part.h"
#include "core/signature.h"

namespace erq {

/// The collection C_aqp (§2.2–2.3): an in-memory store of atomic query
/// parts whose outputs are known to be empty on the current database.
///
/// Thread safety: the structure is read-mostly — in an RDBMS many sessions
/// probe C_aqp for every high-cost query while inserts/invalidations are
/// comparatively rare — so the two sides are synchronized differently:
///
///   * Lookups (`CoveredBy`, `Snapshot`) take NO lock at all. The cache
///     publishes an immutable index snapshot behind an atomic pointer; a
///     reader enters an epoch (common/epoch.h), walks the published
///     snapshot, and exits. Writers retire replaced snapshots
///     through the epoch domain, so readers never touch freed memory and
///     concurrent lookups never serialize on anything but their own
///     cache-line-striped epoch counters. The bookkeeping a lookup does
///     mutate — clock reference bits and statistics — lives in relaxed
///     atomics: reference bits are shared between the writer state and
///     every published snapshot, so recency survives republication, and
///     statistics are the lock-free counters of the cache's metrics scope.
///   * Mutators (`Insert`, `InvalidateRelation`, `DropIf`, `Clear`) and
///     `SetChangeListener` serialize on one writer mutex. Only its holder
///     publishes, so under it the published index is current: Insert runs
///     its redundancy check, displacement, eviction and store as one
///     critical section, and N_max is a strict bound at every instant.
///
/// Organization follows the paper: one entry per relation-name set, each
/// holding the list of selection conditions stored for that set. Entry
/// search is sub-linear: the published index maps each relation name to
/// the entries whose first (lexicographically smallest) name it is — a
/// stored set ⊆ probe set contains its own first name, so walking the
/// probe's names visits every candidate exactly once — and the
/// superimposed-coding signatures [31] remain as a second-level filter
/// before the exact subset test. Inside an entry, parts are indexed by
/// their equality terms: each part is anchored under one key (base table,
/// column, value hash) of a term pinning a column to a point, and a probe
/// tests only the parts anchored under its own point keys plus the
/// residual parts that have no equality term (a stored point term can
/// cover nothing but a probe term pinned to the same value). Insert
/// answers its redundancy check through the same lookup, and displacement
/// tests only the stored parts that carry the new part's equality term.
/// The published entries are the only copy of the stored parts: the
/// writer keeps just a key map and all-name postings over them. An entry
/// whose last part is removed leaves the index at the end of that
/// mutation, so churny invalidate/insert workloads cannot grow it without
/// bound. Replacement is clock over the published parts in index order
/// (reference bits set on coverage hits); redundancy is removed by keeping
/// only the most general parts (covered parts are dropped on insert, and
/// an insert that is itself covered is skipped).
class CaqpCache {
 public:
  /// Why a stored part left the cache (passed to ChangeListener::OnRemove).
  enum class RemoveReason {
    /// Capacity eviction (clock victim).
    kEvicted,
    /// Displaced on insert by a more general covering part.
    kDisplaced,
    /// Dropped by InvalidateRelation / DropIf after a database update.
    kInvalidated,
  };

  /// Observer of cache mutations, used by the persistence layer to
  /// journal every change. Callbacks run under the writer mutex, so they
  /// arrive in mutation order (for an Insert that displaces or evicts
  /// parts, the OnRemove calls precede the OnInsert) and never overlap.
  /// Implementations must be fast and must not call back into the cache.
  class ChangeListener {
   public:
    virtual ~ChangeListener() = default;
    /// `aqp` was stored.
    virtual void OnInsert(const AtomicQueryPart& aqp) = 0;
    /// `aqp` was removed for `reason`.
    virtual void OnRemove(const AtomicQueryPart& aqp, RemoveReason reason) = 0;
    /// The cache was cleared wholesale (no per-part OnRemove calls).
    virtual void OnClear() = 0;
  };

  /// Value-type read view of the cache's metrics scope plus index gauges
  /// (see stats_snapshot()).
  struct CacheStats {
    uint64_t lookups = 0;          ///< CoveredBy calls
    uint64_t hits = 0;             ///< CoveredBy returned true
    uint64_t conditions_scanned = 0;  ///< cover tests performed
    uint64_t insert_attempts = 0;  ///< Insert calls
    uint64_t inserted = 0;         ///< parts actually stored
    uint64_t skipped_covered = 0;  ///< new part already covered => not stored
    uint64_t removed_covered = 0;  ///< stored parts displaced by a more
                                   ///< general new part
    uint64_t evictions = 0;           ///< capacity-eviction victims
    uint64_t invalidation_drops = 0;  ///< parts dropped by invalidation

    // Index instrumentation (how a lookup narrowed its search), so
    // Figure-7-style experiments can attribute speedups.
    uint64_t postings_scanned = 0;   ///< posting-list elements touched
                                     ///< (index fan-out)
    uint64_t candidate_entries = 0;  ///< entries actually considered
    uint64_t signature_rejects = 0;  ///< candidates the signature filter cut

    // Gauges sampled when stats_snapshot() is called.
    uint64_t entries_live = 0;   ///< entries currently holding parts
    uint64_t index_names = 0;    ///< distinct relation names indexed
    uint64_t epoch_pending = 0;  ///< retired snapshots not yet reclaimed
  };

  /// A cache holding at most `n_max` parts (0 stores nothing).
  explicit CaqpCache(size_t n_max);

  /// Reclaims every retired snapshot. No lookup may be in flight. (The
  /// metrics scope takes this instance's live parts out of the global
  /// `erq.caqp.size` gauge as it goes.)
  ~CaqpCache() = default;

  /// True if some stored atomic query part covers `aqp` — i.e. the output
  /// of `aqp` is provably empty (Theorem 2). Sets the covering part's
  /// clock reference bit. Lock-free: runs inside an epoch critical section
  /// over the published snapshot, so any number of sessions probe
  /// concurrently without serializing.
  bool CoveredBy(const AtomicQueryPart& aqp);

  /// Stores `aqp` (harvested from an empty-result query part), enforcing
  /// the redundancy and capacity rules above under the writer mutex.
  void Insert(const AtomicQueryPart& aqp) ERQ_EXCLUDES(mu_);

  /// Number of stored atomic query parts.
  size_t size() const { return live_.load(std::memory_order_relaxed); }
  /// Capacity bound N_max fixed at construction.
  size_t n_max() const { return n_max_; }

  /// Drops every stored part (used on database-wide invalidation).
  void Clear() ERQ_EXCLUDES(mu_);

  /// Drops every stored part whose relation set mentions `base_name`
  /// (including renamed occurrences "base#k").
  void InvalidateRelation(const std::string& base_name) ERQ_EXCLUDES(mu_);

  /// Drops every stored part for which `pred` returns true; returns the
  /// number dropped. Used by the irrelevant-update filter.
  size_t DropIf(const std::function<bool(const AtomicQueryPart&)>& pred)
      ERQ_EXCLUDES(mu_);

  /// Relaxed value-type snapshot of the counters plus index gauges — never
  /// a live reference. Counters are updated lock-free, so a snapshot taken
  /// while lookups are in flight is approximate (each counter is
  /// individually accurate). The counters are this instance's metrics
  /// scope, which forwards every event to MetricsRegistry::Global()'s
  /// `erq.caqp.*`; sampling here also refreshes the scope's
  /// `erq.caqp.epoch.pending` gauge.
  CacheStats stats_snapshot() const ERQ_EXCLUDES(mu_);
  /// Zeroes this instance's counters (the global aggregate keeps them;
  /// gauges are recomputed on the next snapshot).
  void ResetStats() { scope_.Reset(); }

  /// Human-readable description of the cache internals: occupancy, index
  /// shape (posting-list fan-out), the in-entry point index (anchored and
  /// residual parts, largest key bucket) and per-lookup work averages.
  std::string Explain() const ERQ_EXCLUDES(mu_);

  /// Copies of all live parts (tests / debugging). Reads the published
  /// snapshot under an epoch guard, so it is safe concurrently with
  /// mutators; with no mutator in flight it is exact.
  std::vector<AtomicQueryPart> Snapshot() const;

  /// Installs (or, with nullptr, detaches) the mutation observer. The
  /// caller owns `listener` and must keep it alive until it is detached
  /// or the cache is destroyed; the swap takes the writer mutex, so no
  /// callback is in flight once SetChangeListener returns.
  void SetChangeListener(ChangeListener* listener) ERQ_EXCLUDES(mu_);

 private:
  /// One stored condition, shared by every published version of its
  /// entry's contents, so the reference bit a lookup sets survives
  /// republication and stays visible to the clock.
  struct PubItem {
    AtomicQueryPart aqp;
    // Clock reference bit, set by lock-free lookups: a relaxed atomic,
    // mutable so the reader path stays const.
    mutable std::atomic<bool> ref{false};
  };
  using PubItemPtr = std::shared_ptr<PubItem>;

  /// Key of an interval term inside an entry: its column, with the
  /// occurrence suffix stripped from the relation ("a#2" -> "a", so the
  /// occurrence remapping of AtomicQueryPart::Covers cannot hide a
  /// candidate), and Value::Hash of the value its bounds pin (which agrees
  /// with Value::Compare: INT 5 and DOUBLE 5.0 hash alike). An inverted
  /// (lo > hi) interval gets `value == kAnyValue`: it matches every value
  /// of its column. Equal keys only make candidates; Covers decides, so a
  /// hash collision costs one cover test and nothing else.
  struct TermKey {
    uint64_t column = 0;
    uint64_t value = 0;
    bool operator<(const TermKey& o) const {
      return column != o.column ? column < o.column : value < o.value;
    }
    bool operator==(const TermKey& o) const {
      return column == o.column && value == o.value;
    }
  };
  /// Sorts first within its column, so a column-wide key is met before the
  /// point keys it subsumes.
  static constexpr uint64_t kAnyValue = 0;
  /// Keys of every interval term of `condition` that pins its column to a
  /// point or is inverted; sorted, unique.
  static std::vector<TermKey> KeysOf(const Conjunction& condition);

  /// A key and the index (into EntryItems::parts) of a part it names.
  struct Posting {
    TermKey key;
    uint32_t part;
  };

  /// The immutable contents of one entry, published whole: its parts and
  /// their in-entry index. Built by merging one change into the previous
  /// object (O(entry), no sort), then swapped in and the predecessor
  /// epoch-retired.
  struct EntryItems {
    // Live parts in insertion order: the order the clock visits them.
    std::vector<PubItemPtr> parts;
    // One posting per part that has a point key, under the key whose
    // bucket was smallest when it was stored; sorted by (key, part).
    std::vector<Posting> anchors;
    // Parts with no point key, ascending: every probe tests them.
    std::vector<uint32_t> residual;
    // Every key of every part (points and column-wide), sorted by (key,
    // part): the reverse postings displacement searches. A part the new
    // part covers carries each of the new part's point keys, or an
    // inverted term on that column.
    std::vector<Posting> terms;

    /// `prev` plus `part`, whose keys are `keys`.
    static EntryItems* WithAdded(const EntryItems& prev, PubItemPtr part,
                                 const std::vector<TermKey>& keys);
    /// `prev` without the parts flagged in `drop` (indexed like parts).
    static EntryItems* WithRemoved(const EntryItems& prev,
                                   const std::vector<bool>& drop);
  };

  /// Reader-visible face of one entry. The object is stable for the
  /// entry's lifetime (the index only changes when entries are created or
  /// garbage-collected); item-level changes swap the `items` pointer and
  /// epoch-retire the old contents, so the common mutation — adding or
  /// dropping one condition of an existing relation set — never rebuilds
  /// the index. The destructor (which runs only after every snapshot
  /// naming the entry has been reclaimed) frees the final contents.
  struct PublishedEntry {
    explicit PublishedEntry(const RelationSet& set)
        : relations(set), signature(RelationSignature::Of(set)) {}
    const RelationSet relations;
    const RelationSignature signature;
    EpochPublished<EntryItems> items{new EntryItems};
  };
  using PublishedEntryPtr = std::shared_ptr<PublishedEntry>;

  /// Immutable index snapshot readers walk under an epoch guard. Replaced
  /// wholesale (and the predecessor epoch-retired) when entry membership
  /// changes. `entries` owns every live entry; the other members point
  /// into them, so a rebuild copies no strings and touches no reference
  /// counts beyond one per entry.
  struct Index {
    // Every live entry in creation order: the owners behind `postings`
    // and `empty_rel_entry`, what Snapshot() walks and what the clock
    // sweeps.
    std::vector<PublishedEntryPtr> entries;
    // First relation name -> entries whose first name it is. An entry is
    // a candidate for a probe name exactly when it is posted under that
    // name, so no per-posting filter is needed.
    std::unordered_map<std::string_view, std::vector<const PublishedEntry*>>
        postings;
    // The (at most one) entry over the empty relation set: a subset of
    // everything, posted nowhere.
    const PublishedEntry* empty_rel_entry = nullptr;
  };

  /// Per-lookup work tally, accumulated locally and flushed to the atomic
  /// counters once per call (cheaper than per-candidate fetch_adds).
  struct LookupWork {
    uint64_t postings = 0;
    uint64_t candidates = 0;
    uint64_t signature_rejects = 0;
    uint64_t conditions = 0;
  };

  /// The `erq.caqp.*` instruments of `scope_`, resolved once.
  struct Instruments {
    Counter* lookups;
    Counter* hits;
    Counter* misses;
    Counter* conditions_scanned;
    Counter* insert_attempts;
    Counter* inserted;
    Counter* skipped_covered;
    Counter* removed_covered;
    Counter* evictions;
    Counter* invalidation_drops;
    Counter* postings_scanned;
    Counter* candidate_entries;
    Counter* signature_rejects;
    Counter* epoch_retired;
    Gauge* size;
    Gauge* epoch_pending;
  };
  static Instruments ResolveInstruments(MetricsRegistry& scope);

  // ---- read path over a published snapshot -----------------------------

  /// Subset search over `index`: finds a stored part covering `aqp`
  /// (whose KeysOf are `keys`), sets its reference bit, and returns true.
  /// Callers either pin an epoch or hold `mu_` (under which the published
  /// index cannot be retired).
  bool FindCovering(const Index& index, const AtomicQueryPart& aqp,
                    const std::vector<TermKey>& keys,
                    const RelationSignature& query_sig,
                    LookupWork* work) const;
  bool EntryCovers(const PublishedEntry& entry, const AtomicQueryPart& aqp,
                   const std::vector<TermKey>& keys,
                   const RelationSignature& query_sig,
                   LookupWork* work) const;

  // ---- writer path ------------------------------------------------------
  //
  // Under `mu_` the published index is current, with one lapse: an entry
  // a mutation empties stays in it, partless, until that mutation ends in
  // RebuildIndexLocked. Readers and the clock pass such entries over.

  /// Entries whose relation set could be a superset of `relations`
  /// (every superset entry posts under each of `relations`' names, so the
  /// rarest name's posting list suffices).
  std::vector<PublishedEntry*> SupersetCandidatesLocked(
      const RelationSet& relations) const ERQ_REQUIRES(mu_);

  /// Evicts the first part the clock hand meets with a clear reference
  /// bit, clearing the set bits it passes, within 2·live+1 steps; sets
  /// `*emptied` if that empties the part's entry. False when no victim
  /// was found (callers' capacity loops terminate).
  bool EvictOneLocked(bool* emptied) ERQ_REQUIRES(mu_);

  /// Removes the parts of `entry` flagged in `drop` (indexed like its
  /// parts), notifying the listener and counting them as `reason`, and
  /// republishes its contents. True when that empties the entry: the
  /// caller must RebuildIndexLocked before its mutation ends.
  bool RemoveItemsLocked(PublishedEntry& entry, RemoveReason reason,
                         const std::vector<bool>& drop) ERQ_REQUIRES(mu_);
  /// RemoveItemsLocked over the parts for which `pred` holds.
  bool RemoveItemsIfLocked(
      PublishedEntry& entry, RemoveReason reason,
      const std::function<bool(const AtomicQueryPart&)>& pred)
      ERQ_REQUIRES(mu_);
  /// Drops the parts of `entry` that `aqp` (whose KeysOf are `keys`)
  /// covers, testing only those carrying one of its point keys when it
  /// has any. Same return as RemoveItemsLocked.
  bool DisplaceCoveredLocked(PublishedEntry& entry, const AtomicQueryPart& aqp,
                             const std::vector<TermKey>& keys)
      ERQ_REQUIRES(mu_);
  /// Finds the entry for `relations`, or creates and registers one and
  /// hands it out in `*created` for the caller to RebuildIndexLocked with.
  PublishedEntry& GetOrCreateEntryLocked(const RelationSet& relations,
                                         PublishedEntryPtr* created)
      ERQ_REQUIRES(mu_);

  /// Swaps `next` in as `entry`'s contents and epoch-retires the replaced
  /// ones (item-only change: the index itself is untouched).
  void RepublishEntryItemsLocked(PublishedEntry& entry, const EntryItems* next)
      ERQ_REQUIRES(mu_);
  /// Publishes the index with every emptied entry unregistered and
  /// dropped and `created` (if any) appended, and epoch-retires the
  /// predecessor (entry membership changed).
  void RebuildIndexLocked(PublishedEntryPtr created) ERQ_REQUIRES(mu_);

  // Capacity, immutable after construction: safe to read unlocked.
  const size_t n_max_;

  // This instance's statistics: a scope of MetricsRegistry::Global(), so
  // each event is counted once here and forwarded to the process-wide
  // aggregate.
  MetricsRegistry scope_{&MetricsRegistry::Global()};
  const Instruments metrics_;

  // The writer mutex. Its holders call the persistence listener
  // (OnInsert/OnRemove/OnClear journal under Persistence::mu_) and
  // epoch-retire replaced snapshots, hence ACQUIRED_BEFORE both.
  mutable Mutex mu_ ERQ_ACQUIRED_AFTER(lock_order::kCaqpCache)
      ERQ_ACQUIRED_BEFORE(lock_order::kEpoch,
                          lock_order::kPersistence){lock_order::kCaqpCache};

  // Relation-set key -> the entry stored for it.
  std::unordered_map<std::string, PublishedEntryPtr> entries_
      ERQ_GUARDED_BY(mu_);
  // Every name of an entry -> the entry (superset search and invalidation
  // need all names); the published index is keyed by first name only.
  std::unordered_map<std::string, std::vector<PublishedEntry*>> postings_
      ERQ_GUARDED_BY(mu_);
  // Clock hand: an entry's position in the published index and a part's
  // position in that entry, wrapped when they run past the end.
  size_t clock_entry_ ERQ_GUARDED_BY(mu_) = 0;
  size_t clock_part_ ERQ_GUARDED_BY(mu_) = 0;
  ChangeListener* listener_ ERQ_GUARDED_BY(mu_) = nullptr;

  // Live parts: written under `mu_`, read lock-free by size().
  std::atomic<size_t> live_{0};
  // The published snapshot, never null. Writers publish under `mu_`;
  // readers load inside an epoch critical section. Every lookup loads it,
  // so it sits alone on its cache line: sharing one with written state
  // would make each write evict the pointer from every reader's cache.
  alignas(64) EpochPublished<Index> published_{new Index};
  // Reclamation domain for published snapshots and entry contents.
  mutable EpochManager epoch_;
};

}  // namespace erq
