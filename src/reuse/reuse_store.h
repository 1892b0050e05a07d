#pragma once

/// \file
/// ReuseStore — the bounded, byte-budgeted intermediate-result store
/// (DESIGN.md §13). Generalizes C_aqp from "empty knowledge only" to
/// arbitrary low-cardinality materialized intermediates: an entry with
/// zero rows is exactly a C_aqp fact, an entry with rows answers covered
/// sub-plans without touching the base table.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/epoch.h"
#include "common/lock_order.h"
#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "core/atomic_query_part.h"
#include "core/config.h"
#include "plan/reuse_source.h"
#include "types/schema.h"

namespace erq {

/// Value-type read view of the store's metrics scope (`erq.reuse.*`).
struct ReuseStoreStats {
  uint64_t lookups = 0;        ///< splice probes
  uint64_t hits = 0;           ///< probes answered from a stored entry
  uint64_t rows_served = 0;    ///< rows of the entries served on hits
  uint64_t admitted = 0;       ///< entries stored (incl. replacements)
  uint64_t rejected = 0;       ///< admissions refused (size/budget/shape)
  uint64_t evictions = 0;      ///< entries displaced by benefit-per-byte
  uint64_t invalidated = 0;    ///< entries dropped by update invalidation
  uint64_t entries = 0;        ///< gauge: live entries
  uint64_t bytes = 0;          ///< gauge: estimated footprint of live rows
};

/// The intermediate-result reuse store. Keyed by the same atomic-part
/// normal form as C_aqp: each entry is (AtomicQueryPart over one base
/// relation, materialized rows of sigma_condition(relation)). Harvested
/// opportunistically by EmptyResultManager from Filter-over-TableScan
/// outputs of executed high-cost queries; probed by the optimizer's
/// splice pass through the ReuseSpliceSource interface.
///
/// Concurrency model mirrors CaqpCache's read-mostly split:
///   * Lookup() is lock-free: it walks an immutable index published
///     behind an atomic pointer inside an epoch critical section. Hit
///     bookkeeping (hit counts, recency) lives in relaxed atomics shared
///     between writer state and every published snapshot; statistics are
///     the lock-free counters of the store's metrics scope.
///   * Mutators (Admit, the invalidation hooks, Clear) serialize on one
///     mutex at lock_order::kReuseStore and epoch-retire each replaced
///     snapshot, so readers never touch freed memory.
///
/// Invalidation semantics differ from C_aqp's in exactly one place:
/// deletions. A deletion can never un-empty an empty result (C_aqp keeps
/// everything), but it CAN shrink a non-empty cached intermediate — so
/// OnRelationDeleted() drops every non-empty entry of the relation and
/// keeps the zero-row ones. Inserts go through the same §5 update filter
/// as C_aqp (core/update_filter.h): a row that provably fails an entry's
/// condition cannot change sigma_condition(relation), so the entry
/// survives; anything else is dropped (conservative, never stale).
class ReuseStore final : public ReuseSpliceSource {
 public:
  explicit ReuseStore(ReuseConfig config);

  /// Reclaims every retired snapshot. No lookup may be in flight. (The
  /// metrics scope takes this store's `erq.reuse.{entries,bytes}` out of
  /// the global gauges as it goes.)
  ~ReuseStore() override = default;

  ReuseStore(const ReuseStore&) = delete;
  ReuseStore& operator=(const ReuseStore&) = delete;

  /// ReuseSpliceSource: finds the smallest (fewest-row) entry over
  /// `relation` whose stored condition covers `condition`. Lock-free;
  /// counts erq.reuse.{lookups,hits,rows_served} and bumps the winning
  /// entry's recency.
  std::optional<ReuseSplice> Lookup(
      const std::string& relation,
      const Conjunction& condition) const override;

  /// Offers one harvested intermediate: `part` must be a single-relation
  /// atomic query part (the normal form DecomposePhysicalPart produced
  /// from the Filter-over-TableScan subtree) and `rows` its complete
  /// materialized output in ascending row order. `saved_cost` is the
  /// optimizer's cost estimate for the subtree the entry would replace —
  /// the numerator of the benefit-per-byte eviction score. Returns true
  /// when the entry was stored (an entry Equals()-matching an existing
  /// one replaces it in place, refreshing the rows).
  bool Admit(const AtomicQueryPart& part,
             std::shared_ptr<const std::vector<Row>> rows, double saved_cost)
      ERQ_EXCLUDES(mu_);

  /// Insert invalidation (§5 update filter): drops every entry of
  /// `base_name` that `rows` could affect — i.e. unless every inserted
  /// row provably fails the entry's condition. Returns entries dropped.
  size_t OnRelationInserted(const std::string& base_name, const Schema& schema,
                            const std::vector<Row>& rows) ERQ_EXCLUDES(mu_);

  /// Deletion invalidation: drops the non-empty entries of `base_name`
  /// (their row sets may have shrunk); zero-row entries survive —
  /// deletions cannot un-empty a result. Returns entries dropped.
  size_t OnRelationDeleted(const std::string& base_name) ERQ_EXCLUDES(mu_);

  /// Opaque update (no row information) or table drop: every entry of
  /// `base_name` goes. Returns entries dropped.
  size_t OnRelationUpdated(const std::string& base_name) ERQ_EXCLUDES(mu_);

  /// Drops every entry (tests / tooling).
  void Clear() ERQ_EXCLUDES(mu_);

  /// Relaxed value-type snapshot of the counters plus live gauges.
  ReuseStoreStats stats_snapshot() const;

  /// One line per live entry — "id relation | condition | rows bytes
  /// hits" — for tools/cache_inspect's reuse preview. Ordered by entry id.
  std::vector<std::string> DescribeEntries() const ERQ_EXCLUDES(mu_);

  /// The admission/budget configuration this store was built with.
  const ReuseConfig& config() const { return config_; }

 private:
  /// One stored intermediate, shared between writer state and every
  /// published snapshot (and with in-flight spliced plans via
  /// `rows`, so eviction never frees rows a plan still reads).
  struct Entry {
    uint64_t id = 0;
    AtomicQueryPart part;  // single-relation by construction
    std::shared_ptr<const std::vector<Row>> rows;
    size_t bytes = 0;       // estimated footprint of `rows`
    double saved_cost = 0;  // optimizer estimate of the replaced subtree
    // Mutated lock-free by Lookup: relaxed atomics, mutable so the
    // reader path stays const.
    mutable std::atomic<uint64_t> hits{0};
    mutable std::atomic<uint64_t> last_use{0};
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  /// Immutable index snapshot readers walk under an epoch guard:
  /// relation name -> entries over that relation. Replaced wholesale on
  /// every mutation (the store is small — entries are few and large,
  /// unlike C_aqp's many tiny parts — so wholesale republication is the
  /// simple choice).
  using Index = std::unordered_map<std::string, std::vector<EntryPtr>>;

  /// Benefit-per-byte eviction score: cheapest-to-lose first. Recency
  /// enters through the hit count; `last_use` breaks ties.
  static double Score(const Entry& entry);

  /// Rebuilds and publishes the index from `entries_`, epoch-retiring the
  /// predecessor, and refreshes the entries/bytes gauges.
  void PublishLocked() ERQ_REQUIRES(mu_);

  /// Drops entries matching `pred`, counting them as invalidations;
  /// returns the number dropped and republishes when nonzero.
  size_t DropIfLocked(const std::function<bool(const Entry&)>& pred)
      ERQ_REQUIRES(mu_);

  /// The `erq.reuse.*` instruments of `scope_`, resolved once.
  struct Instruments {
    Counter* lookups;
    Counter* hits;
    Counter* rows_served;
    Counter* admitted;
    Counter* rejected;
    Counter* evictions;
    Counter* invalidated;
    Gauge* entries;
    Gauge* bytes;
  };
  static Instruments ResolveInstruments(MetricsRegistry& scope);

  const ReuseConfig config_;

  // This store's statistics: a scope of MetricsRegistry::Global(), so
  // each event is counted once here and forwarded to the process-wide
  // aggregate.
  MetricsRegistry scope_{&MetricsRegistry::Global()};
  const Instruments metrics_;

  mutable Mutex mu_ ERQ_ACQUIRED_AFTER(lock_order::kReuseStore)
      ERQ_ACQUIRED_BEFORE(lock_order::kEpoch){lock_order::kReuseStore};
  std::vector<std::shared_ptr<Entry>> entries_ ERQ_GUARDED_BY(mu_);
  size_t bytes_ ERQ_GUARDED_BY(mu_) = 0;
  uint64_t next_id_ ERQ_GUARDED_BY(mu_) = 1;

  // The published snapshot, never null. Writers publish under mu_;
  // readers load inside an epoch critical section.
  EpochPublished<Index> published_{new Index()};

  // Recency clock bumped by lookup hits; lock-free.
  mutable std::atomic<uint64_t> seq_{0};

  // Reclamation domain for published snapshots.
  mutable EpochManager epoch_;
};

/// Estimated in-memory footprint of one materialized row (values plus
/// string payloads) — the unit the byte budget is accounted in.
size_t EstimateRowBytes(const Row& row);

}  // namespace erq
