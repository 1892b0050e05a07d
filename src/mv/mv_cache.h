#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "common/lock_order.h"
#include "common/metrics.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "plan/logical_plan.h"

namespace erq {

/// Baseline for §2.6: detecting empty results with conventional
/// materialized views. A previously executed empty query is remembered as
/// a whole view definition — relations, the full (normalized) predicate,
/// and the projection list. A new query is declared empty only when an
/// exact-match view exists, because without emptiness-specific reasoning a
/// view answers a query only under (at minimum) matching projections and
/// equivalent predicates:
///   * projections are NOT dropped (MV = π(A ⋈ B) being empty cannot,
///     under plain view matching, answer Q1 = A ⋈ B);
///   * parts of different queries are NOT combined;
///   * relation-subset reasoning (π(R)=∅ ⇒ R⋈S=∅) is unavailable.
/// Views are managed LRU under the same capacity budget as C_aqp, making
/// hit-rate comparisons apples-to-apples.
///
/// Relation to the intermediate-result reuse store (src/reuse/,
/// DESIGN.md §13): ReuseStore generalizes this baseline's idea from
/// "whole empty queries, exact match" to "single-relation intermediates
/// of any low cardinality, covered match". An MvEmptyCache view is the
/// degenerate reuse entry — zero rows, whole-query scope, no
/// residual-predicate reasoning — kept as its own class because it
/// exists to measure the *conventional* MV discipline (§2.6), not to be
/// fast.
///
/// The baseline is in-memory only: it exists for comparisons
/// (bench_ablation_mv_baseline, tests), and only C_aqp is persisted.
///
/// Thread safety: all public methods are internally synchronized with a
/// single mutex — the baseline is consulted by the same concurrent
/// sessions as C_aqp, and even lookups mutate LRU order. Statistics are
/// the lock-free counters of the cache's metrics scope.
class MvEmptyCache {
 public:
  explicit MvEmptyCache(size_t max_views);

  /// Value-type read view of the cache's metrics scope (`erq.mv.*`).
  struct MvStats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t stored = 0;
    uint64_t evictions = 0;
  };

  /// Remembers the logical plan of an executed empty-result query.
  void RecordEmpty(const LogicalOpPtr& root);

  /// True if an exactly matching empty view exists.
  bool CheckEmpty(const LogicalOpPtr& root);

  size_t size() const {
    MutexLock lock(&mu_);
    return keys_.size();
  }
  void Clear();

  /// Value-type snapshot of the counters — never a live reference. The
  /// scope forwards every event to MetricsRegistry::Global()'s `erq.mv.*`.
  MvStats stats_snapshot() const;

 private:
  /// Canonical fingerprint of the whole query (relations + normalized
  /// predicate + projection list + shape). Empty string when the plan
  /// cannot be fingerprinted. Pure: touches no shared state.
  std::string Fingerprint(const LogicalOpPtr& root) const;

  /// The `erq.mv.*` counters of `scope_`, resolved once.
  struct Instruments {
    Counter* lookups;
    Counter* hits;
    Counter* stored;
    Counter* evictions;
  };

  // A leaf within the query path: holders call into no other module.
  mutable Mutex mu_ ERQ_ACQUIRED_AFTER(lock_order::kMvCache){
      lock_order::kMvCache};

  const size_t max_views_;
  // This cache's statistics: a scope of MetricsRegistry::Global().
  MetricsRegistry scope_{&MetricsRegistry::Global()};
  const Instruments metrics_;
  std::list<std::string> lru_ ERQ_GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<std::string, std::list<std::string>::iterator> keys_
      ERQ_GUARDED_BY(mu_);
};

}  // namespace erq
