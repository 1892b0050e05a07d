#pragma once

/// \file
/// EmptyResultDetector — check (§2.4), harvest (§2.3), prune (§2.5).

#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/caqp_cache.h"
#include "core/config.h"
#include "core/decompose.h"
#include "types/schema.h"

namespace erq {

/// Outcome of checking one query against C_aqp.
struct CheckResult {
  /// The query provably returns an empty result (Theorems 1–3). No false
  /// positives: true is only returned on a complete, sound derivation.
  bool provably_empty = false;
  /// Number of atomic query parts generated from the query (the paper's
  /// combination factor F for Q1/Q2-shaped queries).
  size_t parts_checked = 0;
};

/// The fast detection engine: checks new queries against the stored
/// atomic query parts (§2.4) and harvests executed empty-result plans into
/// the collection (§2.3 / Operation O2). Implements the §2.5 extensions:
/// root aggregates are ignored for emptiness (scalar aggregates — incl.
/// count(∅)=0 — are never empty), UNION needs both branches empty, EXCEPT
/// needs its left branch empty, and LEFT OUTER JOIN needs its left input
/// empty.
///
/// Thread safety: the detector itself holds no lock — `config_` is
/// immutable after construction and all mutable state lives in `cache_`,
/// which is internally synchronized (see CaqpCache). Concurrent sessions
/// may therefore call every method on a shared detector.
class EmptyResultDetector {
 public:
  explicit EmptyResultDetector(const EmptyResultConfig& config)
      : config_(config), cache_(config.n_max) {}

  /// Decides whether the logical plan provably yields an empty result
  /// using only C_aqp (plus provable unsatisfiability of a part's
  /// condition). Unsupported structures simply yield "not provably empty".
  CheckResult CheckEmpty(const LogicalOpPtr& root);

  /// Harvests an executed physical plan whose result was empty: finds the
  /// lowest-level empty parts and stores their atomic query parts.
  /// Returns the number of atomic query parts inserted.
  size_t RecordEmpty(const PhysOpPtr& executed_root);

  /// §2.5 partial detection, cases (2b)/(4): when only one branch of a set
  /// operation is provably empty, the other branch alone needs evaluation.
  /// Returns a logical plan with such branches pruned:
  ///   UNION(L, R), L provably empty  ->  R   (and symmetrically)
  ///   EXCEPT(L, R), R provably empty ->  L   (DISTINCT wraps non-ALL)
  /// `pruned` (optional) counts the branches removed. The result is
  /// semantically equivalent on the current database.
  LogicalOpPtr PrunePlan(const LogicalOpPtr& root, size_t* pruned = nullptr);

  /// The underlying C_aqp collection (mutable, internally synchronized).
  CaqpCache& cache() { return cache_; }
  /// Read-only view of the underlying C_aqp collection.
  const CaqpCache& cache() const { return cache_; }
  /// The configuration frozen at construction.
  const EmptyResultConfig& config() const { return config_; }

  /// Drops stored parts per the configured invalidation mode.
  void OnRelationUpdated(const std::string& table_name);

  /// §5 extension: insert-aware invalidation. Under kFilterIrrelevant,
  /// drops only parts the new rows could satisfy; under the other modes,
  /// behaves like OnRelationUpdated. Returns the number of parts dropped.
  size_t OnRelationInserted(const std::string& table_name,
                            const Schema& schema,
                            const std::vector<Row>& rows);

  /// §5 extension: deletions can never make an empty result non-empty, so
  /// under kFilterIrrelevant they invalidate nothing.
  void OnRelationDeleted(const std::string& table_name);

 private:
  /// Recursive body of CheckEmpty; the public wrapper adds metrics so
  /// sub-checks (recursion, PrunePlan probes) don't inflate the counters.
  CheckResult CheckEmptyImpl(const LogicalOpPtr& root);

  const EmptyResultConfig config_;  // immutable: safe to read unlocked
  CaqpCache cache_;                 // internally synchronized
};

}  // namespace erq

