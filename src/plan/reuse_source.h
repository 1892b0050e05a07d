#pragma once

/// \file
/// ReuseSpliceSource — the optimizer-facing face of the intermediate-result
/// reuse store (src/reuse/), kept abstract so erq_plan needs no knowledge
/// of the store's implementation.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "expr/primitive.h"
#include "types/value.h"

namespace erq {

/// One successful reuse lookup: the materialized rows of a cached
/// intermediate that is a superset of the probed sub-plan's output.
struct ReuseSplice {
  /// The cached rows, in the source table's scan layout and in ascending
  /// row order (they were harvested from a Filter-over-TableScan output,
  /// which emits exactly that order). Shared and immutable: the store may
  /// evict the entry while a spliced plan still runs.
  std::shared_ptr<const std::vector<Row>> rows;
  /// The stored entry's selection condition (canonical qualifiers). The
  /// probe condition implies it, so re-applying the query's full local
  /// predicate above the cached rows reproduces the table-scan answer.
  Conjunction stored_condition;
  /// Stable id of the entry served (for tooling / tracing).
  uint64_t entry_id = 0;
};

/// Probe interface the optimizer's splice pass consults while building
/// access paths. Implemented by ReuseStore (src/reuse/reuse_store.h) and
/// injected through OptimizerOptions::reuse_source.
///
/// Soundness contract (Theorem 2, run in the reuse direction): a non-empty
/// result means the store holds rows = sigma_stored(relation) where the
/// probed `condition` implies `stored_condition` — so the cached rows are a
/// superset of any output filtered by a predicate at least as strong as the
/// probe. Implementations must be thread-safe: the optimizer probes from
/// concurrent sessions with no lock held.
class ReuseSpliceSource {
 public:
  virtual ~ReuseSpliceSource() = default;

  /// Searches for a cached intermediate over the canonical (lowercased)
  /// base relation whose stored condition covers `condition` (the
  /// conjunction of the probe's classifiable single-table conjuncts,
  /// canonical qualifiers). Returns the best hit — fewest rows, so the
  /// residual filter re-scans as little as possible — or nullopt.
  virtual std::optional<ReuseSplice> Lookup(
      const std::string& relation, const Conjunction& condition) const = 0;
};

}  // namespace erq
