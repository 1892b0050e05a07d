#pragma once

/// \file
/// Zone-map refutation: deciding from a partition's per-column summaries
/// (catalog/partition.h) that no row of the partition can satisfy a
/// conjunctive scan condition — the only evidence a table scan uses to
/// skip partitions (DESIGN.md §"Partitioning & data skipping"). Also
/// provides the optimizer-facing survivor estimate that feeds the C_cost
/// gate for partitioned scans.

#include <string>

#include "catalog/partition.h"
#include "expr/primitive.h"
#include "types/schema.h"

namespace erq {

/// True when the partition's zone maps *prove* that no row in it satisfies
/// `condition` (whose column references use canonical relation name
/// `relation`). Sound, deliberately incomplete: only interval and
/// not-equal terms on columns of `relation` participate; any term it
/// cannot reason about is skipped, never guessed. An empty partition is
/// always refuted. The soundness argument per term kind:
///  * kInterval `col IN I`: comparisons require a non-NULL value, so a
///    partition with zero non-NULL values refutes; otherwise every live
///    value lies in [min, max], so I ∩ [min, max] = ∅ refutes; and when
///    the distinct summary is complete, no member inside I refutes.
///  * kNotEqual `col != c`: requires non-NULL; refuted when the complete
///    distinct summary is exactly {c}.
bool ZoneMapsRefute(const PartitionState& part, const Schema& schema,
                    const std::string& relation, const Conjunction& condition);

/// A zone-map-only survivor estimate over a whole snapshot, used by the
/// optimizer to cost partitioned scans (pruned partitions contribute no
/// scanned rows) before the executor runs.
struct PartitionSurvivorEstimate {
  /// Partitions the zone maps could not refute.
  size_t surviving_partitions = 0;
  /// Partitions refuted outright.
  size_t pruned_partitions = 0;
  /// Total rows in the surviving partitions (the scan's input bound).
  size_t surviving_rows = 0;
};

/// Applies ZoneMapsRefute to every partition of `snapshot` and tallies the
/// result. Purely estimative: the executor re-derives the real pruning
/// decision (with cache knowledge layered on top) at scan open.
PartitionSurvivorEstimate EstimateSurvivors(const PartitionSnapshot& snapshot,
                                            const Schema& schema,
                                            const std::string& relation,
                                            const Conjunction& condition);

}  // namespace erq
