#pragma once

/// \file
/// The pull-based plan executor and its per-run options (partition
/// pruning, intermediate harvesting).

#include <vector>

#include "common/statusor.h"
#include "plan/physical_plan.h"

namespace erq {

/// A fully materialized query result.
struct ExecutionResult {
  /// The result rows, in plan output order.
  std::vector<Row> rows;
  /// Column layout of the rows.
  Layout layout;

  /// True when the result has no rows.
  bool empty() const { return rows.empty(); }
};

/// One intermediate captured during execution for the reuse store: a
/// Filter-over-TableScan node together with its complete materialized
/// output. Only this shape is harvested — a Filter's output above an
/// unpruned-or-pruned table scan is provably the full
/// sigma_predicate(relation) in ascending row order (pruning only drops
/// rows that fail the scan condition, which the filter re-applies), so
/// the rows are sound to serve to any covered future sub-plan.
struct HarvestedIntermediate {
  /// The Filter node (its subtree is what a splice would replace).
  PhysOpPtr node;
  /// The node's complete output; present only when end-of-stream was
  /// observed under the row cap.
  std::shared_ptr<std::vector<Row>> rows;
};

/// Per-run executor options.
struct ExecOptions {
  /// When true, table scans over partitioned tables with a derived scan
  /// condition skip, at open, every empty partition and every partition
  /// whose zone maps refute the condition, and visit the survivors in
  /// globally ascending row order (so results are byte-identical to the
  /// full scan).
  bool prune_partitions = false;

  /// When non-null, every Filter-over-TableScan output whose observed
  /// cardinality stays at or under `harvest_max_rows` is buffered and
  /// appended here (the executor abandons a buffer the moment the cap is
  /// exceeded, so oversized intermediates cost no materialization). The
  /// caller — EmptyResultManager — decomposes each into the atomic-part
  /// normal form and offers it to the reuse store. Must outlive Run.
  std::vector<HarvestedIntermediate>* harvest = nullptr;
  /// Row cap for harvest buffering (ReuseConfig::max_rows).
  size_t harvest_max_rows = 0;
};

/// Pull-based (Volcano) executor over physical plans. Every operator
/// counts the rows it emits into PhysicalOperator::actual_rows — the
/// per-operator output cardinalities that Operation O1 displays and
/// Operation O2 mines for lowest-level empty query parts (the paper keeps
/// them "as collected statistics during query execution"). Partitioned
/// scans additionally record how many partitions they scanned and pruned.
class Executor {
 public:
  /// Runs the plan to completion with default options. Resets and then
  /// fills actual_rows throughout the tree.
  static StatusOr<ExecutionResult> Run(const PhysOpPtr& plan);

  /// Runs the plan with explicit options (partition pruning).
  static StatusOr<ExecutionResult> Run(const PhysOpPtr& plan,
                                       const ExecOptions& options);
};

}  // namespace erq
