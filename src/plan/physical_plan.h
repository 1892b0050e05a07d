#pragma once

#include <memory>
#include <string>
#include <vector>

#include "catalog/index.h"
#include "expr/primitive.h"
#include "plan/binder.h"
#include "sql/ast.h"

namespace erq {

/// Physical operator vocabulary — the operators whose output cardinalities
/// the executor records (the paper's Operations O1/O2 consume exactly
/// this: "the RDBMS can only obtain output cardinalities of physical
/// operators in physical query plans").
enum class PhysOpKind {
  kTableScan,
  kIndexScan,   // one or more key ranges via a SortedIndex + optional
                // residual filter
  kCachedResultScan,  // emits the materialized rows of a reuse-store
                      // intermediate (sigma_stored(table), ascending row
                      // order) instead of re-scanning the base table
  kFilter,
  kProject,
  kNestedLoopsJoin,
  kHashJoin,
  kMergeJoin,   // sorts its inputs, then merges (sort-merge join)
  kSemiJoin,    // hash semi join: left rows whose key appears in the right
                // child's single output column (IN-subquery rewrites)
  kLeftOuterJoin,
  kSort,
  kDistinct,
  kAggregate,
  kUnion,
  kExcept,
};

const char* PhysOpKindToString(PhysOpKind kind);

struct PhysicalOperator;
using PhysOpPtr = std::shared_ptr<PhysicalOperator>;

/// A mutable physical plan node. Expressions are slot-bound against the
/// child layouts noted per field. `actual_rows` is -1 until the executor
/// has run the node; afterwards it holds the observed output cardinality
/// (the statistic Operation O2 uses to find lowest-level empty parts).
struct PhysicalOperator {
  PhysOpKind kind;
  std::vector<PhysOpPtr> children;
  Layout layout;  // output layout

  // kTableScan / kIndexScan / kCachedResultScan
  const Table* table = nullptr;
  std::string table_name;
  std::string alias;

  // kCachedResultScan: the reuse-store rows this scan emits (scan layout,
  // ascending row order; shared with the store so eviction cannot free
  // them mid-run) and the id of the entry they came from. The stored
  // entry's condition is carried in `scan_condition` for display — the
  // node's output is sigma_{scan_condition}(table), NOT the bare table,
  // which is why a zero-row cached scan is only *conditionally* empty
  // (see core/decompose.cc).
  std::shared_ptr<const std::vector<Row>> cached_rows;
  uint64_t reuse_entry_id = 0;

  // kIndexScan
  SortedIndex* index = nullptr;
  std::string index_column;     // column the index covers
  // Key ranges looked up, at least one; a row matching several ranges is
  // emitted once. One range emits rows in key order, several in row order.
  std::vector<KeyRange> index_ranges;
  ExprPtr index_condition;      // the whole predicate the ranges implement
                                // (a comparison, an OR or an IN list,
                                // bound to the scan layout), used by T3

  // kFilter (bound to child layout); kIndexScan residual filter.
  ExprPtr predicate;

  // Joins: equi-join keys bound to the respective child layouts.
  std::vector<ExprPtr> left_keys;
  std::vector<ExprPtr> right_keys;
  /// Full join condition bound to the concatenated output layout
  /// (NL join and outer join evaluate this; hash/merge joins evaluate
  /// keys plus this residual). Null means cross product / no residual.
  ExprPtr join_condition;

  // kProject / kAggregate (exprs bound to child layout).
  std::vector<SelectItem> items;
  std::vector<ExprPtr> group_by;

  // kSort (exprs bound to child layout).
  std::vector<OrderItem> order_by;

  // kUnion / kExcept
  bool all = false;

  // kTableScan over a partitioned table: the conjunction of sargable
  // single-table conjuncts (canonical qualifiers), used to refute
  // partitions via zone maps. A *weaker* condition than the full local
  // predicate — every emitted row still passes the Filter above — so
  // pruning against it is sound.
  // kCachedResultScan: the stored entry's condition (what the cached rows
  // are a selection by), display/diagnostic only.
  Conjunction scan_condition;
  bool has_scan_condition = false;

  // Optimizer estimates and executor observations.
  double estimated_rows = 0.0;
  double estimated_cost = 0.0;
  int64_t actual_rows = -1;
  // Partitioned-scan observations (-1 until the scan ran partitioned).
  int64_t partitions_scanned = -1;
  int64_t partitions_pruned = -1;

  /// Resets actual_rows to -1 in the whole subtree (before re-execution).
  void ResetActuals();

  /// Plan display with estimated and (when present) actual cardinalities —
  /// what Operation O1 shows the user.
  std::string ToString(int indent = 0) const;

  static PhysOpPtr Make(PhysOpKind kind) {
    auto op = std::make_shared<PhysicalOperator>();
    op->kind = kind;
    return op;
  }
};

}  // namespace erq

