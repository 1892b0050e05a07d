#pragma once

#include <vector>

#include "common/statusor.h"
#include "catalog/catalog.h"
#include "plan/cost_model.h"
#include "plan/logical_plan.h"
#include "plan/physical_plan.h"
#include "plan/reuse_source.h"

namespace erq {

struct OptimizerOptions {
  bool enable_index_scan = true;
  bool enable_hash_join = true;
  /// When non-null, the splice pass probes this store while building
  /// table-scan access paths and replaces covered scans with
  /// CachedResultScan nodes (borrowed; must outlive the optimizer). The
  /// splice fires only where the table-scan path would have been chosen —
  /// an index scan emits rows in index order, the cached rows in ascending
  /// row order, so splicing over an index-scan decision would change the
  /// byte-level output with reuse on vs. off.
  const ReuseSpliceSource* reuse_source = nullptr;
};

/// Translates logical plans into executable physical plans:
///  * single-table conjuncts become index scans (when a matching index and
///    a sargable interval predicate exist) or explicit Filter nodes above
///    table scans — operator granularity matters because Operation O2
///    locates the lowest-level *operator* whose output is empty;
///  * join order is chosen greedily by estimated output cardinality,
///    preferring connected (predicate-linked) pairs over cross products;
///  * equi-joins run as hash joins, everything else as nested loops;
///  * every node carries estimated rows and cumulative estimated cost; the
///    root's estimated_cost is the optimizer's cost(Q) used by the C_cost
///    gate of §2.2.
class Optimizer {
 public:
  Optimizer(Catalog* catalog, const StatsCatalog* stats,
            OptimizerOptions options = {})
      : catalog_(catalog), stats_(stats), cost_model_(stats),
        options_(options) {}

  StatusOr<PhysOpPtr> Optimize(const LogicalOpPtr& logical) const;

  const CostModel& cost_model() const { return cost_model_; }

 private:
  struct SpjContext;

  StatusOr<PhysOpPtr> OptimizeNode(const LogicalOpPtr& node) const;
  StatusOr<PhysOpPtr> OptimizeSpj(const LogicalOpPtr& root) const;
  StatusOr<PhysOpPtr> BuildAccessPath(const std::string& alias,
                                      const std::string& table_name,
                                      std::vector<ExprPtr> conjuncts,
                                      const AliasMap& aliases) const;

  Catalog* catalog_;
  const StatsCatalog* stats_;
  CostModel cost_model_;
  OptimizerOptions options_;
};

/// Splits a predicate into its top-level AND conjuncts.
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred);

}  // namespace erq

