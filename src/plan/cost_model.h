#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>

#include "expr/expr.h"
#include "stats/analyzer.h"

namespace erq {

/// alias (lowercased) -> base table name, for statistics lookups against
/// qualified column references.
using AliasMap = std::unordered_map<std::string, std::string>;

/// Selectivity and cost estimation in abstract cost units (1 unit ~ one
/// sequential tuple visit). Deliberately simple, but monotone in data size
/// and selectivity, which is all the `C_cost` gate (§2.2) and the physical
/// optimizer need.
class CostModel {
 public:
  explicit CostModel(const StatsCatalog* stats) : stats_(stats) {}

  // --- Selectivity ---

  /// Estimated fraction of rows satisfying `pred` (qualified column refs).
  double EstimateSelectivity(const Expr& pred, const AliasMap& aliases) const;

  /// Selectivity of an equi-join between the two columns (1 / max NDV).
  double JoinSelectivity(const std::string& left_alias,
                         const std::string& left_column,
                         const std::string& right_alias,
                         const std::string& right_column,
                         const AliasMap& aliases) const;

  // --- Operator costs (per-operator, excluding children) ---

  double TableScanCost(double rows) const { return rows * kSeqTupleCost; }
  /// One descent per key range plus a visit per matching row.
  double IndexScanCost(double table_rows, double matching_rows,
                       size_t ranges) const;
  double FilterCost(double input_rows) const {
    return input_rows * kPredicateCost;
  }
  double ProjectCost(double input_rows) const {
    return input_rows * kProjectCost;
  }
  double HashJoinCost(double left_rows, double right_rows) const;
  double MergeJoinCost(double left_rows, double right_rows) const;
  double NestedLoopsJoinCost(double left_rows, double right_rows) const;
  double SortCost(double rows) const;
  double DistinctCost(double rows) const { return rows * kHashTupleCost; }
  double AggregateCost(double rows) const { return rows * kHashTupleCost; }

  const StatsCatalog* stats() const { return stats_; }

  static constexpr double kSeqTupleCost = 1.0;
  static constexpr double kPredicateCost = 0.2;
  static constexpr double kProjectCost = 0.1;
  static constexpr double kIndexLookupCost = 12.0;
  static constexpr double kIndexTupleCost = 2.0;
  static constexpr double kHashTupleCost = 1.5;
  static constexpr double kMergeTupleCost = 1.2;
  static constexpr double kNlTupleCost = 0.5;
  static constexpr double kDefaultSelectivity = 0.33;
  static constexpr double kDefaultEqSelectivity = 0.05;

 private:
  std::shared_ptr<const ColumnStats> LookupStats(const Expr& column_ref,
                                 const AliasMap& aliases) const;

  const StatsCatalog* stats_;
};

}  // namespace erq

