#include "plan/physical_plan.h"

#include <cstdio>

namespace erq {

const char* PhysOpKindToString(PhysOpKind kind) {
  switch (kind) {
    case PhysOpKind::kTableScan:
      return "TableScan";
    case PhysOpKind::kIndexScan:
      return "IndexScan";
    case PhysOpKind::kCachedResultScan:
      return "CachedResultScan";
    case PhysOpKind::kFilter:
      return "Filter";
    case PhysOpKind::kProject:
      return "Project";
    case PhysOpKind::kNestedLoopsJoin:
      return "NestedLoopsJoin";
    case PhysOpKind::kHashJoin:
      return "HashJoin";
    case PhysOpKind::kSemiJoin:
      return "SemiJoin";
    case PhysOpKind::kLeftOuterJoin:
      return "LeftOuterJoin";
    case PhysOpKind::kSort:
      return "Sort";
    case PhysOpKind::kDistinct:
      return "Distinct";
    case PhysOpKind::kAggregate:
      return "Aggregate";
    case PhysOpKind::kUnion:
      return "Union";
    case PhysOpKind::kExcept:
      return "Except";
  }
  return "?";
}

void PhysicalOperator::ResetActuals() {
  actual_rows = -1;
  partitions_scanned = -1;
  partitions_pruned = -1;
  for (const PhysOpPtr& c : children) c->ResetActuals();
}

uint64_t PhysicalOperator::SumScanPartitions(
    int64_t PhysicalOperator::*field) const {
  uint64_t total = 0;
  if (kind == PhysOpKind::kTableScan && this->*field > 0) {
    total += static_cast<uint64_t>(this->*field);
  }
  for (const PhysOpPtr& c : children) total += c->SumScanPartitions(field);
  return total;
}

std::string PhysicalOperator::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + PhysOpKindToString(kind);
  switch (kind) {
    case PhysOpKind::kTableScan:
      out += " " + table_name;
      if (alias != table_name) out += " AS " + alias;
      if (has_scan_condition && scan_condition.size() > 0) {
        out += " zone [" + scan_condition.ToString() + "]";
      }
      if (partitions_scanned >= 0) {
        out += " partitions(scanned=" +
               std::to_string(static_cast<long long>(partitions_scanned)) +
               " pruned=" +
               std::to_string(static_cast<long long>(partitions_pruned)) + ")";
      }
      break;
    case PhysOpKind::kCachedResultScan:
      out += " " + table_name;
      if (alias != table_name) out += " AS " + alias;
      if (has_scan_condition && scan_condition.size() > 0) {
        out += " stored [" + scan_condition.ToString() + "]";
      }
      out += " rows=" +
             std::to_string(cached_rows == nullptr ? 0 : cached_rows->size());
      break;
    case PhysOpKind::kIndexScan:
      out += " " + table_name;
      if (alias != table_name) out += " AS " + alias;
      out += " ON " + index_column;
      if (index_ranges.size() > 1) {
        out += " (" + std::to_string(index_ranges.size()) + " ranges)";
      }
      if (index_condition) out += " [" + index_condition->ToString() + "]";
      if (predicate) out += " residual [" + predicate->ToString() + "]";
      break;
    case PhysOpKind::kFilter:
      if (predicate) out += " [" + predicate->ToString() + "]";
      break;
    case PhysOpKind::kNestedLoopsJoin:
    case PhysOpKind::kLeftOuterJoin:
      if (join_condition) out += " [" + join_condition->ToString() + "]";
      break;
    case PhysOpKind::kSemiJoin:
      if (!left_keys.empty()) {
        out += " [" + left_keys[0]->ToString() + " IN right]";
      }
      break;
    case PhysOpKind::kHashJoin: {
      out += " [";
      for (size_t i = 0; i < left_keys.size(); ++i) {
        if (i > 0) out += " AND ";
        out += left_keys[i]->ToString() + " = " + right_keys[i]->ToString();
      }
      out += "]";
      if (join_condition) {
        out += " residual [" + join_condition->ToString() + "]";
      }
      break;
    }
    case PhysOpKind::kProject:
    case PhysOpKind::kAggregate: {
      out += " [";
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ", ";
        out += items[i].ToString();
      }
      out += "]";
      break;
    }
    case PhysOpKind::kUnion:
    case PhysOpKind::kExcept:
      if (all) out += " ALL";
      break;
    default:
      break;
  }
  char buf[96];
  if (actual_rows >= 0) {
    std::snprintf(buf, sizeof(buf), "  (est=%.0f cost=%.0f actual=%lld)",
                  estimated_rows, estimated_cost,
                  static_cast<long long>(actual_rows));
  } else {
    std::snprintf(buf, sizeof(buf), "  (est=%.0f cost=%.0f)", estimated_rows,
                  estimated_cost);
  }
  out += buf;
  out += "\n";
  for (const PhysOpPtr& c : children) out += c->ToString(indent + 1);
  return out;
}

}  // namespace erq
