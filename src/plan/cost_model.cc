#include "plan/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace erq {

std::shared_ptr<const ColumnStats> CostModel::LookupStats(const Expr& column_ref,
                                          const AliasMap& aliases) const {
  if (stats_ == nullptr || column_ref.kind() != Expr::Kind::kColumnRef) {
    return nullptr;
  }
  auto it = aliases.find(ToLower(column_ref.qualifier()));
  if (it == aliases.end()) return nullptr;
  return stats_->GetColumnStats(it->second, column_ref.column());
}

double CostModel::EstimateSelectivity(const Expr& pred,
                                      const AliasMap& aliases) const {
  switch (pred.kind()) {
    case Expr::Kind::kAnd: {
      double s = 1.0;
      for (const ExprPtr& c : pred.children()) {
        s *= EstimateSelectivity(*c, aliases);
      }
      return s;
    }
    case Expr::Kind::kOr: {
      double not_any = 1.0;
      for (const ExprPtr& c : pred.children()) {
        not_any *= 1.0 - EstimateSelectivity(*c, aliases);
      }
      return 1.0 - not_any;
    }
    case Expr::Kind::kNot:
      return std::clamp(1.0 - EstimateSelectivity(*pred.child(0), aliases),
                        0.0, 1.0);
    case Expr::Kind::kCompare: {
      const Expr& lhs = *pred.child(0);
      const Expr& rhs = *pred.child(1);
      bool l_col = lhs.kind() == Expr::Kind::kColumnRef;
      bool r_col = rhs.kind() == Expr::Kind::kColumnRef;
      bool l_lit = lhs.kind() == Expr::Kind::kLiteral;
      bool r_lit = rhs.kind() == Expr::Kind::kLiteral;
      if (l_col && r_col) {
        if (pred.compare_op() == CompareOp::kEq) {
          return JoinSelectivity(lhs.qualifier(), lhs.column(),
                                 rhs.qualifier(), rhs.column(), aliases);
        }
        return kDefaultSelectivity;
      }
      const Expr* col = l_col ? &lhs : (r_col ? &rhs : nullptr);
      const Expr* lit = r_lit ? &rhs : (l_lit ? &lhs : nullptr);
      if (col == nullptr || lit == nullptr || lit->value().is_null()) {
        return kDefaultSelectivity;
      }
      CompareOp op = l_col ? pred.compare_op() : SwapCompareOp(pred.compare_op());
      std::shared_ptr<const ColumnStats> cs = LookupStats(*col, aliases);
      if (cs == nullptr) {
        return op == CompareOp::kEq ? kDefaultEqSelectivity
                                    : kDefaultSelectivity;
      }
      const Value& v = lit->value();
      switch (op) {
        case CompareOp::kEq:
          return cs->EqualsSelectivity(v);
        case CompareOp::kNe:
          return cs->NotEqualsSelectivity(v);
        case CompareOp::kLt:
          return cs->RangeSelectivity(std::nullopt, false, v, false);
        case CompareOp::kLe:
          return cs->RangeSelectivity(std::nullopt, false, v, true);
        case CompareOp::kGt:
          return cs->RangeSelectivity(v, false, std::nullopt, false);
        case CompareOp::kGe:
          return cs->RangeSelectivity(v, true, std::nullopt, false);
      }
      return kDefaultSelectivity;
    }
    case Expr::Kind::kBetween: {
      const Expr& v = *pred.child(0);
      const Expr& lo = *pred.child(1);
      const Expr& hi = *pred.child(2);
      if (v.kind() == Expr::Kind::kColumnRef &&
          lo.kind() == Expr::Kind::kLiteral &&
          hi.kind() == Expr::Kind::kLiteral) {
        std::shared_ptr<const ColumnStats> cs = LookupStats(v, aliases);
        if (cs != nullptr) {
          double s = cs->RangeSelectivity(lo.value(), true, hi.value(), true);
          return pred.negated() ? std::clamp(1.0 - s, 0.0, 1.0) : s;
        }
      }
      return 0.25;
    }
    case Expr::Kind::kInList: {
      const Expr& v = *pred.child(0);
      std::shared_ptr<const ColumnStats> cs = LookupStats(v, aliases);
      double s = 0.0;
      for (size_t i = 1; i < pred.children().size(); ++i) {
        const Expr& item = *pred.child(i);
        if (cs != nullptr && item.kind() == Expr::Kind::kLiteral &&
            !item.value().is_null()) {
          s += cs->EqualsSelectivity(item.value());
        } else {
          s += kDefaultEqSelectivity;
        }
      }
      s = std::clamp(s, 0.0, 1.0);
      return pred.negated() ? 1.0 - s : s;
    }
    case Expr::Kind::kIsNull: {
      const Expr& v = *pred.child(0);
      std::shared_ptr<const ColumnStats> cs = LookupStats(v, aliases);
      double null_frac = cs != nullptr ? cs->null_fraction() : 0.01;
      return pred.negated() ? 1.0 - null_frac : null_frac;
    }
    case Expr::Kind::kLiteral: {
      const Value& v = pred.value();
      if (v.is_null()) return 0.0;
      return v.AsDouble() != 0.0 ? 1.0 : 0.0;
    }
    default:
      return kDefaultSelectivity;
  }
}

double CostModel::JoinSelectivity(const std::string& left_alias,
                                  const std::string& left_column,
                                  const std::string& right_alias,
                                  const std::string& right_column,
                                  const AliasMap& aliases) const {
  double left_ndv = 0, right_ndv = 0;
  if (stats_ != nullptr) {
    auto l = aliases.find(ToLower(left_alias));
    auto r = aliases.find(ToLower(right_alias));
    if (l != aliases.end()) {
      std::shared_ptr<const ColumnStats> cs = stats_->GetColumnStats(l->second, left_column);
      if (cs != nullptr) left_ndv = cs->ndv;
    }
    if (r != aliases.end()) {
      std::shared_ptr<const ColumnStats> cs = stats_->GetColumnStats(r->second, right_column);
      if (cs != nullptr) right_ndv = cs->ndv;
    }
  }
  double max_ndv = std::max(left_ndv, right_ndv);
  if (max_ndv <= 0.0) return kDefaultEqSelectivity;
  return 1.0 / max_ndv;
}

double CostModel::IndexScanCost(double table_rows, double matching_rows,
                                size_t ranges) const {
  double height = table_rows > 1 ? std::log2(table_rows) : 1.0;
  return static_cast<double>(ranges) * (kIndexLookupCost + height) +
         matching_rows * kIndexTupleCost;
}

double CostModel::HashJoinCost(double left_rows, double right_rows) const {
  return (left_rows + right_rows) * kHashTupleCost;
}

double CostModel::MergeJoinCost(double left_rows, double right_rows) const {
  return SortCost(left_rows) + SortCost(right_rows) +
         (left_rows + right_rows) * kMergeTupleCost;
}

double CostModel::NestedLoopsJoinCost(double left_rows,
                                      double right_rows) const {
  return left_rows * std::max(1.0, right_rows) * kNlTupleCost;
}

double CostModel::SortCost(double rows) const {
  if (rows < 2) return rows;
  return rows * std::log2(rows);
}

}  // namespace erq
