#include "plan/optimizer.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/string_util.h"
#include "expr/normalize.h"
#include "expr/primitive.h"
#include "stats/partition_stats.h"

namespace erq {

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred) {
  std::vector<ExprPtr> out;
  if (pred == nullptr) return out;
  if (pred->kind() == Expr::Kind::kAnd) {
    for (const ExprPtr& c : pred->children()) {
      std::vector<ExprPtr> sub = SplitConjuncts(c);
      out.insert(out.end(), sub.begin(), sub.end());
    }
  } else {
    out.push_back(pred);
  }
  return out;
}

namespace {

/// Lowercased aliases referenced by an expression.
std::set<std::string> ReferencedAliases(const Expr& e) {
  std::vector<std::pair<std::string, std::string>> refs;
  e.CollectColumnRefs(&refs);
  std::set<std::string> out;
  for (const auto& [q, c] : refs) out.insert(ToLower(q));
  return out;
}

bool IsSubset(const std::set<std::string>& a, const std::set<std::string>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// If `conjunct` is a sargable single-column interval predicate
/// (col cmp literal, literal cmp col, col BETWEEN lit AND lit, or a
/// prefix LIKE), extracts the column name and bounds. Returns false
/// otherwise.
bool ExtractInterval(const Expr& conjunct, std::string* column, Bound* lo,
                     Bound* hi) {
  if (conjunct.kind() == Expr::Kind::kBetween && !conjunct.negated()) {
    const Expr& v = *conjunct.child(0);
    const Expr& l = *conjunct.child(1);
    const Expr& h = *conjunct.child(2);
    if (v.kind() == Expr::Kind::kColumnRef &&
        l.kind() == Expr::Kind::kLiteral && !l.value().is_null() &&
        h.kind() == Expr::Kind::kLiteral && !h.value().is_null()) {
      *column = v.column();
      *lo = Bound::Inclusive(l.value());
      *hi = Bound::Inclusive(h.value());
      return true;
    }
    return false;
  }
  if (conjunct.kind() == Expr::Kind::kLike && !conjunct.negated()) {
    // Prefix LIKE patterns are range-sargable: col LIKE 'abc%' scans
    // ["abc", "abd"). Wildcard-free patterns are point lookups.
    const Expr& operand = *conjunct.child(0);
    const Expr& pattern_expr = *conjunct.child(1);
    if (operand.kind() != Expr::Kind::kColumnRef ||
        pattern_expr.kind() != Expr::Kind::kLiteral ||
        pattern_expr.value().type() != DataType::kString) {
      return false;
    }
    const std::string& pattern = pattern_expr.value().AsString();
    size_t wild = pattern.find_first_of("%_");
    if (wild == std::string::npos) {
      *column = operand.column();
      *lo = Bound::Inclusive(pattern_expr.value());
      *hi = Bound::Inclusive(pattern_expr.value());
      return true;
    }
    if (wild > 0 && wild == pattern.size() - 1 && pattern[wild] == '%' &&
        static_cast<unsigned char>(pattern[wild - 1]) < 0xff) {
      std::string prefix = pattern.substr(0, wild);
      std::string upper = prefix;
      upper.back() = static_cast<char>(upper.back() + 1);
      *column = operand.column();
      *lo = Bound::Inclusive(Value::String(std::move(prefix)));
      *hi = Bound::Exclusive(Value::String(std::move(upper)));
      return true;
    }
    return false;
  }
  if (conjunct.kind() != Expr::Kind::kCompare) return false;
  const Expr* col = nullptr;
  const Expr* lit = nullptr;
  CompareOp op = conjunct.compare_op();
  if (conjunct.child(0)->kind() == Expr::Kind::kColumnRef &&
      conjunct.child(1)->kind() == Expr::Kind::kLiteral) {
    col = conjunct.child(0).get();
    lit = conjunct.child(1).get();
  } else if (conjunct.child(1)->kind() == Expr::Kind::kColumnRef &&
             conjunct.child(0)->kind() == Expr::Kind::kLiteral) {
    col = conjunct.child(1).get();
    lit = conjunct.child(0).get();
    op = SwapCompareOp(op);
  } else {
    return false;
  }
  if (lit->value().is_null()) return false;
  *column = col->column();
  *lo = Bound::Unbounded();
  *hi = Bound::Unbounded();
  switch (op) {
    case CompareOp::kEq:
      *lo = Bound::Inclusive(lit->value());
      *hi = Bound::Inclusive(lit->value());
      return true;
    case CompareOp::kLt:
      *hi = Bound::Exclusive(lit->value());
      return true;
    case CompareOp::kLe:
      *hi = Bound::Inclusive(lit->value());
      return true;
    case CompareOp::kGt:
      *lo = Bound::Exclusive(lit->value());
      return true;
    case CompareOp::kGe:
      *lo = Bound::Inclusive(lit->value());
      return true;
    case CompareOp::kNe:
      return false;
  }
  return false;
}

/// Appends the key ranges `conjunct` is exactly equivalent to on one
/// column: a single interval predicate gives one range, a non-negated IN
/// list of non-NULL literals one point per item, and an OR (flattened) the
/// ranges of its disjuncts, all of which must be sargable on the same
/// column. `column` is set by the first range and checked by the rest.
/// Returns false (contents of `ranges` unspecified) for anything else.
bool ExtractRanges(const Expr& conjunct, std::string* column,
                   std::vector<KeyRange>* ranges) {
  auto same_column = [column](const std::string& c) {
    if (column->empty()) *column = c;
    return EqualsIgnoreCase(*column, c);
  };
  if (conjunct.kind() == Expr::Kind::kOr) {
    for (const ExprPtr& disjunct : conjunct.children()) {
      if (!ExtractRanges(*disjunct, column, ranges)) return false;
    }
    return true;
  }
  if (conjunct.kind() == Expr::Kind::kInList) {
    const Expr& operand = *conjunct.child(0);
    if (conjunct.negated() || operand.kind() != Expr::Kind::kColumnRef ||
        !same_column(operand.column())) {
      return false;
    }
    for (size_t i = 1; i < conjunct.children().size(); ++i) {
      const Expr& item = *conjunct.child(i);
      if (item.kind() != Expr::Kind::kLiteral || item.value().is_null()) {
        return false;
      }
      ranges->push_back(KeyRange{Bound::Inclusive(item.value()),
                                 Bound::Inclusive(item.value())});
    }
    return true;
  }
  std::string c;
  KeyRange range;
  if (!ExtractInterval(conjunct, &c, &range.lo, &range.hi) ||
      !same_column(c)) {
    return false;
  }
  ranges->push_back(std::move(range));
  return true;
}

/// A join-graph component during greedy join ordering.
struct Component {
  PhysOpPtr plan;
  std::set<std::string> aliases;  // lowercased
  double rows;
};

}  // namespace

struct Optimizer::SpjContext {
  std::vector<std::pair<std::string, std::string>> scans;  // (alias, table)
  std::vector<ExprPtr> conjuncts;
};

StatusOr<PhysOpPtr> Optimizer::Optimize(const LogicalOpPtr& logical) const {
  return OptimizeNode(logical);
}

StatusOr<PhysOpPtr> Optimizer::OptimizeNode(const LogicalOpPtr& node) const {
  switch (node->kind) {
    case LogicalOpKind::kScan:
    case LogicalOpKind::kJoin:
      return OptimizeSpj(node);
    case LogicalOpKind::kFilter: {
      // Filter over an SPJ core is folded into join planning; a filter over
      // anything else becomes a physical Filter node.
      const LogicalOpPtr& input = node->children[0];
      if (input->kind == LogicalOpKind::kScan ||
          input->kind == LogicalOpKind::kJoin ||
          input->kind == LogicalOpKind::kFilter) {
        return OptimizeSpj(node);
      }
      ERQ_ASSIGN_OR_RETURN(PhysOpPtr child, OptimizeNode(input));
      PhysOpPtr filter = PhysicalOperator::Make(PhysOpKind::kFilter);
      ERQ_ASSIGN_OR_RETURN(filter->predicate,
                           BindExpr(node->predicate, child->layout));
      filter->layout = child->layout;
      filter->estimated_rows = child->estimated_rows * 0.5;
      filter->estimated_cost =
          child->estimated_cost + cost_model_.FilterCost(child->estimated_rows);
      filter->children = {std::move(child)};
      return filter;
    }
    case LogicalOpKind::kSemiJoin: {
      ERQ_ASSIGN_OR_RETURN(PhysOpPtr left, OptimizeNode(node->children[0]));
      ERQ_ASSIGN_OR_RETURN(PhysOpPtr right, OptimizeNode(node->children[1]));
      if (right->layout.size() != 1) {
        return Status::BindError(
            "IN (subquery) requires a single-column subquery, got " +
            std::to_string(right->layout.size()));
      }
      PhysOpPtr join = PhysicalOperator::Make(PhysOpKind::kSemiJoin);
      join->layout = left->layout;
      ERQ_ASSIGN_OR_RETURN(ExprPtr operand,
                           BindExpr(node->predicate, left->layout));
      join->left_keys.push_back(std::move(operand));
      const BoundColumn& rc = right->layout.column(0);
      join->right_keys.push_back(
          Expr::MakeBoundColumnRef(rc.alias, rc.column, 0));
      join->estimated_rows = std::max(1.0, left->estimated_rows * 0.3);
      join->estimated_cost =
          left->estimated_cost + right->estimated_cost +
          cost_model_.HashJoinCost(left->estimated_rows,
                                   right->estimated_rows);
      join->children = {std::move(left), std::move(right)};
      return join;
    }
    case LogicalOpKind::kOuterJoin: {
      ERQ_ASSIGN_OR_RETURN(PhysOpPtr left, OptimizeNode(node->children[0]));
      ERQ_ASSIGN_OR_RETURN(PhysOpPtr right, OptimizeNode(node->children[1]));
      PhysOpPtr join = PhysicalOperator::Make(PhysOpKind::kLeftOuterJoin);
      join->layout = Layout::Concat(left->layout, right->layout);
      ERQ_ASSIGN_OR_RETURN(join->join_condition,
                           BindExpr(node->predicate, join->layout));
      join->estimated_rows =
          std::max(left->estimated_rows,
                   left->estimated_rows * right->estimated_rows * 0.01);
      join->estimated_cost =
          left->estimated_cost + right->estimated_cost +
          cost_model_.NestedLoopsJoinCost(left->estimated_rows,
                                          right->estimated_rows);
      join->children = {std::move(left), std::move(right)};
      return join;
    }
    case LogicalOpKind::kProject: {
      ERQ_ASSIGN_OR_RETURN(PhysOpPtr child, OptimizeNode(node->children[0]));
      PhysOpPtr project = PhysicalOperator::Make(PhysOpKind::kProject);
      Layout layout;
      std::vector<SelectItem> bound_items;
      for (const SelectItem& item : node->items) {
        if (item.kind == SelectItem::Kind::kStar) {
          // Star: pass-through of the child layout.
          for (const BoundColumn& c : child->layout.columns()) {
            layout.Add(c);
          }
          bound_items.push_back(item);
          continue;
        }
        SelectItem bound = item;
        ERQ_ASSIGN_OR_RETURN(bound.expr, BindExpr(item.expr, child->layout));
        DataType type = DataType::kNull;
        std::string name = item.alias;
        if (bound.expr->kind() == Expr::Kind::kColumnRef) {
          const BoundColumn& src =
              child->layout.column(static_cast<size_t>(bound.expr->slot()));
          type = src.type;
          if (name.empty()) name = src.column;
        } else if (name.empty()) {
          name = bound.expr->ToString();
        }
        layout.Add(BoundColumn{"", name, type});
        bound_items.push_back(std::move(bound));
      }
      project->items = std::move(bound_items);
      project->layout = std::move(layout);
      project->estimated_rows = child->estimated_rows;
      project->estimated_cost = child->estimated_cost +
                                cost_model_.ProjectCost(child->estimated_rows);
      project->children = {std::move(child)};
      return project;
    }
    case LogicalOpKind::kAggregate: {
      ERQ_ASSIGN_OR_RETURN(PhysOpPtr child, OptimizeNode(node->children[0]));
      PhysOpPtr agg = PhysicalOperator::Make(PhysOpKind::kAggregate);
      Layout layout;
      for (const ExprPtr& g : node->group_by) {
        ERQ_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(g, child->layout));
        DataType type = DataType::kNull;
        std::string name = bound->ToString();
        if (bound->kind() == Expr::Kind::kColumnRef) {
          const BoundColumn& src =
              child->layout.column(static_cast<size_t>(bound->slot()));
          type = src.type;
          name = src.column;
        }
        layout.Add(BoundColumn{"", name, type});
        agg->group_by.push_back(std::move(bound));
      }
      for (const SelectItem& item : node->items) {
        SelectItem bound = item;
        if (item.expr) {
          ERQ_ASSIGN_OR_RETURN(bound.expr, BindExpr(item.expr, child->layout));
        }
        if (item.kind == SelectItem::Kind::kAggregate) {
          DataType type = DataType::kDouble;
          if (item.agg == AggFunc::kCount) type = DataType::kInt64;
          std::string name = item.alias.empty()
                                 ? ToLower(AggFuncToString(item.agg))
                                 : item.alias;
          layout.Add(BoundColumn{"", name, type});
        }
        // Non-aggregate items must match group-by columns; the executor
        // resolves them against the grouped layout.
        agg->items.push_back(std::move(bound));
      }
      agg->layout = std::move(layout);
      agg->estimated_rows = node->group_by.empty()
                                ? 1.0
                                : std::max(1.0, child->estimated_rows * 0.1);
      agg->estimated_cost = child->estimated_cost +
                            cost_model_.AggregateCost(child->estimated_rows);
      agg->children = {std::move(child)};
      return agg;
    }
    case LogicalOpKind::kDistinct: {
      ERQ_ASSIGN_OR_RETURN(PhysOpPtr child, OptimizeNode(node->children[0]));
      PhysOpPtr distinct = PhysicalOperator::Make(PhysOpKind::kDistinct);
      distinct->layout = child->layout;
      distinct->estimated_rows = child->estimated_rows * 0.9;
      distinct->estimated_cost =
          child->estimated_cost + cost_model_.DistinctCost(child->estimated_rows);
      distinct->children = {std::move(child)};
      return distinct;
    }
    case LogicalOpKind::kSort: {
      ERQ_ASSIGN_OR_RETURN(PhysOpPtr child, OptimizeNode(node->children[0]));
      PhysOpPtr sort = PhysicalOperator::Make(PhysOpKind::kSort);
      sort->layout = child->layout;
      for (const OrderItem& o : node->order_by) {
        OrderItem bound = o;
        ERQ_ASSIGN_OR_RETURN(bound.expr, BindExpr(o.expr, child->layout));
        sort->order_by.push_back(std::move(bound));
      }
      sort->estimated_rows = child->estimated_rows;
      sort->estimated_cost =
          child->estimated_cost + cost_model_.SortCost(child->estimated_rows);
      sort->children = {std::move(child)};
      return sort;
    }
    case LogicalOpKind::kUnion:
    case LogicalOpKind::kExcept: {
      ERQ_ASSIGN_OR_RETURN(PhysOpPtr left, OptimizeNode(node->children[0]));
      ERQ_ASSIGN_OR_RETURN(PhysOpPtr right, OptimizeNode(node->children[1]));
      if (left->layout.size() != right->layout.size()) {
        return Status::BindError(
            "set operation inputs have different arities");
      }
      PhysOpPtr setop = PhysicalOperator::Make(
          node->kind == LogicalOpKind::kUnion ? PhysOpKind::kUnion
                                              : PhysOpKind::kExcept);
      setop->all = node->all;
      setop->layout = left->layout;
      setop->estimated_rows =
          node->kind == LogicalOpKind::kUnion
              ? left->estimated_rows + right->estimated_rows
              : left->estimated_rows;
      setop->estimated_cost =
          left->estimated_cost + right->estimated_cost +
          cost_model_.DistinctCost(left->estimated_rows +
                                   right->estimated_rows);
      setop->children = {std::move(left), std::move(right)};
      return setop;
    }
  }
  return Status::Internal("unhandled logical node");
}

StatusOr<PhysOpPtr> Optimizer::BuildAccessPath(
    const std::string& alias, const std::string& table_name,
    std::vector<ExprPtr> conjuncts, const AliasMap& aliases) const {
  ERQ_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(table_name));
  double table_rows = static_cast<double>(
      stats_ != nullptr && stats_->HasTableStats(table_name)
          ? stats_->GetRowCount(table_name)
          : table->num_rows());

  // Try to find the most selective sargable conjunct with an index.
  int best_idx = -1;
  SortedIndex* best_index = nullptr;
  std::string best_column;
  std::vector<KeyRange> best_ranges;
  double best_sel = 1.0;
  if (options_.enable_index_scan) {
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      std::string column;
      std::vector<KeyRange> ranges;
      if (!ExtractRanges(*conjuncts[i], &column, &ranges)) continue;
      SortedIndex* index = catalog_->FindIndex(table_name, column);
      if (index == nullptr) continue;
      double sel = cost_model_.EstimateSelectivity(*conjuncts[i], aliases);
      if (best_idx < 0 || sel < best_sel) {
        best_idx = static_cast<int>(i);
        best_index = index;
        best_column = std::move(column);
        best_ranges = std::move(ranges);
        best_sel = sel;
      }
    }
  }
  // Weigh the index path against the table scan, which filters every
  // conjunct over the whole table: an index range over most of the table
  // costs more than reading it in order.
  const double index_rows = std::max(1.0, table_rows * best_sel);
  double index_cost = 0.0;
  if (best_idx >= 0) {
    index_cost = cost_model_.IndexScanCost(table_rows, index_rows,
                                           best_ranges.size());
    if (conjuncts.size() > 1) index_cost += cost_model_.FilterCost(index_rows);
    if (index_cost >= cost_model_.TableScanCost(table_rows) +
                          cost_model_.FilterCost(table_rows)) {
      best_idx = -1;
    }
  }

  PhysOpPtr scan;
  Layout scan_layout = ScanLayout(*table, alias);
  if (best_idx >= 0) {
    scan = PhysicalOperator::Make(PhysOpKind::kIndexScan);
    scan->table = table;
    scan->table_name = table_name;
    scan->alias = alias;
    scan->index = best_index;
    scan->index_column = best_column;
    scan->index_ranges = std::move(best_ranges);
    scan->layout = scan_layout;
    ERQ_ASSIGN_OR_RETURN(scan->index_condition,
                         BindExpr(conjuncts[static_cast<size_t>(best_idx)],
                                  scan_layout));
    conjuncts.erase(conjuncts.begin() + best_idx);
    scan->estimated_rows = index_rows;
    scan->estimated_cost = cost_model_.IndexScanCost(
        table_rows, index_rows, scan->index_ranges.size());
  } else {
    // Canonicalize the primitive-classifiable single-table conjuncts once:
    // the alias is rewritten to the canonical (lowercased base table)
    // relation name and unclassifiable conjuncts are simply left out. The
    // resulting conjunction is *weaker* than the full local predicate but
    // still implied by it, so both of its consumers stay sound: the reuse
    // probe (a stored condition covering the weak probe also covers the
    // full predicate) and partition pruning (every emitted row still
    // passes the Filter above; the conjuncts vector is deliberately not
    // consumed here).
    std::unordered_map<std::string, std::string> to_canonical{
        {ToLower(alias), ToLower(table_name)}};
    std::vector<PrimitiveTerm> terms;
    for (const ExprPtr& c : conjuncts) {
      StatusOr<ExprPtr> canonical = RewriteQualifiers(c, to_canonical);
      if (!canonical.ok()) continue;
      StatusOr<PrimitiveTerm> term = PrimitiveTerm::FromExpr(canonical.value());
      if (!term.ok()) continue;
      if (term.value().kind() == PrimitiveTerm::Kind::kOpaque) continue;
      terms.push_back(std::move(term).value());
    }
    Conjunction canonical_condition = Conjunction::Make(std::move(terms));

    if (options_.reuse_source != nullptr) {
      // Reuse splice: a stored intermediate covering the probe is a
      // superset of this scan's filtered output, in the same (ascending
      // row) order the table scan would emit — so the cached rows replace
      // the scan byte-for-byte once the Filter built below re-applies the
      // full local predicate as the residual.
      std::optional<ReuseSplice> hit = options_.reuse_source->Lookup(
          ToLower(table_name), canonical_condition);
      if (hit.has_value()) {
        scan = PhysicalOperator::Make(PhysOpKind::kCachedResultScan);
        scan->table = table;
        scan->table_name = table_name;
        scan->alias = alias;
        scan->layout = scan_layout;
        scan->cached_rows = hit->rows;
        scan->reuse_entry_id = hit->entry_id;
        scan->scan_condition = std::move(hit->stored_condition);
        scan->has_scan_condition = scan->scan_condition.size() > 0;
        scan->estimated_rows = static_cast<double>(hit->rows->size());
        scan->estimated_cost = cost_model_.TableScanCost(scan->estimated_rows);
      }
    }
    if (scan == nullptr) {
      scan = PhysicalOperator::Make(PhysOpKind::kTableScan);
      scan->table = table;
      scan->table_name = table_name;
      scan->alias = alias;
      scan->layout = scan_layout;
      scan->estimated_rows = table_rows;
      scan->estimated_cost = cost_model_.TableScanCost(table_rows);
      if (table->partitioned() && canonical_condition.size() > 0) {
        scan->scan_condition = std::move(canonical_condition);
        scan->has_scan_condition = true;
        // Cost the scan by its zone-map survivor bound, so the C_cost gate
        // sees the pruned (cheaper) scan the executor will actually run.
        auto snapshot = table->partition_snapshot();
        if (snapshot != nullptr) {
          PartitionSurvivorEstimate est =
              EstimateSurvivors(*snapshot, table->schema(),
                                ToLower(table_name), scan->scan_condition);
          double surviving = static_cast<double>(est.surviving_rows);
          scan->estimated_rows = std::min(table_rows, surviving);
          scan->estimated_cost =
              cost_model_.TableScanCost(scan->estimated_rows);
        }
      }
    }
  }

  if (conjuncts.empty()) return scan;

  // Remaining single-table conjuncts become one explicit Filter node, so
  // the executor records its output cardinality (Operation O2 needs the
  // selection operator's observed emptiness).
  PhysOpPtr filter = PhysicalOperator::Make(PhysOpKind::kFilter);
  ExprPtr pred = Expr::MakeAnd(std::move(conjuncts));
  double sel = cost_model_.EstimateSelectivity(*pred, aliases);
  ERQ_ASSIGN_OR_RETURN(filter->predicate, BindExpr(pred, scan_layout));
  filter->layout = scan_layout;
  filter->estimated_rows = std::max(0.0, scan->estimated_rows * sel);
  filter->estimated_cost =
      scan->estimated_cost + cost_model_.FilterCost(scan->estimated_rows);
  filter->children = {std::move(scan)};
  return filter;
}

StatusOr<PhysOpPtr> Optimizer::OptimizeSpj(const LogicalOpPtr& root) const {
  // Collect the SPJ core: scans and conjuncts.
  SpjContext ctx;
  std::vector<const LogicalOperator*> stack = {root.get()};
  while (!stack.empty()) {
    const LogicalOperator* node = stack.back();
    stack.pop_back();
    switch (node->kind) {
      case LogicalOpKind::kScan:
        ctx.scans.emplace_back(node->alias, node->table_name);
        break;
      case LogicalOpKind::kFilter: {
        std::vector<ExprPtr> cs = SplitConjuncts(node->predicate);
        ctx.conjuncts.insert(ctx.conjuncts.end(), cs.begin(), cs.end());
        stack.push_back(node->children[0].get());
        break;
      }
      case LogicalOpKind::kJoin: {
        if (node->predicate) {
          std::vector<ExprPtr> cs = SplitConjuncts(node->predicate);
          ctx.conjuncts.insert(ctx.conjuncts.end(), cs.begin(), cs.end());
        }
        stack.push_back(node->children[1].get());
        stack.push_back(node->children[0].get());
        break;
      }
      default:
        return Status::Internal("non-SPJ node inside SPJ core: " +
                                std::string(LogicalOpKindToString(node->kind)));
    }
  }
  std::reverse(ctx.scans.begin(), ctx.scans.end());

  AliasMap aliases;
  for (const auto& [alias, table] : ctx.scans) {
    aliases[ToLower(alias)] = table;
  }

  // Partition conjuncts: single-alias ones feed access paths.
  std::vector<ExprPtr> multi;
  std::unordered_map<std::string, std::vector<ExprPtr>> single;
  for (const ExprPtr& c : ctx.conjuncts) {
    std::set<std::string> refs = ReferencedAliases(*c);
    if (refs.size() == 1) {
      single[*refs.begin()].push_back(c);
    } else {
      multi.push_back(c);
    }
  }

  // Build one component per relation.
  std::vector<Component> components;
  for (const auto& [alias, table] : ctx.scans) {
    ERQ_ASSIGN_OR_RETURN(
        PhysOpPtr plan,
        BuildAccessPath(alias, table, single[ToLower(alias)], aliases));
    Component comp;
    comp.rows = plan->estimated_rows;
    comp.plan = std::move(plan);
    comp.aliases = {ToLower(alias)};
    components.push_back(std::move(comp));
  }

  // Greedy join ordering.
  std::vector<ExprPtr> remaining = std::move(multi);
  while (components.size() > 1) {
    // Find the best connected pair (one minimizing estimated output rows);
    // fall back to the two smallest components (cross product).
    double best_rows = std::numeric_limits<double>::infinity();
    size_t best_a = 0, best_b = 1;
    bool found_connected = false;
    for (size_t a = 0; a < components.size(); ++a) {
      for (size_t b = a + 1; b < components.size(); ++b) {
        std::set<std::string> combined = components[a].aliases;
        combined.insert(components[b].aliases.begin(),
                        components[b].aliases.end());
        double sel = 1.0;
        bool connected = false;
        for (const ExprPtr& c : remaining) {
          std::set<std::string> refs = ReferencedAliases(*c);
          if (IsSubset(refs, combined) &&
              !IsSubset(refs, components[a].aliases) &&
              !IsSubset(refs, components[b].aliases)) {
            connected = true;
            sel *= cost_model_.EstimateSelectivity(*c, aliases);
          }
        }
        if (!connected) continue;
        double rows = components[a].rows * components[b].rows * sel;
        if (!found_connected || rows < best_rows) {
          found_connected = true;
          best_rows = rows;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (!found_connected) {
      // Cross product of the two smallest components.
      std::vector<size_t> order(components.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        return components[x].rows < components[y].rows;
      });
      best_a = std::min(order[0], order[1]);
      best_b = std::max(order[0], order[1]);
    }

    Component left = std::move(components[best_a]);
    Component right = std::move(components[best_b]);
    components.erase(components.begin() + best_b);
    components.erase(components.begin() + best_a);

    std::set<std::string> combined = left.aliases;
    combined.insert(right.aliases.begin(), right.aliases.end());

    // Gather conjuncts now applicable.
    std::vector<ExprPtr> applicable;
    for (auto it = remaining.begin(); it != remaining.end();) {
      std::set<std::string> refs = ReferencedAliases(**it);
      if (IsSubset(refs, combined)) {
        applicable.push_back(*it);
        it = remaining.erase(it);
      } else {
        ++it;
      }
    }

    // Split equi-key conjuncts from residuals.
    std::vector<ExprPtr> left_keys, right_keys, residual;
    for (const ExprPtr& c : applicable) {
      bool is_key = false;
      if (c->kind() == Expr::Kind::kCompare &&
          c->compare_op() == CompareOp::kEq) {
        std::set<std::string> l = ReferencedAliases(*c->child(0));
        std::set<std::string> r = ReferencedAliases(*c->child(1));
        if (!l.empty() && !r.empty()) {
          if (IsSubset(l, left.aliases) && IsSubset(r, right.aliases)) {
            left_keys.push_back(c->child(0));
            right_keys.push_back(c->child(1));
            is_key = true;
          } else if (IsSubset(r, left.aliases) && IsSubset(l, right.aliases)) {
            left_keys.push_back(c->child(1));
            right_keys.push_back(c->child(0));
            is_key = true;
          }
        }
      }
      if (!is_key) residual.push_back(c);
    }

    double sel = 1.0;
    for (const ExprPtr& c : applicable) {
      sel *= cost_model_.EstimateSelectivity(*c, aliases);
    }

    PhysOpPtr join;
    Layout joined_layout = Layout::Concat(left.plan->layout,
                                          right.plan->layout);
    bool use_keys = !left_keys.empty() &&
                    (options_.enable_hash_join || options_.prefer_merge_join);
    if (use_keys) {
      join = PhysicalOperator::Make(options_.prefer_merge_join
                                        ? PhysOpKind::kMergeJoin
                                        : PhysOpKind::kHashJoin);
      for (size_t i = 0; i < left_keys.size(); ++i) {
        ERQ_ASSIGN_OR_RETURN(ExprPtr lk,
                             BindExpr(left_keys[i], left.plan->layout));
        ERQ_ASSIGN_OR_RETURN(ExprPtr rk,
                             BindExpr(right_keys[i], right.plan->layout));
        join->left_keys.push_back(std::move(lk));
        join->right_keys.push_back(std::move(rk));
      }
      if (!residual.empty()) {
        ERQ_ASSIGN_OR_RETURN(
            join->join_condition,
            BindExpr(Expr::MakeAnd(std::move(residual)), joined_layout));
      }
      join->estimated_cost =
          left.plan->estimated_cost + right.plan->estimated_cost +
          (options_.prefer_merge_join
               ? cost_model_.MergeJoinCost(left.rows, right.rows)
               : cost_model_.HashJoinCost(left.rows, right.rows));
    } else {
      join = PhysicalOperator::Make(PhysOpKind::kNestedLoopsJoin);
      std::vector<ExprPtr> all_conjuncts;
      for (size_t i = 0; i < left_keys.size(); ++i) {
        all_conjuncts.push_back(Expr::MakeCompare(CompareOp::kEq, left_keys[i],
                                                  right_keys[i]));
      }
      all_conjuncts.insert(all_conjuncts.end(), residual.begin(),
                           residual.end());
      if (!all_conjuncts.empty()) {
        ERQ_ASSIGN_OR_RETURN(
            join->join_condition,
            BindExpr(Expr::MakeAnd(std::move(all_conjuncts)), joined_layout));
      }
      join->estimated_cost =
          left.plan->estimated_cost + right.plan->estimated_cost +
          cost_model_.NestedLoopsJoinCost(left.rows, right.rows);
    }
    join->layout = std::move(joined_layout);
    join->estimated_rows = std::max(0.0, left.rows * right.rows * sel);
    join->children = {left.plan, right.plan};

    Component merged;
    merged.rows = join->estimated_rows;
    merged.plan = std::move(join);
    merged.aliases = std::move(combined);
    components.push_back(std::move(merged));
  }

  PhysOpPtr result = std::move(components[0].plan);
  if (!remaining.empty()) {
    PhysOpPtr filter = PhysicalOperator::Make(PhysOpKind::kFilter);
    ExprPtr pred = Expr::MakeAnd(std::move(remaining));
    double sel = cost_model_.EstimateSelectivity(*pred, aliases);
    ERQ_ASSIGN_OR_RETURN(filter->predicate, BindExpr(pred, result->layout));
    filter->layout = result->layout;
    filter->estimated_rows = result->estimated_rows * sel;
    filter->estimated_cost =
        result->estimated_cost + cost_model_.FilterCost(result->estimated_rows);
    filter->children = {std::move(result)};
    result = std::move(filter);
  }
  return result;
}

}  // namespace erq
