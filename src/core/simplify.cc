#include "core/simplify.h"

#include <type_traits>

#include "common/string_util.h"

#include "plan/optimizer.h"

namespace erq {

std::string SimplifiedQueryPart::ToString() const {
  std::string out = "scans[";
  for (size_t i = 0; i < scans.size(); ++i) {
    if (i > 0) out += ", ";
    out += scans[i].first + ":" + scans[i].second;
  }
  out += "] where[";
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (i > 0) out += " AND ";
    out += conjuncts[i]->ToString();
  }
  out += "]";
  return out;
}

namespace {

Status WalkPhysical(const PhysicalOperator& node, SimplifiedQueryPart* out);
Status WalkLogical(const LogicalOperator& node, SimplifiedQueryPart* out);

/// Splices an IN-subquery semi join into the SPJ core: a semi join is
/// emptiness-equivalent to the join (the implicit projection/dedup falls
/// to T1), so the part becomes
///   scans(left) ∪ scans(subquery core), conjuncts(left) ∪
///   conjuncts(subquery core) ∪ { operand = <subquery select column> }.
/// Requires the subquery side to be Project(single column ref) over an SPJ
/// core (Sort/Distinct skipped by T1); anything else is kNotSupported.
template <typename Node, typename Walk>
Status SpliceSemiJoinRight(const Node& right_root, const ExprPtr& operand,
                           Walk&& walk, SimplifiedQueryPart* out) {
  const Node* node = &right_root;
  while (true) {
    if constexpr (std::is_same_v<Node, PhysicalOperator>) {
      if (node->kind == PhysOpKind::kSort ||
          node->kind == PhysOpKind::kDistinct) {
        node = node->children[0].get();
        continue;
      }
      break;
    } else {
      if (node->kind == LogicalOpKind::kSort ||
          node->kind == LogicalOpKind::kDistinct) {
        node = node->children[0].get();
        continue;
      }
      break;
    }
  }
  bool is_project;
  if constexpr (std::is_same_v<Node, PhysicalOperator>) {
    is_project = node->kind == PhysOpKind::kProject;
  } else {
    is_project = node->kind == LogicalOpKind::kProject;
  }
  if (!is_project || node->items.size() != 1 ||
      node->items[0].kind != SelectItem::Kind::kExpr ||
      node->items[0].expr->kind() != Expr::Kind::kColumnRef) {
    return Status::NotSupported(
        "IN-subquery shape not decomposable (need a single projected "
        "column)");
  }
  out->conjuncts.push_back(
      Expr::MakeCompare(CompareOp::kEq, operand, node->items[0].expr));
  return walk(*node->children[0], out);
}

Status WalkPhysical(const PhysicalOperator& node, SimplifiedQueryPart* out) {
  switch (node.kind) {
    case PhysOpKind::kTableScan:
      out->scans.emplace_back(node.alias, node.table_name);
      return Status::OK();
    case PhysOpKind::kCachedResultScan:
      // A spliced reuse entry stands in for the table scan it replaced;
      // the residual Filter above it always re-applies the query's full
      // predicate over the relation (splice never consumes conjuncts),
      // so the part this walk produces is the same one the unspliced
      // plan would yield.
      out->scans.emplace_back(node.alias, node.table_name);
      return Status::OK();
    case PhysOpKind::kIndexScan: {
      // T3: table scan + selection(index condition) [+ residual].
      out->scans.emplace_back(node.alias, node.table_name);
      if (node.index_condition) out->conjuncts.push_back(node.index_condition);
      if (node.predicate) {
        std::vector<ExprPtr> cs = SplitConjuncts(node.predicate);
        out->conjuncts.insert(out->conjuncts.end(), cs.begin(), cs.end());
      }
      return Status::OK();
    }
    case PhysOpKind::kFilter: {
      std::vector<ExprPtr> cs = SplitConjuncts(node.predicate);
      out->conjuncts.insert(out->conjuncts.end(), cs.begin(), cs.end());
      return WalkPhysical(*node.children[0], out);
    }
    case PhysOpKind::kNestedLoopsJoin:
    case PhysOpKind::kHashJoin: {
      // T2: only the join condition survives.
      for (size_t i = 0; i < node.left_keys.size(); ++i) {
        out->conjuncts.push_back(Expr::MakeCompare(
            CompareOp::kEq, node.left_keys[i], node.right_keys[i]));
      }
      if (node.join_condition) {
        std::vector<ExprPtr> cs = SplitConjuncts(node.join_condition);
        out->conjuncts.insert(out->conjuncts.end(), cs.begin(), cs.end());
      }
      ERQ_RETURN_IF_ERROR(WalkPhysical(*node.children[0], out));
      return WalkPhysical(*node.children[1], out);
    }
    case PhysOpKind::kSemiJoin: {
      ERQ_RETURN_IF_ERROR(WalkPhysical(*node.children[0], out));
      return SpliceSemiJoinRight(
          *node.children[1], node.left_keys[0],
          [](const PhysicalOperator& n, SimplifiedQueryPart* o) {
            return WalkPhysical(n, o);
          },
          out);
    }
    case PhysOpKind::kProject:
    case PhysOpKind::kSort:
    case PhysOpKind::kDistinct:
      // T1: no influence on emptiness.
      return WalkPhysical(*node.children[0], out);
    case PhysOpKind::kAggregate:
    case PhysOpKind::kLeftOuterJoin:
    case PhysOpKind::kUnion:
    case PhysOpKind::kExcept:
      return Status::NotSupported(
          std::string("operator is not part of an SPJ query part: ") +
          PhysOpKindToString(node.kind));
  }
  return Status::Internal("unknown physical operator kind");
}

Status WalkLogical(const LogicalOperator& node, SimplifiedQueryPart* out) {
  switch (node.kind) {
    case LogicalOpKind::kScan:
      out->scans.emplace_back(node.alias, node.table_name);
      return Status::OK();
    case LogicalOpKind::kFilter: {
      std::vector<ExprPtr> cs = SplitConjuncts(node.predicate);
      out->conjuncts.insert(out->conjuncts.end(), cs.begin(), cs.end());
      return WalkLogical(*node.children[0], out);
    }
    case LogicalOpKind::kJoin: {
      if (node.predicate) {
        std::vector<ExprPtr> cs = SplitConjuncts(node.predicate);
        out->conjuncts.insert(out->conjuncts.end(), cs.begin(), cs.end());
      }
      ERQ_RETURN_IF_ERROR(WalkLogical(*node.children[0], out));
      return WalkLogical(*node.children[1], out);
    }
    case LogicalOpKind::kSemiJoin: {
      ERQ_RETURN_IF_ERROR(WalkLogical(*node.children[0], out));
      return SpliceSemiJoinRight(
          *node.children[1], node.predicate,
          [](const LogicalOperator& n, SimplifiedQueryPart* o) {
            return WalkLogical(n, o);
          },
          out);
    }
    case LogicalOpKind::kProject:
    case LogicalOpKind::kSort:
    case LogicalOpKind::kDistinct:
      return WalkLogical(*node.children[0], out);
    case LogicalOpKind::kAggregate:
    case LogicalOpKind::kOuterJoin:
    case LogicalOpKind::kUnion:
    case LogicalOpKind::kExcept:
      return Status::NotSupported(
          std::string("operator is not part of an SPJ query part: ") +
          LogicalOpKindToString(node.kind));
  }
  return Status::Internal("unknown logical operator kind");
}

}  // namespace

namespace {

/// Scopes spliced by semi joins may reuse an alias (e.g. the same table
/// unaliased inside and outside the subquery). The canonical renaming of
/// §2.1 is keyed by alias, so duplicated aliases are not decomposable.
Status CheckAliasCollisions(const SimplifiedQueryPart& part) {
  for (size_t i = 0; i < part.scans.size(); ++i) {
    for (size_t j = i + 1; j < part.scans.size(); ++j) {
      if (EqualsIgnoreCase(part.scans[i].first, part.scans[j].first)) {
        return Status::NotSupported("duplicate alias '" +
                                    part.scans[i].first +
                                    "' across subquery scopes");
      }
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<SimplifiedQueryPart> SimplifyPhysicalPart(const PhysOpPtr& part) {
  SimplifiedQueryPart out;
  ERQ_RETURN_IF_ERROR(WalkPhysical(*part, &out));
  ERQ_RETURN_IF_ERROR(CheckAliasCollisions(out));
  return out;
}

StatusOr<SimplifiedQueryPart> SimplifyLogicalPart(const LogicalOpPtr& part) {
  SimplifiedQueryPart out;
  ERQ_RETURN_IF_ERROR(WalkLogical(*part, &out));
  ERQ_RETURN_IF_ERROR(CheckAliasCollisions(out));
  return out;
}

}  // namespace erq
