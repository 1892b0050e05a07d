#include "expr/expr.h"

#include <cassert>

#include "common/hash.h"
#include "common/string_util.h"

namespace erq {

CompareOp SwapCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kEq;
    case CompareOp::kNe:
      return CompareOp::kNe;
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
  }
  return op;
}

CompareOp NegateCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNe;
    case CompareOp::kNe:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
  }
  return op;
}

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

// ---- Factories ----

ExprPtr Expr::MakeColumnRef(std::string qualifier, std::string column) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kColumnRef;
  e->qualifier_ = std::move(qualifier);
  e->column_ = std::move(column);
  return e;
}

ExprPtr Expr::MakeBoundColumnRef(std::string qualifier, std::string column,
                                 int slot) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kColumnRef;
  e->qualifier_ = std::move(qualifier);
  e->column_ = std::move(column);
  e->slot_ = slot;
  return e;
}

ExprPtr Expr::MakeLiteral(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kLiteral;
  e->value_ = std::move(v);
  return e;
}

ExprPtr Expr::MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kCompare;
  e->compare_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::MakeBetween(ExprPtr operand, ExprPtr lo, ExprPtr hi,
                          bool negated) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kBetween;
  e->negated_ = negated;
  e->children_ = {std::move(operand), std::move(lo), std::move(hi)};
  return e;
}

ExprPtr Expr::MakeInList(ExprPtr operand, std::vector<ExprPtr> list,
                         bool negated) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kInList;
  e->negated_ = negated;
  e->children_.push_back(std::move(operand));
  for (ExprPtr& item : list) e->children_.push_back(std::move(item));
  return e;
}

ExprPtr Expr::MakeAnd(std::vector<ExprPtr> children) {
  std::vector<ExprPtr> flat;
  for (ExprPtr& c : children) {
    if (c->kind() == Kind::kAnd) {
      for (const ExprPtr& gc : c->children()) flat.push_back(gc);
    } else {
      flat.push_back(std::move(c));
    }
  }
  if (flat.empty()) return MakeLiteral(Value::Int(1));
  if (flat.size() == 1) return flat[0];
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kAnd;
  e->children_ = std::move(flat);
  return e;
}

ExprPtr Expr::MakeOr(std::vector<ExprPtr> children) {
  std::vector<ExprPtr> flat;
  for (ExprPtr& c : children) {
    if (c->kind() == Kind::kOr) {
      for (const ExprPtr& gc : c->children()) flat.push_back(gc);
    } else {
      flat.push_back(std::move(c));
    }
  }
  if (flat.empty()) return MakeLiteral(Value::Int(0));
  if (flat.size() == 1) return flat[0];
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kOr;
  e->children_ = std::move(flat);
  return e;
}

ExprPtr Expr::MakeNot(ExprPtr child) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kNot;
  e->children_ = {std::move(child)};
  return e;
}

ExprPtr Expr::MakeArith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kArith;
  e->arith_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::MakeIsNull(ExprPtr child, bool negated) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kIsNull;
  e->negated_ = negated;
  e->children_ = {std::move(child)};
  return e;
}

ExprPtr Expr::MakeLike(ExprPtr operand, ExprPtr pattern, bool negated) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kLike;
  e->negated_ = negated;
  e->children_ = {std::move(operand), std::move(pattern)};
  return e;
}

ExprPtr Expr::WithChildren(std::vector<ExprPtr> children) const {
  auto e = std::shared_ptr<Expr>(new Expr(*this));
  e->children_ = std::move(children);
  return e;
}

ExprPtr Expr::WithSlot(int slot) const {
  assert(kind_ == Kind::kColumnRef);
  auto e = std::shared_ptr<Expr>(new Expr(*this));
  e->slot_ = slot;
  return e;
}

bool Expr::Equals(const Expr& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kColumnRef:
      if (!EqualsIgnoreCase(qualifier_, other.qualifier_) ||
          !EqualsIgnoreCase(column_, other.column_)) {
        return false;
      }
      break;
    case Kind::kLiteral:
      if (value_.type() != other.value_.type() || value_ != other.value_) {
        return false;
      }
      break;
    case Kind::kCompare:
      if (compare_op_ != other.compare_op_) return false;
      break;
    case Kind::kArith:
      if (arith_op_ != other.arith_op_) return false;
      break;
    case Kind::kBetween:
    case Kind::kInList:
    case Kind::kIsNull:
    case Kind::kLike:
      if (negated_ != other.negated_) return false;
      break;
    default:
      break;
  }
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

size_t Expr::Hash() const {
  size_t seed = static_cast<size_t>(kind_);
  switch (kind_) {
    case Kind::kColumnRef:
      HashCombine(&seed, ToLower(qualifier_));
      HashCombine(&seed, ToLower(column_));
      break;
    case Kind::kLiteral:
      HashCombine(&seed, value_.Hash());
      break;
    case Kind::kCompare:
      HashCombine(&seed, static_cast<int>(compare_op_));
      break;
    case Kind::kArith:
      HashCombine(&seed, static_cast<int>(arith_op_));
      break;
    case Kind::kBetween:
    case Kind::kInList:
    case Kind::kIsNull:
    case Kind::kLike:
      HashCombine(&seed, negated_);
      break;
    default:
      break;
  }
  for (const ExprPtr& c : children_) HashCombine(&seed, c->Hash());
  return seed;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kColumnRef:
      return qualifier_.empty() ? column_ : qualifier_ + "." + column_;
    case Kind::kLiteral:
      return value_.ToString();
    case Kind::kCompare:
      return "(" + children_[0]->ToString() + " " +
             CompareOpToString(compare_op_) + " " + children_[1]->ToString() +
             ")";
    case Kind::kBetween:
      return "(" + children_[0]->ToString() + (negated_ ? " NOT" : "") +
             " BETWEEN " + children_[1]->ToString() + " AND " +
             children_[2]->ToString() + ")";
    case Kind::kInList: {
      std::string out = "(" + children_[0]->ToString() +
                        (negated_ ? " NOT IN (" : " IN (");
      for (size_t i = 1; i < children_.size(); ++i) {
        if (i > 1) out += ", ";
        out += children_[i]->ToString();
      }
      return out + "))";
    }
    case Kind::kAnd: {
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += " AND ";
        out += children_[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kOr: {
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += " OR ";
        out += children_[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kNot:
      return "(NOT " + children_[0]->ToString() + ")";
    case Kind::kArith:
      return "(" + children_[0]->ToString() + " " +
             ArithOpToString(arith_op_) + " " + children_[1]->ToString() + ")";
    case Kind::kIsNull:
      return "(" + children_[0]->ToString() +
             (negated_ ? " IS NOT NULL)" : " IS NULL)");
    case Kind::kLike:
      return "(" + children_[0]->ToString() +
             (negated_ ? " NOT LIKE " : " LIKE ") +
             children_[1]->ToString() + ")";
  }
  return "?";
}

void Expr::CollectColumnRefs(
    std::vector<std::pair<std::string, std::string>>* out) const {
  if (kind_ == Kind::kColumnRef) {
    for (const auto& [q, c] : *out) {
      if (EqualsIgnoreCase(q, qualifier_) && EqualsIgnoreCase(c, column_)) {
        return;
      }
    }
    out->emplace_back(qualifier_, column_);
    return;
  }
  for (const ExprPtr& c : children_) c->CollectColumnRefs(out);
}

bool Expr::HasUnboundColumns() const {
  if (kind_ == Kind::kColumnRef) return slot_ < 0;
  for (const ExprPtr& c : children_) {
    if (c->HasUnboundColumns()) return true;
  }
  return false;
}

// ---- Evaluation ----

namespace {

TriBool NotTri(TriBool t) {
  switch (t) {
    case TriBool::kTrue:
      return TriBool::kFalse;
    case TriBool::kFalse:
      return TriBool::kTrue;
    case TriBool::kUnknown:
      return TriBool::kUnknown;
  }
  return TriBool::kUnknown;
}

StatusOr<TriBool> CompareValues(CompareOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return TriBool::kUnknown;
  if (!a.ComparableWith(b)) {
    return Status::BindError("cannot compare " +
                             std::string(DataTypeToString(a.type())) +
                             " with " + DataTypeToString(b.type()));
  }
  int c = a.Compare(b);
  bool result = false;
  switch (op) {
    case CompareOp::kEq:
      result = c == 0;
      break;
    case CompareOp::kNe:
      result = c != 0;
      break;
    case CompareOp::kLt:
      result = c < 0;
      break;
    case CompareOp::kLe:
      result = c <= 0;
      break;
    case CompareOp::kGt:
      result = c > 0;
      break;
    case CompareOp::kGe:
      result = c >= 0;
      break;
  }
  return result ? TriBool::kTrue : TriBool::kFalse;
}

/// Reads a column or literal operand in place; evaluates any other operand
/// into `*scratch` through EvalScalar. The result points into `row`,
/// `expr` or `*scratch`.
StatusOr<const Value*> Operand(const Expr& expr, const Row& row,
                               Value* scratch) {
  switch (expr.kind()) {
    case Expr::Kind::kColumnRef: {
      int slot = expr.slot();
      if (slot < 0 || static_cast<size_t>(slot) >= row.size()) {
        return Status::Internal("unbound or out-of-range column slot for " +
                                expr.ToString());
      }
      return &row[slot];
    }
    case Expr::Kind::kLiteral:
      return &expr.value();
    default: {
      ERQ_ASSIGN_OR_RETURN(*scratch, EvalScalar(expr, row));
      return scratch;
    }
  }
}

}  // namespace

StatusOr<Value> EvalScalar(const Expr& expr, const Row& row) {
  switch (expr.kind()) {
    case Expr::Kind::kColumnRef:
    case Expr::Kind::kLiteral: {
      Value unused;
      ERQ_ASSIGN_OR_RETURN(const Value* v, Operand(expr, row, &unused));
      return *v;
    }
    case Expr::Kind::kArith: {
      ERQ_ASSIGN_OR_RETURN(Value lhs, EvalScalar(*expr.child(0), row));
      ERQ_ASSIGN_OR_RETURN(Value rhs, EvalScalar(*expr.child(1), row));
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      bool both_int = lhs.type() == DataType::kInt64 &&
                      rhs.type() == DataType::kInt64;
      // DATE +/- INT day arithmetic.
      if (lhs.type() == DataType::kDate && rhs.type() == DataType::kInt64 &&
          (expr.arith_op() == ArithOp::kAdd ||
           expr.arith_op() == ArithOp::kSub)) {
        int64_t days = expr.arith_op() == ArithOp::kAdd
                           ? lhs.AsDate() + rhs.AsInt()
                           : lhs.AsDate() - rhs.AsInt();
        return Value::Date(static_cast<int32_t>(days));
      }
      if (lhs.type() == DataType::kString || rhs.type() == DataType::kString ||
          lhs.type() == DataType::kDate || rhs.type() == DataType::kDate) {
        return Status::BindError("arithmetic requires numeric operands: " +
                                 expr.ToString());
      }
      switch (expr.arith_op()) {
        case ArithOp::kAdd:
          return both_int ? Value::Int(lhs.AsInt() + rhs.AsInt())
                          : Value::Double(lhs.AsDouble() + rhs.AsDouble());
        case ArithOp::kSub:
          return both_int ? Value::Int(lhs.AsInt() - rhs.AsInt())
                          : Value::Double(lhs.AsDouble() - rhs.AsDouble());
        case ArithOp::kMul:
          return both_int ? Value::Int(lhs.AsInt() * rhs.AsInt())
                          : Value::Double(lhs.AsDouble() * rhs.AsDouble());
        case ArithOp::kDiv:
          if (rhs.AsDouble() == 0.0) return Value::Null();
          return both_int && lhs.AsInt() % rhs.AsInt() == 0
                     ? Value::Int(lhs.AsInt() / rhs.AsInt())
                     : Value::Double(lhs.AsDouble() / rhs.AsDouble());
      }
      return Status::Internal("bad arith op");
    }
    default: {
      // Boolean expression used as a scalar: surface 3VL as 1/0/NULL.
      ERQ_ASSIGN_OR_RETURN(TriBool t, EvalPredicate(expr, row));
      if (t == TriBool::kUnknown) return Value::Null();
      return Value::Int(t == TriBool::kTrue ? 1 : 0);
    }
  }
}

bool LikeMatches(const std::string& text, const std::string& pattern) {
  // Iterative two-pointer match with backtracking to the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

StatusOr<TriBool> EvalPredicate(const Expr& expr, const Row& row) {
  switch (expr.kind()) {
    case Expr::Kind::kLike: {
      Value v_scratch, pattern_scratch;
      ERQ_ASSIGN_OR_RETURN(const Value* v,
                           Operand(*expr.child(0), row, &v_scratch));
      ERQ_ASSIGN_OR_RETURN(const Value* pattern,
                           Operand(*expr.child(1), row, &pattern_scratch));
      if (v->is_null() || pattern->is_null()) return TriBool::kUnknown;
      if (v->type() != DataType::kString ||
          pattern->type() != DataType::kString) {
        return Status::BindError("LIKE requires string operands: " +
                                 expr.ToString());
      }
      bool match = LikeMatches(v->AsString(), pattern->AsString());
      if (expr.negated()) match = !match;
      return match ? TriBool::kTrue : TriBool::kFalse;
    }
    case Expr::Kind::kCompare: {
      Value lhs_scratch, rhs_scratch;
      ERQ_ASSIGN_OR_RETURN(const Value* lhs,
                           Operand(*expr.child(0), row, &lhs_scratch));
      ERQ_ASSIGN_OR_RETURN(const Value* rhs,
                           Operand(*expr.child(1), row, &rhs_scratch));
      return CompareValues(expr.compare_op(), *lhs, *rhs);
    }
    case Expr::Kind::kBetween: {
      Value v_scratch, lo_scratch, hi_scratch;
      ERQ_ASSIGN_OR_RETURN(const Value* v,
                           Operand(*expr.child(0), row, &v_scratch));
      ERQ_ASSIGN_OR_RETURN(const Value* lo,
                           Operand(*expr.child(1), row, &lo_scratch));
      ERQ_ASSIGN_OR_RETURN(const Value* hi,
                           Operand(*expr.child(2), row, &hi_scratch));
      ERQ_ASSIGN_OR_RETURN(TriBool ge, CompareValues(CompareOp::kGe, *v, *lo));
      ERQ_ASSIGN_OR_RETURN(TriBool le, CompareValues(CompareOp::kLe, *v, *hi));
      TriBool both;
      if (ge == TriBool::kFalse || le == TriBool::kFalse) {
        both = TriBool::kFalse;
      } else if (ge == TriBool::kUnknown || le == TriBool::kUnknown) {
        both = TriBool::kUnknown;
      } else {
        both = TriBool::kTrue;
      }
      return expr.negated() ? NotTri(both) : both;
    }
    case Expr::Kind::kInList: {
      Value v_scratch, item_scratch;
      ERQ_ASSIGN_OR_RETURN(const Value* v,
                           Operand(*expr.child(0), row, &v_scratch));
      bool saw_unknown = false;
      for (size_t i = 1; i < expr.children().size(); ++i) {
        ERQ_ASSIGN_OR_RETURN(const Value* item,
                             Operand(*expr.child(i), row, &item_scratch));
        ERQ_ASSIGN_OR_RETURN(TriBool eq,
                             CompareValues(CompareOp::kEq, *v, *item));
        if (eq == TriBool::kTrue) {
          return expr.negated() ? TriBool::kFalse : TriBool::kTrue;
        }
        if (eq == TriBool::kUnknown) saw_unknown = true;
      }
      if (saw_unknown) return TriBool::kUnknown;
      return expr.negated() ? TriBool::kTrue : TriBool::kFalse;
    }
    case Expr::Kind::kAnd: {
      TriBool acc = TriBool::kTrue;
      for (const ExprPtr& c : expr.children()) {
        ERQ_ASSIGN_OR_RETURN(TriBool t, EvalPredicate(*c, row));
        if (t == TriBool::kFalse) return TriBool::kFalse;
        if (t == TriBool::kUnknown) acc = TriBool::kUnknown;
      }
      return acc;
    }
    case Expr::Kind::kOr: {
      TriBool acc = TriBool::kFalse;
      for (const ExprPtr& c : expr.children()) {
        ERQ_ASSIGN_OR_RETURN(TriBool t, EvalPredicate(*c, row));
        if (t == TriBool::kTrue) return TriBool::kTrue;
        if (t == TriBool::kUnknown) acc = TriBool::kUnknown;
      }
      return acc;
    }
    case Expr::Kind::kNot: {
      ERQ_ASSIGN_OR_RETURN(TriBool t, EvalPredicate(*expr.child(0), row));
      return NotTri(t);
    }
    case Expr::Kind::kIsNull: {
      ERQ_ASSIGN_OR_RETURN(Value v, EvalScalar(*expr.child(0), row));
      bool is_null = v.is_null();
      if (expr.negated()) is_null = !is_null;
      return is_null ? TriBool::kTrue : TriBool::kFalse;
    }
    case Expr::Kind::kLiteral: {
      const Value& v = expr.value();
      if (v.is_null()) return TriBool::kUnknown;
      return v.AsDouble() != 0.0 ? TriBool::kTrue : TriBool::kFalse;
    }
    default: {
      ERQ_ASSIGN_OR_RETURN(Value v, EvalScalar(expr, row));
      if (v.is_null()) return TriBool::kUnknown;
      return v.AsDouble() != 0.0 ? TriBool::kTrue : TriBool::kFalse;
    }
  }
}

StatusOr<bool> PredicatePasses(const Expr& expr, const Row& row) {
  ERQ_ASSIGN_OR_RETURN(TriBool t, EvalPredicate(expr, row));
  return t == TriBool::kTrue;
}

}  // namespace erq
