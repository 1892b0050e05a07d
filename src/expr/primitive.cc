#include "expr/primitive.h"

#include <algorithm>

#include "common/hash.h"
#include "common/string_util.h"
#include "expr/normalize.h"

namespace erq {

// ---- ColumnId ----

ColumnId ColumnId::Make(const std::string& relation,
                        const std::string& column) {
  return ColumnId{ToLower(relation), ToLower(column)};
}

size_t ColumnId::Hash() const {
  size_t seed = 0;
  HashCombine(&seed, relation);
  HashCombine(&seed, column);
  return seed;
}

// ---- ValueInterval ----

ValueInterval ValueInterval::Point(Value v) {
  ValueInterval out;
  out.lo = v;
  out.hi = std::move(v);
  return out;
}

ValueInterval ValueInterval::LessThan(Value v, bool inclusive) {
  ValueInterval out;
  out.hi = std::move(v);
  out.hi_inclusive = inclusive;
  return out;
}

ValueInterval ValueInterval::GreaterThan(Value v, bool inclusive) {
  ValueInterval out;
  out.lo = std::move(v);
  out.lo_inclusive = inclusive;
  return out;
}

ValueInterval ValueInterval::Range(Value lo, bool lo_inclusive, Value hi,
                                   bool hi_inclusive) {
  ValueInterval out;
  out.lo = std::move(lo);
  out.lo_inclusive = lo_inclusive;
  out.hi = std::move(hi);
  out.hi_inclusive = hi_inclusive;
  return out;
}

namespace {

/// True when every endpoint pair that exists is mutually comparable.
bool EndpointsComparable(const std::optional<Value>& a,
                         const std::optional<Value>& b) {
  if (!a.has_value() || !b.has_value()) return true;
  return a->ComparableWith(*b);
}

}  // namespace

bool ValueInterval::Contains(const ValueInterval& other) const {
  if (!EndpointsComparable(lo, other.lo) || !EndpointsComparable(hi, other.hi)) {
    return false;
  }
  // Lower side: this->lo must be <= other.lo (with inclusivity).
  if (lo.has_value()) {
    if (!other.lo.has_value()) return false;  // this bounded, other not
    int c = lo->Compare(*other.lo);
    if (c > 0) return false;
    if (c == 0 && !lo_inclusive && other.lo_inclusive) return false;
  }
  // Upper side symmetric.
  if (hi.has_value()) {
    if (!other.hi.has_value()) return false;
    int c = hi->Compare(*other.hi);
    if (c < 0) return false;
    if (c == 0 && !hi_inclusive && other.hi_inclusive) return false;
  }
  return true;
}

bool ValueInterval::ContainsPoint(const Value& v) const {
  if (lo.has_value()) {
    if (!v.ComparableWith(*lo)) return false;
    int c = v.Compare(*lo);
    if (c < 0 || (c == 0 && !lo_inclusive)) return false;
  }
  if (hi.has_value()) {
    if (!v.ComparableWith(*hi)) return false;
    int c = v.Compare(*hi);
    if (c > 0 || (c == 0 && !hi_inclusive)) return false;
  }
  return true;
}

bool ValueInterval::IntersectWith(const ValueInterval& other) {
  if (!EndpointsComparable(lo, other.lo) ||
      !EndpointsComparable(hi, other.hi) ||
      !EndpointsComparable(lo, other.hi) ||
      !EndpointsComparable(hi, other.lo)) {
    return false;
  }
  if (other.lo.has_value()) {
    if (!lo.has_value()) {
      lo = other.lo;
      lo_inclusive = other.lo_inclusive;
    } else {
      int c = other.lo->Compare(*lo);
      if (c > 0) {
        lo = other.lo;
        lo_inclusive = other.lo_inclusive;
      } else if (c == 0) {
        lo_inclusive = lo_inclusive && other.lo_inclusive;
      }
    }
  }
  if (other.hi.has_value()) {
    if (!hi.has_value()) {
      hi = other.hi;
      hi_inclusive = other.hi_inclusive;
    } else {
      int c = other.hi->Compare(*hi);
      if (c < 0) {
        hi = other.hi;
        hi_inclusive = other.hi_inclusive;
      } else if (c == 0) {
        hi_inclusive = hi_inclusive && other.hi_inclusive;
      }
    }
  }
  return true;
}

bool ValueInterval::IsEmpty() const {
  if (!lo.has_value() || !hi.has_value()) return false;
  if (!lo->ComparableWith(*hi)) return false;
  int c = lo->Compare(*hi);
  if (c > 0) return true;
  if (c == 0) return !(lo_inclusive && hi_inclusive);
  return false;
}

const Value* ValueInterval::PointValue() const {
  if (!lo.has_value() || !hi.has_value() || !lo->ComparableWith(*hi) ||
      lo->Compare(*hi) != 0) {
    return nullptr;
  }
  return &*lo;
}

bool ValueInterval::operator==(const ValueInterval& other) const {
  auto endpoint_eq = [](const std::optional<Value>& a,
                        const std::optional<Value>& b) {
    if (a.has_value() != b.has_value()) return false;
    if (!a.has_value()) return true;
    return a->type() == b->type() && *a == *b;
  };
  return endpoint_eq(lo, other.lo) && endpoint_eq(hi, other.hi) &&
         (lo.has_value() ? lo_inclusive == other.lo_inclusive : true) &&
         (hi.has_value() ? hi_inclusive == other.hi_inclusive : true);
}

std::string ValueInterval::ToString() const {
  std::string out = lo_inclusive && lo.has_value() ? "[" : "(";
  out += lo.has_value() ? lo->ToString() : "-inf";
  out += ", ";
  out += hi.has_value() ? hi->ToString() : "+inf";
  out += hi_inclusive && hi.has_value() ? "]" : ")";
  return out;
}

size_t ValueInterval::Hash() const {
  size_t seed = 0;
  HashCombine(&seed, lo.has_value());
  if (lo.has_value()) {
    HashCombine(&seed, lo->Hash());
    HashCombine(&seed, lo_inclusive);
  }
  HashCombine(&seed, hi.has_value());
  if (hi.has_value()) {
    HashCombine(&seed, hi->Hash());
    HashCombine(&seed, hi_inclusive);
  }
  return seed;
}

// ---- PrimitiveTerm ----

PrimitiveTerm PrimitiveTerm::MakeInterval(ColumnId col,
                                          ValueInterval interval) {
  PrimitiveTerm t;
  t.kind_ = Kind::kInterval;
  t.column_ = std::move(col);
  t.interval_ = std::move(interval);
  return t;
}

PrimitiveTerm PrimitiveTerm::MakeNotEqual(ColumnId col, Value value) {
  PrimitiveTerm t;
  t.kind_ = Kind::kNotEqual;
  t.column_ = std::move(col);
  t.value_ = std::move(value);
  return t;
}

PrimitiveTerm PrimitiveTerm::MakeColCol(ColumnId lhs, CompareOp op,
                                        ColumnId rhs) {
  PrimitiveTerm t;
  t.kind_ = Kind::kColCol;
  if (rhs < lhs) {
    std::swap(lhs, rhs);
    op = SwapCompareOp(op);
  }
  t.column_ = std::move(lhs);
  t.rhs_column_ = std::move(rhs);
  t.compare_op_ = op;
  return t;
}

PrimitiveTerm PrimitiveTerm::MakeOpaque(ExprPtr expr) {
  PrimitiveTerm t;
  t.kind_ = Kind::kOpaque;
  t.opaque_ = std::move(expr);
  return t;
}

StatusOr<PrimitiveTerm> PrimitiveTerm::FromExpr(const ExprPtr& leaf) {
  auto column_id = [](const Expr& e) {
    return ColumnId::Make(e.qualifier(), e.column());
  };
  switch (leaf->kind()) {
    case Expr::Kind::kCompare: {
      const Expr& lhs = *leaf->child(0);
      const Expr& rhs = *leaf->child(1);
      bool l_col = lhs.kind() == Expr::Kind::kColumnRef;
      bool r_col = rhs.kind() == Expr::Kind::kColumnRef;
      bool l_lit = lhs.kind() == Expr::Kind::kLiteral;
      bool r_lit = rhs.kind() == Expr::Kind::kLiteral;
      if (l_col && r_col) {
        return MakeColCol(column_id(lhs), leaf->compare_op(), column_id(rhs));
      }
      if (l_col && r_lit && !rhs.value().is_null()) {
        CompareOp op = leaf->compare_op();
        const Value& v = rhs.value();
        switch (op) {
          case CompareOp::kEq:
            return MakeInterval(column_id(lhs), ValueInterval::Point(v));
          case CompareOp::kNe:
            return MakeNotEqual(column_id(lhs), v);
          case CompareOp::kLt:
            return MakeInterval(column_id(lhs),
                                ValueInterval::LessThan(v, false));
          case CompareOp::kLe:
            return MakeInterval(column_id(lhs),
                                ValueInterval::LessThan(v, true));
          case CompareOp::kGt:
            return MakeInterval(column_id(lhs),
                                ValueInterval::GreaterThan(v, false));
          case CompareOp::kGe:
            return MakeInterval(column_id(lhs),
                                ValueInterval::GreaterThan(v, true));
        }
      }
      if (l_lit && r_col && !lhs.value().is_null()) {
        // Normalize literal-first comparisons to column-first.
        ExprPtr swapped = Expr::MakeCompare(SwapCompareOp(leaf->compare_op()),
                                            leaf->child(1), leaf->child(0));
        return FromExpr(swapped);
      }
      return MakeOpaque(leaf);
    }
    case Expr::Kind::kBetween: {
      if (leaf->negated()) {
        return Status::Internal(
            "negated BETWEEN must be normalized before primitive extraction");
      }
      const Expr& v = *leaf->child(0);
      const Expr& lo = *leaf->child(1);
      const Expr& hi = *leaf->child(2);
      if (v.kind() == Expr::Kind::kColumnRef &&
          lo.kind() == Expr::Kind::kLiteral && !lo.value().is_null() &&
          hi.kind() == Expr::Kind::kLiteral && !hi.value().is_null()) {
        return MakeInterval(
            column_id(v),
            ValueInterval::Range(lo.value(), true, hi.value(), true));
      }
      return MakeOpaque(leaf);
    }
    case Expr::Kind::kIsNull:
      return MakeOpaque(leaf);
    case Expr::Kind::kLike: {
      // Sargable LIKE shapes become intervals so they participate in
      // coverage: a wildcard-free pattern is an equality point; a pure
      // prefix pattern "abc%" is the interval ["abc", "abd"). Everything
      // else (negation, inner wildcards, '_') stays opaque.
      const Expr& operand = *leaf->child(0);
      const Expr& pattern_expr = *leaf->child(1);
      if (!leaf->negated() && operand.kind() == Expr::Kind::kColumnRef &&
          pattern_expr.kind() == Expr::Kind::kLiteral &&
          pattern_expr.value().type() == DataType::kString) {
        const std::string& pattern = pattern_expr.value().AsString();
        size_t wild = pattern.find_first_of("%_");
        if (wild == std::string::npos) {
          return MakeInterval(column_id(operand),
                              ValueInterval::Point(pattern_expr.value()));
        }
        if (wild > 0 && wild == pattern.size() - 1 && pattern[wild] == '%') {
          std::string prefix = pattern.substr(0, wild);
          if (static_cast<unsigned char>(prefix.back()) < 0xff) {
            std::string upper = prefix;
            upper.back() = static_cast<char>(upper.back() + 1);
            return MakeInterval(
                column_id(operand),
                ValueInterval::Range(Value::String(std::move(prefix)), true,
                                     Value::String(std::move(upper)), false));
          }
        }
      }
      return MakeOpaque(leaf);
    }
    default:
      return Status::InvalidArgument("not a primitive predicate: " +
                                     leaf->ToString());
  }
}

bool PrimitiveTerm::Covers(const PrimitiveTerm& other) const {
  // Rule (1): exact equality always suffices.
  if (Equals(other)) return true;
  switch (kind_) {
    case Kind::kInterval:
      // Rule (2): interval containment on the same column.
      return other.kind_ == Kind::kInterval && column_ == other.column_ &&
             interval_.Contains(other.interval_);
    case Kind::kNotEqual:
      // Rule (3), soundly generalized: `col != c` covers any interval on
      // the same column that excludes c (the paper's case is the point
      // interval col = c2 with c1 != c2).
      return other.kind_ == Kind::kInterval && column_ == other.column_ &&
             !other.interval_.ContainsPoint(value_) &&
             !other.interval_.IsEmpty();
    case Kind::kColCol: {
      // Same column pair with a weaker operator (extension; sound:
      // q true => p true for each listed pair).
      if (other.kind_ != Kind::kColCol || column_ != other.column_ ||
          rhs_column_ != other.rhs_column_) {
        return false;
      }
      CompareOp p = compare_op_, q = other.compare_op_;
      if (p == q) return true;
      switch (p) {
        case CompareOp::kLe:
          return q == CompareOp::kLt || q == CompareOp::kEq;
        case CompareOp::kGe:
          return q == CompareOp::kGt || q == CompareOp::kEq;
        case CompareOp::kNe:
          return q == CompareOp::kLt || q == CompareOp::kGt;
        default:
          return false;
      }
    }
    case Kind::kOpaque:
      return false;  // only exact equality, handled above
  }
  return false;
}

bool PrimitiveTerm::ProvablyUnsatisfiable() const {
  return kind_ == Kind::kInterval && interval_.IsEmpty();
}

bool PrimitiveTerm::Equals(const PrimitiveTerm& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kInterval:
      return column_ == other.column_ && interval_ == other.interval_;
    case Kind::kNotEqual:
      return column_ == other.column_ &&
             value_.type() == other.value_.type() && value_ == other.value_;
    case Kind::kColCol:
      return column_ == other.column_ && rhs_column_ == other.rhs_column_ &&
             compare_op_ == other.compare_op_;
    case Kind::kOpaque:
      return opaque_->Equals(*other.opaque_);
  }
  return false;
}

size_t PrimitiveTerm::Hash() const {
  size_t seed = static_cast<size_t>(kind_);
  switch (kind_) {
    case Kind::kInterval:
      HashCombine(&seed, column_.Hash());
      HashCombine(&seed, interval_.Hash());
      break;
    case Kind::kNotEqual:
      HashCombine(&seed, column_.Hash());
      HashCombine(&seed, value_.Hash());
      break;
    case Kind::kColCol:
      HashCombine(&seed, column_.Hash());
      HashCombine(&seed, rhs_column_.Hash());
      HashCombine(&seed, static_cast<int>(compare_op_));
      break;
    case Kind::kOpaque:
      HashCombine(&seed, opaque_->Hash());
      break;
  }
  return seed;
}

std::string PrimitiveTerm::ToString() const {
  switch (kind_) {
    case Kind::kInterval:
      return column_.ToString() + " in " + interval_.ToString();
    case Kind::kNotEqual:
      return column_.ToString() + " <> " + value_.ToString();
    case Kind::kColCol:
      return column_.ToString() + " " + CompareOpToString(compare_op_) + " " +
             rhs_column_.ToString();
    case Kind::kOpaque:
      return "opaque" + opaque_->ToString();
  }
  return "?";
}

void PrimitiveTerm::CollectRelations(std::vector<std::string>* out) const {
  auto add = [out](const std::string& rel) {
    if (rel.empty()) return;
    for (const std::string& existing : *out) {
      if (existing == rel) return;
    }
    out->push_back(rel);
  };
  switch (kind_) {
    case Kind::kInterval:
    case Kind::kNotEqual:
      add(column_.relation);
      break;
    case Kind::kColCol:
      add(column_.relation);
      add(rhs_column_.relation);
      break;
    case Kind::kOpaque: {
      std::vector<std::pair<std::string, std::string>> refs;
      opaque_->CollectColumnRefs(&refs);
      for (const auto& [q, c] : refs) add(ToLower(q));
      break;
    }
  }
}

PrimitiveTerm PrimitiveTerm::RenameRelations(
    const std::unordered_map<std::string, std::string>& mapping) const {
  auto rename = [&](const ColumnId& col) {
    auto it = mapping.find(col.relation);
    if (it == mapping.end()) return col;
    return ColumnId{it->second, col.column};
  };
  PrimitiveTerm out = *this;
  switch (kind_) {
    case Kind::kInterval:
    case Kind::kNotEqual:
      out.column_ = rename(column_);
      break;
    case Kind::kColCol:
      // Rebuild to restore canonical operand order under the new names.
      return MakeColCol(rename(column_), compare_op_, rename(rhs_column_));
    case Kind::kOpaque: {
      // Rewrite qualifiers inside the opaque expression; identity-map any
      // qualifier not covered so the rewrite cannot fail.
      std::unordered_map<std::string, std::string> full = mapping;
      std::vector<std::pair<std::string, std::string>> refs;
      opaque_->CollectColumnRefs(&refs);
      for (const auto& [q, c] : refs) {
        std::string key = ToLower(q);
        if (full.find(key) == full.end()) full[key] = key;
      }
      auto renamed = RewriteQualifiers(opaque_, full);
      if (renamed.ok()) out.opaque_ = *renamed;
      break;
    }
  }
  return out;
}

ExprPtr PrimitiveTerm::ToExpr() const {
  auto col_expr = [](const ColumnId& c) {
    return Expr::MakeColumnRef(c.relation, c.column);
  };
  switch (kind_) {
    case Kind::kInterval: {
      std::vector<ExprPtr> conj;
      if (interval_.lo.has_value() && interval_.hi.has_value() &&
          *interval_.lo == *interval_.hi && interval_.lo_inclusive &&
          interval_.hi_inclusive) {
        return Expr::MakeCompare(CompareOp::kEq, col_expr(column_),
                                 Expr::MakeLiteral(*interval_.lo));
      }
      if (interval_.lo.has_value()) {
        conj.push_back(Expr::MakeCompare(
            interval_.lo_inclusive ? CompareOp::kGe : CompareOp::kGt,
            col_expr(column_), Expr::MakeLiteral(*interval_.lo)));
      }
      if (interval_.hi.has_value()) {
        conj.push_back(Expr::MakeCompare(
            interval_.hi_inclusive ? CompareOp::kLe : CompareOp::kLt,
            col_expr(column_), Expr::MakeLiteral(*interval_.hi)));
      }
      return Expr::MakeAnd(std::move(conj));
    }
    case Kind::kNotEqual:
      return Expr::MakeCompare(CompareOp::kNe, col_expr(column_),
                               Expr::MakeLiteral(value_));
    case Kind::kColCol:
      return Expr::MakeCompare(compare_op_, col_expr(column_),
                               col_expr(rhs_column_));
    case Kind::kOpaque:
      return opaque_;
  }
  return Expr::MakeLiteral(Value::Int(1));
}

// ---- Conjunction ----

Conjunction Conjunction::Make(std::vector<PrimitiveTerm> terms) {
  Conjunction out;
  // Merge interval terms per column; dedup everything else.
  for (PrimitiveTerm& term : terms) {
    if (term.kind() == PrimitiveTerm::Kind::kInterval) {
      bool merged = false;
      for (PrimitiveTerm& existing : out.terms_) {
        if (existing.kind() == PrimitiveTerm::Kind::kInterval &&
            existing.column() == term.column()) {
          ValueInterval combined = existing.interval();
          if (combined.IntersectWith(term.interval())) {
            existing = PrimitiveTerm::MakeInterval(existing.column(),
                                                   std::move(combined));
            merged = true;
          }
          break;
        }
      }
      if (merged) continue;
    }
    bool duplicate = false;
    for (const PrimitiveTerm& existing : out.terms_) {
      if (existing.Equals(term)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) out.terms_.push_back(std::move(term));
  }
  // Detect provable contradictions: empty intervals, and `col != c`
  // conjoined with an interval pinning col to exactly c.
  for (const PrimitiveTerm& t : out.terms_) {
    if (t.ProvablyUnsatisfiable()) {
      out.unsatisfiable_ = true;
      break;
    }
    if (t.kind() == PrimitiveTerm::Kind::kNotEqual) {
      for (const PrimitiveTerm& u : out.terms_) {
        if (u.kind() == PrimitiveTerm::Kind::kInterval &&
            u.column() == t.column() &&
            u.interval() == ValueInterval::Point(t.value())) {
          out.unsatisfiable_ = true;
          break;
        }
      }
    }
    if (out.unsatisfiable_) break;
  }
  // Canonical order for stable Equals/Hash/ToString: by rendering, each
  // rendered once. The comparator sees only the rendering, so std::sort
  // makes the same moves it would over the terms themselves and ties
  // (distinct terms rendering alike) keep the order they always had.
  std::vector<std::pair<std::string, PrimitiveTerm>> keyed;
  keyed.reserve(out.terms_.size());
  for (PrimitiveTerm& t : out.terms_) {
    std::string key = t.ToString();
    keyed.emplace_back(std::move(key), std::move(t));
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < keyed.size(); ++i) {
    out.terms_[i] = std::move(keyed[i].second);
  }
  return out;
}

bool Conjunction::Covers(const Conjunction& other) const {
  if (terms_.size() > other.terms_.size()) return false;
  for (const PrimitiveTerm& p : terms_) {
    bool covered = false;
    for (const PrimitiveTerm& q : other.terms_) {
      if (p.Covers(q)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

bool Conjunction::Equals(const Conjunction& other) const {
  if (terms_.size() != other.terms_.size()) return false;
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (!terms_[i].Equals(other.terms_[i])) return false;
  }
  return true;
}

size_t Conjunction::Hash() const {
  size_t seed = terms_.size();
  for (const PrimitiveTerm& t : terms_) HashCombine(&seed, t.Hash());
  return seed;
}

std::string Conjunction::ToString() const {
  if (terms_.empty()) return "TRUE";
  std::string out;
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += terms_[i].ToString();
  }
  return out;
}

std::vector<std::string> Conjunction::Relations() const {
  std::vector<std::string> out;
  for (const PrimitiveTerm& t : terms_) t.CollectRelations(&out);
  std::sort(out.begin(), out.end());
  return out;
}

Conjunction Conjunction::RenameRelations(
    const std::unordered_map<std::string, std::string>& mapping) const {
  std::vector<PrimitiveTerm> renamed;
  renamed.reserve(terms_.size());
  for (const PrimitiveTerm& t : terms_) {
    renamed.push_back(t.RenameRelations(mapping));
  }
  return Conjunction::Make(std::move(renamed));
}

ExprPtr Conjunction::ToExpr() const {
  std::vector<ExprPtr> parts;
  parts.reserve(terms_.size());
  for (const PrimitiveTerm& t : terms_) parts.push_back(t.ToExpr());
  return Expr::MakeAnd(std::move(parts));
}

}  // namespace erq
