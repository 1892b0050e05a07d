#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/statusor.h"
#include "expr/expr.h"

namespace erq {

/// Identifies a column of a canonical relation occurrence. `relation` is a
/// canonical relation name: the base-table name, with repeated occurrences
/// of the same table renamed "name#2", "name#3", ... per §2.1. Stored
/// lowercased so comparisons are trivially case-insensitive.
struct ColumnId {
  std::string relation;
  std::string column;

  static ColumnId Make(const std::string& relation, const std::string& column);

  bool operator==(const ColumnId& other) const {
    return relation == other.relation && column == other.column;
  }
  bool operator<(const ColumnId& other) const {
    return relation != other.relation ? relation < other.relation
                                      : column < other.column;
  }
  std::string ToString() const { return relation + "." + column; }
  size_t Hash() const;
};

/// A one-dimensional value interval with optional open endpoints; absent
/// endpoint = ±infinity. Point comparisons are degenerate intervals
/// ([c,c]); the paper treats interval comparison as a single primitive
/// term, which is what makes containment checking cheap.
struct ValueInterval {
  std::optional<Value> lo;
  bool lo_inclusive = true;
  std::optional<Value> hi;
  bool hi_inclusive = true;

  static ValueInterval All() { return ValueInterval{}; }
  static ValueInterval Point(Value v);
  static ValueInterval LessThan(Value v, bool inclusive);
  static ValueInterval GreaterThan(Value v, bool inclusive);
  static ValueInterval Range(Value lo, bool lo_inclusive, Value hi,
                             bool hi_inclusive);

  /// True if this interval contains every point of `other`.
  bool Contains(const ValueInterval& other) const;

  /// True if `v` lies inside the interval.
  bool ContainsPoint(const Value& v) const;

  /// Intersects with `other` in place. Returns false (leaving *this
  /// unchanged) when the endpoint types are incomparable.
  bool IntersectWith(const ValueInterval& other);

  /// True if no value can satisfy the interval (lo > hi, or lo == hi with
  /// an open end).
  bool IsEmpty() const;

  /// The value both endpoints hold when they exist and compare equal
  /// (inclusivity aside: "(5, 5]" pins 5 too, as an empty point), else
  /// nullptr. The only intervals a point [v, v] can contain are these
  /// pinned to v and inverted (lo > hi) ones.
  const Value* PointValue() const;

  bool operator==(const ValueInterval& other) const;
  std::string ToString() const;
  size_t Hash() const;
};

/// An atomic comparison in a conjunctive selection condition (§2.1: "each
/// primitive term is a comparison"). Four canonical shapes:
///  * kInterval : col ∈ interval        (covers =, <, <=, >, >=, BETWEEN)
///  * kNotEqual : col != constant
///  * kColCol   : colA op colB          (join conditions and the like)
///  * kOpaque   : any other comparison, kept verbatim; participates in
///                coverage only through exact structural equality
///                (the paper's rule (1)).
class PrimitiveTerm {
 public:
  enum class Kind { kInterval, kNotEqual, kColCol, kOpaque };

  static PrimitiveTerm MakeInterval(ColumnId col, ValueInterval interval);
  static PrimitiveTerm MakeNotEqual(ColumnId col, Value value);
  /// Canonicalizes operand order (smaller ColumnId first, op swapped).
  static PrimitiveTerm MakeColCol(ColumnId lhs, CompareOp op, ColumnId rhs);
  static PrimitiveTerm MakeOpaque(ExprPtr expr);

  /// Classifies a leaf predicate expression (kCompare / kBetween / kIsNull
  /// with canonical qualifiers) into a primitive term.
  static StatusOr<PrimitiveTerm> FromExpr(const ExprPtr& leaf);

  Kind kind() const { return kind_; }
  const ColumnId& column() const { return column_; }
  const ColumnId& rhs_column() const { return rhs_column_; }
  CompareOp compare_op() const { return compare_op_; }
  const ValueInterval& interval() const { return interval_; }
  const Value& value() const { return value_; }
  const ExprPtr& opaque_expr() const { return opaque_; }

  /// The paper's coverage test between primitive terms: true only when
  /// "this true whenever other true" is provable by one of the rules
  /// (exact equality; interval containment on the same column; `!=`
  /// against a point the constant differs from — generalized soundly to
  /// any interval excluding the constant; weaker col-col operator on the
  /// same column pair). Sound, deliberately incomplete.
  bool Covers(const PrimitiveTerm& other) const;

  /// True when no single row can satisfy the term (empty interval).
  bool ProvablyUnsatisfiable() const;

  bool Equals(const PrimitiveTerm& other) const;
  size_t Hash() const;
  std::string ToString() const;

  /// Every canonical relation name the term mentions.
  void CollectRelations(std::vector<std::string>* out) const;

  /// Returns a copy with relation names substituted per `mapping`
  /// (lowercased old -> new); names absent from the map are kept.
  PrimitiveTerm RenameRelations(
      const std::unordered_map<std::string, std::string>& mapping) const;

  /// Rebuilds an equivalent Expr (with unbound canonical column refs);
  /// used by tests to check semantic properties by evaluation.
  ExprPtr ToExpr() const;

 private:
  PrimitiveTerm() = default;

  Kind kind_ = Kind::kOpaque;
  ColumnId column_;
  ColumnId rhs_column_;
  CompareOp compare_op_ = CompareOp::kEq;
  ValueInterval interval_;
  Value value_;
  ExprPtr opaque_;
};

/// A conjunction of primitive terms — the selection-condition half of an
/// atomic query part. Construction canonicalizes: interval terms on the
/// same column are intersected, duplicate terms dropped, and provably
/// unsatisfiable conjunctions flagged (their output is empty on any
/// database).
class Conjunction {
 public:
  Conjunction() = default;

  static Conjunction Make(std::vector<PrimitiveTerm> terms);

  const std::vector<PrimitiveTerm>& terms() const { return terms_; }
  size_t size() const { return terms_.size(); }
  bool unsatisfiable() const { return unsatisfiable_; }

  /// §2.3 "Deciding Coverage": this covers other iff
  ///   (1) size() <= other.size(), and
  ///   (2) every term here covers some term of `other`.
  bool Covers(const Conjunction& other) const;

  /// Returns a copy with every term's relation names substituted per
  /// `mapping` (used by the occurrence-remapping extension of
  /// AtomicQueryPart::Covers).
  Conjunction RenameRelations(
      const std::unordered_map<std::string, std::string>& mapping) const;

  bool Equals(const Conjunction& other) const;
  size_t Hash() const;
  std::string ToString() const;

  /// Union of relations mentioned by the terms (sorted, deduped).
  std::vector<std::string> Relations() const;

  /// AND of the terms as an Expr (TRUE literal when empty).
  ExprPtr ToExpr() const;

 private:
  std::vector<PrimitiveTerm> terms_;
  bool unsatisfiable_ = false;
};

}  // namespace erq

