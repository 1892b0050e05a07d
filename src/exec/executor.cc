#include "exec/executor.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/metrics.h"
#include "common/string_util.h"
#include "stats/partition_stats.h"

namespace erq {

namespace {

/// Executor instruments, resolved once (see metrics.h).
struct ExecMetrics {
  Counter* runs;
  Counter* rows_scanned;
  Counter* rows_emitted;
  Counter* partitions_pruned;
  Counter* partitions_scanned;

  static const ExecMetrics& Get() {
    static const ExecMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return ExecMetrics{
          r.GetCounter("erq.exec.runs"),
          r.GetCounter("erq.exec.rows_scanned"),
          r.GetCounter("erq.exec.rows_emitted"),
          r.GetCounter("erq.exec.partitions.pruned"),
          r.GetCounter("erq.exec.partitions.scanned"),
      };
    }();
    return m;
  }
};

/// Total rows produced by leaf access paths (table/index scans) in one
/// executed plan — the "work done" complement to rows_emitted.
uint64_t ScannedRows(const PhysicalOperator& op) {
  uint64_t total = 0;
  if ((op.kind == PhysOpKind::kTableScan || op.kind == PhysOpKind::kIndexScan) &&
      op.actual_rows > 0) {
    total += static_cast<uint64_t>(op.actual_rows);
  }
  for (const PhysOpPtr& child : op.children) total += ScannedRows(*child);
  return total;
}

/// Iterator interface. Next() returns nullopt at end of stream.
class Iter {
 public:
  virtual ~Iter() = default;
  virtual Status Open() = 0;
  virtual StatusOr<std::optional<Row>> Next() = 0;
};

using IterPtr = std::unique_ptr<Iter>;

StatusOr<IterPtr> MakeIter(const PhysOpPtr& op, const ExecOptions& options);

/// Counts emitted rows into the plan node.
class CountingIter : public Iter {
 public:
  CountingIter(PhysicalOperator* node, IterPtr inner)
      : node_(node), inner_(std::move(inner)) {}

  Status Open() override {
    node_->actual_rows = 0;
    return inner_->Open();
  }

  StatusOr<std::optional<Row>> Next() override {
    ERQ_ASSIGN_OR_RETURN(std::optional<Row> row, inner_->Next());
    if (row.has_value()) ++node_->actual_rows;
    return row;
  }

 private:
  PhysicalOperator* node_;
  IterPtr inner_;
};

/// Full-table or partition-pruned scan, fused with the Filter above it
/// when there is one: the predicate is evaluated against the stored row
/// in place and only passing rows are copied out. The scan counts every
/// row it visits into its node's actual_rows (the Filter node's counter
/// sees the survivors). The pruned path skips empty partitions and
/// partitions whose zone maps refute the scan condition, and visits the
/// survivors' row ids in globally ascending order; when no partition
/// holding rows is refuted it walks the table in row order, as the full
/// scan does. Either way the emitted row sequence is the full scan's
/// minus rows the predicate rejects.
class TableScanIter : public Iter {
 public:
  TableScanIter(PhysicalOperator* op, const Expr* predicate,
                const ExecOptions& options)
      : op_(op), predicate_(predicate), options_(options) {}

  Status Open() override {
    op_->actual_rows = 0;
    pos_ = 0;
    pruned_ = false;
    row_ids_.clear();
    if (!options_.prune_partitions || !op_->has_scan_condition ||
        op_->table == nullptr) {
      return Status::OK();
    }
    std::shared_ptr<const PartitionSnapshot> snapshot =
        op_->table->partition_snapshot();
    if (snapshot == nullptr) return Status::OK();
    const std::string table_name = ToLower(op_->table_name);
    std::vector<const PartitionState*> survivors;
    for (const PartitionState& part : snapshot->partitions) {
      // Also refutes empty partitions.
      if (ZoneMapsRefute(part, op_->table->schema(), table_name,
                         op_->scan_condition)) {
        pruned_ = pruned_ || part.row_count() > 0;
        continue;
      }
      survivors.push_back(&part);
    }
    op_->partitions_scanned = static_cast<int64_t>(survivors.size());
    op_->partitions_pruned = static_cast<int64_t>(snapshot->partitions.size()) -
                             op_->partitions_scanned;
    if (!pruned_) return Status::OK();
    for (const PartitionState* part : survivors) {
      row_ids_.insert(row_ids_.end(), part->row_ids.begin(),
                      part->row_ids.end());
    }
    if (survivors.size() > 1) std::sort(row_ids_.begin(), row_ids_.end());
    return Status::OK();
  }

  StatusOr<std::optional<Row>> Next() override {
    const size_t end = pruned_ ? row_ids_.size() : op_->table->num_rows();
    while (pos_ < end) {
      const Row& row = op_->table->row(pruned_ ? row_ids_[pos_] : pos_);
      ++pos_;
      ++op_->actual_rows;
      if (predicate_ != nullptr) {
        ERQ_ASSIGN_OR_RETURN(bool pass, PredicatePasses(*predicate_, row));
        if (!pass) continue;
      }
      return std::optional<Row>(row);
    }
    return std::optional<Row>{};
  }

 private:
  PhysicalOperator* op_;
  const Expr* predicate_;  // the fused Filter's; null for a bare scan
  const ExecOptions& options_;
  bool pruned_ = false;          // a partition holding rows was refuted
  std::vector<size_t> row_ids_;  // ascending, pruned path only
  size_t pos_ = 0;
};

/// Looks up each key range of the scan in one index snapshot and emits
/// the matching rows that pass the residual filter.
class IndexScanIter : public Iter {
 public:
  explicit IndexScanIter(const PhysicalOperator& op) : op_(op) {}

  Status Open() override {
    std::shared_ptr<const SortedIndex::Snapshot> snapshot =
        op_.index->snapshot();
    row_ids_.clear();
    for (const KeyRange& range : op_.index_ranges) {
      snapshot->AppendRange(range, &row_ids_);
    }
    if (op_.index_ranges.size() > 1) {
      // Ranges may overlap or repeat: emit each row once, in table order.
      std::sort(row_ids_.begin(), row_ids_.end());
      row_ids_.erase(std::unique(row_ids_.begin(), row_ids_.end()),
                     row_ids_.end());
    }
    pos_ = 0;
    return Status::OK();
  }

  StatusOr<std::optional<Row>> Next() override {
    while (pos_ < row_ids_.size()) {
      const Row& row = op_.table->row(row_ids_[pos_++]);
      if (op_.predicate) {
        ERQ_ASSIGN_OR_RETURN(bool pass, PredicatePasses(*op_.predicate, row));
        if (!pass) continue;
      }
      return std::optional<Row>(row);
    }
    return std::optional<Row>{};
  }

 private:
  const PhysicalOperator& op_;
  std::vector<size_t> row_ids_;
  size_t pos_ = 0;
};

/// Serves a spliced reuse-store entry: emits the stored materialized
/// rows verbatim. They were harvested in ascending row order from the
/// table-scan path, so downstream output is byte-identical to the plan
/// the splice replaced. The base table is never touched — the rows are
/// pinned by the shared_ptr even if the store evicts the entry mid-run.
class CachedResultScanIter : public Iter {
 public:
  explicit CachedResultScanIter(const PhysicalOperator& op) : op_(op) {}

  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }

  StatusOr<std::optional<Row>> Next() override {
    if (op_.cached_rows == nullptr || pos_ >= op_.cached_rows->size()) {
      return std::optional<Row>{};
    }
    return std::optional<Row>((*op_.cached_rows)[pos_++]);
  }

 private:
  const PhysicalOperator& op_;
  size_t pos_ = 0;
};

class FilterIter : public Iter {
 public:
  FilterIter(const PhysicalOperator& op, IterPtr child)
      : op_(op), child_(std::move(child)) {}

  Status Open() override { return child_->Open(); }

  StatusOr<std::optional<Row>> Next() override {
    while (true) {
      ERQ_ASSIGN_OR_RETURN(std::optional<Row> row, child_->Next());
      if (!row.has_value()) return row;
      ERQ_ASSIGN_OR_RETURN(bool pass, PredicatePasses(*op_.predicate, *row));
      if (pass) return row;
    }
  }

 private:
  const PhysicalOperator& op_;
  IterPtr child_;
};

/// Buffers the rows flowing out of one Filter-over-TableScan node and,
/// on observed end of stream, delivers the complete materialization to
/// the run's harvest sink. The buffer is abandoned the instant it would
/// exceed the row cap, so oversized intermediates are never
/// double-materialized. Delivery strictly requires end of stream: a
/// parent that stops pulling early leaves the buffer undelivered,
/// because a partial output is not sigma_condition(relation). (Every
/// current operator drains its children to exhaustion whenever the root
/// drains, so in practice harvest always fires for completed runs.)
class HarvestIter : public Iter {
 public:
  HarvestIter(PhysOpPtr node, IterPtr inner, const ExecOptions& options)
      : node_(std::move(node)), inner_(std::move(inner)), options_(options) {}

  Status Open() override {
    buffer_ = std::make_shared<std::vector<Row>>();
    delivered_ = false;
    return inner_->Open();
  }

  StatusOr<std::optional<Row>> Next() override {
    ERQ_ASSIGN_OR_RETURN(std::optional<Row> row, inner_->Next());
    if (!row.has_value()) {
      if (buffer_ != nullptr && !delivered_) {
        delivered_ = true;
        options_.harvest->push_back(HarvestedIntermediate{node_, buffer_});
        buffer_.reset();
      }
      return row;
    }
    if (buffer_ != nullptr) {
      if (buffer_->size() >= options_.harvest_max_rows) {
        buffer_.reset();  // over the cap: abandon, stop copying
      } else {
        buffer_->push_back(*row);
      }
    }
    return row;
  }

 private:
  PhysOpPtr node_;
  IterPtr inner_;
  const ExecOptions& options_;
  std::shared_ptr<std::vector<Row>> buffer_;
  bool delivered_ = false;
};

class ProjectIter : public Iter {
 public:
  ProjectIter(const PhysicalOperator& op, IterPtr child)
      : op_(op), child_(std::move(child)) {}

  Status Open() override { return child_->Open(); }

  StatusOr<std::optional<Row>> Next() override {
    ERQ_ASSIGN_OR_RETURN(std::optional<Row> row, child_->Next());
    if (!row.has_value()) return row;
    Row out;
    out.reserve(op_.layout.size());
    for (const SelectItem& item : op_.items) {
      if (item.kind == SelectItem::Kind::kStar) {
        for (const Value& v : *row) out.push_back(v);
      } else {
        ERQ_ASSIGN_OR_RETURN(Value v, EvalScalar(*item.expr, *row));
        out.push_back(std::move(v));
      }
    }
    return std::optional<Row>(std::move(out));
  }

 private:
  const PhysicalOperator& op_;
  IterPtr child_;
};

/// Materializes a child stream.
StatusOr<std::vector<Row>> Drain(Iter* iter) {
  ERQ_RETURN_IF_ERROR(iter->Open());
  std::vector<Row> rows;
  while (true) {
    ERQ_ASSIGN_OR_RETURN(std::optional<Row> row, iter->Next());
    if (!row.has_value()) break;
    rows.push_back(std::move(*row));
  }
  return rows;
}

Row ConcatRows(const Row& left, const Row& right) {
  Row out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

class NestedLoopsJoinIter : public Iter {
 public:
  NestedLoopsJoinIter(const PhysicalOperator& op, IterPtr left, IterPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Status Open() override {
    ERQ_ASSIGN_OR_RETURN(right_rows_, Drain(right_.get()));
    ERQ_RETURN_IF_ERROR(left_->Open());
    right_pos_ = 0;
    current_left_.reset();
    return Status::OK();
  }

  StatusOr<std::optional<Row>> Next() override {
    while (true) {
      if (!current_left_.has_value()) {
        ERQ_ASSIGN_OR_RETURN(current_left_, left_->Next());
        if (!current_left_.has_value()) return std::optional<Row>{};
        right_pos_ = 0;
      }
      while (right_pos_ < right_rows_.size()) {
        Row combined = ConcatRows(*current_left_, right_rows_[right_pos_++]);
        if (op_.join_condition) {
          ERQ_ASSIGN_OR_RETURN(bool pass,
                               PredicatePasses(*op_.join_condition, combined));
          if (!pass) continue;
        }
        return std::optional<Row>(std::move(combined));
      }
      current_left_.reset();
    }
  }

 private:
  const PhysicalOperator& op_;
  IterPtr left_, right_;
  std::vector<Row> right_rows_;
  std::optional<Row> current_left_;
  size_t right_pos_ = 0;
};

StatusOr<std::optional<Row>> EvalKeys(const std::vector<ExprPtr>& keys,
                                      const Row& row) {
  Row out;
  out.reserve(keys.size());
  for (const ExprPtr& k : keys) {
    ERQ_ASSIGN_OR_RETURN(Value v, EvalScalar(*k, row));
    if (v.is_null()) return std::optional<Row>{};  // null keys never match
    out.push_back(std::move(v));
  }
  return std::optional<Row>(std::move(out));
}

class HashJoinIter : public Iter {
 public:
  HashJoinIter(const PhysicalOperator& op, IterPtr left, IterPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Status Open() override {
    // Build on the right input.
    ERQ_ASSIGN_OR_RETURN(std::vector<Row> right_rows, Drain(right_.get()));
    build_.clear();
    for (Row& row : right_rows) {
      ERQ_ASSIGN_OR_RETURN(std::optional<Row> key,
                           EvalKeys(op_.right_keys, row));
      if (!key.has_value()) continue;
      build_[*key].push_back(std::move(row));
    }
    ERQ_RETURN_IF_ERROR(left_->Open());
    matches_ = nullptr;
    match_pos_ = 0;
    return Status::OK();
  }

  StatusOr<std::optional<Row>> Next() override {
    while (true) {
      if (matches_ != nullptr) {
        while (match_pos_ < matches_->size()) {
          Row combined = ConcatRows(current_left_, (*matches_)[match_pos_++]);
          if (op_.join_condition) {
            ERQ_ASSIGN_OR_RETURN(
                bool pass, PredicatePasses(*op_.join_condition, combined));
            if (!pass) continue;
          }
          return std::optional<Row>(std::move(combined));
        }
        matches_ = nullptr;
      }
      ERQ_ASSIGN_OR_RETURN(std::optional<Row> left_row, left_->Next());
      if (!left_row.has_value()) return std::optional<Row>{};
      ERQ_ASSIGN_OR_RETURN(std::optional<Row> key,
                           EvalKeys(op_.left_keys, *left_row));
      if (!key.has_value()) continue;
      auto it = build_.find(*key);
      if (it == build_.end()) continue;
      current_left_ = std::move(*left_row);
      matches_ = &it->second;
      match_pos_ = 0;
    }
  }

 private:
  const PhysicalOperator& op_;
  IterPtr left_, right_;
  std::unordered_map<Row, std::vector<Row>, RowHash> build_;
  Row current_left_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

/// Hash semi join: emits left rows whose operand value appears among the
/// right child's (single-column) output values. NULL operands match
/// nothing (SQL IN semantics for the TRUE case, which is all a semi join
/// keeps).
class SemiJoinIter : public Iter {
 public:
  SemiJoinIter(const PhysicalOperator& op, IterPtr left, IterPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Status Open() override {
    ERQ_ASSIGN_OR_RETURN(std::vector<Row> right_rows, Drain(right_.get()));
    values_.clear();
    for (const Row& row : right_rows) {
      if (!row[0].is_null()) values_.insert(row[0]);
    }
    return left_->Open();
  }

  StatusOr<std::optional<Row>> Next() override {
    while (true) {
      ERQ_ASSIGN_OR_RETURN(std::optional<Row> row, left_->Next());
      if (!row.has_value()) return row;
      ERQ_ASSIGN_OR_RETURN(Value key, EvalScalar(*op_.left_keys[0], *row));
      if (key.is_null()) continue;
      if (values_.count(key) > 0) return row;
    }
  }

 private:
  struct ValueEq {
    bool operator()(const Value& a, const Value& b) const {
      return a.ComparableWith(b) && a.Compare(b) == 0;
    }
  };

  const PhysicalOperator& op_;
  IterPtr left_, right_;
  std::unordered_set<Value, ValueHash, ValueEq> values_;
};

class LeftOuterJoinIter : public Iter {
 public:
  LeftOuterJoinIter(const PhysicalOperator& op, IterPtr left, IterPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Status Open() override {
    ERQ_ASSIGN_OR_RETURN(right_rows_, Drain(right_.get()));
    right_width_ = op_.children[1]->layout.size();
    ERQ_RETURN_IF_ERROR(left_->Open());
    pending_.clear();
    out_pos_ = 0;
    return Status::OK();
  }

  StatusOr<std::optional<Row>> Next() override {
    while (true) {
      if (out_pos_ < pending_.size()) {
        return std::optional<Row>(std::move(pending_[out_pos_++]));
      }
      pending_.clear();
      out_pos_ = 0;
      ERQ_ASSIGN_OR_RETURN(std::optional<Row> left_row, left_->Next());
      if (!left_row.has_value()) return std::optional<Row>{};
      bool matched = false;
      for (const Row& r : right_rows_) {
        Row combined = ConcatRows(*left_row, r);
        if (op_.join_condition) {
          ERQ_ASSIGN_OR_RETURN(bool pass,
                               PredicatePasses(*op_.join_condition, combined));
          if (!pass) continue;
        }
        matched = true;
        pending_.push_back(std::move(combined));
      }
      if (!matched) {
        Row padded = *left_row;
        for (size_t i = 0; i < right_width_; ++i) {
          padded.push_back(Value::Null());
        }
        pending_.push_back(std::move(padded));
      }
    }
  }

 private:
  const PhysicalOperator& op_;
  IterPtr left_, right_;
  std::vector<Row> right_rows_;
  size_t right_width_ = 0;
  std::vector<Row> pending_;
  size_t out_pos_ = 0;
};

class SortIter : public Iter {
 public:
  SortIter(const PhysicalOperator& op, IterPtr child)
      : op_(op), child_(std::move(child)) {}

  Status Open() override {
    ERQ_ASSIGN_OR_RETURN(rows_, Drain(child_.get()));
    // Precompute sort keys.
    std::vector<std::pair<Row, Row>> keyed;
    keyed.reserve(rows_.size());
    for (Row& row : rows_) {
      Row key;
      key.reserve(op_.order_by.size());
      for (const OrderItem& o : op_.order_by) {
        ERQ_ASSIGN_OR_RETURN(Value v, EvalScalar(*o.expr, row));
        key.push_back(std::move(v));
      }
      keyed.emplace_back(std::move(key), std::move(row));
    }
    std::stable_sort(
        keyed.begin(), keyed.end(),
        [this](const std::pair<Row, Row>& a, const std::pair<Row, Row>& b) {
          for (size_t i = 0; i < op_.order_by.size(); ++i) {
            int c = a.first[i].Compare(b.first[i]);
            if (c != 0) return op_.order_by[i].ascending ? c < 0 : c > 0;
          }
          return false;
        });
    rows_.clear();
    for (auto& [key, row] : keyed) rows_.push_back(std::move(row));
    pos_ = 0;
    return Status::OK();
  }

  StatusOr<std::optional<Row>> Next() override {
    if (pos_ >= rows_.size()) return std::optional<Row>{};
    return std::optional<Row>(std::move(rows_[pos_++]));
  }

 private:
  const PhysicalOperator& op_;
  IterPtr child_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].type() != b[i].type() || a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

class DistinctIter : public Iter {
 public:
  explicit DistinctIter(IterPtr child) : child_(std::move(child)) {}

  Status Open() override {
    seen_.clear();
    return child_->Open();
  }

  StatusOr<std::optional<Row>> Next() override {
    while (true) {
      ERQ_ASSIGN_OR_RETURN(std::optional<Row> row, child_->Next());
      if (!row.has_value()) return row;
      if (seen_.insert(*row).second) return row;
    }
  }

 private:
  IterPtr child_;
  std::unordered_set<Row, RowHash, RowEq> seen_;
};

class AggregateIter : public Iter {
 public:
  AggregateIter(const PhysicalOperator& op, IterPtr child)
      : op_(op), child_(std::move(child)) {}

  Status Open() override {
    ERQ_ASSIGN_OR_RETURN(std::vector<Row> rows, Drain(child_.get()));
    output_.clear();
    pos_ = 0;

    struct AggState {
      int64_t count = 0;
      double sum = 0.0;
      bool sum_is_int = true;
      int64_t isum = 0;
      std::optional<Value> min, max;
    };

    // group key -> (key row, per-aggregate state)
    std::unordered_map<Row, std::pair<Row, std::vector<AggState>>, RowHash,
                       RowEq>
        groups;
    size_t num_aggs = 0;
    for (const SelectItem& item : op_.items) {
      if (item.kind == SelectItem::Kind::kAggregate) ++num_aggs;
    }

    for (const Row& row : rows) {
      Row key;
      key.reserve(op_.group_by.size());
      for (const ExprPtr& g : op_.group_by) {
        ERQ_ASSIGN_OR_RETURN(Value v, EvalScalar(*g, row));
        key.push_back(std::move(v));
      }
      auto [it, inserted] = groups.try_emplace(
          key, std::make_pair(key, std::vector<AggState>(num_aggs)));
      std::vector<AggState>& states = it->second.second;
      size_t agg_idx = 0;
      for (const SelectItem& item : op_.items) {
        if (item.kind != SelectItem::Kind::kAggregate) continue;
        AggState& st = states[agg_idx++];
        if (item.count_star) {
          ++st.count;
          continue;
        }
        ERQ_ASSIGN_OR_RETURN(Value v, EvalScalar(*item.expr, row));
        if (v.is_null()) continue;
        ++st.count;
        switch (item.agg) {
          case AggFunc::kCount:
            break;
          case AggFunc::kSum:
          case AggFunc::kAvg:
            if (v.type() == DataType::kInt64) {
              st.isum += v.AsInt();
            } else {
              st.sum_is_int = false;
            }
            st.sum += v.AsDouble();
            break;
          case AggFunc::kMin:
            if (!st.min.has_value() || v < *st.min) st.min = v;
            break;
          case AggFunc::kMax:
            if (!st.max.has_value() || v > *st.max) st.max = v;
            break;
        }
      }
    }

    auto emit = [&](const Row& key, const std::vector<AggState>& states) {
      Row out = key;
      size_t agg_idx = 0;
      for (const SelectItem& item : op_.items) {
        if (item.kind != SelectItem::Kind::kAggregate) continue;
        const AggState& st = states[agg_idx++];
        switch (item.agg) {
          case AggFunc::kCount:
            out.push_back(Value::Int(st.count));
            break;
          case AggFunc::kSum:
            if (st.count == 0) {
              out.push_back(Value::Null());
            } else {
              out.push_back(st.sum_is_int ? Value::Int(st.isum)
                                          : Value::Double(st.sum));
            }
            break;
          case AggFunc::kAvg:
            out.push_back(st.count == 0
                              ? Value::Null()
                              : Value::Double(st.sum /
                                              static_cast<double>(st.count)));
            break;
          case AggFunc::kMin:
            out.push_back(st.min.value_or(Value::Null()));
            break;
          case AggFunc::kMax:
            out.push_back(st.max.value_or(Value::Null()));
            break;
        }
      }
      output_.push_back(std::move(out));
    };

    if (groups.empty() && op_.group_by.empty()) {
      // Scalar aggregation over an empty input: COUNT yields 0, the others
      // NULL — the count(∅)=0 case §2.5(1) flags for special handling.
      emit(Row{}, std::vector<AggState>(num_aggs));
    } else {
      for (const auto& [key, entry] : groups) {
        emit(entry.first, entry.second);
      }
    }
    return Status::OK();
  }

  StatusOr<std::optional<Row>> Next() override {
    if (pos_ >= output_.size()) return std::optional<Row>{};
    return std::optional<Row>(std::move(output_[pos_++]));
  }

 private:
  const PhysicalOperator& op_;
  IterPtr child_;
  std::vector<Row> output_;
  size_t pos_ = 0;
};

class UnionIter : public Iter {
 public:
  UnionIter(const PhysicalOperator& op, IterPtr left, IterPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Status Open() override {
    seen_.clear();
    on_right_ = false;
    ERQ_RETURN_IF_ERROR(left_->Open());
    return Status::OK();
  }

  StatusOr<std::optional<Row>> Next() override {
    while (true) {
      Iter* current = on_right_ ? right_.get() : left_.get();
      ERQ_ASSIGN_OR_RETURN(std::optional<Row> row, current->Next());
      if (!row.has_value()) {
        if (on_right_) return row;
        on_right_ = true;
        ERQ_RETURN_IF_ERROR(right_->Open());
        continue;
      }
      if (!op_.all && !seen_.insert(*row).second) continue;
      return row;
    }
  }

 private:
  const PhysicalOperator& op_;
  IterPtr left_, right_;
  std::unordered_set<Row, RowHash, RowEq> seen_;
  bool on_right_ = false;
};

class ExceptIter : public Iter {
 public:
  ExceptIter(const PhysicalOperator& op, IterPtr left, IterPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Status Open() override {
    ERQ_ASSIGN_OR_RETURN(std::vector<Row> right_rows, Drain(right_.get()));
    right_counts_.clear();
    for (Row& r : right_rows) ++right_counts_[std::move(r)];
    emitted_.clear();
    return left_->Open();
  }

  StatusOr<std::optional<Row>> Next() override {
    while (true) {
      ERQ_ASSIGN_OR_RETURN(std::optional<Row> row, left_->Next());
      if (!row.has_value()) return row;
      if (op_.all) {
        // Multiset difference: consume one right occurrence per match.
        auto it = right_counts_.find(*row);
        if (it != right_counts_.end() && it->second > 0) {
          --it->second;
          continue;
        }
        return row;
      }
      if (right_counts_.count(*row) > 0) continue;
      if (!emitted_.insert(*row).second) continue;
      return row;
    }
  }

 private:
  const PhysicalOperator& op_;
  IterPtr left_, right_;
  std::unordered_map<Row, int64_t, RowHash, RowEq> right_counts_;
  std::unordered_set<Row, RowHash, RowEq> emitted_;
};

StatusOr<IterPtr> MakeInner(const PhysOpPtr& op, const ExecOptions& options) {
  switch (op->kind) {
    case PhysOpKind::kTableScan:
      return IterPtr(new TableScanIter(op.get(), nullptr, options));
    case PhysOpKind::kIndexScan:
      return IterPtr(new IndexScanIter(*op));
    case PhysOpKind::kCachedResultScan:
      return IterPtr(new CachedResultScanIter(*op));
    case PhysOpKind::kFilter: {
      const PhysOpPtr& input = op->children[0];
      if (input->kind != PhysOpKind::kTableScan) {
        ERQ_ASSIGN_OR_RETURN(IterPtr child, MakeIter(input, options));
        return IterPtr(new FilterIter(*op, std::move(child)));
      }
      IterPtr scan(
          new TableScanIter(input.get(), op->predicate.get(), options));
      // Harvest only the Filter-over-TableScan shape: its output is the
      // complete sigma_predicate(relation) in ascending row order (even
      // under partition pruning, which only skips rows the filter would
      // reject) — the one intermediate the reuse store can serve soundly.
      if (options.harvest != nullptr) {
        return IterPtr(new HarvestIter(op, std::move(scan), options));
      }
      return scan;
    }
    case PhysOpKind::kProject: {
      ERQ_ASSIGN_OR_RETURN(IterPtr child, MakeIter(op->children[0], options));
      return IterPtr(new ProjectIter(*op, std::move(child)));
    }
    case PhysOpKind::kNestedLoopsJoin: {
      ERQ_ASSIGN_OR_RETURN(IterPtr left, MakeIter(op->children[0], options));
      ERQ_ASSIGN_OR_RETURN(IterPtr right, MakeIter(op->children[1], options));
      return IterPtr(
          new NestedLoopsJoinIter(*op, std::move(left), std::move(right)));
    }
    case PhysOpKind::kHashJoin: {
      ERQ_ASSIGN_OR_RETURN(IterPtr left, MakeIter(op->children[0], options));
      ERQ_ASSIGN_OR_RETURN(IterPtr right, MakeIter(op->children[1], options));
      return IterPtr(new HashJoinIter(*op, std::move(left), std::move(right)));
    }
    case PhysOpKind::kSemiJoin: {
      ERQ_ASSIGN_OR_RETURN(IterPtr left, MakeIter(op->children[0], options));
      ERQ_ASSIGN_OR_RETURN(IterPtr right, MakeIter(op->children[1], options));
      return IterPtr(new SemiJoinIter(*op, std::move(left), std::move(right)));
    }
    case PhysOpKind::kLeftOuterJoin: {
      ERQ_ASSIGN_OR_RETURN(IterPtr left, MakeIter(op->children[0], options));
      ERQ_ASSIGN_OR_RETURN(IterPtr right, MakeIter(op->children[1], options));
      return IterPtr(
          new LeftOuterJoinIter(*op, std::move(left), std::move(right)));
    }
    case PhysOpKind::kSort: {
      ERQ_ASSIGN_OR_RETURN(IterPtr child, MakeIter(op->children[0], options));
      return IterPtr(new SortIter(*op, std::move(child)));
    }
    case PhysOpKind::kDistinct: {
      ERQ_ASSIGN_OR_RETURN(IterPtr child, MakeIter(op->children[0], options));
      return IterPtr(new DistinctIter(std::move(child)));
    }
    case PhysOpKind::kAggregate: {
      ERQ_ASSIGN_OR_RETURN(IterPtr child, MakeIter(op->children[0], options));
      return IterPtr(new AggregateIter(*op, std::move(child)));
    }
    case PhysOpKind::kUnion: {
      ERQ_ASSIGN_OR_RETURN(IterPtr left, MakeIter(op->children[0], options));
      ERQ_ASSIGN_OR_RETURN(IterPtr right, MakeIter(op->children[1], options));
      return IterPtr(new UnionIter(*op, std::move(left), std::move(right)));
    }
    case PhysOpKind::kExcept: {
      ERQ_ASSIGN_OR_RETURN(IterPtr left, MakeIter(op->children[0], options));
      ERQ_ASSIGN_OR_RETURN(IterPtr right, MakeIter(op->children[1], options));
      return IterPtr(new ExceptIter(*op, std::move(left), std::move(right)));
    }
  }
  return Status::Internal("unknown physical operator");
}

StatusOr<IterPtr> MakeIter(const PhysOpPtr& op, const ExecOptions& options) {
  ERQ_ASSIGN_OR_RETURN(IterPtr inner, MakeInner(op, options));
  // A table scan counts the rows it visits itself.
  if (op->kind == PhysOpKind::kTableScan) return inner;
  return IterPtr(new CountingIter(op.get(), std::move(inner)));
}

}  // namespace

StatusOr<ExecutionResult> Executor::Run(const PhysOpPtr& plan) {
  return Run(plan, ExecOptions{});
}

StatusOr<ExecutionResult> Executor::Run(const PhysOpPtr& plan,
                                        const ExecOptions& options) {
  plan->ResetActuals();
  ERQ_ASSIGN_OR_RETURN(IterPtr iter, MakeIter(plan, options));
  ERQ_RETURN_IF_ERROR(iter->Open());
  ExecutionResult result;
  result.layout = plan->layout;
  while (true) {
    ERQ_ASSIGN_OR_RETURN(std::optional<Row> row, iter->Next());
    if (!row.has_value()) break;
    result.rows.push_back(std::move(*row));
  }
  const ExecMetrics& metrics = ExecMetrics::Get();
  metrics.runs->Increment();
  metrics.rows_scanned->Increment(ScannedRows(*plan));
  metrics.rows_emitted->Increment(result.rows.size());
  metrics.partitions_pruned->Increment(
      plan->SumScanPartitions(&PhysicalOperator::partitions_pruned));
  metrics.partitions_scanned->Increment(
      plan->SumScanPartitions(&PhysicalOperator::partitions_scanned));
  return result;
}

}  // namespace erq
