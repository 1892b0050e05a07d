/// \file
/// Secondary sorted indexes: the standalone stand-in for the B-tree
/// indexes the paper assumes on every selection and join attribute.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/table.h"
#include "common/lock_order.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"

namespace erq {

/// One endpoint of a value interval. An absent value means ±infinity.
struct Bound {
  std::optional<Value> value;  ///< endpoint value; nullopt = unbounded
  bool inclusive = true;       ///< whether the endpoint itself is included

  /// The ±infinity endpoint.
  static Bound Unbounded() { return Bound{std::nullopt, true}; }
  /// A closed endpoint at `v`.
  static Bound Inclusive(Value v) { return Bound{std::move(v), true}; }
  /// An open endpoint at `v`.
  static Bound Exclusive(Value v) { return Bound{std::move(v), false}; }
};

/// One key interval an index lookup covers.
struct KeyRange {
  Bound lo = Bound::Unbounded();  ///< lower endpoint
  Bound hi = Bound::Unbounded();  ///< upper endpoint
};

/// A secondary sorted index over one column of a table: the standalone
/// equivalent of the B-tree indexes the paper builds on every selection and
/// join attribute. The sorted entries are built once per table version and
/// published as an immutable snapshot, so concurrent readers never rebuild
/// or observe a half-built entry list.
class SortedIndex {
 public:
  /// The sorted (key, row id) entries of one table version. NULL keys are
  /// left out (SQL comparison semantics). Immutable once published.
  class Snapshot {
   public:
    /// Appends the row ids whose key lies within `range`, in key order and
    /// ascending row id within one key.
    void AppendRange(const KeyRange& range, std::vector<size_t>* out) const;
    /// Number of (key, row id) entries.
    size_t num_entries() const { return entries_.size(); }

   private:
    friend class SortedIndex;
    struct Entry {
      Value key;
      size_t row_id;
    };
    std::vector<Entry> entries_;  // sorted by (key, row_id)
    uint64_t version_ = 0;        // table version the entries reflect
  };

  SortedIndex(const Table* table, size_t column_index, std::string name);

  /// The index's name (as registered in the catalog).
  const std::string& name() const { return name_; }
  /// Position of the indexed column in the base table's schema.
  size_t column_index() const { return column_index_; }
  /// The indexed base table (borrowed; outlives the index).
  const Table* table() const { return table_; }

  /// The entries for the table's current version, built by the first
  /// caller after a table change and shared with every later one. Row
  /// reads stay caller-synchronized against table mutation, as for scans.
  std::shared_ptr<const Snapshot> snapshot() const;

 private:
  const Table* table_;
  size_t column_index_;
  std::string name_;

  /// Guards publication of snapshot_. Held while a stale snapshot is
  /// rebuilt, so one version is built once; calls into no other module.
  mutable Mutex mu_ ERQ_ACQUIRED_AFTER(lock_order::kIndex){lock_order::kIndex};
  mutable std::shared_ptr<const Snapshot> snapshot_ ERQ_GUARDED_BY(mu_);
};

}  // namespace erq
