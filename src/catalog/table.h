#pragma once

/// \file
/// The in-memory row-store relation, optionally horizontally partitioned
/// with per-partition zone maps (catalog/partition.h). Mutations are
/// serialized internally (lock rank Table); plain row reads remain
/// caller-synchronized against concurrent mutation, while
/// partition_snapshot() is safe to call from any thread.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/partition.h"
#include "common/lock_order.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "types/schema.h"
#include "types/value.h"

namespace erq {

/// An in-memory row-store relation. Append-only between invalidation
/// points; every mutation bumps `version()` so dependent structures
/// (statistics, the C_aqp cache) can detect staleness. When a
/// PartitionScheme is declared, the table additionally maintains
/// per-partition row-id lists and column zone maps — incrementally on
/// append, by exact rebuild on delete — and publishes them as immutable
/// PartitionSnapshots.
class Table {
 public:
  /// Creates an empty, unpartitioned table with the given schema.
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// The table's catalog name.
  const std::string& name() const { return name_; }
  /// The immutable column schema.
  const Schema& schema() const { return schema_; }
  /// Number of live rows (caller-synchronized against mutation).
  size_t num_rows() const { return rows_.size(); }
  /// One row by position (caller-synchronized against mutation).
  const Row& row(size_t i) const { return rows_[i]; }
  /// All live rows (caller-synchronized against mutation).
  const std::vector<Row>& rows() const { return rows_; }

  /// Appends one row; the row must match the schema arity and each value's
  /// type must equal the column type (or be NULL).
  Status Append(Row row);

  /// Appends without validation; used by bulk loaders that generate
  /// known-good rows.
  void AppendUnchecked(Row row);

  /// Reserves capacity for bulk loads.
  void Reserve(size_t n);

  /// Removes rows matching `pred`; returns how many were removed.
  /// Partition state is rebuilt exactly (the pass visits every row anyway).
  size_t DeleteWhere(const std::function<bool(const Row&)>& pred);

  /// Removes all rows.
  void Clear();

  /// Monotone counter incremented on every mutation.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Approximate in-memory footprint in bytes (for Table 1 style reports).
  size_t EstimatedBytes() const;

  /// Declares (or clears, with a kNone scheme) horizontal partitioning.
  /// Validates the scheme against the schema, then rebuilds partition
  /// state from the current rows. The catalog layer fires an update event
  /// for the change.
  ERQ_NODISCARD Status SetPartitioning(PartitionScheme scheme);

  /// True when a partitioning scheme (kind != kNone) is declared.
  bool partitioned() const;

  /// The declared partitioning scheme, by value (kNone when undeclared).
  PartitionScheme partition_scheme() const;

  /// An immutable snapshot of the current partition state, or nullptr when
  /// the table is unpartitioned. The snapshot's row ids index this table's
  /// rows() as of the snapshot's version; callers must not mutate the
  /// table while scanning through a snapshot (the usual row-read
  /// contract). Snapshots are cached: repeated calls between mutations
  /// return the same object.
  std::shared_ptr<const PartitionSnapshot> partition_snapshot() const;

 private:
  /// Recomputes all partition state from rows_ under the current scheme.
  void RebuildPartitionsLocked() ERQ_REQUIRES(mu_);
  /// Folds one appended row into the working partition state.
  void ObserveRowLocked(size_t row_id, const Row& row) ERQ_REQUIRES(mu_);

  std::string name_;
  Schema schema_;
  // Mutated only under mu_; read either under mu_ or caller-synchronized
  // (the pre-partitioning contract, kept so scans stay lock-free).
  std::vector<Row> rows_;
  std::atomic<uint64_t> version_{0};

  /// Serializes mutations and guards partition state. Leaf-like: no other
  /// module's lock is ever acquired while held.
  mutable Mutex mu_ ERQ_ACQUIRED_AFTER(lock_order::kTable){lock_order::kTable};
  PartitionScheme scheme_ ERQ_GUARDED_BY(mu_);
  size_t key_index_ ERQ_GUARDED_BY(mu_) = 0;
  std::vector<PartitionState> working_ ERQ_GUARDED_BY(mu_);
  mutable std::shared_ptr<const PartitionSnapshot> snapshot_
      ERQ_GUARDED_BY(mu_);
  mutable bool snapshot_stale_ ERQ_GUARDED_BY(mu_) = true;
};

}  // namespace erq
