#pragma once

/// \file
/// Horizontal partitioning of the catalog row-store: the partitioning
/// scheme declared on a Table, per-partition zone maps (min/max per
/// column, row count, bounded distinct-value summary). See DESIGN.md
/// §"Partitioning & data skipping".

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "types/schema.h"
#include "types/value.h"

namespace erq {

/// How a table's rows are assigned to horizontal partitions. A scheme is
/// declared on one key column; every row's partition is a pure function
/// of its key value, so partition membership is stable under inserts and
/// an insert only touches the zone maps of the partitions it lands in.
struct PartitionScheme {
  /// The partitioning function family.
  enum class Kind {
    kNone,   ///< unpartitioned (the default; zero behavior change)
    kHash,   ///< stable hash of the key value modulo `partitions`
    kRange,  ///< ascending ranges split at `range_bounds`
  };

  /// Which function assigns rows to partitions.
  Kind kind = Kind::kNone;

  /// The declared partitioning key column (must exist in the schema).
  std::string key_column;

  /// kHash: the partition fanout (>= 1). Ignored for kRange, where the
  /// count is range_bounds.size() + 1.
  size_t partitions = 1;

  /// kRange: strictly ascending *exclusive* upper bounds. A key `v` lands
  /// in the first partition whose bound is > v; keys >= the last bound
  /// land in the final catch-all partition.
  std::vector<Value> range_bounds;

  /// Per-column distinct-value summaries track at most this many values
  /// before overflowing (0 disables the summaries entirely).
  size_t zone_map_distinct_cap = 16;

  /// True when a partitioning function is declared (kind != kNone).
  bool partitioned() const { return kind != Kind::kNone; }

  /// Number of partitions the scheme produces (1 for kNone).
  size_t Count() const;

  /// Rejects schemes a table cannot apply: an unknown key column, a zero
  /// hash fanout, or range bounds that are not strictly ascending.
  ERQ_NODISCARD Status Validate(const Schema& schema) const;

  /// The partition index of one key value in [0, Count()). NULL keys land
  /// in partition 0. Deterministic across processes (the hash family is
  /// fixed).
  size_t PartitionOf(const Value& key) const;
};

/// Min/max bounds plus a bounded distinct-value summary for one column of
/// one partition — a sound over-approximation of the column's value set:
/// every live value lies within [min, max], and when the distinct summary
/// has not overflowed it lists *exactly* the values ever observed.
/// Deletions never narrow the bounds (a wider map is still sound), but
/// Table rebuilds maps exactly on delete anyway since the delete pass
/// already visits every surviving row.
struct ColumnZoneMap {
  /// Smallest non-NULL value observed (absent while non_null == 0).
  std::optional<Value> min;
  /// Largest non-NULL value observed (absent while non_null == 0).
  std::optional<Value> max;
  /// Number of non-NULL values in the partition's column.
  size_t non_null = 0;
  /// The distinct non-NULL values, complete iff !distinct_overflow.
  std::vector<Value> distinct;
  /// True once more than the configured cap of distinct values appeared;
  /// `distinct` is then cleared and carries no information.
  bool distinct_overflow = false;

  /// Folds one value into the map (NULLs only affect nothing; the map
  /// summarizes non-NULL values, which is what comparisons can match).
  void Observe(const Value& v, size_t distinct_cap);
};

/// The maintained state of one horizontal partition: which rows (by
/// position in Table::rows()) belong to it, and one zone map per column.
struct PartitionState {
  /// Ascending row positions in the owning table's row vector.
  std::vector<size_t> row_ids;
  /// One zone map per schema column, indexed by column position.
  std::vector<ColumnZoneMap> columns;

  /// Number of rows currently in the partition.
  size_t row_count() const { return row_ids.size(); }
};

/// An immutable, consistent view of a table's partition state, published
/// by Table::partition_snapshot(). Safe to read without any lock and to
/// retain across the owning table's later mutations (readers see the
/// state as of `version`).
struct PartitionSnapshot {
  /// The scheme the snapshot was built under.
  PartitionScheme scheme;
  /// One state per partition, indexed by partition id.
  std::vector<PartitionState> partitions;
  /// Table::version() at the time the snapshot was taken.
  uint64_t version = 0;
};

/// Equi-width range bounds over the observed key values of `rows` at
/// column `key_index`: `partitions - 1` ascending exclusive upper bounds
/// splitting [min, max] into equal value-width ranges. Returns an empty
/// vector (a single catch-all partition) when fewer than two distinct
/// comparable values exist or `partitions` < 2.
std::vector<Value> EquiWidthBounds(const std::vector<Row>& rows,
                                   size_t key_index, size_t partitions);

/// Process- and build-stable hash of a value, used by hash partitioning.
/// Unlike std::hash this is pinned (FNV-1a over a canonical byte form),
/// so a hash scheme maps a value to the same partition in every build.
uint64_t StableValueHash(const Value& v);

}  // namespace erq
