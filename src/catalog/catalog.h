/// \file
/// The database catalog: owns every table and secondary index, routes
/// all mutations so registered listeners observe them (the invalidation
/// hook C_aqp depends on), and declares table partitioning.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/statusor.h"
#include "catalog/index.h"
#include "catalog/table.h"

namespace erq {

/// A mutation observed on a table. `inserted_rows` is non-null only for
/// kInsert events (valid for the duration of the callback).
struct TableUpdateEvent {
  /// What kind of mutation fired the event.
  enum class Kind { kInsert, kDelete, kDropTable, kGeneric };
  Kind kind = Kind::kGeneric;  ///< mutation kind, kGeneric when unknown
  std::string table_name;      ///< the mutated table
  /// The appended rows, kInsert only; valid for the callback's duration.
  const std::vector<Row>* inserted_rows = nullptr;
};

/// Owns every table and index in the "database". Table names are
/// case-insensitive. Registered update listeners are notified whenever a
/// table is mutated through the catalog (the hook the EmptyResultManager
/// uses to invalidate C_aqp, per the paper's read-mostly batch-update
/// model). Event listeners additionally receive the mutation kind and, for
/// inserts, the rows — the input of the §5 irrelevant-update filter.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty table. AlreadyExists if the name is taken; rejects
  /// duplicate column names.
  StatusOr<Table*> CreateTable(const std::string& name, Schema schema);

  /// Drops a table and all its indexes; notifies listeners.
  Status DropTable(const std::string& name);

  /// The table named `name` (case-insensitive), NotFound otherwise.
  StatusOr<Table*> GetTable(const std::string& name);
  /// Const overload of GetTable.
  StatusOr<const Table*> GetTable(const std::string& name) const;
  /// True iff a table named `name` exists.
  bool HasTable(const std::string& name) const;
  /// All table names, in their original (creation) spelling.
  std::vector<std::string> TableNames() const;

  /// Creates a sorted index on `table.column`. Idempotent per (table,col).
  StatusOr<SortedIndex*> CreateIndex(const std::string& table_name,
                                     const std::string& column_name);

  /// The index on (table, column) if one exists, else nullptr. Lookups
  /// through it always see the table's current version.
  SortedIndex* FindIndex(const std::string& table_name,
                         const std::string& column_name);

  /// Appends rows through the catalog so listeners observe the update.
  Status AppendRows(const std::string& table_name, std::vector<Row> rows);

  /// Deletes rows matching `pred` from a table; notifies listeners with a
  /// kDelete event. Returns the number of rows removed.
  StatusOr<size_t> DeleteRows(const std::string& table_name,
                              std::function<bool(const Row&)> pred);

  /// Declares (or clears) horizontal partitioning on a table. Fires no
  /// update event: repartitioning moves no row, so no stored emptiness
  /// fact or reused result goes stale. The table rebuilds its own
  /// partition snapshot and bumps its version.
  Status SetPartitioning(const std::string& table_name,
                         PartitionScheme scheme);

  /// Registers a callback fired with the table name on any mutation.
  void AddUpdateListener(std::function<void(const std::string&)> listener) {
    listeners_.push_back(std::move(listener));
  }

  /// Registers a callback receiving detailed mutation events.
  void AddEventListener(std::function<void(const TableUpdateEvent&)> listener) {
    event_listeners_.push_back(std::move(listener));
  }

  /// Notifies listeners about an out-of-band mutation to `table_name`
  /// (callers that append via Table::Append directly should call this).
  void NotifyUpdate(const std::string& table_name);

 private:
  std::string Key(const std::string& name) const;
  void Fire(const TableUpdateEvent& event);

  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  // key: "table.column" (lowercase)
  std::unordered_map<std::string, std::unique_ptr<SortedIndex>> indexes_;
  std::vector<std::function<void(const std::string&)>> listeners_;
  std::vector<std::function<void(const TableUpdateEvent&)>> event_listeners_;
};

}  // namespace erq

