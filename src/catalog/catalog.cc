#include "catalog/catalog.h"

#include "common/string_util.h"

namespace erq {

std::string Catalog::Key(const std::string& name) const {
  return ToLower(name);
}

StatusOr<Table*> Catalog::CreateTable(const std::string& name, Schema schema) {
  std::string key = Key(name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    for (size_t j = i + 1; j < schema.num_columns(); ++j) {
      if (EqualsIgnoreCase(schema.column(i).name, schema.column(j).name)) {
        return Status::InvalidArgument("duplicate column name '" +
                                       schema.column(i).name + "'");
      }
    }
  }
  auto table = std::make_unique<Table>(name, std::move(schema));
  Table* raw = table.get();
  tables_.emplace(std::move(key), std::move(table));
  return raw;
}

Status Catalog::DropTable(const std::string& name) {
  std::string key = Key(name);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  for (auto idx_it = indexes_.begin(); idx_it != indexes_.end();) {
    if (StartsWith(idx_it->first, key + ".")) {
      idx_it = indexes_.erase(idx_it);
    } else {
      ++idx_it;
    }
  }
  tables_.erase(it);
  TableUpdateEvent event;
  event.kind = TableUpdateEvent::Kind::kDropTable;
  event.table_name = name;
  Fire(event);
  return Status::OK();
}

StatusOr<Table*> Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  return it->second.get();
}

StatusOr<const Table*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  return static_cast<const Table*>(it->second.get());
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(Key(name)) > 0;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) names.push_back(table->name());
  return names;
}

StatusOr<SortedIndex*> Catalog::CreateIndex(const std::string& table_name,
                                            const std::string& column_name) {
  ERQ_ASSIGN_OR_RETURN(Table * table, GetTable(table_name));
  ERQ_ASSIGN_OR_RETURN(size_t col, table->schema().IndexOf(column_name));
  std::string key = Key(table_name) + "." + Key(column_name);
  auto it = indexes_.find(key);
  if (it != indexes_.end()) return it->second.get();
  auto index = std::make_unique<SortedIndex>(table, col, key);
  SortedIndex* raw = index.get();
  indexes_.emplace(std::move(key), std::move(index));
  return raw;
}

SortedIndex* Catalog::FindIndex(const std::string& table_name,
                                const std::string& column_name) {
  auto it = indexes_.find(Key(table_name) + "." + Key(column_name));
  if (it == indexes_.end()) return nullptr;
  return it->second.get();
}

Status Catalog::AppendRows(const std::string& table_name,
                           std::vector<Row> rows) {
  ERQ_ASSIGN_OR_RETURN(Table * table, GetTable(table_name));
  for (const Row& row : rows) {
    ERQ_RETURN_IF_ERROR(table->Append(row));
  }
  TableUpdateEvent event;
  event.kind = TableUpdateEvent::Kind::kInsert;
  event.table_name = table->name();
  event.inserted_rows = &rows;
  Fire(event);
  return Status::OK();
}

StatusOr<size_t> Catalog::DeleteRows(const std::string& table_name,
                                     std::function<bool(const Row&)> pred) {
  ERQ_ASSIGN_OR_RETURN(Table * table, GetTable(table_name));
  size_t removed = table->DeleteWhere(pred);
  TableUpdateEvent event;
  event.kind = TableUpdateEvent::Kind::kDelete;
  event.table_name = table->name();
  Fire(event);
  return removed;
}

Status Catalog::SetPartitioning(const std::string& table_name,
                                PartitionScheme scheme) {
  ERQ_ASSIGN_OR_RETURN(Table * table, GetTable(table_name));
  return table->SetPartitioning(std::move(scheme));
}

void Catalog::NotifyUpdate(const std::string& table_name) {
  TableUpdateEvent event;
  event.kind = TableUpdateEvent::Kind::kGeneric;
  event.table_name = table_name;
  Fire(event);
}

void Catalog::Fire(const TableUpdateEvent& event) {
  for (const auto& listener : listeners_) listener(event.table_name);
  for (const auto& listener : event_listeners_) listener(event);
}

}  // namespace erq
