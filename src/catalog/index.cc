#include "catalog/index.h"

#include <algorithm>

namespace erq {

SortedIndex::SortedIndex(const Table* table, size_t column_index,
                         std::string name)
    : table_(table), column_index_(column_index), name_(std::move(name)) {
  snapshot();  // build the current version up front, as CREATE INDEX does
}

std::shared_ptr<const SortedIndex::Snapshot> SortedIndex::snapshot() const {
  MutexLock lock(&mu_);
  const uint64_t version = table_->version();
  if (snapshot_ != nullptr && snapshot_->version_ == version) return snapshot_;
  auto snap = std::make_shared<Snapshot>();
  snap->version_ = version;
  snap->entries_.reserve(table_->num_rows());
  for (size_t i = 0; i < table_->num_rows(); ++i) {
    const Value& v = table_->row(i)[column_index_];
    if (v.is_null()) continue;
    snap->entries_.push_back(Snapshot::Entry{v, i});
  }
  std::sort(snap->entries_.begin(), snap->entries_.end(),
            [](const Snapshot::Entry& a, const Snapshot::Entry& b) {
              int c = a.key.Compare(b.key);
              return c != 0 ? c < 0 : a.row_id < b.row_id;
            });
  snapshot_ = std::move(snap);
  return snapshot_;
}

void SortedIndex::Snapshot::AppendRange(const KeyRange& range,
                                        std::vector<size_t>* out) const {
  auto key_less = [](const Entry& e, const Value& v) { return e.key < v; };
  auto less_key = [](const Value& v, const Entry& e) { return v < e.key; };
  auto begin = entries_.begin();
  auto end = entries_.end();
  if (range.lo.value.has_value()) {
    begin = range.lo.inclusive
                ? std::lower_bound(begin, end, *range.lo.value, key_less)
                : std::upper_bound(begin, end, *range.lo.value, less_key);
  }
  if (range.hi.value.has_value()) {
    end = range.hi.inclusive
              ? std::upper_bound(begin, end, *range.hi.value, less_key)
              : std::lower_bound(begin, end, *range.hi.value, key_less);
  }
  for (auto it = begin; it != end; ++it) out->push_back(it->row_id);
}

}  // namespace erq
