#include "reuse/reuse_store.h"

#include <algorithm>
#include <limits>

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/serialize.h"
#include "core/update_filter.h"

namespace erq {

namespace {

/// Fixed per-entry overhead charged on top of the row payload, so even a
/// zero-row entry has a nonzero footprint and the budget bounds entry
/// count, not just row bytes.
constexpr size_t kEntryOverheadBytes = 64;

}  // namespace

size_t EstimateRowBytes(const Row& row) {
  size_t bytes = sizeof(Row) + row.size() * sizeof(Value);
  for (const Value& v : row) {
    if (v.type() == DataType::kString) bytes += v.AsString().size();
  }
  return bytes;
}

ReuseStore::Instruments ReuseStore::ResolveInstruments(
    MetricsRegistry& scope) {
  Instruments m;
  m.lookups = scope.GetCounter("erq.reuse.lookups");
  m.hits = scope.GetCounter("erq.reuse.hits");
  m.rows_served = scope.GetCounter("erq.reuse.rows_served");
  m.admitted = scope.GetCounter("erq.reuse.admitted");
  m.rejected = scope.GetCounter("erq.reuse.rejected");
  m.evictions = scope.GetCounter("erq.reuse.evictions");
  m.invalidated = scope.GetCounter("erq.reuse.invalidated");
  m.entries = scope.GetGauge("erq.reuse.entries");
  m.bytes = scope.GetGauge("erq.reuse.bytes");
  return m;
}

ReuseStore::ReuseStore(ReuseConfig config)
    : config_(config), metrics_(ResolveInstruments(scope_)) {}

double ReuseStore::Score(const Entry& entry) {
  // Benefit per byte: what the entry saves per execution, amplified by how
  // often it has actually been spliced, relative to what it costs to keep.
  double benefit = entry.saved_cost *
                   (1.0 + static_cast<double>(
                              entry.hits.load(std::memory_order_relaxed)));
  return benefit / static_cast<double>(entry.bytes + 1);
}

std::optional<ReuseSplice> ReuseStore::Lookup(
    const std::string& relation, const Conjunction& condition) const {
  metrics_.lookups->Increment();

  const Entry* best = nullptr;
  {
    EpochReadGuard guard(&epoch_);
    const Index* index = published_.Load();
    auto it = index->find(relation);
    if (it != index->end()) {
      for (const EntryPtr& entry : it->second) {
        // Theorem 2 in the reuse direction: the stored condition covering
        // the probe means probe => stored, so the probed sub-plan's output
        // is a subset of the cached rows. Prefer the smallest superset —
        // less residual work downstream.
        if (!entry->part.condition().Covers(condition)) continue;
        if (best == nullptr || entry->rows->size() < best->rows->size()) {
          best = entry.get();
        }
      }
    }
    if (best == nullptr) return std::nullopt;
    best->hits.fetch_add(1, std::memory_order_relaxed);
    best->last_use.store(seq_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
    metrics_.hits->Increment();
    metrics_.rows_served->Increment(best->rows->size());
    ReuseSplice splice;
    splice.rows = best->rows;  // shared_ptr copy taken inside the epoch:
                               // safe against concurrent eviction
    splice.stored_condition = best->part.condition();
    splice.entry_id = best->id;
    return splice;
  }
}

bool ReuseStore::Admit(const AtomicQueryPart& part,
                       std::shared_ptr<const std::vector<Row>> rows,
                       double saved_cost) {
  if (!config_.enabled || rows == nullptr ||
      part.relations().size() != 1 || rows->size() > config_.max_rows) {
    metrics_.rejected->Increment();
    return false;
  }
  size_t entry_bytes = kEntryOverheadBytes;
  for (const Row& row : *rows) entry_bytes += EstimateRowBytes(row);
  if (entry_bytes > config_.budget_bytes) {
    metrics_.rejected->Increment();
    return false;
  }

  MutexLock lock(&mu_);
  // Structurally identical part: refresh in place (newer rows win — the
  // old ones may predate an intervening execution).
  for (std::shared_ptr<Entry>& existing : entries_) {
    if (!existing->part.Equals(part)) continue;
    size_t old_bytes = existing->bytes;
    std::shared_ptr<Entry> fresh = std::make_shared<Entry>();
    fresh->id = existing->id;
    fresh->part = part;
    fresh->rows = std::move(rows);
    fresh->bytes = entry_bytes;
    fresh->saved_cost = saved_cost;
    fresh->hits.store(existing->hits.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    fresh->last_use.store(existing->last_use.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    existing = std::move(fresh);
    bytes_ = bytes_ - old_bytes + entry_bytes;
    metrics_.admitted->Increment();
    PublishLocked();
    return true;
  }

  // Make room: evict the lowest benefit-per-byte entries (oldest last_use
  // breaks ties) until the newcomer fits.
  while (bytes_ + entry_bytes > config_.budget_bytes && !entries_.empty()) {
    size_t victim = 0;
    double victim_score = std::numeric_limits<double>::infinity();
    uint64_t victim_use = std::numeric_limits<uint64_t>::max();
    for (size_t i = 0; i < entries_.size(); ++i) {
      double score = Score(*entries_[i]);
      uint64_t use = entries_[i]->last_use.load(std::memory_order_relaxed);
      if (score < victim_score ||
          (score == victim_score && use < victim_use)) {
        victim = i;
        victim_score = score;
        victim_use = use;
      }
    }
    bytes_ -= entries_[victim]->bytes;
    entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(victim));
    metrics_.evictions->Increment();
  }

  std::shared_ptr<Entry> entry = std::make_shared<Entry>();
  entry->id = next_id_++;
  entry->part = part;
  entry->rows = std::move(rows);
  entry->bytes = entry_bytes;
  entry->saved_cost = saved_cost;
  entries_.push_back(std::move(entry));
  bytes_ += entry_bytes;
  metrics_.admitted->Increment();
  PublishLocked();
  return true;
}

size_t ReuseStore::DropIfLocked(
    const std::function<bool(const Entry&)>& pred) {
  size_t dropped = 0;
  for (size_t i = entries_.size(); i-- > 0;) {
    if (!pred(*entries_[i])) continue;
    bytes_ -= entries_[i]->bytes;
    entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
    ++dropped;
  }
  if (dropped > 0) {
    metrics_.invalidated->Increment(dropped);
    PublishLocked();
  }
  return dropped;
}

size_t ReuseStore::OnRelationInserted(const std::string& base_name,
                                      const Schema& schema,
                                      const std::vector<Row>& rows) {
  std::string canonical = ToLower(base_name);
  MutexLock lock(&mu_);
  return DropIfLocked([&](const Entry& entry) {
    if (!entry.part.relations().Contains(canonical)) return false;
    // §5 update filter, shared with C_aqp: an insert whose rows all
    // provably fail the entry's condition cannot change
    // sigma_condition(relation); anything else could grow the cached set,
    // so the entry must go (conservative — never stale).
    return InsertsAreRelevant(entry.part, canonical, schema, rows);
  });
}

size_t ReuseStore::OnRelationDeleted(const std::string& base_name) {
  std::string canonical = ToLower(base_name);
  MutexLock lock(&mu_);
  return DropIfLocked([&](const Entry& entry) {
    // The asymmetry with C_aqp: deleting rows can shrink a non-empty
    // cached intermediate (stale superset-with-extras is NOT sound — the
    // spliced scan would emit deleted rows), but an empty one stays empty.
    return entry.part.relations().Contains(canonical) &&
           !entry.rows->empty();
  });
}

size_t ReuseStore::OnRelationUpdated(const std::string& base_name) {
  std::string canonical = ToLower(base_name);
  MutexLock lock(&mu_);
  return DropIfLocked([&](const Entry& entry) {
    return entry.part.relations().Contains(canonical);
  });
}

void ReuseStore::Clear() {
  MutexLock lock(&mu_);
  DropIfLocked([](const Entry&) { return true; });
}

void ReuseStore::PublishLocked() {
  Index* next = new Index();
  for (const std::shared_ptr<Entry>& entry : entries_) {
    (*next)[entry->part.relations().names().front()].push_back(entry);
  }
  published_.Publish(next, &epoch_);
  epoch_.TryReclaim();
  metrics_.entries->Set(static_cast<int64_t>(entries_.size()));
  metrics_.bytes->Set(static_cast<int64_t>(bytes_));
}

ReuseStoreStats ReuseStore::stats_snapshot() const {
  ReuseStoreStats out;
  out.lookups = metrics_.lookups->Value();
  out.hits = metrics_.hits->Value();
  out.rows_served = metrics_.rows_served->Value();
  out.admitted = metrics_.admitted->Value();
  out.rejected = metrics_.rejected->Value();
  out.evictions = metrics_.evictions->Value();
  out.invalidated = metrics_.invalidated->Value();
  out.entries = static_cast<uint64_t>(metrics_.entries->Value());
  out.bytes = static_cast<uint64_t>(metrics_.bytes->Value());
  return out;
}

std::vector<std::string> ReuseStore::DescribeEntries() const {
  std::vector<std::string> out;
  MutexLock lock(&mu_);
  out.reserve(entries_.size());
  std::vector<const Entry*> ordered;
  ordered.reserve(entries_.size());
  for (const std::shared_ptr<Entry>& e : entries_) ordered.push_back(e.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const Entry* a, const Entry* b) { return a->id < b->id; });
  for (const Entry* e : ordered) {
    // The C_aqp text normal form (core/serialize.h) keeps the preview
    // consistent with cache_inspect's C_aqp dump.
    StatusOr<std::string> serialized = SerializePart(e->part);
    std::string line = "#" + std::to_string(e->id) + " " +
                       (serialized.ok() ? *serialized : e->part.ToString());
    line += " | rows=" + std::to_string(e->rows->size());
    line += " bytes=" + std::to_string(e->bytes);
    line += " hits=" +
            std::to_string(e->hits.load(std::memory_order_relaxed));
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace erq
