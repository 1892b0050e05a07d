#include "core/caqp_cache.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string_view>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace erq {

namespace {

constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

/// The run of key-sorted `postings` under `key`, or under every key of
/// `key`'s column when `whole_column`.
template <typename Posting, typename Key>
std::pair<typename std::vector<Posting>::const_iterator,
          typename std::vector<Posting>::const_iterator>
KeyRun(const std::vector<Posting>& postings, const Key& key,
       bool whole_column) {
  auto before = [whole_column](const Posting& p, const Key& k) {
    return whole_column ? p.key.column < k.column : p.key < k;
  };
  auto after = [whole_column](const Key& k, const Posting& p) {
    return whole_column ? k.column < p.key.column : k < p.key;
  };
  return {std::lower_bound(postings.begin(), postings.end(), key, before),
          std::upper_bound(postings.begin(), postings.end(), key, after)};
}

}  // namespace

CaqpCache::Instruments CaqpCache::ResolveInstruments(MetricsRegistry& scope) {
  Instruments m;
  m.lookups = scope.GetCounter("erq.caqp.lookups");
  m.hits = scope.GetCounter("erq.caqp.hits");
  m.misses = scope.GetCounter("erq.caqp.misses");
  m.conditions_scanned = scope.GetCounter("erq.caqp.conditions_scanned");
  m.insert_attempts = scope.GetCounter("erq.caqp.insert_attempts");
  m.inserted = scope.GetCounter("erq.caqp.inserted");
  m.skipped_covered = scope.GetCounter("erq.caqp.skipped_covered");
  m.removed_covered = scope.GetCounter("erq.caqp.removed_covered");
  m.evictions = scope.GetCounter("erq.caqp.evictions");
  m.invalidation_drops = scope.GetCounter("erq.caqp.invalidation_drops");
  m.postings_scanned = scope.GetCounter("erq.caqp.postings_scanned");
  m.candidate_entries = scope.GetCounter("erq.caqp.candidate_entries");
  m.signature_rejects = scope.GetCounter("erq.caqp.signature_rejects");
  m.epoch_retired = scope.GetCounter("erq.caqp.epoch.retired");
  m.size = scope.GetGauge("erq.caqp.size");
  m.epoch_pending = scope.GetGauge("erq.caqp.epoch.pending");
  return m;
}

CaqpCache::CaqpCache(size_t n_max)
    : n_max_(n_max), metrics_(ResolveInstruments(scope_)) {}

// ---------------------------------------------------------------------------
// In-entry index
// ---------------------------------------------------------------------------

std::vector<CaqpCache::TermKey> CaqpCache::KeysOf(
    const Conjunction& condition) {
  std::vector<TermKey> keys;
  for (const PrimitiveTerm& term : condition.terms()) {
    if (term.kind() != PrimitiveTerm::Kind::kInterval) continue;
    const Value* point = term.interval().PointValue();
    if (point == nullptr && !term.interval().IsEmpty()) continue;
    std::string_view base = term.column().relation;
    base = base.substr(0, base.find('#'));
    size_t column = std::hash<std::string_view>{}(base);
    HashCombine(&column, term.column().column);
    keys.push_back({column, point != nullptr ? point->Hash() : kAnyValue});
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

CaqpCache::EntryItems* CaqpCache::EntryItems::WithAdded(
    const EntryItems& prev, PubItemPtr part,
    const std::vector<TermKey>& keys) {
  auto* next = new EntryItems;
  const auto index = static_cast<uint32_t>(prev.parts.size());
  next->parts.reserve(prev.parts.size() + 1);
  next->parts.insert(next->parts.end(), prev.parts.begin(), prev.parts.end());
  next->parts.push_back(std::move(part));

  // Anchor under the point key whose bucket is smallest, so one hot value
  // does not gather the entry's parts when a rarer key is at hand.
  const TermKey* anchor = nullptr;
  size_t anchor_bucket = 0;
  for (const TermKey& key : keys) {
    if (key.value == kAnyValue) continue;
    auto [lo, hi] = KeyRun(prev.anchors, key, false);
    const auto bucket = static_cast<size_t>(hi - lo);
    if (anchor == nullptr || bucket < anchor_bucket) {
      anchor = &key;
      anchor_bucket = bucket;
    }
  }
  next->residual = prev.residual;
  if (anchor == nullptr) {
    next->residual.push_back(index);
    next->anchors = prev.anchors;
  } else {
    // `index` exceeds every stored one, so it ends its key's run.
    auto pos = KeyRun(prev.anchors, *anchor, false).second;
    next->anchors.reserve(prev.anchors.size() + 1);
    next->anchors.insert(next->anchors.end(), prev.anchors.begin(), pos);
    next->anchors.push_back({*anchor, index});
    next->anchors.insert(next->anchors.end(), pos, prev.anchors.end());
  }

  std::vector<Posting> added;
  added.reserve(keys.size());
  for (const TermKey& key : keys) added.push_back({key, index});
  next->terms.reserve(prev.terms.size() + added.size());
  std::merge(prev.terms.begin(), prev.terms.end(), added.begin(), added.end(),
             std::back_inserter(next->terms),
             [](const Posting& a, const Posting& b) {
               return a.key < b.key || (a.key == b.key && a.part < b.part);
             });
  return next;
}

CaqpCache::EntryItems* CaqpCache::EntryItems::WithRemoved(
    const EntryItems& prev, const std::vector<bool>& drop) {
  auto* next = new EntryItems;
  // Kept parts are renumbered in order, which keeps every array sorted.
  std::vector<uint32_t> renumber(prev.parts.size());
  next->parts.reserve(prev.parts.size());
  for (size_t i = 0; i < prev.parts.size(); ++i) {
    if (drop[i]) continue;
    renumber[i] = static_cast<uint32_t>(next->parts.size());
    next->parts.push_back(prev.parts[i]);
  }
  auto keep = [&](const std::vector<Posting>& in, std::vector<Posting>* out) {
    out->reserve(in.size());
    for (const Posting& p : in) {
      if (!drop[p.part]) out->push_back({p.key, renumber[p.part]});
    }
  };
  keep(prev.anchors, &next->anchors);
  keep(prev.terms, &next->terms);
  for (uint32_t i : prev.residual) {
    if (!drop[i]) next->residual.push_back(renumber[i]);
  }
  return next;
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

bool CaqpCache::EntryCovers(const PublishedEntry& entry,
                            const AtomicQueryPart& aqp,
                            const std::vector<TermKey>& keys,
                            const RelationSignature& query_sig,
                            LookupWork* work) const {
  ++work->candidates;
  // Stored part covers `aqp` only if its relation set is a subset of
  // aqp's (§2.4: "search in those entries of C_aqp whose relation names
  // form a subset of the relation names of P_i").
  if (!entry.signature.MaybeSubsetOf(query_sig)) {
    ++work->signature_rejects;
    return false;
  }
  if (!entry.relations.IsSubsetOf(aqp.relations())) return false;
  const EntryItems& items = *entry.items.Load();
  auto covers = [&](uint32_t i) {
    ++work->conditions;
    const PubItem& part = *items.parts[i];
    if (!part.aqp.Covers(aqp)) return false;
    part.ref.store(true, kRelaxed);
    return true;
  };
  for (uint32_t i : items.residual) {
    if (covers(i)) return true;
  }
  // A stored point term covers only a probe term pinned to the same value
  // or an inverted one on its column, so a covering anchored part sits
  // under one of the probe's keys. A column-wide key sorts first in its
  // column and takes the whole column, subsuming the point keys after it.
  const TermKey* wide = nullptr;
  for (const TermKey& key : keys) {
    if (wide != nullptr && key.column == wide->column) continue;
    if (key.value == kAnyValue) wide = &key;
    auto [lo, hi] = KeyRun(items.anchors, key, key.value == kAnyValue);
    for (auto it = lo; it != hi; ++it) {
      if (covers(it->part)) return true;
    }
  }
  return false;
}

bool CaqpCache::FindCovering(const Index& index, const AtomicQueryPart& aqp,
                             const std::vector<TermKey>& keys,
                             const RelationSignature& query_sig,
                             LookupWork* work) const {
  // The entry over the empty relation set (a TRUE-on-nothing part) is a
  // subset of every probe and posts nowhere.
  if (index.empty_rel_entry != nullptr &&
      EntryCovers(*index.empty_rel_entry, aqp, keys, query_sig, work)) {
    return true;
  }
  // A stored set ⊆ probe set contains its own first name, which is one of
  // the probe's names; entries are posted under their first name only, so
  // walking the probe's names visits each candidate exactly once.
  for (const std::string& name : aqp.relations().names()) {
    auto it = index.postings.find(name);
    if (it == index.postings.end()) continue;
    work->postings += it->second.size();
    for (const PublishedEntry* entry : it->second) {
      if (EntryCovers(*entry, aqp, keys, query_sig, work)) return true;
    }
  }
  return false;
}

bool CaqpCache::CoveredBy(const AtomicQueryPart& aqp) {
  RelationSignature query_sig = RelationSignature::Of(aqp.relations());
  const std::vector<TermKey> keys = KeysOf(aqp.condition());
  LookupWork work;
  bool hit;
  {
    EpochReadGuard guard(&epoch_);
    hit = FindCovering(*published_.Load(), aqp, keys, query_sig, &work);
  }
  // Counted after the epoch section, which stays as short as the search:
  // a pinned epoch holds back reclamation for every writer.
  metrics_.lookups->Increment();
  metrics_.postings_scanned->Increment(work.postings);
  metrics_.candidate_entries->Increment(work.candidates);
  metrics_.signature_rejects->Increment(work.signature_rejects);
  metrics_.conditions_scanned->Increment(work.conditions);
  (hit ? metrics_.hits : metrics_.misses)->Increment();
  return hit;
}

// ---------------------------------------------------------------------------
// Writer path
// ---------------------------------------------------------------------------

std::vector<CaqpCache::PublishedEntry*> CaqpCache::SupersetCandidatesLocked(
    const RelationSet& relations) const {
  if (relations.empty()) {
    std::vector<PublishedEntry*> out;
    for (const PublishedEntryPtr& entry : published_.Load()->entries) {
      out.push_back(entry.get());
    }
    return out;
  }
  // Every superset entry mentions each of `relations`' names, so it posts
  // under all of them; the rarest name's posting list is the cheapest
  // complete candidate set. A name with no posting list means no entry
  // can be a superset.
  const std::vector<PublishedEntry*>* best = nullptr;
  for (const std::string& name : relations.names()) {
    auto it = postings_.find(name);
    if (it == postings_.end()) return {};
    if (best == nullptr || it->second.size() < best->size()) {
      best = &it->second;
    }
  }
  return *best;
}

void CaqpCache::RepublishEntryItemsLocked(PublishedEntry& entry,
                                          const EntryItems* next) {
  entry.items.Publish(next, &epoch_);
  metrics_.epoch_retired->Increment();
}

void CaqpCache::RebuildIndexLocked(PublishedEntryPtr created) {
  const Index& old = *published_.Load();
  auto* index = new Index;
  index->entries.reserve(old.entries.size() + 1);
  for (const PublishedEntryPtr& entry : old.entries) {
    if (!entry->items.Load()->parts.empty()) {
      index->entries.push_back(entry);
      continue;
    }
    // Garbage-collect the emptied entry: the old index keeps it alive
    // for the readers that may still walk it.
    for (const std::string& name : entry->relations.names()) {
      auto it = postings_.find(name);
      std::vector<PublishedEntry*>& list = it->second;
      auto pos = std::find(list.begin(), list.end(), entry.get());
      *pos = list.back();  // order within a posting list is irrelevant
      list.pop_back();
      if (list.empty()) postings_.erase(it);
    }
    entries_.erase(entry->relations.Key());
  }
  if (created != nullptr) index->entries.push_back(std::move(created));
  index->postings.reserve(postings_.size());
  for (const PublishedEntryPtr& entry : index->entries) {
    if (entry->relations.empty()) {
      index->empty_rel_entry = entry.get();
    } else {
      index->postings[entry->relations.names().front()].push_back(
          entry.get());
    }
  }
  published_.Publish(index, &epoch_);
  metrics_.epoch_retired->Increment();
}

void CaqpCache::Insert(const AtomicQueryPart& aqp) {
  metrics_.insert_attempts->Increment();
  if (n_max_ == 0) return;
  RelationSignature new_sig = RelationSignature::Of(aqp.relations());
  const std::vector<TermKey> keys = KeysOf(aqp.condition());
  MutexLock lock(&mu_);

  // Keep only the most general parts. First: is the new part redundant?
  // Only mu_ holders publish or retire, so the published index is current
  // and cannot be reclaimed under us: no epoch pin is needed. A covering
  // part gets its reference bit set — it proved useful again.
  LookupWork scratch;  // insert-side searches are not lookup statistics
  if (FindCovering(*published_.Load(), aqp, keys, new_sig, &scratch)) {
    metrics_.skipped_covered->Increment();
    return;
  }

  // Second: drop stored parts that the new one covers. They live in
  // entries whose relation set is a superset of the new part's.
  bool emptied = false;
  for (PublishedEntry* entry : SupersetCandidatesLocked(aqp.relations())) {
    if (!new_sig.MaybeSubsetOf(entry->signature) ||
        !aqp.relations().IsSubsetOf(entry->relations)) {
      continue;
    }
    emptied |= DisplaceCoveredLocked(*entry, aqp, keys);
  }

  // Capacity: make room first, so N_max holds at every instant.
  while (live_.load(kRelaxed) >= n_max_ && EvictOneLocked(&emptied)) {
  }

  PublishedEntryPtr created;
  PublishedEntry& entry = GetOrCreateEntryLocked(aqp.relations(), &created);
  auto part = std::make_shared<PubItem>();
  part->aqp = aqp;
  part->ref.store(true, kRelaxed);
  live_.fetch_add(1, kRelaxed);
  metrics_.inserted->Increment();
  metrics_.size->Add(1);
  RepublishEntryItemsLocked(
      entry, EntryItems::WithAdded(*entry.items.Load(), std::move(part), keys));
  if (emptied || created != nullptr) RebuildIndexLocked(std::move(created));
  if (listener_ != nullptr) listener_->OnInsert(aqp);
}

bool CaqpCache::EvictOneLocked(bool* emptied) {
  const std::vector<PublishedEntryPtr>& entries = published_.Load()->entries;
  if (entries.empty()) return false;
  // Bounded sweep from the hand over the parts of `entries` in order: the
  // first revolution may clear every reference bit, the second then meets
  // a cleared one. Partless entries cost no step, and 2·entries+1 visits
  // cover two revolutions.
  size_t steps = 2 * live_.load(kRelaxed) + 1;
  for (size_t visit = 0; visit <= 2 * entries.size() && steps > 0; ++visit) {
    if (clock_entry_ >= entries.size()) {
      clock_entry_ = 0;
      clock_part_ = 0;
    }
    PublishedEntry& entry = *entries[clock_entry_];
    const EntryItems& items = *entry.items.Load();
    for (; clock_part_ < items.parts.size() && steps > 0;
         ++clock_part_, --steps) {
      const PubItem& part = *items.parts[clock_part_];
      if (part.ref.load(kRelaxed)) {
        part.ref.store(false, kRelaxed);
        continue;
      }
      // The hand stays put: the next part moves into the victim's place.
      std::vector<bool> drop(items.parts.size(), false);
      drop[clock_part_] = true;
      *emptied |= RemoveItemsLocked(entry, RemoveReason::kEvicted, drop);
      return true;
    }
    ++clock_entry_;
    clock_part_ = 0;
  }
  return false;
}

bool CaqpCache::RemoveItemsLocked(PublishedEntry& entry, RemoveReason reason,
                                  const std::vector<bool>& drop) {
  const auto dropped =
      static_cast<size_t>(std::count(drop.begin(), drop.end(), true));
  if (dropped == 0) return false;
  const EntryItems& items = *entry.items.Load();
  if (listener_ != nullptr) {
    for (size_t i = 0; i < drop.size(); ++i) {
      if (drop[i]) listener_->OnRemove(items.parts[i]->aqp, reason);
    }
  }
  live_.fetch_sub(dropped, kRelaxed);
  metrics_.size->Add(-static_cast<int64_t>(dropped));
  switch (reason) {
    case RemoveReason::kEvicted:
      metrics_.evictions->Increment(dropped);
      break;
    case RemoveReason::kDisplaced:
      metrics_.removed_covered->Increment(dropped);
      break;
    case RemoveReason::kInvalidated:
      metrics_.invalidation_drops->Increment(dropped);
      break;
  }
  const bool now_empty = dropped == items.parts.size();
  RepublishEntryItemsLocked(entry, EntryItems::WithRemoved(items, drop));
  return now_empty;
}

bool CaqpCache::RemoveItemsIfLocked(
    PublishedEntry& entry, RemoveReason reason,
    const std::function<bool(const AtomicQueryPart&)>& pred) {
  const EntryItems& items = *entry.items.Load();
  std::vector<bool> drop(items.parts.size());
  for (size_t i = 0; i < items.parts.size(); ++i) {
    drop[i] = pred(items.parts[i]->aqp);
  }
  return RemoveItemsLocked(entry, reason, drop);
}

bool CaqpCache::DisplaceCoveredLocked(PublishedEntry& entry,
                                      const AtomicQueryPart& aqp,
                                      const std::vector<TermKey>& keys) {
  const EntryItems& items = *entry.items.Load();
  std::vector<bool> drop(items.parts.size(), false);
  auto test = [&](uint32_t i) {
    if (!drop[i]) drop[i] = aqp.Covers(items.parts[i]->aqp);
  };
  // A stored part `aqp` covers carries each of `aqp`'s point keys, or an
  // inverted term on that key's column: the rarest point key's run and
  // its column-wide run hold every candidate.
  const TermKey* rarest = nullptr;
  size_t rarest_run = 0;
  for (const TermKey& key : keys) {
    if (key.value == kAnyValue) continue;
    auto [lo, hi] = KeyRun(items.terms, key, false);
    const auto run = static_cast<size_t>(hi - lo);
    if (rarest == nullptr || run < rarest_run) {
      rarest = &key;
      rarest_run = run;
    }
  }
  if (rarest == nullptr) {
    for (uint32_t i = 0; i < items.parts.size(); ++i) test(i);
  } else {
    for (const TermKey& key : {*rarest, TermKey{rarest->column, kAnyValue}}) {
      auto [lo, hi] = KeyRun(items.terms, key, false);
      for (auto it = lo; it != hi; ++it) test(it->part);
    }
  }
  return RemoveItemsLocked(entry, RemoveReason::kDisplaced, drop);
}

CaqpCache::PublishedEntry& CaqpCache::GetOrCreateEntryLocked(
    const RelationSet& relations, PublishedEntryPtr* created) {
  auto [it, inserted] = entries_.try_emplace(relations.Key());
  if (inserted) {
    it->second = std::make_shared<PublishedEntry>(relations);
    for (const std::string& name : relations.names()) {
      postings_[name].push_back(it->second.get());
    }
    *created = it->second;
  }
  return *it->second;
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

void CaqpCache::Clear() {
  MutexLock lock(&mu_);
  if (listener_ != nullptr) listener_->OnClear();
  metrics_.size->Set(0);
  live_.store(0, kRelaxed);
  entries_.clear();
  postings_.clear();
  clock_entry_ = 0;
  clock_part_ = 0;
  published_.Publish(new Index, &epoch_);
  metrics_.epoch_retired->Increment();
}

void CaqpCache::InvalidateRelation(const std::string& base_name) {
  std::string base = ToLower(base_name);
  std::string prefix = base + "#";
  MutexLock lock(&mu_);
  // The writer-side posting keys are exactly the relation names of live
  // entries, so matching keys (base and renamed occurrences "base#k")
  // enumerate the affected entries. A self-join entry appears under
  // several matching names; its second visit finds it empty.
  auto all = [](const AtomicQueryPart&) { return true; };
  bool emptied = false;
  for (const auto& [name, list] : postings_) {
    if (name != base && !StartsWith(name, prefix)) continue;
    for (PublishedEntry* entry : list) {
      emptied |= RemoveItemsIfLocked(*entry, RemoveReason::kInvalidated, all);
    }
  }
  if (emptied) RebuildIndexLocked(nullptr);
}

size_t CaqpCache::DropIf(
    const std::function<bool(const AtomicQueryPart&)>& pred) {
  MutexLock lock(&mu_);
  const size_t before = live_.load(kRelaxed);
  bool emptied = false;
  for (const PublishedEntryPtr& entry : published_.Load()->entries) {
    emptied |= RemoveItemsIfLocked(*entry, RemoveReason::kInvalidated, pred);
  }
  if (emptied) RebuildIndexLocked(nullptr);
  return before - live_.load(kRelaxed);
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

CaqpCache::CacheStats CaqpCache::stats_snapshot() const {
  CacheStats out;
  out.lookups = metrics_.lookups->Value();
  out.hits = metrics_.hits->Value();
  out.conditions_scanned = metrics_.conditions_scanned->Value();
  out.insert_attempts = metrics_.insert_attempts->Value();
  out.inserted = metrics_.inserted->Value();
  out.skipped_covered = metrics_.skipped_covered->Value();
  out.removed_covered = metrics_.removed_covered->Value();
  out.evictions = metrics_.evictions->Value();
  out.invalidation_drops = metrics_.invalidation_drops->Value();
  out.postings_scanned = metrics_.postings_scanned->Value();
  out.candidate_entries = metrics_.candidate_entries->Value();
  out.signature_rejects = metrics_.signature_rejects->Value();
  {
    MutexLock lock(&mu_);
    out.entries_live = entries_.size();
    out.index_names = postings_.size();
  }
  EpochManager::Stats es = epoch_.GetStats();
  out.epoch_pending = es.pending;
  metrics_.epoch_pending->Set(static_cast<int64_t>(es.pending));
  return out;
}

std::string CaqpCache::Explain() const {
  size_t max_list = 0;
  std::string max_name;
  uint64_t total_list = 0;
  uint64_t anchored = 0;
  uint64_t residual = 0;
  size_t max_bucket = 0;
  {
    MutexLock lock(&mu_);
    for (const auto& [name, list] : postings_) {
      total_list += list.size();
      if (list.size() > max_list) {
        max_list = list.size();
        max_name = name;
      }
    }
    for (const PublishedEntryPtr& entry : published_.Load()->entries) {
      const EntryItems& items = *entry->items.Load();
      anchored += items.anchors.size();
      residual += items.residual.size();
      for (auto it = items.anchors.begin(); it != items.anchors.end();) {
        auto end = KeyRun(items.anchors, it->key, false).second;
        max_bucket = std::max(max_bucket, static_cast<size_t>(end - it));
        it = end;
      }
    }
  }
  const size_t live = live_.load(kRelaxed);
  CacheStats s = stats_snapshot();
  auto per_lookup = [&](uint64_t v) {
    return s.lookups == 0 ? 0.0
                          : static_cast<double>(v) /
                                static_cast<double>(s.lookups);
  };
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "C_aqp: %llu/%llu parts in %llu entries, %llu names "
                "indexed\n",
                static_cast<unsigned long long>(live),
                static_cast<unsigned long long>(n_max_),
                static_cast<unsigned long long>(s.entries_live),
                static_cast<unsigned long long>(s.index_names));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "index fan-out: avg posting list %.2f, max %llu (\"%s\")\n",
                s.index_names == 0 ? 0.0
                                   : static_cast<double>(total_list) /
                                         static_cast<double>(s.index_names),
                static_cast<unsigned long long>(max_list), max_name.c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "point index: %llu anchored, %llu residual, largest key "
                "bucket %llu\n",
                static_cast<unsigned long long>(anchored),
                static_cast<unsigned long long>(residual),
                static_cast<unsigned long long>(max_bucket));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "lookups=%llu hits=%llu (%.1f%%); per lookup: postings=%.2f "
      "candidates=%.2f sig-rejects=%.2f cover-tests=%.2f",
      static_cast<unsigned long long>(s.lookups),
      static_cast<unsigned long long>(s.hits),
      s.lookups == 0 ? 0.0
                     : 100.0 * static_cast<double>(s.hits) /
                           static_cast<double>(s.lookups),
      per_lookup(s.postings_scanned), per_lookup(s.candidate_entries),
      per_lookup(s.signature_rejects), per_lookup(s.conditions_scanned));
  out += buf;
  return out;
}

void CaqpCache::SetChangeListener(ChangeListener* listener) {
  MutexLock lock(&mu_);
  listener_ = listener;
}

std::vector<AtomicQueryPart> CaqpCache::Snapshot() const {
  std::vector<AtomicQueryPart> out;
  out.reserve(live_.load(kRelaxed));
  EpochReadGuard guard(&epoch_);
  for (const PublishedEntryPtr& entry : published_.Load()->entries) {
    const EntryItems* items = entry->items.Load();
    for (const PubItemPtr& part : items->parts) out.push_back(part->aqp);
  }
  return out;
}

}  // namespace erq
