#include "mv/mv_cache.h"

#include "common/metrics.h"
#include "expr/normalize.h"

namespace erq {

namespace {

void AppendPlanFingerprint(const LogicalOperator& node, std::string* out) {
  out->append(LogicalOpKindToString(node.kind));
  out->push_back('(');
  switch (node.kind) {
    case LogicalOpKind::kScan:
      out->append(node.table_name);
      out->push_back('|');
      out->append(node.alias);
      break;
    case LogicalOpKind::kFilter:
    case LogicalOpKind::kJoin:
    case LogicalOpKind::kOuterJoin:
      if (node.predicate) {
        auto nnf = NormalizeToNnf(node.predicate);
        out->append(nnf.ok() ? (*nnf)->ToString()
                             : node.predicate->ToString());
      }
      break;
    case LogicalOpKind::kProject:
    case LogicalOpKind::kAggregate:
      for (const SelectItem& item : node.items) {
        out->append(item.ToString());
        out->push_back(';');
      }
      break;
    case LogicalOpKind::kUnion:
    case LogicalOpKind::kExcept:
      out->append(node.all ? "ALL" : "DISTINCT");
      break;
    default:
      break;
  }
  for (const LogicalOpPtr& c : node.children) {
    out->push_back(',');
    AppendPlanFingerprint(*c, out);
  }
  out->push_back(')');
}

}  // namespace

MvEmptyCache::MvEmptyCache(size_t max_views)
    : max_views_(max_views),
      metrics_{scope_.GetCounter("erq.mv.lookups"),
               scope_.GetCounter("erq.mv.hits"),
               scope_.GetCounter("erq.mv.stored"),
               scope_.GetCounter("erq.mv.evictions")} {}

MvEmptyCache::MvStats MvEmptyCache::stats_snapshot() const {
  MvStats out;
  out.lookups = metrics_.lookups->Value();
  out.hits = metrics_.hits->Value();
  out.stored = metrics_.stored->Value();
  out.evictions = metrics_.evictions->Value();
  return out;
}

std::string MvEmptyCache::Fingerprint(const LogicalOpPtr& root) const {
  if (root == nullptr) return "";
  std::string out;
  AppendPlanFingerprint(*root, &out);
  return out;
}

void MvEmptyCache::RecordEmpty(const LogicalOpPtr& root) {
  std::string key = Fingerprint(root);
  if (key.empty() || max_views_ == 0) return;
  MutexLock lock(&mu_);
  auto it = keys_.find(key);
  if (it != keys_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  while (keys_.size() >= max_views_) {
    keys_.erase(lru_.back());
    lru_.pop_back();
    metrics_.evictions->Increment();
  }
  lru_.push_front(key);
  keys_.emplace(std::move(key), lru_.begin());
  metrics_.stored->Increment();
}

bool MvEmptyCache::CheckEmpty(const LogicalOpPtr& root) {
  std::string key = Fingerprint(root);
  MutexLock lock(&mu_);
  metrics_.lookups->Increment();
  auto it = keys_.find(key);
  if (it == keys_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);
  metrics_.hits->Increment();
  return true;
}

void MvEmptyCache::Clear() {
  MutexLock lock(&mu_);
  lru_.clear();
  keys_.clear();
}

}  // namespace erq
