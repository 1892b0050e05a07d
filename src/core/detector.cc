#include "core/detector.h"

#include <unordered_map>

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/update_filter.h"

namespace erq {

namespace {

/// Detector instruments, resolved once (see metrics.h). Counted at the
/// public entry points only, so recursion and PrunePlan's internal probes
/// don't inflate the per-query numbers.
struct DetectorMetrics {
  Counter* checks;
  Counter* parts_checked;
  Counter* provably_empty;
  Counter* record_calls;
  Counter* parts_recorded;
  Counter* partition_hits;
  Counter* partition_recorded;
  Counter* partition_invalidated;

  static const DetectorMetrics& Get() {
    static const DetectorMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return DetectorMetrics{
          r.GetCounter("erq.detector.checks"),
          r.GetCounter("erq.detector.parts_checked"),
          r.GetCounter("erq.detector.provably_empty"),
          r.GetCounter("erq.detector.record_calls"),
          r.GetCounter("erq.detector.parts_recorded"),
          r.GetCounter("erq.caqp.partition.hits"),
          r.GetCounter("erq.caqp.partition.recorded"),
          r.GetCounter("erq.caqp.partition.invalidated"),
      };
    }();
    return m;
  }
};

/// True when `name` is a canonical occurrence of `base` ("base" itself or
/// a self-join rename "base#k").
bool IsOccurrence(const std::string& name, const std::string& base) {
  return name == base || StartsWith(name, base + "#");
}

/// The partition-tagged probe/record part for (base, partition,
/// condition): relation set {"base@k"}, condition terms renamed onto the
/// tagged occurrence so Theorem 2's column identities line up.
AtomicQueryPart MakePartitionPart(const std::string& base, size_t partition,
                                  const Conjunction& condition) {
  std::string tagged = MakePartitionName(base, partition);
  std::unordered_map<std::string, std::string> rename{{base, tagged}};
  return AtomicQueryPart(RelationSet({tagged}),
                         condition.RenameRelations(rename));
}

}  // namespace

CheckResult EmptyResultDetector::CheckEmpty(const LogicalOpPtr& root) {
  CheckResult result = CheckEmptyImpl(root);
  const DetectorMetrics& metrics = DetectorMetrics::Get();
  metrics.checks->Increment();
  metrics.parts_checked->Increment(result.parts_checked);
  if (result.provably_empty) metrics.provably_empty->Increment();
  return result;
}

CheckResult EmptyResultDetector::CheckEmptyImpl(const LogicalOpPtr& root) {
  CheckResult result;
  if (root == nullptr) return result;
  switch (root->kind) {
    case LogicalOpKind::kProject:
    case LogicalOpKind::kSort:
    case LogicalOpKind::kDistinct:
      // No influence on emptiness.
      return CheckEmptyImpl(root->children[0]);
    case LogicalOpKind::kAggregate:
      // §2.5(1): a grouped aggregate is empty iff its input is; a scalar
      // aggregate always emits one row (count(∅)=0), so it is never empty.
      if (root->group_by.empty()) return result;
      return CheckEmptyImpl(root->children[0]);
    case LogicalOpKind::kUnion: {
      // §2.5(2): empty iff both branches are provably empty.
      CheckResult left = CheckEmptyImpl(root->children[0]);
      result.parts_checked += left.parts_checked;
      if (!left.provably_empty) return result;
      CheckResult right = CheckEmptyImpl(root->children[1]);
      result.parts_checked += right.parts_checked;
      result.provably_empty = right.provably_empty;
      return result;
    }
    case LogicalOpKind::kExcept: {
      // §2.5(4): empty if the left branch is provably empty.
      CheckResult left = CheckEmptyImpl(root->children[0]);
      result.parts_checked += left.parts_checked;
      result.provably_empty = left.provably_empty;
      return result;
    }
    case LogicalOpKind::kOuterJoin: {
      // §2.5(3): a left outer join is empty iff its left input is.
      CheckResult left = CheckEmptyImpl(root->children[0]);
      result.parts_checked += left.parts_checked;
      result.provably_empty = left.provably_empty;
      return result;
    }
    case LogicalOpKind::kScan:
    case LogicalOpKind::kFilter:
    case LogicalOpKind::kJoin:
    case LogicalOpKind::kSemiJoin: {
      auto simplified = SimplifyLogicalPart(root);
      if (!simplified.ok()) return result;
      auto parts = DecomposeSimplifiedPart(*simplified, config_.dnf);
      if (!parts.ok()) return result;  // e.g. DNF blow-up => just execute
      result.parts_checked = parts->size();
      // A query whose DNF is FALSE (no disjuncts) is trivially empty.
      for (const AtomicQueryPart& part : *parts) {
        if (part.ProvablyUnsatisfiable()) continue;
        if (!cache_.CoveredBy(part)) return result;
      }
      result.provably_empty = true;
      return result;
    }
  }
  return result;
}

size_t EmptyResultDetector::RecordEmpty(const PhysOpPtr& executed_root) {
  size_t inserted = 0;
  for (const PhysOpPtr& part : FindLowestEmptyParts(executed_root)) {
    auto aqps = DecomposePhysicalPart(part, config_.dnf);
    if (!aqps.ok()) continue;  // non-SPJ or too complex: skip this part
    for (const AtomicQueryPart& aqp : *aqps) {
      if (aqp.ProvablyUnsatisfiable()) continue;  // no information content
      cache_.Insert(aqp);
      ++inserted;
    }
  }
  const DetectorMetrics& metrics = DetectorMetrics::Get();
  metrics.record_calls->Increment();
  metrics.parts_recorded->Increment(inserted);
  return inserted;
}

bool EmptyResultDetector::PartitionCovered(const std::string& base,
                                           size_t partition,
                                           const Conjunction& condition) {
  AtomicQueryPart probe =
      MakePartitionPart(ToLower(base), partition, condition);
  if (!cache_.CoveredBy(probe)) return false;
  DetectorMetrics::Get().partition_hits->Increment();
  return true;
}

size_t EmptyResultDetector::RecordPartitionEmpties(
    const PhysOpPtr& executed_root) {
  size_t inserted = 0;
  std::vector<const PhysicalOperator*> stack = {executed_root.get()};
  while (!stack.empty()) {
    const PhysicalOperator* op = stack.back();
    stack.pop_back();
    if (op == nullptr) continue;
    for (const PhysOpPtr& child : op->children) stack.push_back(child.get());
    if (op->kind != PhysOpKind::kTableScan || !op->has_scan_condition ||
        op->partitions_scanned < 0) {
      continue;
    }
    std::string base = ToLower(op->table_name);
    for (const PartitionScanStat& stat : op->partition_stats) {
      if (stat.matches != 0) continue;
      AtomicQueryPart part =
          MakePartitionPart(base, stat.partition, op->scan_condition);
      // Unsatisfiable conditions carry no information (and would be
      // skipped by the whole-query harvest too).
      if (part.ProvablyUnsatisfiable()) continue;
      cache_.Insert(part);
      ++inserted;
    }
  }
  if (inserted > 0) {
    DetectorMetrics::Get().partition_recorded->Increment(inserted);
  }
  return inserted;
}

LogicalOpPtr EmptyResultDetector::PrunePlan(const LogicalOpPtr& root,
                                            size_t* pruned) {
  if (root == nullptr) return root;
  switch (root->kind) {
    case LogicalOpKind::kUnion: {
      LogicalOpPtr left = PrunePlan(root->children[0], pruned);
      LogicalOpPtr right = PrunePlan(root->children[1], pruned);
      bool left_empty = CheckEmptyImpl(left).provably_empty;
      bool right_empty = CheckEmptyImpl(right).provably_empty;
      if (left_empty && right_empty) {
        // Fully detected; keep the (cheap) structure — the caller's
        // CheckEmpty will skip execution entirely.
        return LogicalOperator::Union(std::move(left), std::move(right),
                                      root->all);
      }
      if (left_empty || right_empty) {
        if (pruned != nullptr) ++*pruned;
        LogicalOpPtr survivor = left_empty ? std::move(right)
                                           : std::move(left);
        // UNION (without ALL) also deduplicates the surviving branch.
        return root->all ? survivor
                         : LogicalOperator::Distinct(std::move(survivor));
      }
      return LogicalOperator::Union(std::move(left), std::move(right),
                                    root->all);
    }
    case LogicalOpKind::kExcept: {
      LogicalOpPtr left = PrunePlan(root->children[0], pruned);
      const LogicalOpPtr& right = root->children[1];
      if (CheckEmptyImpl(right).provably_empty) {
        if (pruned != nullptr) ++*pruned;
        // EXCEPT (without ALL) deduplicates its output.
        return root->all ? left : LogicalOperator::Distinct(std::move(left));
      }
      return LogicalOperator::Except(std::move(left), right, root->all);
    }
    case LogicalOpKind::kProject:
    case LogicalOpKind::kSort:
    case LogicalOpKind::kDistinct:
    case LogicalOpKind::kFilter:
    case LogicalOpKind::kAggregate:
    case LogicalOpKind::kOuterJoin: {
      // Set operations may be nested below; rebuild only when needed.
      bool changed = false;
      std::vector<LogicalOpPtr> children;
      children.reserve(root->children.size());
      for (const LogicalOpPtr& c : root->children) {
        LogicalOpPtr pc = PrunePlan(c, pruned);
        if (pc != c) changed = true;
        children.push_back(std::move(pc));
      }
      if (!changed) return root;
      auto copy = std::make_shared<LogicalOperator>(*root);
      copy->children = std::move(children);
      return copy;
    }
    default:
      return root;
  }
}

void EmptyResultDetector::OnRelationUpdated(const std::string& table_name) {
  if (config_.invalidation == InvalidationMode::kDropAll) {
    // DropIf (rather than Clear) so the invalidation counter reflects the
    // cost of the paper's drop-everything strategy.
    cache_.DropIf([](const AtomicQueryPart&) { return true; });
  } else {
    // kDropTouched and the conservative fallback of kFilterIrrelevant
    // (no row information available).
    cache_.InvalidateRelation(table_name);
  }
}

size_t EmptyResultDetector::OnRelationInserted(const std::string& table_name,
                                               const Schema& schema,
                                               const std::vector<Row>& rows) {
  if (config_.invalidation != InvalidationMode::kFilterIrrelevant) {
    size_t before = cache_.size();
    OnRelationUpdated(table_name);
    return before - cache_.size();
  }
  return cache_.DropIf([&](const AtomicQueryPart& part) {
    return InsertsAreRelevant(part, table_name, schema, rows);
  });
}

size_t EmptyResultDetector::OnRelationInserted(const std::string& table_name,
                                               const Schema& schema,
                                               const std::vector<Row>& rows,
                                               const PartitionScheme& scheme) {
  if (!scheme.partitioned() ||
      config_.invalidation == InvalidationMode::kDropAll) {
    return OnRelationInserted(table_name, schema, rows);
  }
  std::string base = ToLower(table_name);
  StatusOr<size_t> key = schema.IndexOf(scheme.key_column);
  if (!key.ok()) {
    // Cannot attribute rows to partitions: conservative whole-relation
    // invalidation (drops tagged and untagged parts alike).
    size_t before = cache_.size();
    cache_.InvalidateRelation(base);
    return before - cache_.size();
  }
  // Group the inserted rows by target partition. Untouched partitions keep
  // their tagged parts: partition membership is a pure function of the
  // key, so rows landing in partition k cannot un-empty partition j.
  std::vector<std::vector<Row>> by_partition(scheme.Count());
  for (const Row& row : rows) {
    size_t k =
        key.value() < row.size() ? scheme.PartitionOf(row[key.value()]) : 0;
    by_partition[k].push_back(row);
  }
  const bool filter =
      config_.invalidation == InvalidationMode::kFilterIrrelevant;
  size_t dropped = cache_.DropIf([&](const AtomicQueryPart& part) {
    for (const std::string& name : part.relations().names()) {
      std::string tag_base;
      size_t k = 0;
      if (SplitPartitionName(name, &tag_base, &k)) {
        if (!IsOccurrence(tag_base, base)) continue;
        if (k >= by_partition.size()) return true;  // stale partition tag
        if (by_partition[k].empty()) continue;      // untouched partition
        if (!filter) return true;
        if (InsertsAreRelevant(part, name, schema, by_partition[k])) {
          return true;
        }
        continue;
      }
      if (!IsOccurrence(name, base)) continue;
      if (!filter) return true;
      if (InsertsAreRelevant(part, base, schema, rows)) return true;
    }
    return false;
  });
  if (dropped > 0) {
    DetectorMetrics::Get().partition_invalidated->Increment(dropped);
  }
  return dropped;
}

void EmptyResultDetector::OnRelationDeleted(const std::string& table_name) {
  if (config_.invalidation == InvalidationMode::kFilterIrrelevant) {
    return;  // shrinking inputs keeps empty outputs empty
  }
  OnRelationUpdated(table_name);
}

}  // namespace erq
