#include "core/detector.h"

#include "common/metrics.h"
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

  static const DetectorMetrics& Get() {
    static const DetectorMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return DetectorMetrics{
          r.GetCounter("erq.detector.checks"),
          r.GetCounter("erq.detector.parts_checked"),
          r.GetCounter("erq.detector.provably_empty"),
          r.GetCounter("erq.detector.record_calls"),
          r.GetCounter("erq.detector.parts_recorded"),
      };
    }();
    return m;
  }
};

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

void EmptyResultDetector::OnRelationDeleted(const std::string& table_name) {
  if (config_.invalidation == InvalidationMode::kFilterIrrelevant) {
    return;  // shrinking inputs keeps empty outputs empty
  }
  OnRelationUpdated(table_name);
}

}  // namespace erq
