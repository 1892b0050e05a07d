#include "core/manager.h"

#include <cstdio>

#include "core/query_api.h"

namespace erq {

namespace {

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", seconds * 1e3);
  return buf;
}

// Sums a per-scan partition counter (>= 0 means "this scan was
// partition-pruned") across every table scan in the executed plan.
size_t SumPartitionField(const PhysOpPtr& root,
                         int64_t PhysicalOperator::*field) {
  if (root == nullptr) return 0;
  size_t total = 0;
  if (root->kind == PhysOpKind::kTableScan && (*root).*field >= 0) {
    total += static_cast<size_t>((*root).*field);
  }
  for (const PhysOpPtr& child : root->children) {
    total += SumPartitionField(child, field);
  }
  return total;
}

// Counts the CachedResultScan leaves of an executed plan and the rows
// they emitted — the per-query reuse exposure (QueryOutcome /
// QueryResponse `reused_subtrees` and `reuse_rows_served`).
void CollectReuseServed(const PhysOpPtr& root, size_t* subtrees,
                        size_t* rows) {
  if (root == nullptr) return;
  if (root->kind == PhysOpKind::kCachedResultScan) {
    ++*subtrees;
    if (root->actual_rows > 0) *rows += static_cast<size_t>(root->actual_rows);
  }
  for (const PhysOpPtr& child : root->children) {
    CollectReuseServed(child, subtrees, rows);
  }
}

// Injects the reuse store into the optimizer's options at manager
// construction (the store pointer is stable for the manager's lifetime).
OptimizerOptions WithReuseSource(OptimizerOptions options,
                                 const ReuseSpliceSource* source) {
  if (source != nullptr) options.reuse_source = source;
  return options;
}

}  // namespace

std::string QueryOutcome::Timings::ToString() const {
  std::string out = "parse=" + FormatSeconds(parse_seconds);
  out += " plan=" + FormatSeconds(plan_seconds);
  out += " optimize=" + FormatSeconds(optimize_seconds);
  out += " gate=" + FormatSeconds(gate_seconds);
  out += " check=" + FormatSeconds(check_seconds);
  out += " execute=" + FormatSeconds(execute_seconds);
  out += " record=" + FormatSeconds(record_seconds);
  out += " total=" + FormatSeconds(total_seconds);
  return out;
}

std::string QueryOutcome::ToString() const {
  // One renderer for every surface: convert to the wire value type and
  // use its text form (rows are omitted here — callers that used the old
  // format never received rows through ToString()).
  QueryRequest request;
  request.row_limit = 0;
  request.explain = ExplainVerbosity::kFull;
  return QueryResponse::FromOutcome(*this, request).ToText();
}

EmptyResultManager::Instruments EmptyResultManager::ResolveInstruments(
    MetricsRegistry& r) {
  Instruments m;
  m.stage_parse = r.GetHistogram("erq.manager.stage.parse");
  m.stage_plan = r.GetHistogram("erq.manager.stage.plan");
  m.stage_optimize = r.GetHistogram("erq.manager.stage.optimize");
  m.stage_gate = r.GetHistogram("erq.manager.stage.gate");
  m.stage_check = r.GetHistogram("erq.manager.stage.check");
  m.stage_execute = r.GetHistogram("erq.manager.stage.execute");
  m.stage_record = r.GetHistogram("erq.manager.stage.record");
  m.query_total = r.GetHistogram("erq.manager.query_total");
  m.queries = r.GetCounter("erq.manager.queries");
  m.low_cost = r.GetCounter("erq.manager.low_cost");
  m.checks = r.GetCounter("erq.manager.checks");
  m.detected_empty = r.GetCounter("erq.manager.detected_empty");
  m.executed = r.GetCounter("erq.manager.executed");
  m.empty_results = r.GetCounter("erq.manager.empty_results");
  m.recorded = r.GetCounter("erq.manager.recorded");
  m.branches_pruned = r.GetCounter("erq.manager.branches_pruned");
  m.reused_subtrees = r.GetCounter("erq.manager.reused_subtrees");
  m.intermediates_harvested =
      r.GetCounter("erq.manager.intermediates_harvested");
  return m;
}

ManagerStats EmptyResultManager::stats_snapshot() const {
  ManagerStats out;
  out.queries = metrics_.queries->Value();
  out.low_cost = metrics_.low_cost->Value();
  out.checks = metrics_.checks->Value();
  out.detected_empty = metrics_.detected_empty->Value();
  out.executed = metrics_.executed->Value();
  out.empty_results = metrics_.empty_results->Value();
  out.recorded = metrics_.recorded->Value();
  out.branches_pruned = metrics_.branches_pruned->Value();
  out.reused_subtrees = metrics_.reused_subtrees->Value();
  out.intermediates_harvested = metrics_.intermediates_harvested->Value();
  return out;
}

EmptyResultManager::EmptyResultManager(Catalog* catalog, StatsCatalog* stats,
                                       EmptyResultConfig config,
                                       OptimizerOptions optimizer_options)
    : catalog_(catalog),
      stats_catalog_(stats),
      config_(config),
      init_status_(config.Validate()),
      planner_(catalog),
      reuse_store_(config.reuse.enabled
                       ? std::make_unique<ReuseStore>(config.reuse)
                       : nullptr),
      optimizer_(catalog, stats,
                 WithReuseSource(optimizer_options, reuse_store_.get())),
      detector_(config),
      metrics_(ResolveInstruments(scope_)) {
  if (!init_status_.ok()) return;  // unusable: don't hook catalog events
  if (config_.persist.enabled()) {
    // Recover the previous process's C_aqp before any query runs; a
    // recovery failure makes the manager unusable rather than silently
    // running without durability.
    StatusOr<std::unique_ptr<Persistence>> p =
        Persistence::Open(config_.persist);
    if (!p.ok()) {
      init_status_ = p.status();
      return;
    }
    persistence_ = std::move(*p);
    init_status_ = persistence_->AttachCaqp(&detector_.cache());
    if (!init_status_.ok()) return;
  }
  catalog_->AddEventListener([this](const TableUpdateEvent& event) {
    if (stats_catalog_ != nullptr) stats_catalog_->Invalidate(event.table_name);
    switch (event.kind) {
      case TableUpdateEvent::Kind::kInsert: {
        auto table = catalog_->GetTable(event.table_name);
        if (table.ok() && event.inserted_rows != nullptr) {
          detector_.OnRelationInserted(event.table_name, (*table)->schema(),
                                       *event.inserted_rows);
          if (reuse_store_ != nullptr) {
            reuse_store_->OnRelationInserted(
                event.table_name, (*table)->schema(), *event.inserted_rows);
          }
        } else {
          detector_.OnRelationUpdated(event.table_name);
          if (reuse_store_ != nullptr) {
            reuse_store_->OnRelationUpdated(event.table_name);
          }
        }
        break;
      }
      case TableUpdateEvent::Kind::kDelete:
        detector_.OnRelationDeleted(event.table_name);
        // Unlike C_aqp (where deletions invalidate nothing), a deletion
        // can shrink a cached non-empty intermediate; the store drops
        // those and keeps the zero-row facts.
        if (reuse_store_ != nullptr) {
          reuse_store_->OnRelationDeleted(event.table_name);
        }
        break;
      case TableUpdateEvent::Kind::kDropTable:
      case TableUpdateEvent::Kind::kGeneric:
        detector_.OnRelationUpdated(event.table_name);
        if (reuse_store_ != nullptr) {
          reuse_store_->OnRelationUpdated(event.table_name);
        }
        break;
    }
  });
}

StatusOr<QueryOutcome> EmptyResultManager::Query(const std::string& sql) {
  return Execute(QueryRequest::Sql(sql));
}

StatusOr<QueryOutcome> EmptyResultManager::Execute(
    const QueryRequest& request) {
  ERQ_RETURN_IF_ERROR(init_status_);
  if (!request.batch.empty()) {
    return Status::InvalidArgument(
        "QueryRequest with a batch must go through ExecuteBatch");
  }
  if (request.statement != nullptr && !request.sql.empty()) {
    return Status::InvalidArgument(
        "QueryRequest must set exactly one of sql / statement / batch");
  }
  if (request.statement != nullptr) {
    return ExecuteStatement(*request.statement);
  }
  // The sql form; an empty string falls through to the parser so the
  // caller sees the same ParseError the pre-request API produced.
  double parse_seconds = 0.0;
  std::unique_ptr<Statement> stmt;
  {
    ScopedSpan span(metrics_.stage_parse, &parse_seconds);
    ERQ_ASSIGN_OR_RETURN(stmt, Parser::Parse(request.sql));
  }
  ERQ_ASSIGN_OR_RETURN(QueryOutcome outcome, ExecuteStatement(*stmt));
  outcome.timings.parse_seconds = parse_seconds;
  outcome.timings.total_seconds += parse_seconds;
  return outcome;
}

std::vector<StatusOr<QueryOutcome>> EmptyResultManager::ExecuteBatch(
    const QueryRequest& request) {
  std::vector<StatusOr<QueryOutcome>> out;
  if (request.statement != nullptr || !request.sql.empty()) {
    out.emplace_back(Status::InvalidArgument(
        "ExecuteBatch takes a batch request; use Execute for sql/statement"));
    return out;
  }
  out.reserve(request.batch.size());
  for (const std::string& sql : request.batch) {
    out.push_back(Execute(QueryRequest::Sql(sql)));
  }
  return out;
}

StatusOr<PhysOpPtr> EmptyResultManager::Prepare(const std::string& sql) {
  ERQ_RETURN_IF_ERROR(init_status_);
  ERQ_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt, Parser::Parse(sql));
  ERQ_ASSIGN_OR_RETURN(PlannedQuery planned, planner_.PlanStatement(*stmt));
  return optimizer_.Optimize(planned.root);
}

StatusOr<QueryOutcome> EmptyResultManager::ExecuteStatement(
    const Statement& stmt) {
  Timer total_timer;
  metrics_.queries->Increment();
  QueryOutcome outcome;
  PlannedQuery planned;
  PhysOpPtr physical;
  {
    ScopedSpan span(metrics_.stage_plan, &outcome.timings.plan_seconds);
    ERQ_ASSIGN_OR_RETURN(planned, planner_.PlanStatement(stmt));
  }
  {
    ScopedSpan span(metrics_.stage_optimize,
                    &outcome.timings.optimize_seconds);
    ERQ_ASSIGN_OR_RETURN(physical, optimizer_.Optimize(planned.root));
  }
  outcome.estimated_cost = physical->estimated_cost;
  {
    ScopedSpan span(metrics_.stage_gate, &outcome.timings.gate_seconds);
    outcome.high_cost = outcome.estimated_cost > EffectiveCostThreshold();
  }
  if (!outcome.high_cost) metrics_.low_cost->Increment();

  // §2.2: only high-cost queries are worth checking against C_aqp.
  if (config_.detection_enabled && outcome.high_cost) {
    CheckResult check;
    {
      ScopedSpan span(metrics_.stage_check, &outcome.timings.check_seconds);
      check = detector_.CheckEmpty(planned.root);
    }
    metrics_.checks->Increment();
    if (check.provably_empty) {
      outcome.detected_empty = true;
      outcome.result_empty = true;
      outcome.result.layout = physical->layout;
      outcome.plan = physical;
      EmptyResultExplanation explanation;
      explanation.annotated_plan = physical->ToString();
      char cause[128];
      std::snprintf(cause, sizeof(cause),
                    "proven empty from C_aqp without execution (%zu atomic "
                    "query part(s) checked)",
                    check.parts_checked);
      explanation.minimal_causes.push_back(cause);
      outcome.explanation = std::move(explanation);
      metrics_.detected_empty->Increment();
      {
        MutexLock lock(&mu_);
        cost_gate_.ObserveDetected(outcome.estimated_cost,
                                   outcome.timings.check_seconds);
      }
      outcome.timings.total_seconds = total_timer.Seconds();
      metrics_.query_total->Observe(outcome.timings.total_seconds);
      return outcome;
    }

    // §2.5 partial detection: branches of set operations that are provably
    // empty need not be evaluated.
    LogicalOpPtr pruned;
    {
      ScopedSpan span(metrics_.stage_check, &outcome.timings.check_seconds);
      pruned = detector_.PrunePlan(planned.root, &outcome.branches_pruned);
    }
    if (outcome.branches_pruned > 0) {
      metrics_.branches_pruned->Increment(outcome.branches_pruned);
      ScopedSpan span(metrics_.stage_optimize,
                      &outcome.timings.optimize_seconds);
      ERQ_ASSIGN_OR_RETURN(physical, optimizer_.Optimize(pruned));
    }
  }

  std::vector<HarvestedIntermediate> harvested;
  {
    ScopedSpan span(metrics_.stage_execute, &outcome.timings.execute_seconds);
    ExecOptions exec_options;
    exec_options.prune_partitions = config_.partition_pruning;
    // Harvest only for high-cost queries: the gate already decided this
    // query was worth checking, so its intermediates are the ones later
    // high-cost queries are likely to repeat (§2.2's economics applied to
    // sub-plans).
    if (reuse_store_ != nullptr && outcome.high_cost) {
      exec_options.harvest = &harvested;
      exec_options.harvest_max_rows = config_.reuse.max_rows;
    }
    ERQ_ASSIGN_OR_RETURN(outcome.result, Executor::Run(physical, exec_options));
  }
  outcome.partitions_scanned =
      SumPartitionField(physical, &PhysicalOperator::partitions_scanned);
  outcome.partitions_pruned =
      SumPartitionField(physical, &PhysicalOperator::partitions_pruned);
  CollectReuseServed(physical, &outcome.reused_subtrees,
                     &outcome.reuse_rows_served);
  outcome.executed = true;
  outcome.result_rows = outcome.result.rows.size();
  outcome.result_empty = outcome.result.rows.empty();
  // Operation O1: the plan, with per-operator output cardinalities, is
  // surfaced to the user to explain the (possibly empty) result.
  outcome.plan = physical;
  metrics_.executed->Increment();
  if (outcome.result_empty) metrics_.empty_results->Increment();

  {
    MutexLock lock(&mu_);
    cost_gate_.ObserveExecuted(outcome.estimated_cost,
                               outcome.timings.check_seconds,
                               outcome.timings.execute_seconds,
                               outcome.result_empty);
  }

  if (outcome.result_empty) {
    auto explanation = ExplainEmptyResult(physical);
    if (explanation.ok()) outcome.explanation = *std::move(explanation);
  }

  if (outcome.result_empty && config_.detection_enabled &&
      outcome.high_cost) {
    {
      ScopedSpan span(metrics_.stage_record, &outcome.timings.record_seconds);
      outcome.aqps_recorded = detector_.RecordEmpty(physical);
    }
    if (outcome.aqps_recorded > 0) metrics_.recorded->Increment();
  }

  if (reuse_store_ != nullptr && !harvested.empty()) {
    ScopedSpan span(metrics_.stage_record, &outcome.timings.record_seconds);
    outcome.intermediates_harvested = HarvestIntermediates(harvested);
  }
  if (outcome.reused_subtrees > 0) {
    metrics_.reused_subtrees->Increment(outcome.reused_subtrees);
  }
  if (outcome.intermediates_harvested > 0) {
    metrics_.intermediates_harvested->Increment(
        outcome.intermediates_harvested);
  }
  outcome.timings.total_seconds = total_timer.Seconds();
  metrics_.query_total->Observe(outcome.timings.total_seconds);
  return outcome;
}

size_t EmptyResultManager::HarvestIntermediates(
    const std::vector<HarvestedIntermediate>& harvested) {
  size_t admitted = 0;
  for (const HarvestedIntermediate& h : harvested) {
    if (h.node == nullptr || h.rows == nullptr) continue;
    StatusOr<std::vector<AtomicQueryPart>> parts =
        DecomposePhysicalPart(h.node, config_.dnf);
    // Only a single-part decomposition is storable: a multi-term DNF
    // describes per-term row sets, but the harvested rows are the full
    // sigma over the disjunction. (Filter-over-TableScan always yields
    // exactly one relation; the store re-checks that invariant.)
    if (!parts.ok() || parts->size() != 1) continue;
    const AtomicQueryPart& part = (*parts)[0];
    if (reuse_store_->Admit(part, h.rows, h.node->estimated_cost)) {
      ++admitted;
      // Unification with C_aqp: a zero-row intermediate is exactly an
      // emptiness fact, so plain detection benefits from it too — even
      // though the whole query may have returned rows.
      if (h.rows->empty()) detector_.cache().Insert(part);
    }
  }
  return admitted;
}

double EmptyResultManager::EffectiveCostThreshold() const {
  if (!config_.auto_tune_c_cost) return config_.c_cost;
  MutexLock lock(&mu_);
  return cost_gate_.Suggest(config_.c_cost);
}

void EmptyResultManager::OnTableUpdated(const std::string& table_name) {
  detector_.OnRelationUpdated(table_name);
  if (stats_catalog_ != nullptr) stats_catalog_->Invalidate(table_name);
}

}  // namespace erq
