#pragma once

/// \file
/// EmptyResultManager — the end-to-end §2.2 workflow in one object.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/lock_order.h"
#include "common/metrics.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "core/cost_gate.h"
#include "core/detector.h"
#include "core/explain.h"
#include "exec/executor.h"
#include "persist/persistence.h"
#include "plan/optimizer.h"
#include "plan/planner.h"
#include "reuse/reuse_store.h"
#include "sql/parser.h"
#include "stats/analyzer.h"

namespace erq {

/// Result of submitting one query through the managed workflow.
///
/// Structured API: stage timings live in `timings` (one field per pipeline
/// span, mirroring the `erq.manager.stage.*` histograms), the executed or
/// detected plan is exposed as the plan object itself (`plan`), and empty
/// results carry a structured `explanation` (Operation O1). ToString()
/// renders the whole outcome as text for callers that used to consume
/// `plan_text` + loose seconds fields.
struct QueryOutcome {
  /// Per-stage wall-clock seconds for this query. Field names match the
  /// span hierarchy in DESIGN.md §"Observability": total covers the whole
  /// Query()/Execute() call; the stage fields are disjoint
  /// sub-intervals of it.
  struct Timings {
    double parse_seconds = 0.0;     ///< SQL text -> Statement (Query() only)
    double plan_seconds = 0.0;      ///< Statement -> logical plan
    double optimize_seconds = 0.0;  ///< logical -> physical (incl. re-opt
                                    ///< after §2.5 pruning)
    double gate_seconds = 0.0;      ///< C_cost threshold evaluation
    double check_seconds = 0.0;     ///< decompose + C_aqp search + pruning
    double execute_seconds = 0.0;   ///< plan execution
    double record_seconds = 0.0;    ///< Operation O2 harvest + store
    double total_seconds = 0.0;     ///< whole call, wall clock

    /// Sum of the stage fields; <= total_seconds up to inter-stage glue.
    double AccountedSeconds() const {
      return parse_seconds + plan_seconds + optimize_seconds + gate_seconds +
             check_seconds + execute_seconds + record_seconds;
    }

    /// One-line rendering of the stage timings.
    std::string ToString() const;
  };

  bool detected_empty = false;  ///< skipped execution via C_aqp
  bool executed = false;        ///< the plan actually ran
  bool result_empty = false;    ///< final result set was empty
  size_t result_rows = 0;       ///< rows returned (0 when skipped)
  size_t aqps_recorded = 0;     ///< atomic query parts stored after execution
  size_t branches_pruned = 0;   ///< §2.5 partial detection: set-op branches
                                ///< proven empty and removed before execution
  size_t partitions_scanned = 0;  ///< partitions actually read by table scans
  size_t partitions_pruned = 0;   ///< partitions skipped via zone maps
  size_t reused_subtrees = 0;    ///< plan subtrees replaced by spliced
                                 ///< reuse-store entries (CachedResultScan)
  size_t reuse_rows_served = 0;  ///< rows those spliced scans emitted
  size_t intermediates_harvested = 0;  ///< operator outputs admitted into
                                       ///< the reuse store after execution
  double estimated_cost = 0.0;  ///< optimizer cost estimate for the plan
  bool high_cost = false;       ///< estimated_cost > C_cost

  ExecutionResult result;  ///< rows (empty when detected_empty)

  /// The physical plan (post-pruning when §2.5 fired). After execution its
  /// nodes carry actual output cardinalities; after a detection hit they
  /// keep the optimizer estimates. Callers that rendered the old
  /// `plan_text` field call plan->ToString().
  PhysOpPtr plan;

  Timings timings;  ///< per-stage wall-clock breakdown of this call

  /// Operation O1, structured: present exactly when the result is empty.
  /// For executed-empty results this is ExplainEmptyResult's annotated
  /// plan + minimal causes; for detection hits the causes say the query
  /// was proven empty from C_aqp without execution.
  std::optional<EmptyResultExplanation> explanation;

  /// Backward-compatible text rendering (status line, timings, plan,
  /// explanation). Delegates to the one shared renderer,
  /// QueryResponse::ToText() (core/query_api.h), so there is a single
  /// text format across the shell, the examples, and the server.
  std::string ToString() const;
};

/// Forward declaration — the value-type request consumed by
/// Execute()/ExecuteBatch(); defined in core/query_api.h.
struct QueryRequest;

/// Aggregate counters across a query stream: a value-type read view of
/// the manager's metrics scope (`erq.manager.*`).
struct ManagerStats {
  uint64_t queries = 0;         ///< statements run (batch: one each)
  uint64_t low_cost = 0;        ///< queries below the C_cost gate
  uint64_t checks = 0;          ///< queries that paid a C_aqp check
  uint64_t detected_empty = 0;  ///< detection hits (execution skipped)
  uint64_t executed = 0;        ///< plans actually executed
  uint64_t empty_results = 0;   ///< executed and came back empty
  uint64_t recorded = 0;        ///< executions harvested into C_aqp
  uint64_t branches_pruned = 0;  ///< §2.5 set-op branches removed
  uint64_t reused_subtrees = 0;  ///< plan subtrees served from the reuse store
  uint64_t intermediates_harvested = 0;  ///< operator outputs admitted into
                                         ///< the reuse store
};

/// EmptyResultManager glues the whole pipeline together — the role the
/// paper's prototype plays inside PostgreSQL (§2.2):
///   parse -> plan -> optimize -> [cost(Q) > C_cost ? check C_aqp] ->
///   execute if not provably empty -> on empty result, harvest into C_aqp.
/// Registers itself as a catalog update listener so base-table updates
/// invalidate stored parts (read-mostly batch-update model).
///
/// Every stage records its latency into the manager's metrics scope, which
/// forwards to the process-wide MetricsRegistry (`erq.manager.stage.*`
/// histograms; see DESIGN.md §"Observability"), and into the returned
/// QueryOutcome::Timings.
///
/// The config is validated in the ctor (EmptyResultConfig::Validate());
/// on a mis-configured manager every entry point returns that error.
///
/// Thread safety: the adaptive cost gate is guarded by `mu_`, the
/// counters are lock-free instruments of the manager's metrics scope, and
/// the C_aqp collection inside the detector is internally synchronized,
/// so concurrent sessions may issue Query()/Execute() calls on one
/// manager. Accessors ending in `_snapshot()` return value-type copies —
/// never live references. The planner, optimizer,
/// and catalog are thread-compatible (read-only here); concurrent catalog
/// *mutations* must be synchronized by the caller.
class EmptyResultManager {
 public:
  /// Builds the pipeline over `catalog` + `stats` (both borrowed; must
  /// outlive the manager). When `config.persist` is enabled the ctor also
  /// recovers the previous process's C_aqp — see init_status().
  EmptyResultManager(Catalog* catalog, StatsCatalog* stats,
                     EmptyResultConfig config = {},
                     OptimizerOptions optimizer_options = {});

  /// Construction-time health: EmptyResultConfig::Validate() combined
  /// with persistence recovery (when config.persist is enabled). On a
  /// non-OK status every entry point returns this error.
  const Status& init_status() const { return init_status_; }

  /// Primary entry point: full workflow for one single-statement
  /// QueryRequest (`sql` or `statement` form; batch requests belong to
  /// ExecuteBatch). The request's wire-presentation fields (row_limit,
  /// explain, tenant) do not affect the engine — they are consumed when
  /// the outcome is turned into a QueryResponse.
  ERQ_NODISCARD StatusOr<QueryOutcome> Execute(const QueryRequest& request);

  /// Primary entry point for a batch request: runs each statement of
  /// `request.batch` through Execute, in order, and returns one StatusOr
  /// per statement (an error in one statement does not fail the rest).
  /// The results are exactly those of submitting the statements one by
  /// one, so a later item is checked against everything an earlier item
  /// recorded. An empty `request.batch` yields an empty vector.
  std::vector<StatusOr<QueryOutcome>> ExecuteBatch(
      const QueryRequest& request);

  /// Full workflow for a SQL string. Thin wrapper over Execute().
  ERQ_NODISCARD StatusOr<QueryOutcome> Query(const std::string& sql);

  /// Plans and optimizes without the detection workflow (for tools/tests).
  ERQ_NODISCARD StatusOr<PhysOpPtr> Prepare(const std::string& sql);

  /// The detection engine (and, through it, the C_aqp collection).
  EmptyResultDetector& detector() { return detector_; }

  /// The intermediate-result reuse store, or nullptr when
  /// config.reuse.enabled is false (DESIGN.md §13). Internally
  /// synchronized; exposed for inspection tools and tests.
  ReuseStore* reuse_store() { return reuse_store_.get(); }
  /// Read-only view of the reuse store (nullptr when disabled).
  const ReuseStore* reuse_store() const { return reuse_store_.get(); }

  /// Value-type snapshot of the aggregate counters (relaxed reads: each
  /// counter individually accurate).
  ManagerStats stats_snapshot() const;

  /// Value-type snapshot of the past-statistics model behind the C_cost
  /// gate; consult .Suggest() or enable config.auto_tune_c_cost.
  CostGateSnapshot cost_gate_snapshot() const {
    MutexLock lock(&mu_);
    return cost_gate_.Snapshot();
  }

  /// The threshold currently in force (config.c_cost, or the adaptive
  /// suggestion when auto-tuning is enabled and warmed up).
  double EffectiveCostThreshold() const ERQ_EXCLUDES(mu_);
  /// Zeroes this manager's counters and stage histograms (the global
  /// aggregate keeps them; the cost-gate model keeps learning).
  void ResetStats() { scope_.Reset(); }

  /// Invalidation hook (also wired to catalog update notifications).
  void OnTableUpdated(const std::string& table_name);

  /// The durability engine, or nullptr when config.persist is disabled.
  /// Exposed for flush-on-demand and inspection (persistence()->status()
  /// reports sticky IO errors; the manager keeps serving from memory).
  Persistence* persistence() { return persistence_.get(); }

 private:
  /// The `erq.manager.*` instruments of `scope_`, resolved once at
  /// construction (see metrics.h).
  struct Instruments {
    Histogram* stage_parse;
    Histogram* stage_plan;
    Histogram* stage_optimize;
    Histogram* stage_gate;
    Histogram* stage_check;
    Histogram* stage_execute;
    Histogram* stage_record;
    Histogram* query_total;
    Counter* queries;
    Counter* low_cost;
    Counter* checks;
    Counter* detected_empty;
    Counter* executed;
    Counter* empty_results;
    Counter* recorded;
    Counter* branches_pruned;
    Counter* reused_subtrees;
    Counter* intermediates_harvested;
  };
  static Instruments ResolveInstruments(MetricsRegistry& scope);

  /// Full workflow for one already-parsed statement (the pipeline behind
  /// Execute's sql and statement forms): plan -> optimize -> cost gate ->
  /// check -> prune -> execute -> explain -> harvest.
  StatusOr<QueryOutcome> ExecuteStatement(const Statement& stmt);

  /// Offers each executed-run intermediate to the reuse store: decompose
  /// the Filter-over-TableScan subtree into the atomic-part normal form,
  /// admit single-part single-relation shapes, and mirror zero-row
  /// admissions into C_aqp (a zero-row intermediate IS an emptiness
  /// fact). Returns the number admitted.
  size_t HarvestIntermediates(
      const std::vector<HarvestedIntermediate>& harvested);

  Catalog* catalog_;
  StatsCatalog* stats_catalog_;
  const EmptyResultConfig config_;
  Status init_status_;
  Planner planner_;
  /// Declared before optimizer_: the optimizer's options capture the
  /// store as its ReuseSpliceSource at construction. Null when
  /// config.reuse.enabled is false.
  std::unique_ptr<ReuseStore> reuse_store_;
  Optimizer optimizer_;
  EmptyResultDetector detector_;
  /// This manager's statistics: a scope of MetricsRegistry::Global(), so
  /// each event is counted once here and forwarded to the process-wide
  /// aggregate.
  MetricsRegistry scope_{&MetricsRegistry::Global()};
  const Instruments metrics_;
  /// Declared after detector_ so it is destroyed first: the destructor
  /// detaches from the still-alive cache and flushes the journal.
  std::unique_ptr<Persistence> persistence_;

  // Top of the lock hierarchy: held only around the cost gate, never
  // across calls into the detector, caches, or persistence.
  mutable Mutex mu_ ERQ_ACQUIRED_AFTER(lock_order::kManager)
      ERQ_ACQUIRED_BEFORE(lock_order::kCaqpCache){lock_order::kManager};
  AdaptiveCostGate cost_gate_ ERQ_GUARDED_BY(mu_);
};

}  // namespace erq
