#pragma once

/// \file
/// The public request/response surface of the detection pipeline:
/// value-type QueryRequest in, value-type QueryResponse out.
///
/// QueryOutcome (core/manager.h) is the *engine's* result — it carries
/// live objects (the physical plan, the full materialized row set) that
/// cannot cross a process boundary. QueryRequest/QueryResponse are the
/// *wire* surface: plain values with a versioned JSON rendering
/// (`erq.response.v1`) and one shared text renderer, used by erq_server,
/// erq_shell, and the examples. EmptyResultManager::Execute accepts a
/// QueryRequest directly; Query(sql) is a thin wrapper over Execute.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/manager.h"

namespace erq {

/// How much explanatory detail a QueryResponse should carry.
enum class ExplainVerbosity {
  kNone,     ///< outcome flags, timings, and rows only
  kSummary,  ///< + minimal empty-result causes (Operation O1 summary)
  kFull,     ///< + the annotated physical plan text
};

/// One query submission, as a plain value: one SQL statement plus the
/// fields that shape its wire response. A batch of statements is a loop
/// of requests, one per statement (the HTTP handler's `"batch"` body).
struct QueryRequest {
  /// Default row_limit: enough for interactive use, small enough that a
  /// wire response stays bounded no matter what the query returns.
  static constexpr size_t kDefaultRowLimit = 100;

  /// The SQL statement text.
  std::string sql;
  /// Tenant namespace the server routes this request to ("" = the default
  /// tenant). The in-process manager ignores it — isolation happens one
  /// level up, in TenantRegistry.
  std::string tenant;
  /// Maximum rows carried by the response (0 = metadata only). The engine
  /// still materializes the full result; the limit bounds the wire copy.
  size_t row_limit = kDefaultRowLimit;
  /// Explanation detail carried by the response.
  ExplainVerbosity explain = ExplainVerbosity::kSummary;

  /// Builds a request from SQL text.
  static QueryRequest Sql(std::string sql);
};

/// The wire-friendly result of one query: QueryOutcome's scalar fields,
/// a bounded copy of the result rows, and the explanation rendered to
/// strings. `status` carries per-query errors — a batch response is a
/// vector of QueryResponse where each element's status stands alone, so
/// transport layers map every item to the same structured error object
/// regardless of whether it came from the single or the batch path.
struct QueryResponse {
  /// The versioned wire schema name emitted by ToJson().
  static constexpr const char* kSchema = "erq.response.v1";

  /// Per-query status. When not OK every other field is default-empty.
  Status status;

  bool detected_empty = false;   ///< answered from C_aqp, execution skipped
  bool executed = false;         ///< the physical plan actually ran
  bool result_empty = false;     ///< final result set was empty
  bool high_cost = false;        ///< estimated cost exceeded C_cost
  size_t result_rows = 0;        ///< total rows the query produced
  size_t aqps_recorded = 0;      ///< atomic parts harvested into C_aqp
  size_t branches_pruned = 0;    ///< §2.5 set-op branches removed
  size_t partitions_scanned = 0;  ///< partitions read by the plan's scans
  size_t partitions_pruned = 0;   ///< partitions skipped via zone maps
  size_t reused_subtrees = 0;    ///< plan subtrees served from the reuse store
  size_t reuse_rows_served = 0;  ///< rows emitted by those spliced scans
  size_t intermediates_harvested = 0;  ///< operator outputs admitted into
                                       ///< the reuse store after execution
  double estimated_cost = 0.0;   ///< optimizer cost estimate

  QueryOutcome::Timings timings;  ///< per-stage wall-clock breakdown

  std::vector<std::string> columns;  ///< output column names, in order
  /// Up to `row_limit` rows of the result (values by column position).
  std::vector<Row> rows;
  /// True when `rows` was truncated to the request's row_limit.
  bool rows_truncated = false;

  /// Annotated physical plan text (ExplainVerbosity::kFull only).
  std::string plan_text;
  /// Minimal empty-result causes (Operation O1; kSummary and up, present
  /// only when the result was empty).
  std::vector<std::string> empty_causes;

  /// Builds the response for a successful outcome, applying the request's
  /// row_limit and explain verbosity.
  static QueryResponse FromOutcome(const QueryOutcome& outcome,
                                   const QueryRequest& request);
  /// Builds an error response (all payload fields default).
  static QueryResponse FromStatus(const Status& status);
  /// Convenience: FromOutcome on success, FromStatus on error.
  static QueryResponse FromResult(const StatusOr<QueryOutcome>& result,
                                  const QueryRequest& request);

  /// The versioned `erq.response.v1` JSON document:
  ///   {"schema":"erq.response.v1",
  ///    "status":{"code":"OK","message":""},
  ///    "outcome":{"detected_empty":b,"executed":b,"result_empty":b,
  ///               "high_cost":b,"result_rows":n,"returned_rows":n,
  ///               "rows_truncated":b,"aqps_recorded":n,
  ///               "branches_pruned":n,"estimated_cost":x},
  ///    "timings":{"parse_seconds":x,...,"total_seconds":x},
  ///    "columns":[...], "rows":[[...],...],
  ///    "plan":"...",            // kFull only
  ///    "empty_causes":[...]}    // empty result only, kSummary and up
  /// Error responses carry "schema" and "status" only. Dates render as
  /// "YYYY-MM-DD" strings, NULLs as JSON null.
  std::string ToJson() const;

  /// The one shared human-readable rendering (status line, rows, timings,
  /// plan, causes) — what erq_shell and the examples print, and what
  /// QueryOutcome::ToString() delegates to.
  std::string ToText() const;
};

}  // namespace erq
