#include "core/query_api.h"

#include <cstdio>

#include "common/json.h"
#include "types/date.h"

namespace erq {

namespace {

/// JSON rendering of one scalar value: NULL -> null, numbers -> numbers,
/// strings -> quoted raw text (no SQL quotes), dates -> "YYYY-MM-DD".
std::string ValueToJson(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return "null";
    case DataType::kInt64:
      return std::to_string(v.AsInt());
    case DataType::kDouble:
      return JsonNumber(v.AsDouble());
    case DataType::kString:
      return JsonQuote(v.AsString());
    case DataType::kDate:
      return JsonQuote(DateToString(v.AsDate()));
  }
  return "null";
}

}  // namespace

QueryRequest QueryRequest::Sql(std::string sql) {
  QueryRequest out;
  out.sql = std::move(sql);
  return out;
}

QueryRequest QueryRequest::Parsed(const Statement* statement) {
  QueryRequest out;
  out.statement = statement;
  return out;
}

QueryRequest QueryRequest::Batch(std::vector<std::string> sqls) {
  QueryRequest out;
  out.batch = std::move(sqls);
  return out;
}

Status QueryRequest::Validate() const {
  const int forms = (sql.empty() ? 0 : 1) + (statement != nullptr ? 1 : 0) +
                    (batch.empty() ? 0 : 1);
  if (forms == 0) {
    return Status::InvalidArgument(
        "QueryRequest needs exactly one input form: sql, statement, or "
        "batch (all three are empty)");
  }
  if (forms > 1) {
    return Status::InvalidArgument(
        "QueryRequest must set exactly one of sql / statement / batch");
  }
  switch (explain) {
    case ExplainVerbosity::kNone:
    case ExplainVerbosity::kSummary:
    case ExplainVerbosity::kFull:
      break;
    default:
      return Status::InvalidArgument(
          "QueryRequest.explain is not a known ExplainVerbosity");
  }
  return Status::OK();
}

QueryResponse QueryResponse::FromOutcome(const QueryOutcome& outcome,
                                         const QueryRequest& request) {
  QueryResponse out;
  out.detected_empty = outcome.detected_empty;
  out.executed = outcome.executed;
  out.result_empty = outcome.result_empty;
  out.high_cost = outcome.high_cost;
  out.result_rows = outcome.result_rows;
  out.aqps_recorded = outcome.aqps_recorded;
  out.branches_pruned = outcome.branches_pruned;
  out.partitions_scanned = outcome.partitions_scanned;
  out.partitions_pruned = outcome.partitions_pruned;
  out.reused_subtrees = outcome.reused_subtrees;
  out.reuse_rows_served = outcome.reuse_rows_served;
  out.intermediates_harvested = outcome.intermediates_harvested;
  out.estimated_cost = outcome.estimated_cost;
  out.timings = outcome.timings;
  for (const BoundColumn& c : outcome.result.layout.columns()) {
    out.columns.push_back(c.column);
  }
  const size_t keep =
      outcome.result.rows.size() < request.row_limit ? outcome.result.rows.size()
                                                     : request.row_limit;
  out.rows.assign(outcome.result.rows.begin(),
                  outcome.result.rows.begin() +
                      static_cast<std::ptrdiff_t>(keep));
  out.rows_truncated = keep < outcome.result.rows.size();
  if (request.explain == ExplainVerbosity::kFull && outcome.plan != nullptr) {
    out.plan_text = outcome.plan->ToString();
  }
  if (request.explain != ExplainVerbosity::kNone &&
      outcome.explanation.has_value()) {
    out.empty_causes = outcome.explanation->minimal_causes;
  }
  return out;
}

QueryResponse QueryResponse::FromStatus(const Status& status) {
  QueryResponse out;
  out.status = status;
  return out;
}

QueryResponse QueryResponse::FromResult(const StatusOr<QueryOutcome>& result,
                                        const QueryRequest& request) {
  if (!result.ok()) return FromStatus(result.status());
  return FromOutcome(*result, request);
}

std::string QueryResponse::ToJson() const {
  std::string out = "{\"schema\":";
  out += JsonQuote(kSchema);
  out += ",\"status\":{\"code\":";
  out += JsonQuote(StatusCodeToString(status.code()));
  out += ",\"message\":";
  out += JsonQuote(status.message());
  out += "}";
  if (!status.ok()) {
    out += "}";
    return out;
  }
  out += ",\"outcome\":{\"detected_empty\":";
  out += detected_empty ? "true" : "false";
  out += ",\"executed\":";
  out += executed ? "true" : "false";
  out += ",\"result_empty\":";
  out += result_empty ? "true" : "false";
  out += ",\"high_cost\":";
  out += high_cost ? "true" : "false";
  out += ",\"result_rows\":" + std::to_string(result_rows);
  out += ",\"returned_rows\":" + std::to_string(rows.size());
  out += ",\"rows_truncated\":";
  out += rows_truncated ? "true" : "false";
  out += ",\"aqps_recorded\":" + std::to_string(aqps_recorded);
  out += ",\"branches_pruned\":" + std::to_string(branches_pruned);
  out += ",\"partitions_scanned\":" + std::to_string(partitions_scanned);
  out += ",\"partitions_pruned\":" + std::to_string(partitions_pruned);
  out += ",\"reused_subtrees\":" + std::to_string(reused_subtrees);
  out += ",\"reuse_rows_served\":" + std::to_string(reuse_rows_served);
  out += ",\"intermediates_harvested\":" +
         std::to_string(intermediates_harvested);
  out += ",\"estimated_cost\":" + JsonNumber(estimated_cost);
  out += "},\"timings\":{";
  out += "\"parse_seconds\":" + JsonNumber(timings.parse_seconds);
  out += ",\"plan_seconds\":" + JsonNumber(timings.plan_seconds);
  out += ",\"optimize_seconds\":" + JsonNumber(timings.optimize_seconds);
  out += ",\"gate_seconds\":" + JsonNumber(timings.gate_seconds);
  out += ",\"check_seconds\":" + JsonNumber(timings.check_seconds);
  out += ",\"execute_seconds\":" + JsonNumber(timings.execute_seconds);
  out += ",\"record_seconds\":" + JsonNumber(timings.record_seconds);
  out += ",\"total_seconds\":" + JsonNumber(timings.total_seconds);
  out += "},\"columns\":[";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonQuote(columns[i]);
  }
  out += "],\"rows\":[";
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) out += ',';
    out += '[';
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += ',';
      out += ValueToJson(rows[r][c]);
    }
    out += ']';
  }
  out += ']';
  if (!plan_text.empty()) {
    out += ",\"plan\":" + JsonQuote(plan_text);
  }
  if (!empty_causes.empty()) {
    out += ",\"empty_causes\":[";
    for (size_t i = 0; i < empty_causes.size(); ++i) {
      if (i > 0) out += ',';
      out += JsonQuote(empty_causes[i]);
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::string QueryResponse::ToText() const {
  if (!status.ok()) {
    return "error: " + status.ToString();
  }
  char buf[160];
  std::string out;
  if (detected_empty) {
    std::snprintf(buf, sizeof(buf),
                  "detected empty via C_aqp (estimated cost %.1f, execution "
                  "skipped)",
                  estimated_cost);
  } else if (executed) {
    std::snprintf(buf, sizeof(buf),
                  "executed: %zu row%s (estimated cost %.1f%s)", result_rows,
                  result_rows == 1 ? "" : "s", estimated_cost,
                  high_cost ? ", high-cost" : "");
  } else {
    std::snprintf(buf, sizeof(buf), "not executed (estimated cost %.1f)",
                  estimated_cost);
  }
  out += buf;
  if (branches_pruned > 0) {
    std::snprintf(buf, sizeof(buf), "; %zu set-op branch(es) pruned",
                  branches_pruned);
    out += buf;
  }
  if (aqps_recorded > 0) {
    std::snprintf(buf, sizeof(buf), "; %zu atomic query part(s) recorded",
                  aqps_recorded);
    out += buf;
  }
  if (partitions_pruned > 0) {
    std::snprintf(buf, sizeof(buf),
                  "; partitions scanned=%zu pruned=%zu", partitions_scanned,
                  partitions_pruned);
    out += buf;
  }
  if (reused_subtrees > 0) {
    std::snprintf(buf, sizeof(buf),
                  "; %zu subtree(s) reused (%zu cached row(s) served)",
                  reused_subtrees, reuse_rows_served);
    out += buf;
  }
  if (intermediates_harvested > 0) {
    std::snprintf(buf, sizeof(buf), "; %zu intermediate(s) harvested",
                  intermediates_harvested);
    out += buf;
  }
  if (!rows.empty() && !columns.empty()) {
    out += '\n';
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) out += " | ";
      out += columns[c];
    }
    for (const Row& row : rows) {
      out += '\n';
      for (size_t c = 0; c < row.size(); ++c) {
        if (c > 0) out += " | ";
        out += row[c].ToString();
      }
    }
    if (rows_truncated) {
      std::snprintf(buf, sizeof(buf), "\n... (%zu rows total)", result_rows);
      out += buf;
    }
  }
  out += "\ntimings: " + timings.ToString();
  if (!plan_text.empty()) {
    out += "\n" + plan_text;
  }
  for (const std::string& cause : empty_causes) {
    out += "\nminimal cause: " + cause;
  }
  return out;
}

}  // namespace erq
