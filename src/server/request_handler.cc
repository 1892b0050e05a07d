#include "server/request_handler.h"

#include <cmath>

#include "common/json.h"
#include "core/query_api.h"
#include "reuse/reuse_store.h"

namespace erq {

namespace {

/// Parses the optional "explain" body field.
StatusOr<ExplainVerbosity> ParseExplain(const std::string& text) {
  if (text == "none") return ExplainVerbosity::kNone;
  if (text == "summary") return ExplainVerbosity::kSummary;
  if (text == "full") return ExplainVerbosity::kFull;
  return Status::InvalidArgument(
      "explain must be one of \"none\", \"summary\", \"full\"; got \"" +
      text + "\"");
}

/// A decoded POST /v1/query body: exactly one of `request.sql` and `batch`
/// is non-empty. A batch runs as one request per statement, sharing the
/// body's tenant, row_limit and explain.
struct QueryBody {
  QueryRequest request;
  std::vector<std::string> batch;
};

/// Decodes a POST /v1/query body.
StatusOr<QueryBody> ParseQueryBody(const std::string& body) {
  ERQ_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(body));
  if (!doc.is_object()) {
    return Status::InvalidArgument("query body must be a JSON object");
  }
  QueryBody out;
  QueryRequest& request = out.request;
  if (const JsonValue* sql = doc.Find("sql"); sql != nullptr) {
    if (!sql->is_string()) {
      return Status::InvalidArgument("\"sql\" must be a string");
    }
    request.sql = sql->AsString();
  }
  if (const JsonValue* batch = doc.Find("batch"); batch != nullptr) {
    if (!batch->is_array()) {
      return Status::InvalidArgument("\"batch\" must be an array of strings");
    }
    for (const JsonValue& item : batch->Items()) {
      if (!item.is_string()) {
        return Status::InvalidArgument(
            "\"batch\" must be an array of strings");
      }
      out.batch.push_back(item.AsString());
    }
  }
  if (const JsonValue* tenant = doc.Find("tenant"); tenant != nullptr) {
    if (!tenant->is_string()) {
      return Status::InvalidArgument("\"tenant\" must be a string");
    }
    request.tenant = tenant->AsString();
  }
  if (const JsonValue* limit = doc.Find("row_limit"); limit != nullptr) {
    // Range-checked as a double before the cast: converting an
    // out-of-range double to an integer is undefined behaviour.
    constexpr double kMaxRowLimit = 9007199254740992.0;  // 2^53
    const double v = limit->is_number() ? limit->AsDouble() : -1.0;
    if (!(v >= 0.0 && v <= kMaxRowLimit) || v != std::floor(v)) {
      return Status::InvalidArgument(
          "\"row_limit\" must be a whole number in [0, 2^53]");
    }
    request.row_limit = static_cast<size_t>(v);
  }
  if (const JsonValue* explain = doc.Find("explain"); explain != nullptr) {
    if (!explain->is_string()) {
      return Status::InvalidArgument("\"explain\" must be a string");
    }
    ERQ_ASSIGN_OR_RETURN(request.explain, ParseExplain(explain->AsString()));
  }
  if (request.sql.empty() && out.batch.empty()) {
    return Status::InvalidArgument(
        "query body must carry \"sql\" or \"batch\"");
  }
  if (!request.sql.empty() && !out.batch.empty()) {
    return Status::InvalidArgument(
        "query body must carry \"sql\" or \"batch\", not both");
  }
  return out;
}

}  // namespace

ServerInstruments ServerInstruments::Resolve() {
  MetricsRegistry& r = MetricsRegistry::Global();
  ServerInstruments out;
  out.requests = r.GetCounter("erq.server.requests");
  out.errors = r.GetCounter("erq.server.errors");
  out.queries = r.GetCounter("erq.server.queries");
  out.batch_queries = r.GetCounter("erq.server.batch_queries");
  out.invalidations = r.GetCounter("erq.server.invalidations");
  out.connections_total = r.GetCounter("erq.server.connections_total");
  out.connections_rejected = r.GetCounter("erq.server.connections_rejected");
  out.connections = r.GetGauge("erq.server.connections");
  out.tenants = r.GetGauge("erq.server.tenants");
  out.request_seconds = r.GetHistogram("erq.server.request_seconds");
  return out;
}

HttpResponse RequestHandler::ErrorResponse(const Status& status) {
  HttpResponse response;
  response.status_code = HttpStatusFromStatus(status);
  response.body = QueryResponse::FromStatus(status).ToJson();
  return response;
}

HttpResponse RequestHandler::Handle(const HttpRequest& request) {
  metrics_.requests->Increment();
  ScopedSpan span(metrics_.request_seconds);

  HttpResponse response;
  if (request.path == "/v1/query") {
    if (request.method != "POST") {
      response = ErrorResponse(
          Status::InvalidArgument("/v1/query requires POST"));
      response.status_code = 405;
    } else {
      response = HandleQuery(request);
    }
  } else if (request.path == "/metrics") {
    if (request.method != "GET") {
      response =
          ErrorResponse(Status::InvalidArgument("/metrics requires GET"));
      response.status_code = 405;
    } else {
      response = HandleMetrics();
    }
  } else if (request.path == "/v1/admin/cache") {
    if (request.method != "GET") {
      response = ErrorResponse(
          Status::InvalidArgument("/v1/admin/cache requires GET"));
      response.status_code = 405;
    } else {
      response = HandleAdminCache();
    }
  } else if (request.path == "/v1/admin/invalidate") {
    if (request.method != "POST") {
      response = ErrorResponse(
          Status::InvalidArgument("/v1/admin/invalidate requires POST"));
      response.status_code = 405;
    } else {
      response = HandleInvalidate(request);
    }
  } else {
    response =
        ErrorResponse(Status::NotFound("no route for " + request.path));
  }

  if (response.status_code >= 400) metrics_.errors->Increment();
  return response;
}

HttpResponse RequestHandler::HandleQuery(const HttpRequest& http) {
  StatusOr<QueryBody> parsed = ParseQueryBody(http.body);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  QueryRequest& request = parsed->request;

  StatusOr<TenantRegistry::Tenant*> tenant =
      tenants_->GetOrCreate(request.tenant);
  if (!tenant.ok()) return ErrorResponse(tenant.status());
  metrics_.tenants->Set(static_cast<int64_t>(tenants_->tenant_count()));
  (*tenant)->requests->Increment();

  HttpResponse response;
  std::vector<std::string>& batch = parsed->batch;
  if (!batch.empty()) {
    // Batch: one Execute per statement, in order, so a later item is
    // checked against everything an earlier item recorded. One
    // erq.response.v1 item per query, each wrapped with the HTTP status
    // its Status code maps to, so transport-level and engine-level
    // failures read uniformly item by item.
    metrics_.batch_queries->Increment(batch.size());
    std::string body = "{\"schema\":\"erq.response.batch.v1\",\"items\":[";
    for (size_t i = 0; i < batch.size(); ++i) {
      request.sql = std::move(batch[i]);
      QueryResponse item = QueryResponse::FromResult(
          (*tenant)->manager->Execute(request), request);
      if (!item.status.ok()) (*tenant)->errors->Increment();
      if (i > 0) body += ',';
      body += "{\"http_status\":" +
              std::to_string(HttpStatusFromStatus(item.status)) +
              ",\"response\":" + item.ToJson() + "}";
    }
    body += "]}";
    response.body = std::move(body);
    response.status_code = 200;
    return response;
  }

  metrics_.queries->Increment();
  QueryResponse result = QueryResponse::FromResult(
      (*tenant)->manager->Execute(request), request);
  if (!result.status.ok()) (*tenant)->errors->Increment();
  response.status_code = HttpStatusFromStatus(result.status);
  response.body = result.ToJson();
  return response;
}

HttpResponse RequestHandler::HandleMetrics() {
  HttpResponse response;
  response.body = MetricsRegistry::Global().ToJson();
  return response;
}

HttpResponse RequestHandler::HandleAdminCache() {
  std::string body = "{\"schema\":\"erq.admin.cache.v1\",\"quota\":" +
                     std::to_string(tenants_->quota()) +
                     ",\"reuse_quota_bytes\":" +
                     std::to_string(tenants_->reuse_quota()) +
                     ",\"tenants\":{";
  bool first = true;
  for (TenantRegistry::Tenant* tenant : tenants_->Tenants()) {
    const CaqpCache& cache = tenant->manager->detector().cache();
    const CaqpCache::CacheStats stats = cache.stats_snapshot();
    if (!first) body += ',';
    first = false;
    body += JsonQuote(tenant->name);
    body += ":{\"size\":" + std::to_string(cache.size());
    body += ",\"n_max\":" + std::to_string(cache.n_max());
    body += ",\"lookups\":" + std::to_string(stats.lookups);
    body += ",\"hits\":" + std::to_string(stats.hits);
    body += ",\"inserted\":" + std::to_string(stats.inserted);
    body += ",\"evictions\":" + std::to_string(stats.evictions);
    body += ",\"invalidation_drops\":" +
            std::to_string(stats.invalidation_drops);
    // Reuse-store occupancy and hit counters ride along so one admin
    // call answers "who is spending the cache budget on what". null
    // when the tenant template has reuse disabled (no store exists).
    if (const ReuseStore* reuse = tenant->manager->reuse_store()) {
      const ReuseStoreStats rs = reuse->stats_snapshot();
      body += ",\"reuse\":{\"entries\":" + std::to_string(rs.entries);
      body += ",\"bytes\":" + std::to_string(rs.bytes);
      body += ",\"lookups\":" + std::to_string(rs.lookups);
      body += ",\"hits\":" + std::to_string(rs.hits);
      body += ",\"rows_served\":" + std::to_string(rs.rows_served);
      body += ",\"admitted\":" + std::to_string(rs.admitted);
      body += ",\"evictions\":" + std::to_string(rs.evictions);
      body += ",\"invalidated\":" + std::to_string(rs.invalidated);
      body += "}";
    } else {
      body += ",\"reuse\":null";
    }
    body += "}";
  }
  body += "}}";
  HttpResponse response;
  response.body = std::move(body);
  return response;
}

HttpResponse RequestHandler::HandleInvalidate(const HttpRequest& request) {
  const auto it = request.query.find("table");
  if (it == request.query.end() || it->second.empty()) {
    return ErrorResponse(Status::InvalidArgument(
        "/v1/admin/invalidate requires a ?table= parameter"));
  }
  metrics_.invalidations->Increment();
  const size_t notified = tenants_->InvalidateTable(it->second);
  HttpResponse response;
  response.body = "{\"schema\":\"erq.admin.invalidate.v1\",\"table\":" +
                  JsonQuote(it->second) +
                  ",\"tenants_notified\":" + std::to_string(notified) + "}";
  return response;
}

}  // namespace erq
