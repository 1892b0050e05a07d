#include "core/config.h"

#include <cmath>

namespace erq {

Status EmptyResultConfig::Validate() const {
  if (n_max == 0) {
    return Status::InvalidArgument(
        "EmptyResultConfig.n_max must be positive: a zero-capacity C_aqp "
        "can never store an atomic query part (disable detection via "
        "detection_enabled=false instead)");
  }
  if (std::isnan(c_cost) || std::isinf(c_cost)) {
    return Status::InvalidArgument(
        "EmptyResultConfig.c_cost must be finite");
  }
  if (c_cost < 0.0) {
    return Status::InvalidArgument(
        "EmptyResultConfig.c_cost must be non-negative (0 checks every "
        "query)");
  }
  if (dnf.max_terms == 0) {
    return Status::InvalidArgument(
        "EmptyResultConfig.dnf.max_terms must be positive: every "
        "decomposition would be rejected as a DNF blow-up");
  }
  switch (invalidation) {
    case InvalidationMode::kDropAll:
    case InvalidationMode::kDropTouched:
    case InvalidationMode::kFilterIrrelevant:
      break;
    default:
      return Status::InvalidArgument(
          "EmptyResultConfig.invalidation is not a known InvalidationMode");
  }
  if (reuse.enabled) {
    if (reuse.max_rows == 0) {
      return Status::InvalidArgument(
          "EmptyResultConfig.reuse.max_rows must be positive when reuse is "
          "enabled: no intermediate could ever be harvested (zero-row "
          "emptiness facts already live in C_aqp)");
    }
    if (reuse.budget_bytes == 0) {
      return Status::InvalidArgument(
          "EmptyResultConfig.reuse.budget_bytes must be positive when "
          "reuse is enabled: every admission would be rejected (disable "
          "reuse via reuse.enabled=false instead)");
    }
  }
  ERQ_RETURN_IF_ERROR(persist.Validate());
  return Status::OK();
}

Status ServerOptions::Validate() const {
  if (host.empty()) {
    return Status::InvalidArgument(
        "ServerOptions.host must be a bindable address (use 127.0.0.1 for "
        "loopback)");
  }
  if (max_connections == 0) {
    return Status::InvalidArgument(
        "ServerOptions.max_connections must be positive: a server that "
        "admits no connections cannot serve");
  }
  if (max_tenants == 0) {
    return Status::InvalidArgument(
        "ServerOptions.max_tenants must be positive: every request needs "
        "a tenant namespace (the default tenant counts)");
  }
  if (global_n_max < max_tenants) {
    return Status::InvalidArgument(
        "ServerOptions.global_n_max must give every tenant at least one "
        "C_aqp entry (global_n_max >= max_tenants)");
  }
  if (max_request_bytes == 0) {
    return Status::InvalidArgument(
        "ServerOptions.max_request_bytes must be positive: no request "
        "would ever parse");
  }
  if (tenant_config.persist.enabled()) {
    return Status::InvalidArgument(
        "ServerOptions.tenant_config.persist must stay disabled: tenants "
        "share a process but not a journal directory");
  }
  if (tenant_config.reuse.enabled && global_reuse_bytes < max_tenants) {
    return Status::InvalidArgument(
        "ServerOptions.global_reuse_bytes must give every tenant a "
        "positive reuse budget (global_reuse_bytes >= max_tenants)");
  }
  // Validate the template with the smallest quota any tenant can get, so
  // a config that validates here cannot fail at lazy tenant creation.
  EmptyResultConfig probe = tenant_config;
  probe.n_max = global_n_max / max_tenants;
  probe.reuse.budget_bytes = global_reuse_bytes / max_tenants;
  ERQ_RETURN_IF_ERROR(probe.Validate());
  return Status::OK();
}

}  // namespace erq
