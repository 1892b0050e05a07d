#pragma once

/// \file
/// EmptyResultConfig and the enums behind its tuning knobs, plus
/// ServerOptions — the validated configuration of the erq_server
/// network front end.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "expr/dnf.h"
#include "persist/options.h"

namespace erq {

/// What to invalidate when a base relation is updated. The paper deletes
/// all stored information on any update (read-mostly environment);
/// kDropTouched scopes the invalidation to atomic query parts that mention
/// the updated relation — a strict superset of the paper's guarantee.
/// kFilterIrrelevant implements the §5 future-work extension: deletions
/// invalidate nothing (they cannot un-empty a result), and inserts drop
/// only the parts the new rows could actually satisfy (see
/// core/update_filter.h). Mutations without row information still drop
/// everything touching the relation.
enum class InvalidationMode { kDropAll, kDropTouched, kFilterIrrelevant };

/// Tuning knobs of the intermediate-result reuse store (src/reuse/,
/// DESIGN.md §13). Defined here rather than next to ReuseStore so the
/// config layer stays free of reuse/epoch/plan includes.
struct ReuseConfig {
  /// Master switch; when false the manager neither harvests operator
  /// outputs nor splices stored intermediates into new plans. Off by
  /// default so the pipeline's baseline behavior is unchanged.
  bool enabled = false;

  /// Admission row cap: intermediates with more rows are never harvested
  /// (the executor abandons its buffering wrapper the instant the cap is
  /// exceeded, so oversized intermediates cost no materialization).
  size_t max_rows = 1024;

  /// Store-wide byte budget across all entries; admission evicts by
  /// benefit-per-byte until the new entry fits. An entry larger than the
  /// whole budget is rejected outright.
  size_t budget_bytes = 8u << 20;
};

/// Tuning knobs of the fast-detection method.
struct EmptyResultConfig {
  /// N_max: maximum number of atomic query parts stored in C_aqp (§2.3).
  size_t n_max = 100000;

  /// C_cost: optimizer-cost threshold separating low-cost queries (executed
  /// directly) from high-cost queries (checked against C_aqp first) (§2.2).
  double c_cost = 0.0;

  /// Bounds for the exponential DNF rewriting step (§2.3, step 2).
  DnfOptions dnf;

  /// Update-invalidation scope (paper: drop everything).
  InvalidationMode invalidation = InvalidationMode::kDropTouched;

  /// Master switch; when false the manager always executes (baseline).
  bool detection_enabled = true;

  /// When true, the manager replaces c_cost with AdaptiveCostGate's
  /// break-even estimate once enough history has accumulated (§2.2's
  /// "decided based on past statistics").
  bool auto_tune_c_cost = false;

  /// Consult per-partition zone maps to skip partitions of partitioned
  /// tables at scan time (DESIGN.md §"Partitioning & data skipping").
  /// Off = partitioned tables scan every partition (the
  /// partitions=1-equivalent ablation).
  bool partition_pruning = true;

  /// Intermediate-result reuse store (harvest low-cardinality operator
  /// outputs of executed high-cost queries, splice them into later
  /// plans). Disabled by default. See DESIGN.md §13.
  ReuseConfig reuse;

  /// Crash-safe persistence of C_aqp (snapshot + journal in
  /// `persist.dir`); disabled while the directory is empty. See
  /// DESIGN.md §7.
  PersistOptions persist;

  /// Rejects configurations the pipeline cannot run meaningfully (zero
  /// n_max, negative/non-finite c_cost, zero DNF term budget, enum values
  /// outside their range). EmptyResultManager calls this in its ctor and
  /// surfaces the Status from every entry point, so a mis-configured
  /// manager fails loudly instead of silently misbehaving.
  ERQ_NODISCARD Status Validate() const;
};

/// Configuration of the erq_server network front end (src/server/). One
/// server hosts up to `max_tenants` isolated tenants; every tenant owns a
/// private EmptyResultManager built from `tenant_config`, with its C_aqp
/// capacity replaced by an equal share of `global_n_max` (see
/// TenantRegistry). Validated by ErqServer::Start, so a mis-configured
/// server refuses to listen instead of silently misbehaving.
struct ServerOptions {
  /// Address the listener binds to. The default stays loopback-only; a
  /// deployment must opt in to external exposure explicitly.
  std::string host = "127.0.0.1";

  /// TCP port; 0 asks the kernel for an ephemeral port (the bound port is
  /// reported by ErqServer::port() and printed by tools/erq_server).
  uint16_t port = 0;

  /// Maximum simultaneously served connections. Accepts beyond the limit
  /// are answered with 503 and closed rather than queued.
  size_t max_connections = 128;

  /// Maximum distinct tenant namespaces. Tenants are created lazily on
  /// first use and never expire; requests naming a tenant past the limit
  /// are rejected with ResourceExhausted (429 on the wire).
  size_t max_tenants = 16;

  /// Global C_aqp memory budget, in atomic query parts, shared by every
  /// tenant. Each tenant's manager gets an equal static split
  /// (global_n_max / max_tenants) as its EmptyResultConfig::n_max.
  size_t global_n_max = 100000;

  /// Global reuse-store byte budget shared by every tenant, split the
  /// same way: each tenant's manager gets global_reuse_bytes/max_tenants
  /// as its EmptyResultConfig::reuse.budget_bytes. Only consulted when
  /// the tenant template enables reuse.
  size_t global_reuse_bytes = 64u << 20;

  /// Upper bound on an accepted HTTP request (start line + headers +
  /// body). Oversized requests are answered with 400 and the connection
  /// is closed.
  size_t max_request_bytes = 1 << 20;

  /// Template configuration for each tenant's EmptyResultManager. The
  /// n_max field is ignored (replaced by the per-tenant quota); persist
  /// must stay disabled — tenants share a process but not a journal.
  EmptyResultConfig tenant_config;

  /// Rejects configurations the server cannot run meaningfully (zero
  /// connection/tenant limits, a global budget too small to give every
  /// tenant at least one entry, per-tenant persistence, or an invalid
  /// tenant_config template).
  ERQ_NODISCARD Status Validate() const;
};

}  // namespace erq

