// Runs a workload through the full detection pipeline and dumps the
// process-wide MetricsRegistry snapshot — the machine-readable
// observability surface (schema "erq.metrics.v1", see DESIGN.md
// §"Observability"). CI smoke-tests this binary and tools/bench_json.sh
// embeds the same document into BENCH_*.json.
//
//   $ metrics_dump --trace tpcr --json [--queries N]
//
//   --trace tpcr   replay the synthetic CRM trace over the TPC-R instance
//                  (the only trace currently defined; default)
//   --json         print the metrics JSON document to stdout (default
//                  prints a short human summary followed by the JSON)
//   --queries N    trace length, at most 1000000 (default 500 — a few
//                  seconds of work)
//   --persist-dir D  enable crash-safe C_aqp persistence in directory D
//                  (exercises the erq.persist.* instruments; the summary
//                  reports parts recovered from a previous run and parts
//                  skipped as unserializable)
//   --partitions K  range-partition the TPC-R tables K ways
//                  (1 < K <= 1024) and skip index builds so selective
//                  predicates plan as table scans — the shape partition
//                  pruning applies to.
//                  After the trace, a canned selective orderkey query
//                  runs and the tool fails unless it pruned partitions,
//                  so the erq.exec.partitions.* counters in the dump are
//                  provably exercised (the check.sh plain-job smoke).
//   --reuse        enable the intermediate-result reuse store. After the
//                  trace, a canned selective query runs twice — the first
//                  execution harvests its Filter-over-TableScan output,
//                  the second must splice it — and the tool fails unless
//                  at least one subtree was served from the store, so the
//                  erq.reuse.* counters in the dump are provably
//                  exercised (the check.sh plain-job smoke).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/manager.h"
#include "core/query_api.h"
#include "core/serialize.h"
#include "workload/trace.h"

namespace erq {
namespace {

// Upper bounds of the integer flags: GenerateCrmTrace builds the whole
// trace in memory and BuildTpcr allocates per-partition state for every
// table, both up front.
constexpr uint64_t kMaxQueries = 1000000;
constexpr uint64_t kMaxPartitions = 1024;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--trace tpcr] [--json] [--queries N] "
               "[--persist-dir D] [--partitions K] [--reuse]\n"
               "N and K are decimal integers, 1 <= N <= %llu and "
               "1 <= K <= %llu.\n",
               argv0, static_cast<unsigned long long>(kMaxQueries),
               static_cast<unsigned long long>(kMaxPartitions));
  return 2;
}

// Parses the value of an integer flag into `out`; false when it is not a
// decimal integer in [1, max].
bool ParseCount(const char* value, uint64_t max, size_t* out) {
  StatusOr<uint64_t> n = ParseDecimal(value, max);
  if (!n.ok() || *n == 0) return false;
  *out = static_cast<size_t>(*n);
  return true;
}

int RunTpcrTrace(size_t total_queries, bool json_only,
                 const std::string& persist_dir, size_t partitions,
                 bool reuse) {
  Catalog catalog;
  TpcrConfig tpcr;
  tpcr.customers_per_unit = 500;
  tpcr.seed = 11;
  tpcr.partitions = partitions;
  auto instance = BuildTpcr(&catalog, tpcr);
  if (!instance.ok()) {
    std::fprintf(stderr, "BuildTpcr: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }
  // With partitioning on, leave the instance index-free: an index on the
  // partition key would turn selective queries into index scans, and
  // partition pruning is a property of table scans.
  if (partitions <= 1 && !BuildTpcrIndexes(&catalog).ok()) return 1;
  StatsCatalog stats;
  if (!stats.AnalyzeAll(catalog).ok()) return 1;

  TraceConfig trace_config;
  trace_config.total_queries = total_queries;
  std::vector<TraceQuery> trace = GenerateCrmTrace(*instance, trace_config);

  EmptyResultConfig config;
  config.c_cost = 0.0;  // check everything: exercises the whole pipeline
  config.persist.dir = persist_dir;  // empty = persistence disabled
  config.reuse.enabled = reuse;
  EmptyResultManager manager(&catalog, &stats, config);
  if (!manager.init_status().ok()) {
    std::fprintf(stderr, "manager: %s\n",
                 manager.init_status().ToString().c_str());
    return 1;
  }
  if (manager.persistence() != nullptr && !json_only) {
    const Persistence::RecoveredState& rec = manager.persistence()->recovered();
    std::fprintf(stderr,
                 "persistence: recovered %zu part(s) from %s "
                 "(%llu snapshot + %llu journal records, %llu torn bytes "
                 "dropped, %.3fms)\n",
                 rec.parts.size(), persist_dir.c_str(),
                 static_cast<unsigned long long>(rec.snapshot_records),
                 static_cast<unsigned long long>(rec.journal_records),
                 static_cast<unsigned long long>(rec.truncated_bytes),
                 rec.recovery_seconds * 1e3);
  }

  // Scope the snapshot to this trace (workload setup above may already
  // have touched the executor counters through AnalyzeAll or index reads).
  MetricsRegistry::Global().Reset();

  for (const TraceQuery& q : trace) {
    auto outcome = manager.Execute(QueryRequest::Sql(q.sql));
    if (!outcome.ok()) {
      // The shared renderer ("error: <status>") used by every front end.
      std::fprintf(stderr, "%s\n%s\n",
                   QueryResponse::FromStatus(outcome.status())
                       .ToText().c_str(),
                   q.sql.c_str());
      return 1;
    }
    if (outcome->result_empty != q.expect_empty) {
      std::fprintf(stderr, "emptiness mismatch on: %s\n", q.sql.c_str());
      return 1;
    }
  }

  if (partitions > 1) {
    // Canned selective query over the partitioned orders table: one
    // partition's worth of orderkeys, so pruning must skip the rest.
    auto outcome = manager.Execute(QueryRequest::Sql(
        "select orderkey, totalprice from orders "
        "where orderkey >= 100 and orderkey < 160"));
    if (!outcome.ok()) {
      std::fprintf(stderr, "partition smoke: %s\n",
                   outcome.status().ToString().c_str());
      return 1;
    }
    if (outcome->partitions_pruned == 0) {
      std::fprintf(stderr,
                   "partition smoke: expected pruned partitions, got "
                   "scanned=%zu pruned=%zu\n",
                   outcome->partitions_scanned, outcome->partitions_pruned);
      return 1;
    }
    if (!json_only) {
      std::fprintf(stderr,
                   "partition smoke: scanned %zu, pruned %zu of %zu "
                   "partitions on the canned selective query\n",
                   outcome->partitions_scanned, outcome->partitions_pruned,
                   partitions);
    }
  }

  if (reuse) {
    // Canned selective scan run twice: the first execution harvests the
    // filtered output into the reuse store, the second must splice it
    // back as a kCachedResultScan — otherwise the reuse path is broken.
    const char* canned =
        "select custkey, acctbal from customer "
        "where acctbal >= 0 and acctbal < 500";
    auto cold = manager.Execute(QueryRequest::Sql(canned));
    if (!cold.ok()) {
      std::fprintf(stderr, "reuse smoke (cold): %s\n",
                   cold.status().ToString().c_str());
      return 1;
    }
    auto hot = manager.Execute(QueryRequest::Sql(canned));
    if (!hot.ok()) {
      std::fprintf(stderr, "reuse smoke (hot): %s\n",
                   hot.status().ToString().c_str());
      return 1;
    }
    if (hot->reused_subtrees == 0) {
      std::fprintf(stderr,
                   "reuse smoke: expected a spliced subtree on the second "
                   "run, got harvested=%zu reused=%zu\n",
                   cold->intermediates_harvested, hot->reused_subtrees);
      return 1;
    }
    if (!json_only) {
      std::fprintf(stderr,
                   "reuse smoke: harvested %zu intermediate(s) cold, "
                   "spliced %zu subtree(s) serving %zu cached row(s) hot\n",
                   cold->intermediates_harvested, hot->reused_subtrees,
                   hot->reuse_rows_served);
    }
  }

  if (!json_only) {
    ManagerStats ms = manager.stats_snapshot();
    size_t skipped_opaque = 0;
    SerializeCache(manager.detector().cache(), &skipped_opaque);
    std::fprintf(stderr,
                 "replayed %zu queries: %llu executed, %llu detected empty, "
                 "%llu recorded; C_aqp size %zu (%zu part(s) not "
                 "serializable: opaque terms)\n",
                 trace.size(), static_cast<unsigned long long>(ms.executed),
                 static_cast<unsigned long long>(ms.detected_empty),
                 static_cast<unsigned long long>(ms.recorded),
                 manager.detector().cache().size(), skipped_opaque);
    if (manager.persistence() != nullptr &&
        !manager.persistence()->status().ok()) {
      std::fprintf(stderr, "persistence degraded: %s\n",
                   manager.persistence()->status().ToString().c_str());
    }
  }
  std::fputs(MetricsRegistry::Global().ToJson().c_str(), stdout);
  return 0;
}

int Main(int argc, char** argv) {
  std::string trace = "tpcr";
  std::string persist_dir;
  bool json_only = false;
  bool reuse = false;
  size_t total_queries = 500;
  size_t partitions = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_only = true;
    } else if (std::strcmp(argv[i], "--reuse") == 0) {
      reuse = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace = argv[++i];
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      if (!ParseCount(argv[++i], kMaxQueries, &total_queries)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--persist-dir") == 0 && i + 1 < argc) {
      persist_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--partitions") == 0 && i + 1 < argc) {
      if (!ParseCount(argv[++i], kMaxPartitions, &partitions)) {
        return Usage(argv[0]);
      }
    } else {
      return Usage(argv[0]);
    }
  }
  if (trace != "tpcr") return Usage(argv[0]);
  return RunTpcrTrace(total_queries, json_only, persist_dir, partitions,
                      reuse);
}

}  // namespace
}  // namespace erq

int main(int argc, char** argv) { return erq::Main(argc, argv); }
