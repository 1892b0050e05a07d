// Partition-pruning benchmarks over the partitioned TPC-R instance:
// end-to-end EmptyResultManager::Query latency as a function of
// partition count x predicate selectivity (zone-map skipping on the
// partition key), pruning on vs. off, and the executor alone on a
// non-key equality that refutes nothing. Every run reports partitions
// scanned/pruned per query as counters, so BENCH_partition.json pins the
// skipping behaviour — not just the latency — PR over PR.
//
// Data shape (see src/workload/tpcr.cc): orders holds 10 sequential
// orderkeys per customer and a totalprice drawn uniformly from
// [1, 10000]. Range-partitioning on orderkey therefore gives zone maps
// that refute orderkey ranges outside a partition's slice.
//
// tools/bench_json.sh runs this binary and writes the merged output to
// BENCH_partition.json (separate from BENCH_caqp.json so the C_aqp
// trajectory files stay comparable across PRs).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace erq;
using namespace erq::bench;

namespace {

constexpr double kScale = 0.5;  // 750 customers -> 7500 orders

// TPC-R build cost is amortized across benchmark repetitions: one
// immutable environment per partition fanout, shared by every benchmark
// (all queries here are read-only). Built WITHOUT indexes: an index on
// orderkey would turn the selective queries into index scans, and
// partition pruning is a property of table scans — the thing under test.
const Environment& SharedEnv(size_t partitions) {
  static std::mutex mu;
  static std::map<size_t, std::unique_ptr<Environment>>* envs =
      new std::map<size_t, std::unique_ptr<Environment>>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = envs->find(partitions);
  if (it == envs->end()) {
    auto env = std::make_unique<Environment>(
        Environment::Build(kScale, /*seed=*/42, /*customers_per_unit=*/1500,
                           partitions, /*build_indexes=*/false));
    it = envs->emplace(partitions, std::move(env)).first;
  }
  return *it->second;
}

std::string OrderkeyRange(int64_t lo, int64_t hi) {
  return "select orderkey, totalprice from orders where orderkey >= " +
         std::to_string(lo) + " and orderkey < " + std::to_string(hi);
}

void ReportPartitionCounters(benchmark::State& state, size_t scanned,
                             size_t pruned, size_t rows) {
  state.counters["partitions_scanned"] =
      benchmark::Counter(static_cast<double>(scanned),
                         benchmark::Counter::kAvgIterations);
  state.counters["partitions_pruned"] = benchmark::Counter(
      static_cast<double>(pruned), benchmark::Counter::kAvgIterations);
  state.counters["rows"] = benchmark::Counter(
      static_cast<double>(rows), benchmark::Counter::kAvgIterations);
}

// Zone-map skipping on the partition key: a selective orderkey range
// covering sel% of the key domain, rotated across iterations so every
// query is distinct. partitions=1 is the no-pruning ablation baseline.
void BM_ZoneMapSkipping(benchmark::State& state) {
  const size_t partitions = static_cast<size_t>(state.range(0));
  const int64_t sel_pct = state.range(1);
  const Environment& env = SharedEnv(partitions);
  const int64_t domain =
      static_cast<int64_t>(env.instance.orders->num_rows());
  const int64_t width = std::max<int64_t>(1, domain * sel_pct / 100);

  EmptyResultManager manager(env.catalog.get(), env.stats.get());
  if (!manager.init_status().ok()) std::abort();

  size_t scanned = 0, pruned = 0, rows = 0;
  int64_t lo = 0;
  for (auto _ : state) {
    auto outcome = manager.Query(OrderkeyRange(lo, lo + width));
    if (!outcome.ok()) std::abort();
    scanned += outcome->partitions_scanned;
    pruned += outcome->partitions_pruned;
    rows += outcome->result_rows;
    lo = (lo + width + 37) % std::max<int64_t>(1, domain - width);
  }
  ReportPartitionCounters(state, scanned, pruned, rows);
}
BENCHMARK(BM_ZoneMapSkipping)
    ->ArgNames({"partitions", "sel_pct"})
    ->ArgsProduct({{1, 4, 16, 64}, {1, 10, 50}})
    ->Unit(benchmark::kMicrosecond);

// The pruning ablation pinned by tests/partition_pruning_test.cc, as a
// latency pair: the same selective orderkey query with pruning on vs.
// off over the same 16-way partitioned instance.
void BM_PruningAblation(benchmark::State& state) {
  const bool pruning = state.range(0) != 0;
  const Environment& env = SharedEnv(16);
  const int64_t domain =
      static_cast<int64_t>(env.instance.orders->num_rows());

  EmptyResultConfig config;
  config.partition_pruning = pruning;
  EmptyResultManager manager(env.catalog.get(), env.stats.get(), config);
  if (!manager.init_status().ok()) std::abort();

  const std::string sql = OrderkeyRange(domain / 3, domain / 3 + domain / 50);
  size_t scanned = 0, pruned = 0, rows = 0;
  for (auto _ : state) {
    auto outcome = manager.Query(sql);
    if (!outcome.ok()) std::abort();
    scanned += outcome->partitions_scanned;
    pruned += outcome->partitions_pruned;
    rows += outcome->result_rows;
  }
  ReportPartitionCounters(state, scanned, pruned, rows);
}
BENCHMARK(BM_PruningAblation)
    ->ArgNames({"pruning"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// The update_mix read shape: an equality on a non-key lineitem column, so
// zone maps refute no partition, executed without the manager (no C_aqp,
// no reuse) so only the scan and its filter are timed. The partitioned
// scan walks the table in row order like the unpartitioned one.
void BM_NonKeyEqualityScan(benchmark::State& state) {
  const size_t partitions = static_cast<size_t>(state.range(0));
  const Environment& env = SharedEnv(partitions);
  // Partkeys from the middle of the domain lie inside every partition's
  // [min, max] zone.
  const std::vector<int64_t>& parts = env.instance.present_parts;
  std::vector<PhysOpPtr> plans;
  for (size_t i = 0; i < 16; ++i) {
    const int64_t part = parts[parts.size() / 4 + i * parts.size() / 32];
    plans.push_back(env.Prepare("select * from lineitem where partkey = " +
                                std::to_string(part)));
  }
  ExecOptions options;
  options.prune_partitions = true;

  size_t scanned = 0, pruned = 0, rows = 0, i = 0;
  for (auto _ : state) {
    const PhysOpPtr& plan = plans[i++ % plans.size()];
    auto result = Executor::Run(plan, options);
    if (!result.ok()) std::abort();
    const PhysicalOperator* scan = plan.get();
    while (scan->kind != PhysOpKind::kTableScan) {
      scan = scan->children[0].get();
    }
    // -1 on the unpartitioned table, which records no partition counts.
    scanned += static_cast<size_t>(
        std::max<int64_t>(0, scan->partitions_scanned));
    pruned +=
        static_cast<size_t>(std::max<int64_t>(0, scan->partitions_pruned));
    rows += result->rows.size();
  }
  ReportPartitionCounters(state, scanned, pruned, rows);
}
BENCHMARK(BM_NonKeyEqualityScan)
    ->ArgNames({"partitions"})
    ->Arg(1)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
