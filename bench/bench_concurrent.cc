// Multithreaded C_aqp throughput benchmarks (google-benchmark threaded
// mode): lookups/sec at 1/2/4/8 threads for hit-heavy, miss-heavy, and
// mixed insert+lookup workloads at several N_max, and a 99/1 read-mostly
// mix, so the epoch-guarded read path stays measurable.
//
// The stored population spreads N parts over N/4 distinct relation names
// (4 point conditions per relation), the shape where entry enumeration —
// not the per-entry condition scan — dominates a probe. A hit probe asks
// for a stored point; a miss probe asks for a point outside every stored
// condition on an existing relation, forcing the full candidate walk.
//
// Probe pools are ordered by relation and each benchmark thread draws
// from its own contiguous slice, so distinct threads probe (mostly)
// distinct relations: thread scaling then measures the epoch-guarded
// read path itself, not cross-thread ping-pong on one entry's recency
// cache line.
//
// tools/bench_json.sh runs this binary together with bench_micro and
// merges the results into BENCH_caqp.json.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "core/caqp_cache.h"

using namespace erq;

namespace {

constexpr size_t kPartsPerRelation = 4;
constexpr size_t kPoolSize = 8192;

AtomicQueryPart Point(const std::string& rel, int64_t x) {
  return AtomicQueryPart(
      RelationSet({rel}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make(rel, "x"), ValueInterval::Point(Value::Int(x)))}));
}

struct Workload {
  std::unique_ptr<CaqpCache> cache;
  size_t relations = 0;
  // Pre-built probe pools so the timed loop measures CoveredBy itself,
  // not AtomicQueryPart construction (strings + vectors dominate
  // otherwise). Pool index i maps to relation i*relations/kPoolSize, so
  // a contiguous slice covers a contiguous relation range. Read-only
  // after construction: safe to share across the benchmark threads.
  std::vector<AtomicQueryPart> hit_probes;
  std::vector<AtomicQueryPart> miss_probes;
};

// The probe-pool slice owned by one benchmark thread. Slices partition
// the pool, so threads never share a probe stream.
struct ProbeSlice {
  const std::vector<AtomicQueryPart>* pool;
  size_t begin;
  size_t len;

  const AtomicQueryPart& Draw(std::mt19937_64& rng) const {
    return (*pool)[begin + rng() % len];
  }
};

ProbeSlice SliceFor(const std::vector<AtomicQueryPart>& pool,
                    const benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.threads());
  const size_t t = static_cast<size_t>(state.thread_index());
  const size_t begin = t * pool.size() / threads;
  const size_t end = (t + 1) * pool.size() / threads;
  return ProbeSlice{&pool, begin, end - begin};
}

enum class Kind { kLookup, kMixed, kReadMostly };

/// Shared, lazily built workloads. Threads of one benchmark run their
/// setup concurrently, so construction is serialized; workloads are kept
/// for the binary's lifetime (the mutating workloads are intentionally
/// reused — they stay in eviction steady state across repetitions).
Workload& GetWorkload(size_t n, Kind kind) {
  static std::mutex mu;
  static std::map<std::pair<size_t, Kind>, std::unique_ptr<Workload>>
      registry;
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = registry[{n, kind}];
  if (slot == nullptr) {
    auto w = std::make_unique<Workload>();
    w->relations = n / kPartsPerRelation;
    // Lookup workloads get headroom so the population is complete; the
    // mutating workloads run exactly at capacity so inserts churn the
    // clock.
    size_t n_max = kind == Kind::kLookup ? n + kPartsPerRelation : n;
    w->cache = std::make_unique<CaqpCache>(n_max);
    for (size_t r = 0; r < w->relations; ++r) {
      std::string rel = "r" + std::to_string(r);
      for (size_t v = 0; v < kPartsPerRelation; ++v) {
        w->cache->Insert(Point(rel, static_cast<int64_t>(v)));
      }
    }
    w->hit_probes.reserve(kPoolSize);
    w->miss_probes.reserve(kPoolSize);
    for (size_t i = 0; i < kPoolSize; ++i) {
      std::string rel = "r" + std::to_string(i * w->relations / kPoolSize);
      w->hit_probes.push_back(
          Point(rel, static_cast<int64_t>(i % kPartsPerRelation)));
      w->miss_probes.push_back(
          Point(rel, static_cast<int64_t>(kPartsPerRelation +
                                          i % kPartsPerRelation)));
    }
    slot = std::move(w);
  }
  return *slot;
}

void RunLookups(benchmark::State& state, bool hit) {
  Workload& w = GetWorkload(static_cast<size_t>(state.range(0)),
                            Kind::kLookup);
  ProbeSlice slice = SliceFor(hit ? w.hit_probes : w.miss_probes, state);
  std::mt19937_64 rng(7919 * (state.thread_index() + 1));
  for (auto _ : state) {
    bool covered = w.cache->CoveredBy(slice.Draw(rng));
    if (covered != hit) state.SkipWithError("unexpected lookup outcome");
    benchmark::DoNotOptimize(covered);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_LookupHit(benchmark::State& state) { RunLookups(state, true); }
void BM_LookupMiss(benchmark::State& state) { RunLookups(state, false); }

// 1 insert per 16 lookups at capacity: writers take the writer mutex,
// drive eviction + entry GC, and mix with the epoch-guarded probe stream.
void BM_MixedInsertLookup(benchmark::State& state) {
  Workload& w = GetWorkload(static_cast<size_t>(state.range(0)),
                            Kind::kMixed);
  ProbeSlice hits = SliceFor(w.hit_probes, state);
  ProbeSlice misses = SliceFor(w.miss_probes, state);
  std::mt19937_64 rng(104729 * (state.thread_index() + 1));
  size_t op = 0;
  for (auto _ : state) {
    if ((op++ & 15) == 0) {
      w.cache->Insert(misses.Draw(rng));  // novel part => store + evict
    } else {
      bool covered = w.cache->CoveredBy(hits.Draw(rng));
      benchmark::DoNotOptimize(covered);
    }
  }
  state.SetItemsProcessed(state.iterations());
}

// Read-mostly 99/1 workload: 99 lookups per insert is the steady state
// the epoch design targets — readers never block, and the rare writer
// takes the writer mutex plus a copy-on-write publish.
void BM_ReadMostly99(benchmark::State& state) {
  Workload& w = GetWorkload(static_cast<size_t>(state.range(0)),
                            Kind::kReadMostly);
  ProbeSlice hits = SliceFor(w.hit_probes, state);
  ProbeSlice misses = SliceFor(w.miss_probes, state);
  std::mt19937_64 rng(15485863 * (state.thread_index() + 1));
  size_t op = 0;
  for (auto _ : state) {
    if (op++ % 100 == 0) {
      w.cache->Insert(misses.Draw(rng));
    } else {
      bool covered = w.cache->CoveredBy(hits.Draw(rng));
      benchmark::DoNotOptimize(covered);
    }
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK(BM_LookupHit)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();
BENCHMARK(BM_LookupMiss)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();
BENCHMARK(BM_MixedInsertLookup)
    ->Arg(4096)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();
BENCHMARK(BM_ReadMostly99)
    ->Arg(4096)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// BENCHMARK_MAIN() plus an observability hook: the C_aqp hot path mirrors
// its counters into the process-wide MetricsRegistry, so
// ERQ_METRICS_OUT=<path> captures this run's erq.caqp.* totals as an
// erq.metrics.v1 document — the same schema metrics_dump emits and
// tools/bench_json.sh embeds into BENCH_caqp.json.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char* out = std::getenv("ERQ_METRICS_OUT")) {
    std::ofstream f(out);
    f << erq::MetricsRegistry::Global().ToJson();
    if (!f) return 1;
  }
  return 0;
}
