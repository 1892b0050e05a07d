// The C_aqp design choices DESIGN.md calls out, measured in isolation:
//   1. clock replacement (the paper's choice) under capacity pressure on a
//      Zipf-skewed empty-query stream — hit rate and evictions;
//   2. redundancy removal (keep-most-general) — storage occupancy with vs
//      without general parts arriving.

#include <random>

#include "bench_common.h"

using namespace erq;
using namespace erq::bench;

namespace {

AtomicQueryPart PointPart(const std::string& rel, int64_t x) {
  return AtomicQueryPart(
      RelationSet({rel}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make(rel, "x"), ValueInterval::Point(Value::Int(x)))}));
}

void ClockHitRate() {
  std::printf("--- clock replacement (capacity 200, Zipf(1.1) stream over "
              "2000 distinct empty parts, 30000 requests) ---\n");
  CaqpCache cache(200);
  std::mt19937_64 rng(99);
  // Zipf over 2000 ids.
  std::vector<double> cdf;
  double acc = 0;
  for (int i = 1; i <= 2000; ++i) {
    acc += 1.0 / std::pow(i, 1.1);
    cdf.push_back(acc);
  }
  for (double& v : cdf) v /= acc;
  size_t hits = 0, total = 30000;
  for (size_t t = 0; t < total; ++t) {
    double u = std::uniform_real_distribution<double>(0, 1)(rng);
    int64_t id = static_cast<int64_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    AtomicQueryPart part = PointPart("t", id);
    if (cache.CoveredBy(part)) {
      ++hits;
    } else {
      cache.Insert(part);  // the query executed empty; harvest it
    }
  }
  std::printf(
      "clock: hit rate %.1f%%, evictions %llu\n", 100.0 * hits / total,
      static_cast<unsigned long long>(cache.stats_snapshot().evictions));
}

void RedundancyAblation() {
  std::printf("\n--- redundancy removal (keep-most-general) ---\n");
  // Stream: 500 point parts on t.x in [0, 100), then one general part
  // t.x < 200 arrives. With removal, storage collapses to 1 part while
  // coverage is preserved.
  CaqpCache cache(10000);
  for (int64_t i = 0; i < 500; ++i) {
    cache.Insert(PointPart("t", i % 100));
  }
  size_t before = cache.size();
  cache.Insert(AtomicQueryPart(
      RelationSet({"t"}),
      Conjunction::Make({PrimitiveTerm::MakeInterval(
          ColumnId::Make("t", "x"),
          ValueInterval::LessThan(Value::Int(200), false))})));
  size_t after = cache.size();
  size_t covered = 0;
  for (int64_t i = 0; i < 100; ++i) {
    if (cache.CoveredBy(PointPart("t", i))) ++covered;
  }
  std::printf("parts before general insert: %zu, after: %zu "
              "(removed %llu redundant), point coverage preserved: %zu/100\n",
              before, after,
              static_cast<unsigned long long>(cache.stats_snapshot().removed_covered),
              covered);
  // And duplicate inserts of covered parts are skipped outright.
  cache.Insert(PointPart("t", 5));
  std::printf("covered re-insert skipped: %llu skip(s) recorded, size "
              "still %zu\n",
              static_cast<unsigned long long>(cache.stats_snapshot().skipped_covered),
              cache.size());
}

}  // namespace

int main() {
  PrintHeader("Ablation — C_aqp internals",
              "clock replacement hit rate, redundancy removal");
  ClockHitRate();
  RedundancyAblation();
  return 0;
}
