// Concurrent readers of one sorted index right after a table change: the
// first scans of a new table version must not race each other while the
// index's entries are brought up to date. Carries the `concurrency` ctest
// label so the TSan job runs it.

#include <atomic>
#include <random>
#include <thread>

#include "core/manager.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace erq {
namespace {

TEST(IndexConcurrencyTest, ReadersAfterAppendSeeEveryRow) {
  Catalog catalog;
  auto table = catalog.CreateTable(
      "T", Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(catalog.CreateIndex("T", "k").ok());
  StatsCatalog stats;
  EmptyResultConfig config;
  config.c_cost = 0.0;  // check every query, so empties are harvested too
  EmptyResultManager manager(&catalog, &stats, config);

  const int kRounds = 20;
  const int kSessions = 4;
  const int64_t kKeys = 40;
  std::vector<int64_t> per_key(kKeys + 10, 0);  // row count per key
  std::mt19937_64 rng(3);
  for (int round = 0; round < kRounds; ++round) {
    // Each round appends rows (a new table version), then every session
    // races to open the first index scans of that version.
    std::vector<Row> rows;
    for (int i = 0; i < 50; ++i) {
      int64_t k = static_cast<int64_t>(rng() % kKeys);
      ++per_key[static_cast<size_t>(k)];
      rows.push_back({Value::Int(k), Value::Int(round * 100 + i)});
    }
    ASSERT_TRUE(catalog.AppendRows("T", std::move(rows)).ok());

    std::atomic<int> wrong{0};
    std::vector<std::thread> sessions;
    for (int s = 0; s < kSessions; ++s) {
      sessions.emplace_back([&, s] {
        std::mt19937_64 local(static_cast<uint64_t>(round * kSessions + s));
        for (int q = 0; q < 6; ++q) {
          // Keys past kKeys match nothing, so some answers are empty.
          int64_t a = static_cast<int64_t>(local() % (kKeys + 10));
          int64_t b = static_cast<int64_t>(local() % (kKeys + 10));
          std::string sql =
              q % 2 == 0
                  ? "select * from T where k in (" + std::to_string(a) +
                        ", " + std::to_string(b) + ")"
                  : "select * from T where k = " + std::to_string(a);
          size_t want = static_cast<size_t>(per_key[static_cast<size_t>(a)]);
          if (q % 2 == 0 && b != a) {
            want += static_cast<size_t>(per_key[static_cast<size_t>(b)]);
          }
          auto outcome = manager.Query(sql);
          if (!outcome.ok() || outcome->result_rows != want) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& t : sessions) t.join();
    EXPECT_EQ(wrong.load(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace erq
