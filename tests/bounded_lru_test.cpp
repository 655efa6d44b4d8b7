// BoundedLru: recency order, cost-budget eviction, oversize refusal,
// refresh re-charging, erase_if, the budget-0 rule, value lifetime across
// eviction, and a concurrent hammer whose stats must add up.
#include "common/bounded_lru.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace apks {
namespace {

using IntLru = BoundedLru<int, int>;

TEST(BoundedLru, CountBudgetEvictsLeastRecentlyUsed) {
  IntLru lru(3);
  lru.put(1, 10);
  lru.put(2, 20);
  lru.put(3, 30);
  ASSERT_EQ(lru.get(1), 10);  // 1 is now the most recent; 2 the least
  lru.put(4, 40);

  EXPECT_EQ(lru.get(2), std::nullopt);
  EXPECT_EQ(lru.get(1), 10);
  EXPECT_EQ(lru.get(3), 30);
  EXPECT_EQ(lru.get(4), 40);
  const LruStats s = lru.stats();
  EXPECT_EQ(s.insertions, 4u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.cost, 3u);
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(BoundedLru, OnePutEvictsSeveralUnderAByteBudget) {
  IntLru lru(100);
  lru.put(1, 10, 30);
  lru.put(2, 20, 30);
  lru.put(3, 30, 30);
  lru.put(4, 40, 50);  // 140 charged: 1 and 2 must both go

  const LruStats s = lru.stats();
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.cost, 80u);
  EXPECT_EQ(lru.get(1), std::nullopt);
  EXPECT_EQ(lru.get(2), std::nullopt);
  EXPECT_EQ(lru.get(3), 30);
  EXPECT_EQ(lru.get(4), 40);
}

TEST(BoundedLru, EntryCostlierThanTheBudgetIsNotStored) {
  IntLru lru(10);
  lru.put(1, 10, 5);
  lru.put(2, 20, 11);

  EXPECT_EQ(lru.get(2), std::nullopt);
  EXPECT_EQ(lru.get(1), 10);  // nothing was evicted to make room
  const LruStats s = lru.stats();
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.cost, 5u);
}

TEST(BoundedLru, RefreshReplacesTheValueAndRechargesItsCost) {
  IntLru lru(100);
  lru.put(1, 10, 10);
  lru.put(2, 20, 10);
  lru.put(1, 11, 60);
  EXPECT_EQ(lru.stats().cost, 70u);
  EXPECT_EQ(lru.stats().insertions, 2u);  // a refresh is not an insertion

  // Growing 1 past the budget evicts 2, the least recent, and keeps 1.
  lru.put(1, 12, 95);
  const LruStats s = lru.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.cost, 95u);
  EXPECT_EQ(lru.get(1), 12);
  EXPECT_EQ(lru.get(2), std::nullopt);
}

TEST(BoundedLru, EraseIfRemovesMatchingKeysAndCountsThem) {
  IntLru lru(21);
  for (int k = 1; k <= 6; ++k) {
    lru.put(k, k * 10, static_cast<std::uint64_t>(k));  // 21 charged: full
  }

  EXPECT_EQ(lru.erase_if([](int k) { return k % 2 == 0; }), 3u);
  EXPECT_EQ(lru.erase_if([](int k) { return k > 100; }), 0u);
  const LruStats s = lru.stats();
  EXPECT_EQ(s.erased, 3u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.cost, 9u);  // 1 + 3 + 5
  for (int k = 1; k <= 6; ++k) {
    EXPECT_EQ(lru.get(k).has_value(), k % 2 != 0) << k;
  }
}

TEST(BoundedLru, ZeroBudgetCountsMissesAndStoresNothing) {
  IntLru lru(0);
  lru.put(1, 10);
  lru.put(2, 20, 0);  // even a free entry: budget 0 is off, not empty
  EXPECT_EQ(lru.get(1), std::nullopt);
  EXPECT_EQ(lru.get(2), std::nullopt);
  EXPECT_EQ(lru.get(1), std::nullopt);

  const LruStats s = lru.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.insertions, 0u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.cost, 0u);
}

TEST(BoundedLru, ValueFromGetOutlivesItsEviction) {
  BoundedLru<int, std::shared_ptr<const std::string>> lru(1);
  lru.put(1, std::make_shared<const std::string>("first"));
  const std::shared_ptr<const std::string> held = lru.get(1).value();
  lru.put(2, std::make_shared<const std::string>("second"));

  EXPECT_EQ(lru.stats().evictions, 1u);
  EXPECT_EQ(lru.get(1), std::nullopt);
  EXPECT_EQ(*held, "first");
  EXPECT_EQ(held.use_count(), 1);  // the cache let go; the caller owns it
}

// Concurrent get/put/erase_if from several threads (run under TSan by
// tools/ci.sh --tsan). Every get is a hit or a miss, and every stored key
// is still present or was evicted or erased.
TEST(BoundedLru, ConcurrentStatsAddUpToTheOperationsIssued) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  constexpr int kKeys = 32;
  constexpr std::uint64_t kBudget = 24;
  IntLru lru(kBudget);

  std::vector<std::uint64_t> gets(kThreads, 0);
  std::vector<std::uint64_t> erased(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::minstd_rand rng(static_cast<std::uint32_t>(t) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int key = static_cast<int>(rng() % kKeys);
        switch (rng() % 8) {
          case 0:
            erased[static_cast<std::size_t>(t)] +=
                lru.erase_if([key](int k) { return k % 7 == key % 7; });
            break;
          case 1:
          case 2:
          case 3:
            lru.put(key, key, 1 + static_cast<std::uint64_t>(key % 3));
            break;
          default:
            if (const auto v = lru.get(key)) {
              EXPECT_EQ(*v, key);
            }
            ++gets[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t total_gets = 0;
  std::uint64_t total_erased = 0;
  for (int t = 0; t < kThreads; ++t) {
    total_gets += gets[static_cast<std::size_t>(t)];
    total_erased += erased[static_cast<std::size_t>(t)];
  }
  const LruStats s = lru.stats();
  EXPECT_EQ(s.hits + s.misses, total_gets);
  EXPECT_EQ(s.erased, total_erased);
  EXPECT_EQ(s.insertions, s.evictions + s.erased + s.entries);
  EXPECT_LE(s.cost, kBudget);
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.evictions, 0u);
}

}  // namespace
}  // namespace apks
