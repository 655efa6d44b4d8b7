// BoundedLru — the one least-recently-used cache in the tree. It backs the
// search engine's prepared-query cache (cloud/search_engine.h), its
// per-segment verdict cache (cloud/verdict_cache.h) and the cluster
// coordinator's edge-auth cache (cluster/coordinator.h).
//
// Every entry is charged a caller-given cost against one budget: cost 1
// per entry makes the budget an entry count, a byte estimate makes it a
// byte budget. A put that takes the total past the budget evicts least
// recently used entries until it fits again. An entry that costs more than
// the whole budget is never stored: it would evict everything and still
// not fit. Budget 0 disables the cache: every get is a counted miss and
// put stores nothing, so hit/miss totals stay coherent with the caller's
// own work counts whether the cache is on or off.
//
// Internally locked: every member may be called from concurrent serving
// threads. get copies the value out under the lock, so with a shared
// handle as V (AnyPrepared, shared_ptr) an eviction never invalidates a
// value a caller is still using.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

namespace apks {

struct LruStats {
  std::uint64_t hits = 0;        // get() found the key
  std::uint64_t misses = 0;      // get() found nothing
  std::uint64_t insertions = 0;  // put() stored a new key
  std::uint64_t evictions = 0;   // entries dropped to fit the budget
  std::uint64_t erased = 0;      // entries dropped by erase_if()
  std::size_t entries = 0;       // current entry count
  std::uint64_t cost = 0;        // current total charged cost
};

template <typename K, typename V, typename Hash = std::hash<K>>
class BoundedLru {
 public:
  explicit BoundedLru(std::uint64_t budget) : budget_(budget) {}

  [[nodiscard]] std::uint64_t budget() const noexcept { return budget_; }

  // The value stored under `key`, now the most recently used entry, or
  // nullopt on a miss.
  [[nodiscard]] std::optional<V> get(const K& key) {
    std::lock_guard lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    order_.splice(order_.begin(), order_, it->second);
    ++stats_.hits;
    return it->second->value;
  }

  // Stores `value` under `key`, charged `cost`. A key already present is
  // refreshed in place: new value, re-charged cost, most recently used.
  // Least recently used entries are then evicted until the total fits.
  void put(const K& key, V value, std::uint64_t cost = 1) {
    if (budget_ == 0 || cost > budget_) return;
    std::lock_guard lock(mutex_);
    if (const auto it = index_.find(key); it != index_.end()) {
      Entry& entry = *it->second;
      stats_.cost = stats_.cost - entry.cost + cost;
      entry.value = std::move(value);
      entry.cost = cost;
      order_.splice(order_.begin(), order_, it->second);
    } else {
      order_.push_front(Entry{key, std::move(value), cost});
      index_.emplace(key, order_.begin());
      stats_.cost += cost;
      ++stats_.insertions;
    }
    // Stops at the front entry at the latest: its cost fits the budget.
    while (stats_.cost > budget_) {
      ++stats_.evictions;
      erase_locked(std::prev(order_.end()));
    }
  }

  // Removes every entry whose key satisfies `pred` in one pass, and
  // returns how many it removed. `pred` runs under the cache's lock.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::lock_guard lock(mutex_);
    std::size_t erased = 0;
    for (auto it = order_.begin(); it != order_.end();) {
      const auto next = std::next(it);
      if (pred(std::as_const(it->key))) {
        erase_locked(it);
        ++erased;
      }
      it = next;
    }
    stats_.erased += erased;
    return erased;
  }

  [[nodiscard]] LruStats stats() const {
    std::lock_guard lock(mutex_);
    LruStats out = stats_;
    out.entries = index_.size();
    return out;
  }

 private:
  struct Entry {
    K key;
    V value;
    std::uint64_t cost = 0;
  };
  using Order = std::list<Entry>;

  void erase_locked(typename Order::iterator it) {
    stats_.cost -= it->cost;
    index_.erase(it->key);
    order_.erase(it);
  }

  const std::uint64_t budget_;
  mutable std::mutex mutex_;
  Order order_;  // front = most recently used
  std::unordered_map<K, typename Order::iterator, Hash> index_;
  LruStats stats_;  // `entries` is filled in by stats()
};

}  // namespace apks
