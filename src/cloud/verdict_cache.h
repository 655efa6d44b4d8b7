// Per-segment verdict memoization for hot queries (the ROADMAP's
// "(query digest × segment) → verdict" cache — the single biggest lever
// for heavy read traffic).
//
// Search is pairing-bound: every repeated hot-keyword query re-pays a full
// pairing match per record even though a sealed segment's record set is
// immutable. This cache remembers, per (QueryDigest, SegmentId), exactly
// which record ids of that sealed segment matched — including the empty
// set (negative caching: "nothing in this segment matches" is the common
// verdict and exactly as valuable). A later batch with the same query
// answers every record of a memoized segment with one binary search
// instead of one pairing product.
//
// Correctness leans on three invariants, enforced by the layers around it:
//  - Keys are durable segment identities (store/index_store.h SegmentId:
//    store uid + shard + seq + seal epoch). Sealed record sets are
//    immutable and two distinct sealed sets never share a SegmentId, so a
//    cached verdict can never be served for different bytes than it was
//    computed from.
//  - Only *sealed* segments are memoized. The active tail is mutable and
//    always scanned live (SearchEngine tags its records with no segment).
//  - Only *complete* scans populate. A partial (deadline/cancelled) scan
//    has holes in its hit matrix; SearchEngine skips population unless the
//    batch ran to the end of the store.
// Invalidation (rotation/compaction hooks) is therefore memory hygiene,
// not a correctness requirement: retired ids are simply never probed
// again once the server reloads.
//
// Bounded by a byte budget (entry overhead + 8 bytes per matched id) in a
// BoundedLru (common/bounded_lru.h): LRU-evicted, internally locked, and
// get() returns shared ownership so an eviction never invalidates a
// verdict a scan is still applying.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/bounded_lru.h"
#include "core/backend.h"
#include "core/capability_digest.h"
#include "store/index_store.h"

namespace apks {

class VerdictCache {
 public:
  // Matched record ids of one segment under one query, ascending (records
  // stream in ascending-id order). An empty vector is a cached negative.
  using MatchedIds = std::vector<std::uint64_t>;

  // byte_budget == 0 disables the cache (get always misses, put drops).
  explicit VerdictCache(std::uint64_t byte_budget) : lru_(byte_budget) {}

  [[nodiscard]] bool enabled() const noexcept { return lru_.budget() != 0; }
  [[nodiscard]] std::uint64_t byte_budget() const noexcept {
    return lru_.budget();
  }

  // The memoized verdict for (digest, segment), refreshing its recency, or
  // nullptr on a miss. The returned vector is immutable and shared — safe
  // to keep across a concurrent eviction/invalidation.
  [[nodiscard]] std::shared_ptr<const MatchedIds> get(
      const QueryDigest& digest, const SegmentId& segment) {
    return lru_.get(Key{digest, segment}).value_or(nullptr);
  }

  // Memoizes a complete scan's verdict for one sealed segment, evicting
  // LRU entries past the byte budget. An entry larger than the whole
  // budget is not stored. Callers must only pass verdicts from complete
  // (non-partial, non-cancelled) scans of sealed segments.
  void put(const QueryDigest& digest, const SegmentId& segment,
           MatchedIds ids) {
    const std::uint64_t cost =
        kEntryOverhead + static_cast<std::uint64_t>(ids.size()) * 8;
    lru_.put(Key{digest, segment},
             std::make_shared<const MatchedIds>(std::move(ids)), cost);
  }

  // Drops every verdict cached under the given segment identities (the
  // rotation/compaction invalidation hook target); counted as `erased`.
  void invalidate(std::span<const SegmentId> segments) {
    if (segments.empty()) return;
    (void)lru_.erase_if([segments](const Key& key) {
      return std::find(segments.begin(), segments.end(), key.segment) !=
             segments.end();
    });
  }

  // `cost` is the charged bytes.
  [[nodiscard]] LruStats stats() const { return lru_.stats(); }

 private:
  struct Key {
    QueryDigest digest;
    SegmentId segment;
    [[nodiscard]] bool operator==(const Key& o) const noexcept {
      return segment == o.segment && digest == o.digest;
    }
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const noexcept {
      // The digest is already uniform; fold the segment identity in.
      std::size_t h = CapabilityDigestHash{}(k.digest);
      h ^= SegmentIdHash{}(k.segment) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
      return h;
    }
  };

  // Bookkeeping cost per entry: key + list/map node overhead, amortized.
  static constexpr std::uint64_t kEntryOverhead = 128;

  BoundedLru<Key, std::shared_ptr<const MatchedIds>, KeyHash> lru_;
};

}  // namespace apks
