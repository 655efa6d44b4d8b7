// IndexStore — one shard's persistent record log: a manifest plus a chain
// of segment files (segment.h) in one directory.
//
// Directory layout:
//
//   <dir>/MANIFEST            checksummed list of segments, atomically
//                             replaced (tmp + rename) on every rotation
//   <dir>/seg-00000001.apks   sealed segment (never written again)
//   <dir>/seg-00000002.apks   ...
//   <dir>/seg-00000003.apks   active segment (append target)
//
// Invariants and recovery rules:
//  - Sealed segments were fsynced before the manifest naming them sealed
//    was committed; a torn frame inside one is real corruption and open()
//    throws. The *active* segment may legitimately carry a torn tail after
//    a crash; open() truncates it and resumes appending (RecoveryStats
//    reports what was dropped).
//  - Rotation order: sync active -> create+sync new segment -> commit new
//    manifest (tmp, fsync, rename, fsync dir). A crash between any two
//    steps leaves the previous manifest pointing at the previous active
//    segment, which is still valid; the orphan new file is truncated and
//    reused when its sequence number is reached again.
//  - Payloads are opaque bytes; ShardedStore (sharded_store.h) defines the
//    record encoding. Not thread-safe — callers serialize access
//    (ShardedStore guards each shard with a shared_mutex).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/backend.h"
#include "store/segment.h"

namespace apks {

// Durable identity of one segment, stable across process restarts: the
// owning store's uid (random at store creation; 0 for a standalone
// IndexStore), the shard, the segment's sequence number, and the epoch
// assigned when the segment was *sealed* (from the shard's
// monotonically increasing epoch counter, persisted in the manifest).
// Sequence numbers are never reused (next_seq_ is persisted before a seal
// commits) and the epoch makes the identity robust even against manifests
// hand-rolled to replay a seq: two distinct sealed record sets never share
// a SegmentId, which is what lets layers above memoize per-segment
// derivations (the verdict cache) keyed by it. The active segment has no
// epoch yet — it is mutable and must never be memoized; it is reported
// with epoch 0 and sealed=false by the streaming APIs.
struct SegmentId {
  std::uint64_t store_uid = 0;
  std::uint32_t shard = 0;
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;

  [[nodiscard]] bool operator==(const SegmentId& o) const noexcept {
    return store_uid == o.store_uid && shard == o.shard && seq == o.seq &&
           epoch == o.epoch;
  }
};

struct SegmentIdHash {
  [[nodiscard]] std::size_t operator()(const SegmentId& id) const noexcept {
    std::uint64_t h = id.store_uid;
    for (const std::uint64_t v : {static_cast<std::uint64_t>(id.shard),
                                  id.seq, id.epoch}) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

// Fired after a manifest commit that retires segment identities (compact;
// rotate also announces the just-sealed seq defensively). Receivers drop
// any per-segment derivations cached under these ids.
using SegmentInvalidationHook =
    std::function<void(std::span<const SegmentId>)>;

struct IndexStoreOptions {
  // Rotate the active segment once it exceeds this many bytes (header
  // included). Small values are useful in tests to force multi-segment
  // chains; 0 means never rotate.
  std::uint64_t segment_max_bytes = 4u << 20;
  // fsync on every put (durability over throughput). Off by default:
  // callers batch with flush()/sync().
  bool sync_every_put = false;
  // Store uid stamped into the SegmentIds this shard reports (ShardedStore
  // passes its STORE-meta uid down; standalone shards default to 0).
  std::uint64_t store_uid = 0;
};

struct RecoveryStats {
  std::size_t segments = 0;        // segments opened (sealed + active)
  std::size_t records = 0;         // committed records recovered
  std::uint64_t torn_bytes = 0;    // bytes truncated off the active tail
  bool torn_tail = false;          // active segment had a torn tail
};

class IndexStore {
 public:
  // Opens (creating the directory, first segment and manifest if absent)
  // and runs crash recovery. `shard_id` is stamped into segment headers and
  // cross-checked against existing files. `scheme` is stamped into the
  // manifest so a shard ingested under one scheme's codec is refused by
  // another; a manifest of any other version is refused as corrupt.
  IndexStore(std::filesystem::path dir, std::uint32_t shard_id,
             IndexStoreOptions options = {},
             SchemeKind scheme = SchemeKind::kApks);

  IndexStore(IndexStore&&) = default;
  IndexStore& operator=(IndexStore&&) = default;

  // Appends one record payload; buffered until flush()/sync().
  void put(std::span<const std::uint8_t> payload);

  void flush();  // push buffered frames to the OS
  void sync();   // fsync the active segment (durability barrier)

  // Streams every committed record, sealed segments first, in append
  // order, each with the identity of the segment holding it and whether
  // that segment is sealed (immutable — only sealed segments may be
  // memoized by layers above; the active tail reports sealed=false and
  // epoch 0). Flushes the writer first so the scan sees all records.
  using RecordFn = std::function<void(std::span<const std::uint8_t>,
                                      const SegmentId&, bool sealed)>;
  void for_each(const RecordFn& fn);

  // Rewrites the whole chain into a single fresh sealed segment and a new
  // empty active segment, dropping nothing (compaction reclaims the space
  // of torn tails and lets a long chain of small segments collapse).
  // Returns bytes reclaimed (old chain size - new chain size).
  std::uint64_t compact();

  [[nodiscard]] std::size_t record_count() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t segment_count() const noexcept {
    return sealed_.size() + 1;
  }
  [[nodiscard]] std::uint64_t bytes() const noexcept;
  [[nodiscard]] const RecoveryStats& recovery() const noexcept {
    return recovery_;
  }
  [[nodiscard]] SchemeKind scheme() const noexcept { return scheme_; }
  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }

  // Identities of the sealed (immutable) segments, in chain order. Stable
  // until the next compact() retires them.
  [[nodiscard]] std::vector<SegmentId> sealed_segment_ids() const;
  // Highest epoch assigned by this shard so far (0 for a shard that never
  // sealed a segment).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  // Installs (or clears, with an empty function) the invalidation hook.
  // Fired synchronously after the manifest commit of rotate()/compact(),
  // i.e. while the caller's shard lock is held — the hook must not call
  // back into the store.
  void set_invalidation_hook(SegmentInvalidationHook hook) {
    invalidation_hook_ = std::move(hook);
  }

 private:
  struct SealedSegment {
    std::uint64_t seq = 0;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    std::uint64_t epoch = 0;  // assigned at seal time
  };

  [[nodiscard]] std::filesystem::path segment_path(std::uint64_t seq) const;
  [[nodiscard]] SegmentId id_of(const SealedSegment& s) const noexcept {
    return {options_.store_uid, shard_id_, s.seq, s.epoch};
  }
  void write_manifest() const;
  void load_manifest();
  void rotate();
  void fire_invalidation(std::span<const SegmentId> retired) const;

  std::filesystem::path dir_;
  std::uint32_t shard_id_ = 0;
  SchemeKind scheme_ = SchemeKind::kApks;
  IndexStoreOptions options_;
  std::vector<SealedSegment> sealed_;
  std::uint64_t next_seq_ = 1;  // sequence number for the *next* rotation
  std::uint64_t epoch_ = 0;     // highest seal epoch assigned so far
  std::optional<SegmentWriter> active_;
  std::size_t records_ = 0;
  RecoveryStats recovery_;
  SegmentInvalidationHook invalidation_hook_;
};

}  // namespace apks
