// ShardedStore — the cloud server's persistent record source: S IndexStore
// shards (each its own segment chain + shared_mutex) under one directory,
// holding the encrypted-index records of CloudServer in the
// serialize_index wire format.
//
// Directory layout:
//
//   <dir>/STORE          version, shard count, scheme tag and store uid
//                        (checksummed, written once at creation)
//   <dir>/shard-000/     IndexStore chain (MANIFEST + seg-*.apks)
//   <dir>/shard-001/     ...
//
// Record payload (one segment frame): [u64 id] [str doc_ref]
// [bytes serialize_index(...)]. Records route to shard id % S, so every
// shard holds an id-ascending subsequence and a k-way merge by id restores
// the exact upload order — which is what makes a reloaded CloudServer
// return byte-identical results (same doc_refs, same order) to the server
// that never restarted.
//
// Concurrency: append takes the target shard's lock exclusively;
// streaming reads (load_all, for_each_record_any) hold each shard they
// stream shared while they stream it. The store has no search of its own:
// a server loads it (CloudServer::load_from) and SearchEngine scans. Ids
// come from one atomic counter, seeded past the largest id on disk at
// open (open replays every committed frame, which doubles as an
// end-to-end checksum validation of the whole store).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/apks.h"
#include "core/backend.h"
#include "store/index_store.h"

namespace apks {

struct StoredIndexRecord {
  std::uint64_t id = 0;
  std::string doc_ref;
  EncryptedIndex index;
};

// Scheme-agnostic record view: the index stays behind the type-erased
// handle its scheme's backend decoded it into.
struct StoredAnyRecord {
  std::uint64_t id = 0;
  std::string doc_ref;
  AnyIndex index;
};

struct ShardedStoreOptions {
  // Shard count used when creating a fresh store; an existing store's
  // STORE file wins on reopen (the on-disk partitioning is fixed).
  std::uint32_t shards = 4;
  IndexStoreOptions segment;
};

class ShardedStore {
 public:
  // Opens (creating if absent) and crash-recovers every shard. Records are
  // encoded/decoded through the backend's codec and the backend's
  // SchemeKind is stamped into the STORE metadata (and each shard
  // manifest). Opening an existing store whose tag differs from the
  // backend's scheme throws — a store ingested under one scheme is
  // refused, never silently mis-parsed, by another. A STORE or MANIFEST
  // that is not the current version, fails its checksum or does not parse
  // throws StoreError(kCorrupt). The backend must outlive the store.
  ShardedStore(const SearchBackend& backend, std::filesystem::path dir,
               ShardedStoreOptions options = {});

  // Owner upload: assigns the next id, persists, returns the id. The typed
  // variant requires an APKS-family store (EncryptedIndex payloads).
  std::uint64_t append(std::string doc_ref, const EncryptedIndex& index);
  std::uint64_t append_any(std::string doc_ref, const AnyIndex& index);

  void flush();  // all shards
  void sync();   // all shards (durability barrier)

  // Every committed record, decoded and k-way-merged into ascending-id
  // (i.e. original upload) order. The typed variant requires an
  // APKS-family store (EncryptedIndex payloads).
  [[nodiscard]] std::vector<StoredIndexRecord> load_all();
  [[nodiscard]] std::vector<StoredAnyRecord> load_all_any();

  // Streams decoded records shard by shard, ascending id within a shard,
  // without materializing the store. Each record arrives with the durable
  // identity of the segment holding it and whether that segment is sealed
  // (immutable): CloudServer::load_from tags its records with these for
  // the verdict cache, which may memoize only sealed segments. `shards`
  // names the shards to stream, in that order; empty streams every shard
  // in shard order. Records of shards not named are never decoded.
  using RecordFn = std::function<void(StoredAnyRecord&&, const SegmentId&,
                                      bool sealed)>;
  void for_each_record_any(const RecordFn& fn,
                           std::span<const std::uint32_t> shards = {});

  // Compacts every shard chain; returns total bytes reclaimed.
  std::uint64_t compact();

  [[nodiscard]] std::size_t record_count() const;
  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] std::uint64_t bytes() const;
  [[nodiscard]] std::size_t segment_count() const;
  [[nodiscard]] std::uint64_t next_id() const noexcept {
    return next_id_.load(std::memory_order_relaxed);
  }
  // Aggregated crash-recovery report from open (sums over shards).
  [[nodiscard]] RecoveryStats recovery() const;
  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }
  // The scheme this store's records belong to (the STORE metadata tag,
  // which open checked against the backend).
  [[nodiscard]] SchemeKind scheme() const noexcept { return backend_->kind(); }
  // The codec backend the store was opened with.
  [[nodiscard]] const SearchBackend& backend() const noexcept {
    return *backend_;
  }
  // Random nonzero uid minted when the STORE meta was first written.
  // Stamped into every SegmentId so identities from different stores never
  // collide in a shared cache.
  [[nodiscard]] std::uint64_t store_uid() const noexcept {
    return store_uid_;
  }

  // Identities of every sealed segment across all shards (unspecified
  // order). Stable until the next compact().
  [[nodiscard]] std::vector<SegmentId> sealed_segment_ids() const;

  // Installs the segment-invalidation hook on every shard: fired after a
  // rotation or compaction commits, with the retired SegmentIds. Runs with
  // the shard's lock held — the hook must not call back into the store
  // (dropping verdict-cache entries is the intended body). Call during
  // setup; not thread-safe against concurrent writes.
  void set_invalidation_hook(SegmentInvalidationHook hook);

 private:
  struct Shard {
    explicit Shard(IndexStore s) : store(std::move(s)) {}
    IndexStore store;
    mutable std::shared_mutex mutex;
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t id) {
    return *shards_[id % shards_.size()];
  }
  void require_apks_family(const char* what) const;

  const SearchBackend* backend_;
  std::filesystem::path dir_;
  std::uint64_t store_uid_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_id_{1};
};

}  // namespace apks
