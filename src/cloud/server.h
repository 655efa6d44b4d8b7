// The honest-but-curious cloud server of the system model (Fig. 1 / Fig. 6):
// the record set.
//
// CloudServer holds the encrypted indexes contributed by multiple owners,
// in upload (ascending-id) order: owner ingest (`store`), write-through
// persistence (`attach_store`), restart (`restore`, `load_from`) and the
// sealed-segment table the verdict cache keys on. It also carries the
// SearchBackend that does all the crypto and the CapabilityVerifier that
// checks the authority signature on a query.
//
// Searching is SearchEngine's job (search_engine.h). The paper's one
// server Search (signature check, preprocessing once, linear scan over the
// whole database) is a batch of one query there: searchable encryption
// reveals nothing that would allow sub-linear filtering, so every batch
// scans every record.
//
// The server is scheme-agnostic: APKS, APKS+ (whose proxy transformation
// chain rides the backend's ingest hooks) and the MRQED^D comparison
// baseline share this record set. The APKS-typed `store`/`restore` are
// thin wrappers for the basic deployment; they require an APKS-family
// backend.
//
// Concurrency contract: `store` is a writer and may run concurrently with
// any number of searches. The record set is guarded by a shared_mutex that
// a SearchEngine scan holds shared for the whole pass (its worker threads
// included), so a scan always sees a consistent snapshot.
#pragma once

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "auth/authority.h"
#include "core/apks.h"
#include "core/apks_backend.h"
#include "core/backend.h"
#include "store/sharded_store.h"

namespace apks {

class SearchEngine;

class CloudServer {
 public:
  struct Record {
    std::uint64_t id;
    std::string doc_ref;  // opaque handle to the (separately encrypted) docs
    AnyIndex index;
    // Slot into the server's sealed-segment table (load_from fills it), or
    // -1 when the record's segment identity is unknown or unsealed — such
    // records are always scanned live, never resolved from the verdict
    // cache. Write-through store() and restore() leave it at -1: those
    // records land in the active tail, which is mutable by definition.
    std::int32_t segment = -1;
  };

  // Basic-APKS deployment: the server owns an ApksBackend over `scheme`.
  // (Also accepts an ApksPlus passed as its Apks base — that preserves the
  // pre-backend behaviour where the server applies no ingest validation;
  // deployments that want the APKS+ ingest hooks construct an
  // ApksPlusBackend and use the backend ctor.)
  CloudServer(const Apks& scheme, CapabilityVerifier verifier)
      : owned_backend_(std::make_unique<ApksBackend>(scheme)),
        backend_(owned_backend_.get()),
        verifier_(std::move(verifier)) {}

  // Scheme-agnostic deployment; the backend must outlive the server.
  CloudServer(const SearchBackend& backend, CapabilityVerifier verifier)
      : backend_(&backend), verifier_(std::move(verifier)) {}

  // Owner upload. Runs the backend's ingest stage (ingest_transform, then
  // validate_ingest — which throws to refuse the record) and returns the
  // record id. Safe to call concurrently with searches (exclusive lock; a
  // running scan finishes on its snapshot). With a persistent store
  // attached (attach_store), the record is also appended to disk under the
  // same id before the call returns.
  std::uint64_t store(EncryptedIndex index, std::string doc_ref);
  std::uint64_t store_any(AnyIndex index, std::string doc_ref);

  // Attaches a persistent backing store: subsequent store() calls write
  // through to it, and record ids are drawn from its id counter so a
  // restarted server continues the same id sequence. The store's scheme
  // tag must match the backend's. Pass nullptr to detach. Not thread-safe
  // against a concurrent store() or search — call during setup. The store
  // must outlive the server (or be detached).
  void attach_store(ShardedStore* store);

  // Replaces the in-memory record set with the store's contents (ascending
  // id — the original upload order), so a restarted server serves
  // byte-identical results to the server that originally populated the
  // store. The store's scheme tag must match the backend's. Returns the
  // number of records loaded. Persisted records were validated at original
  // ingest, so the ingest hooks do not run again here. Records from sealed
  // segments are tagged with their durable segment identity (see
  // Record::segment), which enables SearchEngine's verdict cache.
  std::size_t load_from(ShardedStore& store);

  // Reinserts a single persisted record under its original id (records
  // must arrive in ascending-id order to preserve the scan order
  // contract; load_from does this for you). Skips the ingest hooks, like
  // load_from.
  void restore(std::uint64_t id, EncryptedIndex index, std::string doc_ref);
  void restore_any(std::uint64_t id, AnyIndex index, std::string doc_ref);

  [[nodiscard]] std::size_t record_count() const {
    std::shared_lock lock(mutex_);
    return records_.size();
  }

  // Sealed-segment identities the current in-memory records are tagged
  // with (rebuilt by load_from; empty for a server populated purely
  // through store()/restore()). SearchEngine keys its verdict cache on
  // these.
  [[nodiscard]] std::vector<SegmentId> segment_table() const {
    std::shared_lock lock(mutex_);
    return segment_table_;
  }

  [[nodiscard]] const SearchBackend& backend() const noexcept {
    return *backend_;
  }
  [[nodiscard]] const CapabilityVerifier& verifier() const noexcept {
    return verifier_;
  }

 private:
  friend class SearchEngine;  // scans records_ under mutex_ directly

  std::unique_ptr<ApksBackend> owned_backend_;  // legacy-ctor ownership
  const SearchBackend* backend_;
  CapabilityVerifier verifier_;
  mutable std::shared_mutex mutex_;
  std::vector<Record> records_;
  // Sealed-segment identities referenced by Record::segment slots; rebuilt
  // together with records_ by load_from (guarded by mutex_).
  std::vector<SegmentId> segment_table_;
  std::uint64_t next_id_ = 1;
  ShardedStore* backing_ = nullptr;  // optional write-through persistence
};

}  // namespace apks
