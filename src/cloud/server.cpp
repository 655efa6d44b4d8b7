#include "cloud/server.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

namespace apks {

namespace {

[[nodiscard]] bool is_apks_family(SchemeKind kind) noexcept {
  return kind == SchemeKind::kApks || kind == SchemeKind::kApksPlus;
}

void require_scheme_match(const SearchBackend& backend,
                          const ShardedStore& store, const char* what) {
  if (store.scheme() != backend.kind()) {
    throw std::invalid_argument(
        std::string(what) + ": store at " + store.dir().string() +
        " holds '" + std::string(scheme_name(store.scheme())) +
        "' records, server backend serves '" + std::string(backend.name()) +
        "'");
  }
}

}  // namespace

std::uint64_t CloudServer::store(EncryptedIndex index, std::string doc_ref) {
  if (!is_apks_family(backend_->kind())) {
    throw std::invalid_argument("CloudServer: typed APKS index on a '" +
                                std::string(backend_->name()) + "' backend");
  }
  return store_any(AnyIndex::own(backend_->kind(), std::move(index)),
                   std::move(doc_ref));
}

std::uint64_t CloudServer::store_any(AnyIndex index, std::string doc_ref) {
  // Ingest stage outside the lock: the proxy transformation chain (APKS+)
  // and the admission check are pairing work, not record-store mutation.
  index = backend_->ingest_transform(std::move(index));
  backend_->validate_ingest(index);
  std::unique_lock lock(mutex_);
  std::uint64_t id;
  if (backing_ != nullptr) {
    // The store assigns the id so the on-disk sequence stays authoritative
    // across restarts; persist before the record becomes searchable.
    id = backing_->append_any(doc_ref, index);
    next_id_ = id + 1;
  } else {
    id = next_id_++;
  }
  records_.push_back({id, std::move(doc_ref), std::move(index)});
  return id;
}

void CloudServer::attach_store(ShardedStore* store) {
  if (store != nullptr) {
    require_scheme_match(*backend_, *store, "CloudServer::attach_store");
  }
  std::unique_lock lock(mutex_);
  backing_ = store;
  if (store != nullptr) {
    next_id_ = std::max(next_id_, store->next_id());
  }
}

void CloudServer::restore(std::uint64_t id, EncryptedIndex index,
                          std::string doc_ref) {
  if (!is_apks_family(backend_->kind())) {
    throw std::invalid_argument("CloudServer: typed APKS index on a '" +
                                std::string(backend_->name()) + "' backend");
  }
  restore_any(id, AnyIndex::own(backend_->kind(), std::move(index)),
              std::move(doc_ref));
}

void CloudServer::restore_any(std::uint64_t id, AnyIndex index,
                              std::string doc_ref) {
  if (index.kind() != backend_->kind()) {
    throw std::invalid_argument(
        "CloudServer::restore: record of scheme '" +
        std::string(scheme_name(index.kind())) + "' on a '" +
        std::string(backend_->name()) + "' backend");
  }
  std::unique_lock lock(mutex_);
  if (!records_.empty() && records_.back().id >= id) {
    throw std::invalid_argument(
        "CloudServer::restore: record ids must be ascending");
  }
  records_.push_back({id, std::move(doc_ref), std::move(index)});
  next_id_ = std::max(next_id_, id + 1);
}

std::size_t CloudServer::load_from(ShardedStore& store) {
  require_scheme_match(*backend_, store, "CloudServer::load_from");
  // Stream with segment identities so records from sealed (immutable)
  // segments carry a slot into the segment table — that tag is what lets
  // SearchEngine resolve them from the verdict cache. Active-tail records
  // stay untagged (slot -1) and are always scanned live.
  struct Loaded {
    StoredAnyRecord rec;
    std::int32_t slot = -1;
  };
  std::vector<Loaded> loaded;
  std::vector<SegmentId> table;
  std::unordered_map<SegmentId, std::int32_t, SegmentIdHash> slots;
  store.for_each_record_any_segmented(
      [&](StoredAnyRecord&& rec, const SegmentId& seg, bool sealed) {
        std::int32_t slot = -1;
        if (sealed) {
          const auto [it, inserted] = slots.try_emplace(
              seg, static_cast<std::int32_t>(table.size()));
          if (inserted) table.push_back(seg);
          slot = it->second;
        }
        loaded.push_back({std::move(rec), slot});
      });
  // Each shard streams in ascending-id order; the global sort restores the
  // original upload order across shards (the scan-order contract).
  std::sort(loaded.begin(), loaded.end(), [](const Loaded& a, const Loaded& b) {
    return a.rec.id < b.rec.id;
  });
  std::unique_lock lock(mutex_);
  records_.clear();
  records_.reserve(loaded.size());
  segment_table_ = std::move(table);
  for (Loaded& l : loaded) {
    records_.push_back({l.rec.id, std::move(l.rec.doc_ref),
                        std::move(l.rec.index), l.slot});
    next_id_ = std::max(next_id_, l.rec.id + 1);
  }
  return records_.size();
}

}  // namespace apks
