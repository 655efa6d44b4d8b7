#include "store/sharded_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <stdexcept>

#include <unistd.h>

#include "common/bytes.h"
#include "common/crc32.h"
#include "store/fs.h"

namespace apks {
namespace {

constexpr char kStoreMagic[8] = {'A', 'P', 'K', 'S', 'S', 'T', 'R', '1'};
// The one STORE version: [magic] [u32 version] [u32 shards] [u8 scheme]
// [u64 store uid] [u32 crc32]. The uid is stamped into SegmentIds so
// identities from different stores never collide in a shared verdict
// cache. Any other version is refused as corrupt.
constexpr std::uint32_t kStoreVersion = 3;
constexpr std::size_t kStoreMetaBytes = sizeof(kStoreMagic) + 4 + 4 + 1 + 8 + 4;

// Random nonzero uid for a freshly created store. Non-cryptographic — the
// uid only has to make accidental SegmentId collisions across distinct
// stores vanishingly unlikely.
std::uint64_t mint_store_uid() {
  std::random_device rd;
  std::uint64_t uid = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  uid ^= static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return uid != 0 ? uid : 1;
}

std::filesystem::path shard_dir(const std::filesystem::path& dir,
                                std::uint32_t shard) {
  char name[24];
  std::snprintf(name, sizeof(name), "shard-%03u", shard);
  return dir / name;
}

void write_store_meta(const std::filesystem::path& dir, std::uint32_t shards,
                      SchemeKind scheme, std::uint64_t store_uid) {
  ByteWriter w;
  w.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kStoreMagic),
      sizeof(kStoreMagic)));
  w.u32(kStoreVersion);
  w.u32(shards);
  w.u8(static_cast<std::uint8_t>(scheme));
  w.u64(store_uid);
  w.u32(crc32(w.data()));
  const std::filesystem::path tmp = dir / "STORE.tmp";
  std::FILE* f = storefs::open(tmp, "wb");
  if (f == nullptr) {
    throw StoreError(ErrorCode::kIo, "cannot write " + tmp.string(),
                     tmp.string());
  }
  const bool ok = storefs::write(f, w.data().data(), w.size()) &&
                  storefs::sync(f);
  if (!storefs::close(f) || !ok) {
    throw StoreError(ErrorCode::kIo, "store meta write failed: " + tmp.string(),
                     tmp.string());
  }
  storefs::rename(tmp, dir / "STORE");
  storefs::sync_directory(dir);
}

struct StoreMeta {
  std::uint32_t shards = 0;
  SchemeKind scheme = SchemeKind::kApks;
  std::uint64_t store_uid = 0;
};

// Every refusal of a STORE file is typed, like a shard MANIFEST's.
StoreMeta read_store_meta(const std::filesystem::path& dir) {
  const std::filesystem::path path = dir / "STORE";
  const auto corrupt = [&](const std::string& what) {
    return StoreError(ErrorCode::kCorrupt, what + ": " + path.string(),
                      path.string());
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw StoreError(ErrorCode::kIo, "cannot open " + path.string(),
                     path.string());
  }
  const std::vector<std::uint8_t> data{std::istreambuf_iterator<char>(in),
                                       std::istreambuf_iterator<char>()};
  if (data.size() < sizeof(kStoreMagic) + 8 ||
      std::memcmp(data.data(), kStoreMagic, sizeof(kStoreMagic)) != 0) {
    throw corrupt("not a store");
  }
  const std::span<const std::uint8_t> body(data.data(), data.size() - 4);
  if (crc32(body) != ByteReader(std::span<const std::uint8_t>(
                                    data.data() + data.size() - 4, 4))
                         .u32()) {
    throw corrupt("store meta checksum mismatch");
  }
  ByteReader r(body);
  (void)r.raw(sizeof(kStoreMagic));
  const std::uint32_t version = r.u32();
  if (version != kStoreVersion) {
    throw corrupt("unsupported store version " + std::to_string(version));
  }
  if (data.size() != kStoreMetaBytes) {
    throw corrupt(data.size() > kStoreMetaBytes ? "store meta: trailing bytes"
                                                : "store meta: truncated");
  }
  StoreMeta meta;
  meta.shards = r.u32();
  const std::uint8_t raw = r.u8();
  if (raw != static_cast<std::uint8_t>(SchemeKind::kApks) &&
      raw != static_cast<std::uint8_t>(SchemeKind::kApksPlus) &&
      raw != static_cast<std::uint8_t>(SchemeKind::kMrqed)) {
    throw corrupt("store meta: unknown scheme tag " + std::to_string(raw));
  }
  meta.scheme = static_cast<SchemeKind>(raw);
  meta.store_uid = r.u64();
  if (meta.shards == 0 || meta.shards > 4096) {
    throw corrupt("store meta: implausible shard count");
  }
  return meta;
}

// Record payload header (everything except the encrypted index itself).
struct RecordHead {
  std::uint64_t id;
  std::string doc_ref;
  std::span<const std::uint8_t> index_bytes;
};

// A frame that passed its CRC but does not decode is not a crash artifact
// — it is a codec mismatch or a store bug — so it is refused as corrupt,
// naming the shard directory that holds it.
RecordHead decode_head(std::span<const std::uint8_t> payload,
                       const std::filesystem::path& shard) {
  try {
    ByteReader r(payload);
    RecordHead head;
    head.id = r.u64();
    head.doc_ref = r.str();
    head.index_bytes = r.bytes();
    if (!r.done()) {
      throw std::invalid_argument("trailing bytes");
    }
    return head;
  } catch (const std::exception& ex) {
    throw StoreError(ErrorCode::kCorrupt,
                     std::string("store record corrupt: ") + ex.what() +
                         ": " + shard.string(),
                     shard.string());
  }
}

template <typename Record>
void sort_by_id(std::vector<Record>& records) {
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.id < b.id; });
}

}  // namespace

ShardedStore::ShardedStore(const SearchBackend& backend,
                           std::filesystem::path dir,
                           ShardedStoreOptions options)
    : backend_(&backend), dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
  std::uint32_t shards = options.shards;
  if (std::filesystem::exists(dir_ / "STORE")) {
    const StoreMeta meta = read_store_meta(dir_);
    if (meta.scheme != scheme()) {
      throw std::invalid_argument(
          "scheme mismatch: store at " + dir_.string() + " holds '" +
          std::string(scheme_name(meta.scheme)) + "' records, opened as '" +
          std::string(scheme_name(scheme())) + "'");
    }
    shards = meta.shards;
    store_uid_ = meta.store_uid;
  } else {
    if (shards == 0) {
      throw std::invalid_argument("ShardedStore: shard count must be > 0");
    }
    store_uid_ = mint_store_uid();
    write_store_meta(dir_, shards, scheme(), store_uid_);
  }
  IndexStoreOptions shard_options = options.segment;
  shard_options.store_uid = store_uid_;
  shards_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(
        IndexStore(shard_dir(dir_, s), s, shard_options, scheme())));
  }
  // Seed the id counter past everything on disk. Replaying every frame
  // here also re-verifies every checksum of the store at open time.
  std::uint64_t max_id = 0;
  for (const auto& shard : shards_) {
    shard->store.for_each([&](std::span<const std::uint8_t> payload,
                              const SegmentId&, bool) {
      max_id = std::max(max_id, decode_head(payload, shard->store.dir()).id);
    });
  }
  next_id_.store(max_id + 1, std::memory_order_relaxed);
}

void ShardedStore::require_apks_family(const char* what) const {
  if (scheme() == SchemeKind::kMrqed) {
    throw std::invalid_argument(
        std::string(what) + ": store holds '" +
        std::string(scheme_name(scheme())) +
        "' records; use the scheme-agnostic (_any) API");
  }
}

std::uint64_t ShardedStore::append(std::string doc_ref,
                                   const EncryptedIndex& index) {
  require_apks_family("ShardedStore::append");
  return append_any(std::move(doc_ref), AnyIndex::ref(scheme(), &index));
}

std::uint64_t ShardedStore::append_any(std::string doc_ref,
                                       const AnyIndex& index) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  ByteWriter w;
  w.u64(id);
  w.str(doc_ref);
  w.bytes(backend_->encode_index(index));
  Shard& shard = shard_for(id);
  std::unique_lock lock(shard.mutex);
  shard.store.put(w.data());
  return id;
}

void ShardedStore::flush() {
  for (const auto& shard : shards_) {
    std::unique_lock lock(shard->mutex);
    shard->store.flush();
  }
}

void ShardedStore::sync() {
  for (const auto& shard : shards_) {
    std::unique_lock lock(shard->mutex);
    shard->store.sync();
  }
}

void ShardedStore::for_each_record_any(
    const RecordFn& fn, std::span<const std::uint32_t> shards) {
  const auto stream = [&](Shard& shard) {
    std::shared_lock lock(shard.mutex);
    shard.store.for_each([&](std::span<const std::uint8_t> payload,
                             const SegmentId& seg, bool sealed) {
      RecordHead head = decode_head(payload, shard.store.dir());
      fn(StoredAnyRecord{head.id, std::move(head.doc_ref),
                         backend_->decode_index(head.index_bytes)},
         seg, sealed);
    });
  };
  if (shards.empty()) {
    for (const auto& shard : shards_) stream(*shard);
    return;
  }
  for (const std::uint32_t s : shards) {
    if (s >= shards_.size()) {
      throw std::out_of_range("ShardedStore: no shard " + std::to_string(s));
    }
    stream(*shards_[s]);
  }
}

std::vector<SegmentId> ShardedStore::sealed_segment_ids() const {
  std::vector<SegmentId> ids;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    const std::vector<SegmentId> shard_ids =
        shard->store.sealed_segment_ids();
    ids.insert(ids.end(), shard_ids.begin(), shard_ids.end());
  }
  return ids;
}

void ShardedStore::set_invalidation_hook(SegmentInvalidationHook hook) {
  for (const auto& shard : shards_) {
    std::unique_lock lock(shard->mutex);
    shard->store.set_invalidation_hook(hook);
  }
}

// Each shard streams in ascending-id order already; a global sort by id
// restores the original upload order across shards.
std::vector<StoredIndexRecord> ShardedStore::load_all() {
  require_apks_family("ShardedStore::load_all");
  std::vector<StoredIndexRecord> out;
  out.reserve(record_count());
  for_each_record_any([&](StoredAnyRecord&& rec, const SegmentId&, bool) {
    out.push_back({rec.id, std::move(rec.doc_ref),
                   rec.index.as<EncryptedIndex>()});
  });
  sort_by_id(out);
  return out;
}

std::vector<StoredAnyRecord> ShardedStore::load_all_any() {
  std::vector<StoredAnyRecord> out;
  out.reserve(record_count());
  for_each_record_any([&](StoredAnyRecord&& rec, const SegmentId&, bool) {
    out.push_back(std::move(rec));
  });
  sort_by_id(out);
  return out;
}

std::uint64_t ShardedStore::compact() {
  std::uint64_t reclaimed = 0;
  for (const auto& shard : shards_) {
    std::unique_lock lock(shard->mutex);
    reclaimed += shard->store.compact();
  }
  return reclaimed;
}

std::size_t ShardedStore::record_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    n += shard->store.record_count();
  }
  return n;
}

std::uint64_t ShardedStore::bytes() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    n += shard->store.bytes();
  }
  return n;
}

std::size_t ShardedStore::segment_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    n += shard->store.segment_count();
  }
  return n;
}

RecoveryStats ShardedStore::recovery() const {
  RecoveryStats total;
  for (const auto& shard : shards_) {
    const RecoveryStats& r = shard->store.recovery();
    total.segments += r.segments;
    total.records += r.records;
    total.torn_bytes += r.torn_bytes;
    total.torn_tail = total.torn_tail || r.torn_tail;
  }
  return total;
}

}  // namespace apks
