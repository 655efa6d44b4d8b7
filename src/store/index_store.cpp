#include "store/index_store.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common/bytes.h"
#include "common/crc32.h"
#include "store/fs.h"

namespace apks {
namespace {

[[noreturn]] void fail_io(const std::string& what,
                          const std::filesystem::path& path) {
  throw StoreError(ErrorCode::kIo,
                   what + ": " + path.string() + " (" + std::strerror(errno) +
                       ")",
                   path.string());
}

[[noreturn]] void fail_corrupt(const std::string& what,
                               const std::filesystem::path& path) {
  throw StoreError(ErrorCode::kCorrupt, what + ": " + path.string(),
                   path.string());
}

constexpr char kManifestMagic[8] = {'A', 'P', 'K', 'S', 'M', 'A', 'N', '1'};
// The one manifest version: shard id, scheme byte (SchemeKind), the
// shard's u64 epoch counter, and per sealed segment (seq, records, bytes,
// seal epoch) — the epoch is the segment's durable identity for the
// verdict cache. Any other version is refused as corrupt.
constexpr std::uint32_t kManifestVersion = 3;

SchemeKind decode_scheme_byte(std::uint8_t raw, const std::string& what) {
  switch (raw) {
    case static_cast<std::uint8_t>(SchemeKind::kApks):
    case static_cast<std::uint8_t>(SchemeKind::kApksPlus):
    case static_cast<std::uint8_t>(SchemeKind::kMrqed):
      return static_cast<SchemeKind>(raw);
    default:
      throw StoreError(ErrorCode::kCorrupt,
                       what + ": unknown scheme tag " + std::to_string(raw),
                       what);
  }
}

std::vector<std::uint8_t> read_whole_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw StoreError(ErrorCode::kIo, "cannot open " + path.string(),
                     path.string());
  }
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

}  // namespace

IndexStore::IndexStore(std::filesystem::path dir, std::uint32_t shard_id,
                       IndexStoreOptions options, SchemeKind scheme)
    : dir_(std::move(dir)),
      shard_id_(shard_id),
      scheme_(scheme),
      options_(options) {
  std::filesystem::create_directories(dir_);
  const std::filesystem::path manifest = dir_ / "MANIFEST";
  if (!std::filesystem::exists(manifest)) {
    // Fresh store: one empty active segment, committed before first use.
    active_.emplace(segment_path(1), shard_id_, 1);
    active_->sync();
    next_seq_ = 2;
    write_manifest();
    recovery_.segments = 1;
    return;
  }
  load_manifest();
}

std::filesystem::path IndexStore::segment_path(std::uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08" PRIu64 ".apks", seq);
  return dir_ / name;
}

void IndexStore::write_manifest() const {
  ByteWriter w;
  w.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kManifestMagic),
      sizeof(kManifestMagic)));
  w.u32(kManifestVersion);
  w.u32(shard_id_);
  w.u8(static_cast<std::uint8_t>(scheme_));
  w.u64(epoch_);
  w.u64(active_->info().seq);
  w.u64(next_seq_);
  w.u32(static_cast<std::uint32_t>(sealed_.size()));
  for (const SealedSegment& s : sealed_) {
    w.u64(s.seq);
    w.u64(s.records);
    w.u64(s.bytes);
    w.u64(s.epoch);
  }
  w.u32(crc32(w.data()));

  // Atomic replacement: the old manifest stays valid until the rename.
  const std::filesystem::path tmp = dir_ / "MANIFEST.tmp";
  const std::filesystem::path manifest = dir_ / "MANIFEST";
  {
    std::FILE* f = storefs::open(tmp, "wb");
    if (f == nullptr) fail_io("cannot write manifest", tmp);
    const bool ok = storefs::write(f, w.data().data(), w.size()) &&
                    storefs::sync(f);
    if (!storefs::close(f) || !ok) {
      fail_io("manifest write failed", tmp);
    }
  }
  storefs::rename(tmp, manifest);
  storefs::sync_directory(dir_);
}

void IndexStore::load_manifest() {
  const std::vector<std::uint8_t> data =
      read_whole_file(dir_ / "MANIFEST");
  if (data.size() < sizeof(kManifestMagic) + 4 ||
      std::memcmp(data.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    fail_corrupt("not a manifest", dir_ / "MANIFEST");
  }
  const std::span<const std::uint8_t> body(data.data(), data.size() - 4);
  ByteReader r(body);
  (void)r.raw(sizeof(kManifestMagic));
  if (crc32(body) != ByteReader(std::span<const std::uint8_t>(
                                    data.data() + data.size() - 4, 4))
                         .u32()) {
    fail_corrupt("manifest checksum mismatch", dir_ / "MANIFEST");
  }
  if (r.u32() != kManifestVersion) {
    fail_corrupt("unsupported manifest version", dir_ / "MANIFEST");
  }
  if (r.u32() != shard_id_) {
    fail_corrupt("manifest shard id mismatch", dir_ / "MANIFEST");
  }
  const SchemeKind on_disk =
      decode_scheme_byte(r.u8(), "manifest " + dir_.string());
  if (on_disk != scheme_) {
    throw std::runtime_error(
        "scheme mismatch: shard at " + dir_.string() + " holds '" +
        std::string(scheme_name(on_disk)) + "' records, opened as '" +
        std::string(scheme_name(scheme_)) + "'");
  }
  epoch_ = r.u64();
  const std::uint64_t active_seq = r.u64();
  next_seq_ = r.u64();
  const std::uint32_t nsealed = r.u32();
  if (nsealed > r.remaining() / 32) {
    fail_corrupt("manifest sealed count exceeds payload", dir_ / "MANIFEST");
  }
  sealed_.clear();
  records_ = 0;
  for (std::uint32_t i = 0; i < nsealed; ++i) {
    SealedSegment s;
    s.seq = r.u64();
    s.records = r.u64();
    s.bytes = r.u64();
    s.epoch = r.u64();
    epoch_ = std::max(epoch_, s.epoch);
    sealed_.push_back(s);
  }
  if (!r.done()) {
    fail_corrupt("manifest: trailing bytes", dir_ / "MANIFEST");
  }

  // Sealed segments were fsynced before the manifest committed them: any
  // mismatch now is real corruption, not a crash artifact.
  recovery_ = RecoveryStats{};
  for (const SealedSegment& s : sealed_) {
    const SegmentScanResult scan = scan_segment(segment_path(s.seq));
    if (scan.torn_tail() || scan.records != s.records ||
        scan.valid_bytes != s.bytes || scan.info.shard_id != shard_id_) {
      fail_corrupt("sealed segment corrupt", segment_path(s.seq));
    }
    records_ += scan.records;
    ++recovery_.segments;
  }

  // The active segment is where a crashed writer leaves its mark: truncate
  // the torn tail (if any) and resume. A missing file means the crash hit
  // between manifest commit and segment creation — recreate it empty.
  const std::filesystem::path active_path = segment_path(active_seq);
  if (!std::filesystem::exists(active_path)) {
    active_.emplace(active_path, shard_id_, active_seq);
    active_->sync();
  } else {
    SegmentScanResult scan;
    active_ = SegmentWriter::open_for_append(active_path, &scan);
    if (scan.info.shard_id != shard_id_ || scan.info.seq != active_seq) {
      fail_corrupt("active segment header mismatch", active_path);
    }
    recovery_.torn_tail = scan.torn_tail();
    recovery_.torn_bytes = scan.file_bytes - scan.valid_bytes;
    records_ += scan.records;
  }
  ++recovery_.segments;
  recovery_.records = records_;
}

void IndexStore::put(std::span<const std::uint8_t> payload) {
  if (options_.segment_max_bytes != 0 &&
      active_->bytes() + kFrameHeaderSize + payload.size() >
          options_.segment_max_bytes &&
      active_->records() > 0) {
    rotate();
  }
  active_->append(payload);
  ++records_;
  if (options_.sync_every_put) active_->sync();
}

void IndexStore::flush() { active_->flush(); }

void IndexStore::sync() { active_->sync(); }

void IndexStore::fire_invalidation(
    std::span<const SegmentId> retired) const {
  if (invalidation_hook_ && !retired.empty()) invalidation_hook_(retired);
}

void IndexStore::rotate() {
  active_->sync();
  const SealedSegment sealed{active_->info().seq, active_->records(),
                             active_->bytes(), ++epoch_};
  active_->close();
  const std::uint64_t seq = next_seq_++;
  active_.emplace(segment_path(seq), shard_id_, seq);
  active_->sync();
  sealed_.push_back(sealed);
  write_manifest();
  // The just-sealed seq was the active (never-memoized) segment, so there
  // is nothing cached under its new identity — announce it defensively so
  // a listener that guessed identities ahead of the seal drops them.
  const SegmentId announced[] = {id_of(sealed)};
  fire_invalidation(announced);
}

void IndexStore::for_each(const RecordFn& fn) {
  active_->flush();
  for (const SealedSegment& s : sealed_) {
    const SegmentId id = id_of(s);
    const SegmentScanResult scan = scan_segment(
        segment_path(s.seq), [&](std::span<const std::uint8_t> payload) {
          fn(payload, id, /*sealed=*/true);
        });
    if (scan.records != s.records) {
      fail_corrupt("sealed segment corrupt", segment_path(s.seq));
    }
  }
  const SegmentId active_id{options_.store_uid, shard_id_,
                            active_->info().seq, 0};
  (void)scan_segment(active_->path(),
                     [&](std::span<const std::uint8_t> payload) {
                       fn(payload, active_id, /*sealed=*/false);
                     });
}

std::vector<SegmentId> IndexStore::sealed_segment_ids() const {
  std::vector<SegmentId> ids;
  ids.reserve(sealed_.size());
  for (const SealedSegment& s : sealed_) ids.push_back(id_of(s));
  return ids;
}

std::uint64_t IndexStore::bytes() const noexcept {
  std::uint64_t total = active_->bytes();
  for (const SealedSegment& s : sealed_) total += s.bytes;
  return total;
}

std::uint64_t IndexStore::compact() {
  const std::uint64_t before = bytes();
  std::vector<std::uint64_t> old_seqs;
  std::vector<SegmentId> retired;
  old_seqs.reserve(sealed_.size() + 1);
  retired.reserve(sealed_.size() + 1);
  for (const SealedSegment& s : sealed_) {
    old_seqs.push_back(s.seq);
    retired.push_back(id_of(s));
  }
  old_seqs.push_back(active_->info().seq);
  retired.push_back(
      SegmentId{options_.store_uid, shard_id_, active_->info().seq, 0});

  // Stream every record into one fresh sealed segment.
  const std::uint64_t merged_seq = next_seq_++;
  SegmentWriter merged(segment_path(merged_seq), shard_id_, merged_seq);
  for_each([&](std::span<const std::uint8_t> payload, const SegmentId&,
               bool) { merged.append(payload); });
  merged.sync();
  const SealedSegment entry{merged_seq, merged.records(), merged.bytes(),
                            ++epoch_};
  merged.close();

  // Commit the new chain (merged sealed + fresh active), then drop the old
  // files — a crash before the manifest rename keeps the old chain live.
  active_->close();
  const std::uint64_t active_seq = next_seq_++;
  active_.emplace(segment_path(active_seq), shard_id_, active_seq);
  active_->sync();
  sealed_.assign(1, entry);
  write_manifest();
  fire_invalidation(retired);
  for (const std::uint64_t seq : old_seqs) {
    std::filesystem::remove(segment_path(seq));
  }
  const std::uint64_t after = bytes();
  return before > after ? before - after : 0;
}

}  // namespace apks
