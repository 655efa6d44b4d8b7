#include "store/segment.h"

#include <cerrno>
#include <cstring>

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

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

SegmentScanResult scan_segment(
    const std::filesystem::path& path,
    const std::function<void(std::span<const std::uint8_t>)>& fn) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) fail_io("scan_segment: cannot open", path);
  SegmentScanResult out;
  try {
    std::uint8_t header[kSegmentHeaderSize];
    if (std::fread(header, 1, sizeof(header), f) != sizeof(header) ||
        std::memcmp(header, kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
      fail_corrupt("scan_segment: not a segment file", path);
    }
    out.info.shard_id = load_u32(header + 8);
    out.info.seq = load_u64(header + 12);
    out.valid_bytes = kSegmentHeaderSize;

    std::vector<std::uint8_t> payload;
    for (;;) {
      std::uint8_t fh[kFrameHeaderSize];
      const std::size_t got = std::fread(fh, 1, sizeof(fh), f);
      if (got != sizeof(fh)) break;  // EOF or partial frame header
      const std::uint32_t len = load_u32(fh);
      const std::uint32_t crc = load_u32(fh + 4);
      if (len > kMaxFramePayload) break;  // corrupt length field
      payload.resize(len);
      if (len != 0 && std::fread(payload.data(), 1, len, f) != len) {
        break;  // torn payload
      }
      if (crc32(payload) != crc) break;  // bit rot / torn write over old data
      out.valid_bytes += kFrameHeaderSize + len;
      ++out.records;
      if (fn) fn(payload);
    }
    std::error_code ec;
    out.file_bytes = std::filesystem::file_size(path, ec);
    if (ec) {
      errno = ec.value();
      fail_io("scan_segment: cannot stat", path);
    }
  } catch (...) {
    std::fclose(f);
    throw;
  }
  std::fclose(f);
  return out;
}

SegmentWriter::SegmentWriter(const std::filesystem::path& path,
                             std::uint32_t shard_id, std::uint64_t seq) {
  path_ = path;
  file_ = storefs::open(path, "wb");
  if (file_ == nullptr) fail_io("SegmentWriter: cannot create", path);
  info_ = {shard_id, seq};
  ByteWriter w;
  w.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kSegmentMagic),
      sizeof(kSegmentMagic)));
  w.u32(shard_id);
  w.u64(seq);
  if (!storefs::write(file_, w.data().data(), w.size())) {
    fail_io("SegmentWriter: header write failed", path);
  }
  bytes_ = w.size();
}

SegmentWriter SegmentWriter::open_for_append(const std::filesystem::path& path,
                                             SegmentScanResult* recovered) {
  const SegmentScanResult scan = scan_segment(path);
  if (scan.torn_tail()) {
    storefs::truncate(path, scan.valid_bytes);
  }
  if (recovered != nullptr) *recovered = scan;
  SegmentWriter w;
  w.path_ = path;
  w.file_ = storefs::open(path, "ab");
  if (w.file_ == nullptr) fail_io("SegmentWriter: cannot append to", path);
  w.info_ = scan.info;
  w.bytes_ = scan.valid_bytes;
  w.records_ = scan.records;
  return w;
}

SegmentWriter::SegmentWriter(SegmentWriter&& other) noexcept
    : path_(std::move(other.path_)),
      file_(other.file_),
      info_(other.info_),
      bytes_(other.bytes_),
      records_(other.records_) {
  other.file_ = nullptr;
}

SegmentWriter& SegmentWriter::operator=(SegmentWriter&& other) noexcept {
  if (this != &other) {
    abandon();
    path_ = std::move(other.path_);
    file_ = other.file_;
    info_ = other.info_;
    bytes_ = other.bytes_;
    records_ = other.records_;
    other.file_ = nullptr;
  }
  return *this;
}

SegmentWriter::~SegmentWriter() { abandon(); }

void SegmentWriter::append(std::span<const std::uint8_t> payload) {
  if (file_ == nullptr) {
    throw std::logic_error("SegmentWriter: append after close");
  }
  if (payload.size() > kMaxFramePayload) {
    throw std::invalid_argument("SegmentWriter: payload exceeds frame limit");
  }
  ByteWriter fh;
  fh.u32(static_cast<std::uint32_t>(payload.size()));
  fh.u32(crc32(payload));
  if (!storefs::write(file_, fh.data().data(), fh.size()) ||
      !storefs::write(file_, payload.data(), payload.size())) {
    fail_io("SegmentWriter: frame write failed", path_);
  }
  bytes_ += kFrameHeaderSize + payload.size();
  ++records_;
}

void SegmentWriter::flush() {
  if (file_ != nullptr && !storefs::flush(file_)) {
    fail_io("SegmentWriter: flush failed", path_);
  }
}

void SegmentWriter::sync() {
  if (file_ != nullptr && !storefs::sync(file_)) {
    fail_io("SegmentWriter: fsync failed", path_);
  }
}

void SegmentWriter::close() {
  if (file_ == nullptr) return;
  std::FILE* f = file_;
  file_ = nullptr;
  if (!storefs::close(f)) {
    // fclose flushes stdio buffers: a failure here means buffered frames
    // never reached the OS — data loss, not a cleanup hiccup.
    fail_io("SegmentWriter: close failed", path_);
  }
}

void SegmentWriter::abandon() noexcept {
  if (file_ != nullptr) {
    (void)std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace apks
