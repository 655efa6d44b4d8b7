// Append-only, checksummed segment files — the on-disk unit of the storage
// engine (see DESIGN.md "Storage engine").
//
// Layout:
//
//   [magic "APKSSEG1" (8)] [u32 shard_id] [u64 seq]        <- header, 20 B
//   [u32 len] [u32 crc32(payload)] [payload len B]          <- frame 0
//   [u32 len] [u32 crc32(payload)] [payload len B]          <- frame 1
//   ...
//
// All integers little-endian (ByteWriter convention). Frames carry opaque
// payloads; the layers above (IndexStore, ShardedStore, DocumentStore)
// define what a payload means. A frame is *committed* iff its length and
// CRC verify and it lies entirely within the file; a crashed writer leaves
// at most a torn tail — a partial frame or a frame whose CRC does not match
// — which `scan_segment` detects and `SegmentWriter::open_for_append`
// truncates away before resuming (crash recovery).
//
// Writers buffer through stdio; `flush()` pushes frames to the OS (visible
// to concurrent readers of the same file), `sync()` additionally fsyncs to
// the device (durability barrier — rotation and manifest updates use it).
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <span>
#include <vector>

#include "core/backend.h"  // StoreError / ErrorCode

namespace apks {

inline constexpr char kSegmentMagic[8] = {'A', 'P', 'K', 'S',
                                          'S', 'E', 'G', '1'};
inline constexpr std::size_t kSegmentHeaderSize = 8 + 4 + 8;
inline constexpr std::size_t kFrameHeaderSize = 4 + 4;
// Allocation guard for hostile/corrupt length fields; no legitimate record
// (an encrypted index plus a doc_ref) comes anywhere near this.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 26;  // 64 MiB

struct SegmentInfo {
  std::uint32_t shard_id = 0;
  std::uint64_t seq = 0;
};

// Result of validating a segment file's frame chain.
struct SegmentScanResult {
  SegmentInfo info;
  std::size_t records = 0;        // committed frames
  std::uint64_t valid_bytes = 0;  // header + committed frames
  std::uint64_t file_bytes = 0;   // actual file size on disk
  // True when the file extends past the last committed frame (partial or
  // CRC-failing tail — the signature of a crashed writer).
  [[nodiscard]] bool torn_tail() const noexcept {
    return file_bytes > valid_bytes;
  }
};

// Streams every committed frame of `path` through `fn` (which may be empty
// to just validate), stopping at the first torn/corrupt frame. Throws
// StoreError (kIo if the file cannot be opened, kCorrupt if its header is
// not a segment header — a torn *tail* is not an error; a bad *header* is).
SegmentScanResult scan_segment(
    const std::filesystem::path& path,
    const std::function<void(std::span<const std::uint8_t>)>& fn = {});

class SegmentWriter {
 public:
  // Creates (or truncates) a fresh segment file and writes its header.
  SegmentWriter(const std::filesystem::path& path, std::uint32_t shard_id,
                std::uint64_t seq);

  // Re-opens an existing segment for appending: scans the frame chain,
  // truncates any torn tail, and positions the writer after the last
  // committed frame. `recovered` (optional) receives the scan result.
  [[nodiscard]] static SegmentWriter open_for_append(
      const std::filesystem::path& path, SegmentScanResult* recovered);

  SegmentWriter(SegmentWriter&& other) noexcept;
  SegmentWriter& operator=(SegmentWriter&& other) noexcept;
  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;
  ~SegmentWriter();

  // All of these throw StoreError(kIo) when the underlying syscall fails
  // (including injected faults — every file op goes through store/fs.h).
  void append(std::span<const std::uint8_t> payload);
  void flush();
  void sync();
  // Checked close: fclose flushes stdio buffers, so a failure here is data
  // loss and throws. The destructor closes unchecked (abandon()) instead —
  // a writer being torn down mid-error must not throw again.
  void close();

  [[nodiscard]] const SegmentInfo& info() const noexcept { return info_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t records() const noexcept { return records_; }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  SegmentWriter() = default;

  void abandon() noexcept;  // close without error reporting (destructor)

  std::filesystem::path path_;
  std::FILE* file_ = nullptr;
  SegmentInfo info_;
  std::uint64_t bytes_ = 0;  // header + committed frames written so far
  std::size_t records_ = 0;
};

}  // namespace apks
