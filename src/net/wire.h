// Binary wire protocol of the network serving layer (DESIGN.md §5h).
//
// Everything on the wire is a *frame* — the same shape as a segment-file
// record (store/segment.h), because the hostile-input lessons carry over
// unchanged:
//
//   [u32 len] [u32 crc32(payload)] [payload: len bytes]
//
// All integers little-endian (ByteWriter convention). `len` is capped at
// kMaxFramePayload (64 MiB, shared with the segment format) so a hostile
// length field is a protocol error, never an allocation. The payload's
// first byte is the message type; the body is ByteWriter-encoded.
//
// A connection opens with a handshake frame carrying the protocol magic
// "APKSNET1", the protocol version, and the client's scheme tag — the
// server refuses version and scheme mismatches before any crypto bytes are
// parsed. Session establishment then carries SignedQuery authorization:
// the client sends its query (backend wire codec) plus the issuing
// authority's IBS signature once; the server verifies it once and every
// subsequent kSearch on the connection reuses the verified session query
// (digest-keyed through the engine's PreparedQueryCache).
//
// Responses stream: matched doc_refs are flushed in bounded kResultChunk
// frames and the terminal kResultEnd carries the wire status plus the
// ServerMetrics counters (scanned/matched), so a deadline or shed request
// yields a truncated-but-well-formed prefix, not a broken stream.
//
// Status codes map the serving ErrorCode taxonomy (core/backend.h) 1:1 —
// the numeric values are identical for codes 1..7 — with protocol-level
// additions (kOk, kUnauthorized, kBadRequest, kShutdown) above them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "core/backend.h"
#include "store/segment.h"  // kMaxFramePayload — shared hostile-length cap

namespace apks::net {

inline constexpr char kNetMagic[8] = {'A', 'P', 'K', 'S', 'N', 'E', 'T', '1'};
// The one protocol version. A hello carrying any other value gets a
// kBadRequest hello-ack and the connection closes: there is no
// negotiation, and every verb below is available on every session.
inline constexpr std::uint8_t kNetVersion = 3;
inline constexpr std::size_t kWireFrameHeaderSize = 4 + 4;
// One cap for disk frames and wire frames: no legitimate message (a query
// key, a chunk of doc_refs) comes anywhere near it.
inline constexpr std::uint32_t kMaxWirePayload = kMaxFramePayload;

// --- status codes -----------------------------------------------------------

enum class WireStatus : std::uint8_t {
  kOk = 0,
  // 1..7 mirror ErrorCode numerically; wire_status_from_error is the
  // checked bridge.
  kIo = 1,
  kCorrupt = 2,
  kUnavailable = 3,
  kExhausted = 4,
  kOverloaded = 5,
  kDeadlineExceeded = 6,
  kCancelled = 7,
  // Protocol-level outcomes with no ErrorCode counterpart.
  kUnauthorized = 8,  // signature rejected / no authorized session query
  kBadRequest = 9,    // malformed message, version/scheme mismatch
  kShutdown = 10,     // server is draining; connection is about to close
};

[[nodiscard]] std::string_view wire_status_name(WireStatus status) noexcept;
[[nodiscard]] WireStatus wire_status_from_error(ErrorCode code) noexcept;

// --- message types ----------------------------------------------------------

enum class MsgType : std::uint8_t {
  kHello = 1,        // client -> server: magic, version, scheme
  kHelloAck = 2,     // server -> client: status, version, scheme, records
  kAuth = 3,         // client -> server: session query (+ IBS signature)
  kAuthAck = 4,      // server -> client: status, query digest
  kSearch = 5,       // client -> server: request id, deadline, partial_ok
  kResultChunk = 6,  // server -> client: request id, matched doc_refs
  kResultEnd = 7,    // server -> client: request id, status, stats
  kStatus = 8,       // server -> client: session-level error, then close
  // Version-2 cluster messages (coordinator <-> shard-owning node).
  kShardSearch = 9,  // client -> server: shard set + cluster-map version
  kShardChunk = 10,  // server -> client: request id, matched (id, ref) pairs
  // Version-3 self-healing control plane (coordinator <-> node).
  kPing = 11,          // client -> server: heartbeat probe
  kPong = 12,          // server -> client: echo + node map version
  kMapUpdate = 13,     // client -> server: serialized ClusterMap
  kMapUpdateAck = 14,  // server -> client: status + node map version
};

// --- frame codec ------------------------------------------------------------

// [u32 len][u32 crc][payload]; payload = [u8 type][body].
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    std::span<const std::uint8_t> payload);

// Incremental frame parser for a nonblocking byte stream. Feed whatever
// arrived; pop complete payloads. Malformed input (oversized length, CRC
// mismatch) flips the reassembler into a terminal error state — the
// connection is poisoned and must be closed; no later bytes can resync it.
// Memory is bounded by the bytes actually received (a hostile length field
// is rejected when its header arrives, before any payload buffering).
class FrameReassembler {
 public:
  void feed(std::span<const std::uint8_t> data);

  // The next complete payload (type byte + body), or nullopt when more
  // bytes are needed or the stream is in error.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> next();

  [[nodiscard]] bool error() const noexcept { return !error_.empty(); }
  [[nodiscard]] const std::string& error_message() const noexcept {
    return error_;
  }
  // Bytes buffered but not yet delivered (reassembly backlog).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buf_.size() - pos_;
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  std::string error_;
};

// --- messages ---------------------------------------------------------------
// Each message has an encode() producing the full frame payload (type byte
// included) and a decode taking the body (type byte already consumed).
// Decoders validate counts against the bytes present and throw
// std::invalid_argument / std::out_of_range on malformed input — the
// server turns that into a kBadRequest status, never UB.

struct HelloMsg {
  std::uint8_t version = kNetVersion;
  SchemeKind scheme = SchemeKind::kApks;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static HelloMsg decode(std::span<const std::uint8_t> body);
};

struct HelloAckMsg {
  WireStatus status = WireStatus::kOk;
  std::uint8_t version = kNetVersion;
  SchemeKind scheme = SchemeKind::kApks;
  std::uint64_t records = 0;  // server store size at handshake time
  std::string message;        // human-readable refusal reason on error

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static HelloAckMsg decode(std::span<const std::uint8_t> body);
};

struct AuthMsg {
  // kSigned carries issuer + signature over backend.query_message;
  // kUnchecked is the CLI/bench path (raw capability files hold no
  // signature) and is only honoured when the server opts in.
  enum class Mode : std::uint8_t { kSigned = 0, kUnchecked = 1 };
  Mode mode = Mode::kSigned;
  std::vector<std::uint8_t> query;  // backend wire codec (encode_query)
  std::string issuer;
  std::vector<std::uint8_t> sig;  // serialized IBS signature (u, v points)

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static AuthMsg decode(std::span<const std::uint8_t> body);
};

struct AuthAckMsg {
  WireStatus status = WireStatus::kOk;
  QueryDigest digest{};  // the session query's digest (valid when kOk)
  std::string message;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static AuthAckMsg decode(std::span<const std::uint8_t> body);
};

struct SearchMsg {
  std::uint64_t request_id = 0;
  std::uint64_t deadline_ms = 0;  // 0 = server default
  // When true, a deadline/cancelled scan still streams the prefix results
  // before the kResultEnd status; when false only the status comes back.
  bool partial_ok = false;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static SearchMsg decode(std::span<const std::uint8_t> body);
};

struct ResultChunkMsg {
  std::uint64_t request_id = 0;
  std::vector<std::string> refs;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static ResultChunkMsg decode(
      std::span<const std::uint8_t> body);
};

// Outcome flags of ResultEndMsg::flags.
inline constexpr std::uint8_t kResultDeadlineExceeded = 1u << 0;
inline constexpr std::uint8_t kResultCancelled = 1u << 1;
inline constexpr std::uint8_t kResultTruncated = 1u << 2;  // prefix results

struct ResultEndMsg {
  std::uint64_t request_id = 0;
  WireStatus status = WireStatus::kOk;
  std::uint8_t flags = 0;
  std::uint64_t scanned = 0;  // ServerMetrics equivalents
  std::uint64_t matched = 0;
  std::uint64_t wall_us = 0;
  std::string message;  // failure detail when status != kOk

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static ResultEndMsg decode(std::span<const std::uint8_t> body);
};

struct StatusMsg {
  WireStatus status = WireStatus::kOk;
  std::string message;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static StatusMsg decode(std::span<const std::uint8_t> body);
};

// --- cluster messages -------------------------------------------------------
// A coordinator scatters a search over shard-owning nodes. Unlike kSearch,
// the response hits carry the record *id* next to every doc_ref: ids are
// the merge key that makes the coordinator's k-way merge byte-identical to
// a single-node ShardedStore scan (DESIGN.md §5i).

// One matched record of a shard-scoped search.
struct ShardHit {
  std::uint64_t id = 0;
  std::string ref;

  friend bool operator==(const ShardHit&, const ShardHit&) = default;
};

struct ShardSearchMsg {
  std::uint64_t request_id = 0;
  std::uint64_t deadline_ms = 0;  // 0 = server default
  bool partial_ok = false;
  // Placement agreement: the node refuses the request (kBadRequest,
  // "stale cluster map") unless both match its own ClusterMap — a stale
  // coordinator can never harvest silently wrong shard routing.
  std::uint64_t map_version = 0;
  std::uint32_t total_shards = 0;
  std::vector<std::uint32_t> shards;  // the shards this node must scan

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static ShardSearchMsg decode(
      std::span<const std::uint8_t> body);
};

// Response stream of a kShardSearch: zero or more kShardChunk frames (hits
// ascending by id) terminated by the same kResultEnd as a plain search.
struct ShardChunkMsg {
  std::uint64_t request_id = 0;
  std::vector<ShardHit> hits;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static ShardChunkMsg decode(
      std::span<const std::uint8_t> body);
};

// --- self-healing control plane ---------------------------------------------
// Heartbeats and live map propagation are tiny, auth-free control messages:
// a ping is answered on the io thread (no worker queue) so liveness probing
// measures the event loop, not scan backlog, and a map update is applied on
// the worker pool (shard loading is slow) and acknowledged with the node's
// resulting map version either way.

struct PingMsg {
  std::uint64_t seq = 0;  // echoed in the pong; detects stale replies

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static PingMsg decode(std::span<const std::uint8_t> body);
};

struct PongMsg {
  std::uint64_t seq = 0;
  std::uint64_t map_version = 0;  // node's current ClusterMap version
  std::uint32_t inflight = 0;     // queued + running search jobs

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static PongMsg decode(std::span<const std::uint8_t> body);
};

struct MapUpdateMsg {
  // serialize()d ClusterMap (APKSMAP1 format, self-checksummed). The net
  // layer treats it as opaque bytes; the cluster layer validates it.
  std::vector<std::uint8_t> map_bytes;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static MapUpdateMsg decode(std::span<const std::uint8_t> body);
};

struct MapUpdateAckMsg {
  // kOk: map applied (or already at that version). kBadRequest: refused —
  // the node's own map is newer or the update is malformed; `version`
  // always carries the node's post-decision map version.
  WireStatus status = WireStatus::kOk;
  std::uint64_t version = 0;
  std::string message;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static MapUpdateAckMsg decode(
      std::span<const std::uint8_t> body);
};

// Splits a payload delivered by FrameReassembler into (type, body). Throws
// std::invalid_argument on an empty payload or an unknown type value.
struct ParsedFrame {
  MsgType type;
  std::span<const std::uint8_t> body;
};
[[nodiscard]] ParsedFrame parse_frame(std::span<const std::uint8_t> payload);

}  // namespace apks::net
