// NetClient — the blocking counterpart of NetServer (DESIGN.md §5h), used
// by `apks_cli rsearch` and the serving load generator.
//
// The client is deliberately simple: one TCP connection, synchronous
// request/response, frames reassembled through the same FrameReassembler
// the server uses (so both ends of the protocol share one hostile-input
// path). The expected call sequence mirrors the session state machine:
//
//   NetClient c;
//   c.connect(host, port);
//   c.hello(scheme);                  // version + scheme handshake
//   c.auth_unchecked(query_bytes);    // or auth_signed(...)
//   RemoteResult r = c.search(...);   // repeatable; session query is sticky
//
// Server-refused steps (version mismatch, rejected signature, ...) return
// their ack with a non-kOk status rather than throwing; transport failures
// (connect/send/recv errors, malformed frames, a terminal kStatus frame)
// throw ServingError so callers route them through the existing taxonomy.
// Not thread-safe: one NetClient per thread.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "auth/ibs.h"
#include "net/wire.h"

namespace apks::net {

// The client-side view of one search: the terminal ResultEndMsg plus the
// doc_refs accumulated from the kResultChunk stream. A deadline/cancelled
// search with partial_ok carries the truncated prefix in `refs` with
// kResultTruncated set in `flags`.
struct RemoteResult {
  WireStatus status = WireStatus::kOk;
  std::uint8_t flags = 0;
  std::vector<std::string> refs;
  std::uint64_t scanned = 0;
  std::uint64_t matched = 0;
  std::uint64_t wall_us = 0;  // server-side scan wall time
  std::string message;
};

// The client-side view of one shard-scoped search (cluster mode): the hits
// keep their record ids so a coordinator can k-way merge across nodes.
struct ShardRemoteResult {
  WireStatus status = WireStatus::kOk;
  std::uint8_t flags = 0;
  std::vector<ShardHit> hits;
  std::uint64_t scanned = 0;
  std::uint64_t matched = 0;
  std::uint64_t wall_us = 0;
  std::string message;
};

// Wire form of an authority's IBS signature (the `sig` bytes of AuthMsg):
// the u and v points in the curve's point encoding.
[[nodiscard]] std::vector<std::uint8_t> encode_signature(
    const Curve& curve, const IbsSignature& sig);

class NetClient {
 public:
  NetClient() = default;
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  // Connects and applies `timeout_ms` to the connect itself (nonblocking
  // connect + poll, so a dead or blackholed peer fails with
  // kDeadlineExceeded instead of hanging) and as the socket send/recv
  // timeout afterwards (0 = block forever). Throws ServingError on failure.
  void connect(const std::string& host, std::uint16_t port,
               std::uint64_t timeout_ms = 0);
  void close();
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  // Version/scheme handshake; must be the first exchange. A non-kOk ack
  // means the server refused the session (its message says why) and will
  // close the connection. Always speaks kNetVersion.
  HelloAckMsg hello(SchemeKind scheme);

  // Establishes the session query. `query` is the backend wire codec
  // (encode_query). Signed mode carries the issuing authority and the IBS
  // signature over backend.query_message(query, issuer); unchecked mode is
  // only honoured by servers that opt in (NetServerOptions::allow_unchecked).
  AuthAckMsg auth_signed(std::span<const std::uint8_t> query,
                         const std::string& issuer,
                         std::span<const std::uint8_t> sig);
  AuthAckMsg auth_unchecked(std::span<const std::uint8_t> query);

  // Runs one search over the session query and blocks for the full result
  // stream. deadline_ms = 0 uses the server default; partial_ok asks for
  // prefix results when the deadline fires. The outcome (kOk,
  // kDeadlineExceeded, kOverloaded, ...) is RemoteResult::status.
  RemoteResult search(std::uint64_t deadline_ms = 0, bool partial_ok = false);

  // Cluster mode: one shard-scoped search against a node that owns
  // `shards` under the (map_version, total_shards) placement. Hits come
  // back ascending by record id.
  ShardRemoteResult shard_search(std::span<const std::uint32_t> shards,
                                 std::uint64_t map_version,
                                 std::uint32_t total_shards,
                                 std::uint64_t deadline_ms = 0,
                                 bool partial_ok = false);

  // Heartbeat round-trip: sends kPing, blocks for the kPong. The pong
  // carries the node's current map version and its in-flight job count —
  // the health monitor's raw signal. Throws on transport failure.
  PongMsg ping();

  // Pushes a serialized ClusterMap to the node. The node applies it iff
  // its version is strictly newer than the node's own map and acks with
  // its post-decision version either way; application (loading
  // newly-assigned shards) happens on the node's worker pool, so this
  // blocks until the handoff completed. Throws on transport failure.
  MapUpdateAckMsg push_map(std::span<const std::uint8_t> map_bytes);

  // Thread-safe cancellation hook: shuts down the socket (SHUT_RDWR)
  // WITHOUT closing the fd, so a concurrent recv_frame in the owning
  // thread fails fast with kIo. Only the owning thread ever closes the
  // descriptor — abort() from another thread can never race a close() into
  // a recycled fd. Used by the coordinator to cancel the losing side of a
  // hedged read.
  void abort() noexcept;

 private:
  void send_frame(std::span<const std::uint8_t> payload);
  // Blocks for the next complete frame payload; throws ServingError on
  // disconnect, timeout or a malformed stream.
  std::vector<std::uint8_t> recv_frame();

  int fd_ = -1;
  // Serializes close() against abort(): without it, a cross-thread abort
  // could land between ::close and a kernel fd reuse and shut down an
  // unrelated descriptor.
  mutable std::mutex lifecycle_mu_;
  FrameReassembler in_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace apks::net
