#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <climits>

#include <array>
#include <cerrno>
#include <cstring>

#include "hpe/serialize.h"

namespace apks::net {

namespace {

// Transport-level failures surface through the serving taxonomy; protocol
// statuses with no ErrorCode counterpart degrade to kUnavailable with the
// status name in the message.
ErrorCode error_from_wire(WireStatus status) noexcept {
  const auto v = static_cast<std::uint8_t>(status);
  if (v >= static_cast<std::uint8_t>(ErrorCode::kIo) &&
      v <= static_cast<std::uint8_t>(ErrorCode::kCancelled)) {
    return static_cast<ErrorCode>(v);
  }
  return ErrorCode::kUnavailable;
}

[[noreturn]] void throw_status(const StatusMsg& msg) {
  throw ServingError(error_from_wire(msg.status),
                     "net: server closed session (" +
                         std::string(wire_status_name(msg.status)) +
                         "): " + msg.message);
}

}  // namespace

std::vector<std::uint8_t> encode_signature(const Curve& curve,
                                           const IbsSignature& sig) {
  ByteWriter w;
  write_point(curve, sig.u, w);
  write_point(curve, sig.v, w);
  return w.take();
}

NetClient::~NetClient() { close(); }

void NetClient::close() {
  std::lock_guard lk(lifecycle_mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void NetClient::connect(const std::string& host, std::uint16_t port,
                        std::uint64_t timeout_ms) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw ServingError(ErrorCode::kIo, "net: socket() failed: " +
                                           std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw ServingError(ErrorCode::kIo, "net: bad host " + host);
  }
  // With a timeout the connect runs nonblocking: start it, poll for
  // writability under the budget, then read SO_ERROR for the real outcome.
  // A blocking ::connect() against a dead or blackholed peer would
  // otherwise hang for the kernel's SYN-retry budget (minutes) — fatal for
  // replica failover, which needs dead nodes to fail fast.
  const std::string peer = host + ":" + std::to_string(port);
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (timeout_ms != 0 && flags >= 0) {
    (void)::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (timeout_ms == 0 || errno != EINPROGRESS) {
      const std::string err = std::strerror(errno);
      close();
      throw ServingError(ErrorCode::kIo,
                         "net: connect to " + peer + " failed: " + err);
    }
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLOUT;
    int rc;
    do {
      rc = ::poll(&pfd, 1,
                  static_cast<int>(std::min<std::uint64_t>(timeout_ms,
                                                           INT_MAX)));
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      close();
      throw ServingError(ErrorCode::kDeadlineExceeded,
                         "net: connect to " + peer + " timed out after " +
                             std::to_string(timeout_ms) + " ms");
    }
    int soerr = 0;
    socklen_t soerr_len = sizeof(soerr);
    if (rc < 0 ||
        ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &soerr_len) != 0) {
      const std::string err = std::strerror(errno);
      close();
      throw ServingError(ErrorCode::kIo,
                         "net: connect to " + peer + " failed: " + err);
    }
    if (soerr != 0) {
      close();
      throw ServingError(ErrorCode::kIo, "net: connect to " + peer +
                                             " failed: " +
                                             std::strerror(soerr));
    }
  }
  if (timeout_ms != 0 && flags >= 0) (void)::fcntl(fd_, F_SETFL, flags);
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (timeout_ms != 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  in_ = FrameReassembler();
  next_request_id_ = 1;
}

void NetClient::send_frame(std::span<const std::uint8_t> payload) {
  if (fd_ < 0) throw ServingError(ErrorCode::kIo, "net: not connected");
  const std::vector<std::uint8_t> frame = encode_frame(payload);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      close();
      throw ServingError(ErrorCode::kIo, "net: send failed: " + err);
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::vector<std::uint8_t> NetClient::recv_frame() {
  if (fd_ < 0) throw ServingError(ErrorCode::kIo, "net: not connected");
  std::array<std::uint8_t, 64 * 1024> buf;
  for (;;) {
    if (auto payload = in_.next(); payload.has_value()) return *payload;
    if (in_.error()) {
      close();
      throw ServingError(ErrorCode::kCorrupt,
                         "net: malformed frame: " + in_.error_message());
    }
    const ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
    if (n == 0) {
      close();
      throw ServingError(ErrorCode::kIo, "net: server closed the connection");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      const ErrorCode code = (errno == EAGAIN || errno == EWOULDBLOCK)
                                 ? ErrorCode::kDeadlineExceeded
                                 : ErrorCode::kIo;
      const std::string err = std::strerror(errno);
      close();
      throw ServingError(code, "net: recv failed: " + err);
    }
    in_.feed({buf.data(), static_cast<std::size_t>(n)});
  }
}

HelloAckMsg NetClient::hello(SchemeKind scheme) {
  HelloMsg msg;
  msg.scheme = scheme;
  send_frame(msg.encode());
  const auto payload = recv_frame();
  const ParsedFrame frame = parse_frame(payload);
  if (frame.type == MsgType::kStatus) throw_status(StatusMsg::decode(frame.body));
  if (frame.type != MsgType::kHelloAck) {
    throw ServingError(ErrorCode::kCorrupt, "net: expected hello-ack");
  }
  return HelloAckMsg::decode(frame.body);
}

AuthAckMsg NetClient::auth_signed(std::span<const std::uint8_t> query,
                                  const std::string& issuer,
                                  std::span<const std::uint8_t> sig) {
  AuthMsg msg;
  msg.mode = AuthMsg::Mode::kSigned;
  msg.query.assign(query.begin(), query.end());
  msg.issuer = issuer;
  msg.sig.assign(sig.begin(), sig.end());
  send_frame(msg.encode());
  const auto payload = recv_frame();
  const ParsedFrame frame = parse_frame(payload);
  if (frame.type == MsgType::kStatus) throw_status(StatusMsg::decode(frame.body));
  if (frame.type != MsgType::kAuthAck) {
    throw ServingError(ErrorCode::kCorrupt, "net: expected auth-ack");
  }
  return AuthAckMsg::decode(frame.body);
}

AuthAckMsg NetClient::auth_unchecked(std::span<const std::uint8_t> query) {
  AuthMsg msg;
  msg.mode = AuthMsg::Mode::kUnchecked;
  msg.query.assign(query.begin(), query.end());
  send_frame(msg.encode());
  const auto payload = recv_frame();
  const ParsedFrame frame = parse_frame(payload);
  if (frame.type == MsgType::kStatus) throw_status(StatusMsg::decode(frame.body));
  if (frame.type != MsgType::kAuthAck) {
    throw ServingError(ErrorCode::kCorrupt, "net: expected auth-ack");
  }
  return AuthAckMsg::decode(frame.body);
}

RemoteResult NetClient::search(std::uint64_t deadline_ms, bool partial_ok) {
  SearchMsg msg;
  msg.request_id = next_request_id_++;
  msg.deadline_ms = deadline_ms;
  msg.partial_ok = partial_ok;
  send_frame(msg.encode());

  RemoteResult result;
  for (;;) {
    const auto payload = recv_frame();
    const ParsedFrame frame = parse_frame(payload);
    switch (frame.type) {
      case MsgType::kResultChunk: {
        ResultChunkMsg chunk = ResultChunkMsg::decode(frame.body);
        if (chunk.request_id != msg.request_id) {
          throw ServingError(ErrorCode::kCorrupt,
                             "net: result chunk for unknown request");
        }
        result.refs.insert(result.refs.end(),
                           std::make_move_iterator(chunk.refs.begin()),
                           std::make_move_iterator(chunk.refs.end()));
        break;
      }
      case MsgType::kResultEnd: {
        const ResultEndMsg end = ResultEndMsg::decode(frame.body);
        if (end.request_id != msg.request_id) {
          throw ServingError(ErrorCode::kCorrupt,
                             "net: result end for unknown request");
        }
        result.status = end.status;
        result.flags = end.flags;
        result.scanned = end.scanned;
        result.matched = end.matched;
        result.wall_us = end.wall_us;
        result.message = end.message;
        return result;
      }
      case MsgType::kStatus:
        throw_status(StatusMsg::decode(frame.body));
      default:
        throw ServingError(ErrorCode::kCorrupt,
                           "net: unexpected frame mid-search");
    }
  }
}

ShardRemoteResult NetClient::shard_search(
    std::span<const std::uint32_t> shards, std::uint64_t map_version,
    std::uint32_t total_shards, std::uint64_t deadline_ms, bool partial_ok) {
  ShardSearchMsg msg;
  msg.request_id = next_request_id_++;
  msg.deadline_ms = deadline_ms;
  msg.partial_ok = partial_ok;
  msg.map_version = map_version;
  msg.total_shards = total_shards;
  msg.shards.assign(shards.begin(), shards.end());
  send_frame(msg.encode());

  ShardRemoteResult result;
  for (;;) {
    const auto payload = recv_frame();
    const ParsedFrame frame = parse_frame(payload);
    switch (frame.type) {
      case MsgType::kShardChunk: {
        ShardChunkMsg chunk = ShardChunkMsg::decode(frame.body);
        if (chunk.request_id != msg.request_id) {
          throw ServingError(ErrorCode::kCorrupt,
                             "net: shard chunk for unknown request");
        }
        result.hits.insert(result.hits.end(),
                           std::make_move_iterator(chunk.hits.begin()),
                           std::make_move_iterator(chunk.hits.end()));
        break;
      }
      case MsgType::kResultEnd: {
        const ResultEndMsg end = ResultEndMsg::decode(frame.body);
        if (end.request_id != msg.request_id) {
          throw ServingError(ErrorCode::kCorrupt,
                             "net: result end for unknown request");
        }
        result.status = end.status;
        result.flags = end.flags;
        result.scanned = end.scanned;
        result.matched = end.matched;
        result.wall_us = end.wall_us;
        result.message = end.message;
        return result;
      }
      case MsgType::kStatus:
        throw_status(StatusMsg::decode(frame.body));
      default:
        throw ServingError(ErrorCode::kCorrupt,
                           "net: unexpected frame mid-search");
    }
  }
}

PongMsg NetClient::ping() {
  PingMsg msg;
  msg.seq = next_request_id_++;
  send_frame(msg.encode());
  const auto payload = recv_frame();
  const ParsedFrame frame = parse_frame(payload);
  if (frame.type == MsgType::kStatus) throw_status(StatusMsg::decode(frame.body));
  if (frame.type != MsgType::kPong) {
    throw ServingError(ErrorCode::kCorrupt, "net: expected pong");
  }
  const PongMsg pong = PongMsg::decode(frame.body);
  if (pong.seq != msg.seq) {
    throw ServingError(ErrorCode::kCorrupt, "net: pong for unknown ping");
  }
  return pong;
}

MapUpdateAckMsg NetClient::push_map(std::span<const std::uint8_t> map_bytes) {
  MapUpdateMsg msg;
  msg.map_bytes.assign(map_bytes.begin(), map_bytes.end());
  send_frame(msg.encode());
  const auto payload = recv_frame();
  const ParsedFrame frame = parse_frame(payload);
  if (frame.type == MsgType::kStatus) throw_status(StatusMsg::decode(frame.body));
  if (frame.type != MsgType::kMapUpdateAck) {
    throw ServingError(ErrorCode::kCorrupt, "net: expected map-update-ack");
  }
  return MapUpdateAckMsg::decode(frame.body);
}

void NetClient::abort() noexcept {
  std::lock_guard lk(lifecycle_mu_);
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

}  // namespace apks::net
