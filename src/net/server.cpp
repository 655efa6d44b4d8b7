#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/failpoint.h"
#include "hpe/serialize.h"

namespace apks::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Evaluates a net.* failpoint; a kThrow arming counts as a fire instead of
// letting FailpointError escape the io loop thread.
bool net_failpoint_fired(const char* site) {
  try {
    return failpoint(site).fired();
  } catch (const FailpointError&) {
    return true;
  }
}

}  // namespace

// Per-connection state, touched only by the owning io loop thread — except
// `closed` and `cancel`, which worker threads read (and stop() fires).
struct NetServer::Conn {
  int fd = -1;
  std::size_t loop = 0;
  enum class State : std::uint8_t { kAwaitHello, kReady };
  State state = State::kAwaitHello;
  // Negotiated at hello: the session speaks min(client, server) semantics.
  // v1 sessions never see the v2 shard messages.
  std::uint8_t version = kNetVersion;
  bool authed = false;
  bool failed = false;            // terminal status queued; input ignored
  bool close_after_flush = false;
  bool want_write = false;
  std::atomic<bool> closed{false};
  // Fired on disconnect/shutdown: every inflight engine batch for this
  // connection carries this token and stops at its next block boundary.
  std::shared_ptr<std::atomic<bool>> cancel =
      std::make_shared<std::atomic<bool>>(false);
  FrameReassembler in;
  std::deque<std::vector<std::uint8_t>> out;
  std::size_t out_head = 0;   // sent prefix of out.front()
  std::size_t out_bytes = 0;  // total queued bytes
  AnyQuery query;             // the session's verified query
  QueryDigest digest{};
};

struct NetServer::IoLoop {
  int epfd = -1;
  int wakeup_fd = -1;
  std::mutex tasks_mutex;
  std::deque<std::function<void()>> tasks;
  std::atomic<bool> stop{false};
  std::unordered_map<int, std::shared_ptr<Conn>> conns;

  // Thread-safe: enqueue a task for the loop thread and wake its epoll.
  void post(std::function<void()> fn) {
    {
      std::lock_guard lock(tasks_mutex);
      tasks.push_back(std::move(fn));
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wakeup_fd, &one, sizeof(one));
  }

  void run_tasks() {
    for (;;) {
      std::function<void()> fn;
      {
        std::lock_guard lock(tasks_mutex);
        if (tasks.empty()) return;
        fn = std::move(tasks.front());
        tasks.pop_front();
      }
      fn();
    }
  }
};

NetServer::NetServer(const SearchEngine& engine, NetServerOptions options)
    : engine_(&engine),
      verifier_(&engine.server().verifier()),
      backend_(&engine.server().backend()),
      options_(options),
      shard_set_(options.shard_set) {
  if (options_.io_threads == 0) options_.io_threads = 1;
  if (options_.worker_threads == 0) options_.worker_threads = 1;
  if (options_.result_chunk_refs == 0) options_.result_chunk_refs = 256;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw ServingError(ErrorCode::kIo, "net: socket() failed: " +
                                           std::string(std::strerror(errno)));
  }
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw ServingError(ErrorCode::kIo, "net: bad listen host " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 128) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ServingError(ErrorCode::kIo, "net: bind/listen on " + options_.host +
                                           ":" + std::to_string(options_.port) +
                                           " failed: " + err);
  }
  socklen_t len = sizeof(addr);
  (void)::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  for (std::size_t i = 0; i < options_.io_threads; ++i) {
    auto loop = std::make_unique<IoLoop>();
    loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wakeup_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wakeup_fd;
    (void)::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->wakeup_fd, &ev);
    loops_.push_back(std::move(loop));
  }
  // The listener lives on loop 0.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  (void)::epoll_ctl(loops_[0]->epfd, EPOLL_CTL_ADD, listen_fd_, &ev);

  for (std::size_t i = 0; i < options_.io_threads; ++i) {
    io_threads_.emplace_back([this, i] { io_thread_main(i); });
  }
  for (std::size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_thread_main(); });
  }
}

NetServer::~NetServer() { stop(0); }

// --- io loop ----------------------------------------------------------------

void NetServer::io_thread_main(std::size_t loop_index) {
  IoLoop& loop = *loops_[loop_index];
  std::array<epoll_event, 64> events;
  while (!loop.stop.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(loop.epfd, events.data(),
                     static_cast<int>(events.size()), /*timeout_ms=*/200);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop.wakeup_fd) {
        std::uint64_t drained = 0;
        while (::read(loop.wakeup_fd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (loop_index == 0 && fd == listen_fd_) {
        accept_ready();
        continue;
      }
      const auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;
      const std::shared_ptr<Conn> conn = it->second;  // keep alive
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(loop, conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) handle_readable(loop, conn);
      if (!conn->closed.load(std::memory_order_relaxed) &&
          (events[i].events & EPOLLOUT) != 0) {
        handle_writable(loop, conn);
      }
    }
    loop.run_tasks();
  }
  // Drain any posted-but-unrun tasks, then close every connection this
  // loop still owns (best-effort shutdown notice already queued by stop()).
  loop.run_tasks();
  const auto conns = loop.conns;  // close_conn mutates the map
  for (const auto& [fd, conn] : conns) close_conn(loop, conn);
}

void NetServer::accept_ready() {
  for (;;) {
    if (!accepting_.load(std::memory_order_acquire)) return;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient error: epoll re-arms us
    if (net_failpoint_fired(kSiteAccept)) {
      ::close(fd);
      bump(&NetServerStats::refused_connections);
      continue;
    }
    if (options_.max_connections != 0 &&
        open_conns_.load(std::memory_order_relaxed) >=
            options_.max_connections) {
      // Best-effort refusal notice: the fd is fresh, its socket buffer is
      // empty, so the single frame either fits or the client is gone.
      const auto frame = encode_frame(
          StatusMsg{WireStatus::kOverloaded, "connection limit reached"}
              .encode());
      (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      bump(&NetServerStats::refused_connections);
      continue;
    }
    set_nodelay(fd);
    bump(&NetServerStats::accepted);
    open_conns_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t target =
        next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    auto install = [this, target, fd] {
      IoLoop& loop = *loops_[target];
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conn->loop = target;
      loop.conns.emplace(fd, conn);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      (void)::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, fd, &ev);
    };
    if (target == 0) {
      install();
    } else {
      loops_[target]->post(std::move(install));
    }
  }
}

void NetServer::handle_readable(IoLoop& loop,
                                const std::shared_ptr<Conn>& conn) {
  std::array<std::uint8_t, 64 * 1024> buf;
  for (;;) {
    if (net_failpoint_fired(kSiteRead)) {
      close_conn(loop, conn);
      return;
    }
    const ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
    if (n == 0) {  // peer closed — mid-stream disconnects land here
      close_conn(loop, conn);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(loop, conn);
      return;
    }
    bump(&NetServerStats::bytes_in, static_cast<std::uint64_t>(n));
    conn->in.feed({buf.data(), static_cast<std::size_t>(n)});
    if (static_cast<std::size_t>(n) < buf.size()) break;
  }
  while (!conn->closed.load(std::memory_order_relaxed) && !conn->failed) {
    auto payload = conn->in.next();
    if (!payload.has_value()) break;
    bump(&NetServerStats::frames_in);
    handle_payload(loop, conn, *payload);
  }
  if (!conn->closed.load(std::memory_order_relaxed) && conn->in.error()) {
    bump(&NetServerStats::protocol_errors);
    fail_conn(loop, conn, WireStatus::kCorrupt,
              "frame error: " + conn->in.error_message());
  }
}

void NetServer::handle_payload(IoLoop& loop, const std::shared_ptr<Conn>& conn,
                               std::span<const std::uint8_t> payload) {
  ParsedFrame frame{};
  try {
    frame = parse_frame(payload);
    switch (conn->state) {
      case Conn::State::kAwaitHello: {
        if (frame.type != MsgType::kHello) {
          throw std::invalid_argument("expected hello");
        }
        const HelloMsg hello = HelloMsg::decode(frame.body);
        HelloAckMsg ack;
        ack.scheme = backend_->kind();
        ack.records = served_records();
        if (hello.version < kNetVersionMin || hello.version > kNetVersion) {
          ack.status = WireStatus::kBadRequest;
          ack.message = "protocol version " + std::to_string(hello.version) +
                        " unsupported (server speaks " +
                        std::to_string(kNetVersionMin) + ".." +
                        std::to_string(kNetVersion) + ")";
        } else if (hello.scheme != backend_->kind()) {
          ack.status = WireStatus::kBadRequest;
          ack.message = "scheme mismatch: client '" +
                        std::string(scheme_name(hello.scheme)) +
                        "', server '" +
                        std::string(scheme_name(backend_->kind())) + "'";
        }
        if (ack.status == WireStatus::kOk) {
          // Speak the client's version for the rest of the session; the
          // echoed ack version is the negotiation result.
          conn->version = hello.version;
          ack.version = hello.version;
        }
        send_frame(loop, conn, encode_frame(ack.encode()));
        if (ack.status != WireStatus::kOk) {
          bump(&NetServerStats::protocol_errors);
          conn->failed = true;
          conn->close_after_flush = true;
          flush_writes(loop, conn);
        } else {
          conn->state = Conn::State::kReady;
        }
        return;
      }
      case Conn::State::kReady:
        switch (frame.type) {
          case MsgType::kAuth:
            handle_auth(loop, conn, AuthMsg::decode(frame.body));
            return;
          case MsgType::kSearch:
            handle_search(loop, conn, SearchMsg::decode(frame.body));
            return;
          case MsgType::kShardSearch:
            if (conn->version < 2) {
              throw std::invalid_argument(
                  "shard search requires protocol version 2");
            }
            handle_shard_search(loop, conn,
                                ShardSearchMsg::decode(frame.body));
            return;
          case MsgType::kPing: {
            if (conn->version < 3) {
              throw std::invalid_argument(
                  "ping requires protocol version 3");
            }
            // Answered inline on the io thread, before auth: a heartbeat
            // measures event-loop liveness, not scan backlog or session
            // credentials.
            const PingMsg ping = PingMsg::decode(frame.body);
            PongMsg pong;
            pong.seq = ping.seq;
            const auto set = shard_set();
            pong.map_version = set != nullptr ? set->map_version : 0;
            pong.inflight = static_cast<std::uint32_t>(
                inflight_jobs_.load(std::memory_order_relaxed));
            send_frame(loop, conn, encode_frame(pong.encode()));
            return;
          }
          case MsgType::kMapUpdate:
            if (conn->version < 3) {
              throw std::invalid_argument(
                  "map update requires protocol version 3");
            }
            handle_map_update(loop, conn, MapUpdateMsg::decode(frame.body));
            return;
          default:
            throw std::invalid_argument("unexpected message type");
        }
    }
  } catch (const std::exception& ex) {
    bump(&NetServerStats::protocol_errors);
    fail_conn(loop, conn, WireStatus::kBadRequest, ex.what());
  }
}

void NetServer::handle_auth(IoLoop& loop, const std::shared_ptr<Conn>& conn,
                            const AuthMsg& msg) {
  AuthAckMsg ack;
  AnyQuery query;
  try {
    query = backend_->decode_query(msg.query);
  } catch (const std::exception& ex) {
    ack.status = WireStatus::kBadRequest;
    ack.message = std::string("query rejected: ") + ex.what();
  }
  if (ack.status == WireStatus::kOk) {
    if (msg.mode == AuthMsg::Mode::kSigned) {
      try {
        ByteReader r(msg.sig);
        SignedQuery sq;
        sq.query = query;
        sq.issuer = msg.issuer;
        read_elements(backend_->pairing().curve(), [&](ElementReader& in) {
          in.point(r, sq.sig.u);
          in.point(r, sq.sig.v);
          if (!r.done()) {
            throw std::invalid_argument("signature trailing bytes");
          }
        });
        if (!verifier_->verify(*backend_, sq)) {
          ack.status = WireStatus::kUnauthorized;
          ack.message = "authority signature rejected";
        }
      } catch (const std::exception& ex) {
        ack.status = WireStatus::kBadRequest;
        ack.message = std::string("signature rejected: ") + ex.what();
      }
    } else if (!options_.allow_unchecked) {
      ack.status = WireStatus::kUnauthorized;
      ack.message = "server requires signed session queries";
    }
  }
  if (ack.status == WireStatus::kOk) {
    conn->query = std::move(query);
    conn->digest = backend_->digest(conn->query);
    conn->authed = true;
    ack.digest = conn->digest;
    bump(&NetServerStats::auth_ok);
  } else {
    // A failed auth clears the session: a later search must not silently
    // ride the previous credential.
    conn->authed = false;
    conn->query = AnyQuery();
    conn->digest = {};
    bump(&NetServerStats::auth_rejected);
  }
  send_frame(loop, conn, encode_frame(ack.encode()));
}

void NetServer::handle_search(IoLoop& loop, const std::shared_ptr<Conn>& conn,
                              const SearchMsg& msg) {
  const auto refuse = [&](WireStatus status, const std::string& why) {
    ResultEndMsg end;
    end.request_id = msg.request_id;
    end.status = status;
    end.message = why;
    send_frame(loop, conn, encode_frame(end.encode()));
  };
  if (!conn->authed) {
    refuse(WireStatus::kUnauthorized, "no authorized session query");
    return;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    refuse(WireStatus::kShutdown, "server is draining");
    return;
  }
  SearchJob job;
  job.conn = conn;
  job.request = msg;
  job.query = conn->query;  // copy: a re-auth never races the scan
  job.digest = conn->digest;
  job.set = shard_set();    // snapshot: a map swap never races the scan
  {
    std::lock_guard lock(jobs_mutex_);
    if (jobs_closed_) {
      refuse(WireStatus::kShutdown, "server is draining");
      return;
    }
    inflight_jobs_.fetch_add(1, std::memory_order_relaxed);
    jobs_.push_back(std::move(job));
  }
  jobs_cv_.notify_one();
}

void NetServer::handle_shard_search(IoLoop& loop,
                                    const std::shared_ptr<Conn>& conn,
                                    const ShardSearchMsg& msg) {
  const auto refuse = [&](WireStatus status, const std::string& why) {
    ResultEndMsg end;
    end.request_id = msg.request_id;
    end.status = status;
    end.message = why;
    send_frame(loop, conn, encode_frame(end.encode()));
  };
  if (!conn->authed) {
    refuse(WireStatus::kUnauthorized, "no authorized session query");
    return;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    refuse(WireStatus::kShutdown, "server is draining");
    return;
  }
  const std::shared_ptr<const ShardEngineSet> set = shard_set();
  if (set == nullptr) {
    refuse(WireStatus::kBadRequest, "server does not serve shards");
    return;
  }
  // A coordinator holding a different map than this node must never get a
  // silently wrong (mis-scoped) answer: refuse and let it refresh.
  if (msg.map_version != set->map_version ||
      msg.total_shards != set->total_shards) {
    refuse(WireStatus::kBadRequest,
           "stale cluster map: request (v" + std::to_string(msg.map_version) +
               ", " + std::to_string(msg.total_shards) + " shards), node (v" +
               std::to_string(set->map_version) + ", " +
               std::to_string(set->total_shards) + " shards)");
    return;
  }
  for (const std::uint32_t shard : msg.shards) {
    if (shard >= set->total_shards) {
      refuse(WireStatus::kBadRequest,
             "shard " + std::to_string(shard) + " out of range");
      return;
    }
    if (set->engine_for(shard) == nullptr) {
      refuse(WireStatus::kBadRequest,
             "shard " + std::to_string(shard) + " not owned by this node");
      return;
    }
  }
  SearchJob job;
  job.conn = conn;
  job.request.request_id = msg.request_id;
  job.request.deadline_ms = msg.deadline_ms;
  job.request.partial_ok = msg.partial_ok;
  job.query = conn->query;  // copy: a re-auth never races the scan
  job.digest = conn->digest;
  job.shard_scoped = true;
  job.shards = msg.shards;
  job.set = set;  // the set the request was validated against
  {
    std::lock_guard lock(jobs_mutex_);
    if (jobs_closed_) {
      refuse(WireStatus::kShutdown, "server is draining");
      return;
    }
    inflight_jobs_.fetch_add(1, std::memory_order_relaxed);
    jobs_.push_back(std::move(job));
  }
  jobs_cv_.notify_one();
}

void NetServer::handle_map_update(IoLoop& loop,
                                  const std::shared_ptr<Conn>& conn,
                                  MapUpdateMsg msg) {
  const auto refuse = [&](WireStatus status, const std::string& why) {
    MapUpdateAckMsg ack;
    ack.status = status;
    const auto set = shard_set();
    ack.version = set != nullptr ? set->map_version : 0;
    ack.message = why;
    send_frame(loop, conn, encode_frame(ack.encode()));
  };
  if (!options_.map_update_handler) {
    refuse(WireStatus::kBadRequest, "server does not accept map updates");
    return;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    refuse(WireStatus::kShutdown, "server is draining");
    return;
  }
  // Applying a map loads shard engines from the store — worker-pool work.
  SearchJob job;
  job.conn = conn;
  job.map_update = true;
  job.map_bytes = std::move(msg.map_bytes);
  {
    std::lock_guard lock(jobs_mutex_);
    if (jobs_closed_) {
      refuse(WireStatus::kShutdown, "server is draining");
      return;
    }
    inflight_jobs_.fetch_add(1, std::memory_order_relaxed);
    jobs_.push_back(std::move(job));
  }
  jobs_cv_.notify_one();
}

// --- worker pool ------------------------------------------------------------

void NetServer::worker_thread_main() {
  for (;;) {
    SearchJob job;
    {
      std::unique_lock lock(jobs_mutex_);
      jobs_cv_.wait(lock, [&] { return jobs_closed_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // closed and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    if (job.map_update) {
      run_map_update_job(job);
    } else {
      run_search_job(job);
    }
    inflight_jobs_.fetch_sub(1, std::memory_order_relaxed);
    drain_cv_.notify_all();
  }
}

void NetServer::run_map_update_job(const SearchJob& job) {
  MapUpdateAckMsg ack;
  try {
    ack = options_.map_update_handler(job.map_bytes);
  } catch (const std::exception& ex) {
    ack.status = WireStatus::kBadRequest;
    const auto set = shard_set();
    ack.version = set != nullptr ? set->map_version : 0;
    ack.message = std::string("map update failed: ") + ex.what();
  }
  const std::shared_ptr<Conn> conn = job.conn.lock();
  if (conn == nullptr || conn->closed.load(std::memory_order_acquire)) return;
  std::weak_ptr<Conn> weak = conn;
  loops_[conn->loop]->post(
      [this, weak, frame = encode_frame(ack.encode())]() mutable {
        const std::shared_ptr<Conn> c = weak.lock();
        if (c == nullptr || c->closed.load(std::memory_order_relaxed)) return;
        send_frame(*loops_[c->loop], c, std::move(frame));
      });
}

void NetServer::run_search_job(const SearchJob& job) {
  const std::shared_ptr<Conn> conn = job.conn.lock();
  if (conn == nullptr || conn->closed.load(std::memory_order_acquire)) {
    return;  // client died before the scan started: no crypto runs
  }

  ServeControl control;
  control.deadline_ms = job.request.deadline_ms != 0
                            ? job.request.deadline_ms
                            : options_.default_deadline_ms;
  control.cancel = conn->cancel.get();
  // Always run the engine in partial mode: the wire layer decides whether
  // the prefix is streamed, but the outcome must arrive as a status frame,
  // not an exception.
  control.partial_ok = true;

  ResultEndMsg end;
  end.request_id = job.request.request_id;
  const bool sharded = job.set != nullptr;
  std::vector<std::vector<std::string>> results;
  std::vector<ShardHit> hits;
  BatchMetrics metrics;
  try {
    if (sharded) {
      // Shard-backed server: scan the requested shards — every owned shard
      // for a legacy kSearch session — and merge the hits by record id.
      // Everything goes through the job's snapshot of the set, so a map
      // swap mid-scan is invisible here.
      std::vector<std::uint32_t> shards = job.shards;
      if (!job.shard_scoped) {
        shards.clear();
        for (const auto& entry : job.set->shards) {
          shards.push_back(entry.first);
        }
      }
      hits = scan_shards(*job.set, shards, job.query, job.digest, control,
                         end);
    } else {
      results = engine_->search_batch_unchecked_any(
          {&job.query, 1}, &metrics, control, {&job.digest, 1});
      if (metrics.deadline_exceeded) {
        end.status = WireStatus::kDeadlineExceeded;
        end.flags |= kResultDeadlineExceeded | kResultTruncated;
      } else if (metrics.cancelled) {
        end.status = WireStatus::kCancelled;
        end.flags |= kResultCancelled | kResultTruncated;
      }
    }
  } catch (const ServingError& ex) {
    end.status = wire_status_from_error(ex.code());
    end.message = ex.what();
  } catch (const std::invalid_argument& ex) {
    end.status = WireStatus::kBadRequest;
    end.message = ex.what();
  } catch (const std::exception& ex) {
    end.status = WireStatus::kUnavailable;
    end.message = ex.what();
  }
  if (!sharded) {
    if (!metrics.per_query.empty()) {
      end.scanned = metrics.per_query[0].scanned;
      end.matched = metrics.per_query[0].matched;
    }
    end.wall_us = static_cast<std::uint64_t>(metrics.wall_s * 1e6);
  }

  switch (end.status) {
    case WireStatus::kOk:
      bump(&NetServerStats::searches_ok);
      break;
    case WireStatus::kDeadlineExceeded:
      bump(&NetServerStats::searches_deadline);
      break;
    case WireStatus::kOverloaded:
      bump(&NetServerStats::searches_overloaded);
      break;
    case WireStatus::kCancelled:
      bump(&NetServerStats::searches_cancelled);
      break;
    default:
      bump(&NetServerStats::searches_error);
      break;
  }

  // Chunked response: full results stream for kOk; deadline/cancel stream
  // the truncated-but-well-formed prefix only when the client asked for it.
  std::vector<std::vector<std::uint8_t>> frames;
  const bool stream_results =
      end.status == WireStatus::kOk ||
      ((end.flags & kResultTruncated) != 0 && job.request.partial_ok);
  if (stream_results && job.shard_scoped) {
    // v2 shard response: id-carrying hit chunks.
    for (std::size_t lo = 0; lo < hits.size();
         lo += options_.result_chunk_refs) {
      ShardChunkMsg chunk;
      chunk.request_id = job.request.request_id;
      const std::size_t hi =
          std::min(hits.size(), lo + options_.result_chunk_refs);
      for (std::size_t i = lo; i < hi; ++i) {
        chunk.hits.push_back(std::move(hits[i]));
      }
      frames.push_back(encode_frame(chunk.encode()));
    }
  } else if (stream_results && sharded) {
    // Legacy session against a shard-backed server: the merged hits drop
    // their ids and stream as plain ref chunks.
    for (std::size_t lo = 0; lo < hits.size();
         lo += options_.result_chunk_refs) {
      ResultChunkMsg chunk;
      chunk.request_id = job.request.request_id;
      const std::size_t hi =
          std::min(hits.size(), lo + options_.result_chunk_refs);
      for (std::size_t i = lo; i < hi; ++i) {
        chunk.refs.push_back(std::move(hits[i].ref));
      }
      frames.push_back(encode_frame(chunk.encode()));
    }
  } else if (stream_results && !results.empty()) {
    const std::vector<std::string>& refs = results[0];
    for (std::size_t lo = 0; lo < refs.size();
         lo += options_.result_chunk_refs) {
      ResultChunkMsg chunk;
      chunk.request_id = job.request.request_id;
      const std::size_t hi =
          std::min(refs.size(), lo + options_.result_chunk_refs);
      chunk.refs.assign(refs.begin() + static_cast<std::ptrdiff_t>(lo),
                        refs.begin() + static_cast<std::ptrdiff_t>(hi));
      frames.push_back(encode_frame(chunk.encode()));
    }
  }
  frames.push_back(encode_frame(end.encode()));

  // Hand the frames to the owning loop thread; if the connection died
  // while we scanned, they are simply dropped.
  std::weak_ptr<Conn> weak = conn;
  loops_[conn->loop]->post([this, weak, frames = std::move(frames)]() mutable {
    const std::shared_ptr<Conn> c = weak.lock();
    if (c == nullptr || c->closed.load(std::memory_order_relaxed)) return;
    IoLoop& loop = *loops_[c->loop];
    for (auto& f : frames) {
      if (c->closed.load(std::memory_order_relaxed)) break;
      send_frame(loop, c, std::move(f));
    }
  });
}

std::vector<ShardHit> NetServer::scan_shards(
    const ShardEngineSet& set, std::span<const std::uint32_t> shards,
    const AnyQuery& query, const QueryDigest& digest,
    const ServeControl& control, ResultEndMsg& end) const {
  std::vector<ShardHit> hits;
  const auto t0 = std::chrono::steady_clock::now();
  double wall_s = 0.0;
  for (const std::uint32_t shard : shards) {
    // One deadline budget across the whole request: each shard's engine
    // gets whatever remains of it.
    ServeControl sub = control;
    if (control.deadline_ms != 0) {
      const auto elapsed_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      if (elapsed_ms >= control.deadline_ms) {
        end.status = WireStatus::kDeadlineExceeded;
        end.flags |= kResultDeadlineExceeded | kResultTruncated;
        break;
      }
      sub.deadline_ms = control.deadline_ms - elapsed_ms;
    }
    const SearchEngine* engine = set.engine_for(shard);  // validated upstream
    BatchMetrics metrics;
    std::vector<std::vector<std::uint64_t>> ids;
    std::vector<std::vector<std::string>> refs =
        engine->search_batch_unchecked_any_ids({&query, 1}, &ids, &metrics,
                                               sub, {&digest, 1});
    if (!metrics.per_query.empty()) {
      end.scanned += metrics.per_query[0].scanned;
      end.matched += metrics.per_query[0].matched;
    }
    wall_s += metrics.wall_s;
    if (!refs.empty()) {
      for (std::size_t i = 0; i < refs[0].size(); ++i) {
        hits.push_back(ShardHit{ids[0][i], std::move(refs[0][i])});
      }
    }
    if (metrics.deadline_exceeded) {
      end.status = WireStatus::kDeadlineExceeded;
      end.flags |= kResultDeadlineExceeded | kResultTruncated;
      break;
    }
    if (metrics.cancelled) {
      end.status = WireStatus::kCancelled;
      end.flags |= kResultCancelled | kResultTruncated;
      break;
    }
  }
  end.wall_us = static_cast<std::uint64_t>(wall_s * 1e6);
  // The same concatenate-then-sort-by-id merge ShardedStore::search_any
  // performs (ids are unique across shards), so a coordinator gluing
  // per-node hit streams back together reproduces the single-node byte
  // order exactly.
  std::sort(hits.begin(), hits.end(),
            [](const ShardHit& a, const ShardHit& b) { return a.id < b.id; });
  return hits;
}

std::uint64_t NetServer::served_records() const {
  const auto set = shard_set();
  if (set == nullptr) return engine_->server().record_count();
  std::uint64_t total = 0;
  for (const auto& entry : set->shards) {
    total += entry.second->server().record_count();
  }
  return total;
}

// --- write path -------------------------------------------------------------

void NetServer::send_frame(IoLoop& loop, const std::shared_ptr<Conn>& conn,
                           std::vector<std::uint8_t> frame_bytes) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  conn->out_bytes += frame_bytes.size();
  conn->out.push_back(std::move(frame_bytes));
  bump(&NetServerStats::frames_out);
  if (options_.write_buffer_cap != 0 &&
      conn->out_bytes > options_.write_buffer_cap) {
    // Slow client: it is not draining its socket while we stream results.
    // Closing (instead of buffering without bound) is the backpressure of
    // last resort; the cancel token also stops any inflight scan.
    bump(&NetServerStats::slow_client_closes);
    close_conn(loop, conn);
    return;
  }
  flush_writes(loop, conn);
}

void NetServer::flush_writes(IoLoop& loop, const std::shared_ptr<Conn>& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  while (!conn->out.empty()) {
    if (net_failpoint_fired(kSiteWrite)) {
      close_conn(loop, conn);
      return;
    }
    const std::vector<std::uint8_t>& front = conn->out.front();
    const ssize_t n =
        ::send(conn->fd, front.data() + conn->out_head,
               front.size() - conn->out_head, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(loop, conn);
      return;
    }
    bump(&NetServerStats::bytes_out, static_cast<std::uint64_t>(n));
    conn->out_head += static_cast<std::size_t>(n);
    conn->out_bytes -= static_cast<std::size_t>(n);
    if (conn->out_head == front.size()) {
      conn->out.pop_front();
      conn->out_head = 0;
    }
  }
  const bool want_write = !conn->out.empty();
  if (want_write != conn->want_write) update_epoll(loop, *conn, want_write);
  if (!want_write && conn->close_after_flush) close_conn(loop, conn);
}

void NetServer::handle_writable(IoLoop& loop,
                                const std::shared_ptr<Conn>& conn) {
  flush_writes(loop, conn);
}

void NetServer::update_epoll(IoLoop& loop, const Conn& conn, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? static_cast<std::uint32_t>(EPOLLOUT)
                                    : 0u);
  ev.data.fd = conn.fd;
  (void)::epoll_ctl(loop.epfd, EPOLL_CTL_MOD, conn.fd, &ev);
  const_cast<Conn&>(conn).want_write = want_write;
}

void NetServer::fail_conn(IoLoop& loop, const std::shared_ptr<Conn>& conn,
                          WireStatus status, const std::string& message) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  conn->failed = true;
  conn->close_after_flush = true;
  send_frame(loop, conn, encode_frame(StatusMsg{status, message}.encode()));
  flush_writes(loop, conn);
}

void NetServer::close_conn(IoLoop& loop, const std::shared_ptr<Conn>& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  // The disconnect IS the cancellation: any engine batch still scanning for
  // this connection stops at its next block boundary and its worker drops
  // the result frames — no inflight slot survives the peer.
  conn->cancel->store(true, std::memory_order_release);
  (void)::epoll_ctl(loop.epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
  (void)::close(conn->fd);
  loop.conns.erase(conn->fd);
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  bump(&NetServerStats::closed);
}

// --- shutdown ---------------------------------------------------------------

void NetServer::stop(std::uint64_t grace_ms) {
  std::lock_guard stop_lock(stop_mutex_);
  if (stopped_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  accepting_.store(false, std::memory_order_release);

  // 1. Stop accepting: pull the listener out of loop 0 (on its thread).
  loops_[0]->post([this] {
    if (listen_fd_ >= 0) {
      (void)::epoll_ctl(loops_[0]->epfd, EPOLL_CTL_DEL, listen_fd_, nullptr);
      (void)::close(listen_fd_);
      listen_fd_ = -1;
    }
  });

  // 2. Drain: give inflight batches a grace window to finish honestly.
  if (grace_ms != 0) {
    std::unique_lock lock(drain_mutex_);
    drain_cv_.wait_for(lock, std::chrono::milliseconds(grace_ms), [&] {
      return inflight_jobs_.load(std::memory_order_relaxed) == 0;
    });
  }

  // 3. Whatever is still scanning gets deadline-cancelled through the
  // connection tokens; idle connections get a shutdown notice.
  for (const auto& loop : loops_) {
    loop->post([this, loop = loop.get()] {
      const auto conns = loop->conns;
      for (const auto& [fd, conn] : conns) {
        conn->cancel->store(true, std::memory_order_release);
        if (!conn->failed) {
          conn->failed = true;
          conn->close_after_flush = true;
          send_frame(*loop, conn,
                     encode_frame(StatusMsg{WireStatus::kShutdown,
                                            "server shutting down"}
                                      .encode()));
          flush_writes(*loop, conn);
        }
      }
    });
  }

  // 4. Close the job queue and join the workers (cancelled scans return at
  // their next block boundary, so this converges quickly).
  {
    std::lock_guard lock(jobs_mutex_);
    jobs_closed_ = true;
  }
  jobs_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();

  // 5. Stop the io loops (each closes its remaining connections on exit).
  for (const auto& loop : loops_) {
    loop->stop.store(true, std::memory_order_release);
    loop->post([] {});  // wake
  }
  for (auto& t : io_threads_) t.join();
  io_threads_.clear();
  for (const auto& loop : loops_) {
    if (loop->epfd >= 0) ::close(loop->epfd);
    if (loop->wakeup_fd >= 0) ::close(loop->wakeup_fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  stopped_.store(true, std::memory_order_release);
}

}  // namespace apks::net
