// NetServer — the epoll front end that turns SearchEngine into a network
// service (DESIGN.md §5h).
//
// Architecture:
//
//   listener ──▶ io loop 0 ┐                       ┌─▶ SearchEngine batch
//               io loop 1  ├─ nonblocking sockets, │   (deadline, cancel,
//               ...        │  per-connection       │    max_inflight all
//               io loop N  ┘  frame reassembly ────┴─▶  engine-enforced)
//                                ▲        │ search jobs      │
//                                │        ▼                  ▼
//                              write   worker pool ──▶ chunked result
//                              queues  (blocking scans)  frames, posted
//                                                        back to the loop
//
// Each accepted connection is owned by exactly one io loop (round-robin):
// only that loop thread touches its fd, read buffer and write queue, so
// connection state needs no locks. Scans are seconds-long and must never
// block an io loop, so complete kSearch frames are handed to a small pool
// of worker threads that run the engine and post the ready-to-send frames
// back to the owning loop (eventfd wakeup).
//
// End-to-end backpressure is the engine's own machinery, surfaced on the
// wire: per-request deadlines → kDeadlineExceeded status frames (with the
// truncated-but-well-formed prefix streamed first when the client asked
// partial_ok), max_inflight admission → kOverloaded, and a client that
// disconnects mid-batch fires its connection's cancellation token so the
// engine abandons the scan at the next block boundary — no leaked inflight
// slots, no work for a peer that will never read it. Slow clients are
// bounded by a per-connection write-buffer cap (the connection is closed
// rather than buffering unboundedly).
//
// Graceful shutdown (`stop`): close the listener, give inflight batches a
// grace window to finish, then fire every connection's cancellation token
// and join the workers — the drain path `apks_cli serve` runs on
// SIGINT/SIGTERM.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "auth/authority.h"
#include "cloud/search_engine.h"
#include "net/wire.h"

namespace apks::net {

// Failpoint sites threaded through the server's socket I/O (chaos tests arm
// them): kError on accept drops the incoming connection, on read/write it
// fails the syscall and closes the connection; kDelay stalls the io loop —
// the slow-network case.
inline constexpr const char* kSiteAccept = "net.accept";
inline constexpr const char* kSiteRead = "net.read";
inline constexpr const char* kSiteWrite = "net.write";

// Cluster node role (DESIGN.md §5i): the shards this server instance owns
// under one ClusterMap, each backed by its own SearchEngine over exactly
// that shard's records. A server constructed with a ShardEngineSet answers
// kShardSearch requests shard-by-shard (hits keep their record ids so a
// coordinator can k-way merge across nodes) and refuses a plain kSearch
// with kBadRequest, the mirror of a plain server refusing kShardSearch:
// a node holds only a subset of the store.
//
// The set is held by shared_ptr and swappable at runtime (set_shard_set):
// every search job snapshots the pointer when it is dispatched, so a live
// map reconfiguration lets in-flight scans finish against the engines they
// started on while new requests see the new placement — the graceful
// handoff of DESIGN.md §5j. The engines a set points at must stay alive as
// long as any snapshot of that set exists (the cluster node bundles them
// into one shared ownership block).
struct ShardEngineSet {
  std::uint64_t map_version = 0;
  std::uint32_t total_shards = 0;
  std::vector<std::pair<std::uint32_t, const SearchEngine*>> shards;

  [[nodiscard]] const SearchEngine* engine_for(
      std::uint32_t shard) const noexcept {
    for (const auto& [owned, engine] : shards) {
      if (owned == shard) return engine;
    }
    return nullptr;
  }
};

struct NetServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral (read back via port())
  std::size_t io_threads = 2;
  std::size_t worker_threads = 2;
  // Accept kUnchecked auth (raw queries with no authority signature) — the
  // CLI/bench deployments where authorization happens out of band. Off by
  // default: a library user must opt in explicitly.
  bool allow_unchecked = false;
  // Matched doc_refs per kResultChunk frame (streaming granularity).
  std::size_t result_chunk_refs = 256;
  // Close a connection whose pending write queue exceeds this many bytes —
  // the slow-client bound. 0 = unlimited.
  std::size_t write_buffer_cap = 64u << 20;
  // Default per-request deadline when the client sends 0 (0 = engine
  // default).
  std::uint64_t default_deadline_ms = 0;
  // Refuse new connections beyond this many concurrently open (0 =
  // unlimited); refused connections get a kOverloaded status frame.
  std::size_t max_connections = 0;
  // Cluster node role: when set, this server owns the listed shards and
  // serves kShardSearch (see ShardEngineSet above). The ctor engine is
  // still the source of the session backend/verifier and must outlive
  // every installed set (the cluster node anchors it separately from the
  // per-shard engines precisely so set swaps never dangle it). nullptr =
  // plain single-store server.
  std::shared_ptr<const ShardEngineSet> shard_set;
  // Live map reconfiguration hook (kMapUpdate): called on a worker
  // thread with the raw serialized-ClusterMap bytes; the handler validates
  // and applies them (typically ending in set_shard_set) and returns the
  // ack to send. Unset = the server refuses map updates with kBadRequest.
  // The net layer deliberately treats the map as opaque bytes — it must
  // not depend on cluster types.
  std::function<MapUpdateAckMsg(const std::vector<std::uint8_t>&)>
      map_update_handler;
};

// Lifetime counters, snapshot under one lock (same contract as
// EngineCounters).
struct NetServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t refused_connections = 0;  // over max_connections
  std::uint64_t closed = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t protocol_errors = 0;  // bad frames / bad messages
  std::uint64_t auth_ok = 0;
  std::uint64_t auth_rejected = 0;
  std::uint64_t searches_ok = 0;
  std::uint64_t searches_deadline = 0;
  std::uint64_t searches_overloaded = 0;
  std::uint64_t searches_cancelled = 0;  // client died / shutdown mid-batch
  std::uint64_t searches_error = 0;      // other serving errors
  std::uint64_t slow_client_closes = 0;  // write_buffer_cap exceeded
};

class NetServer {
 public:
  // The engine (and the CloudServer/verifier behind it) must outlive the
  // NetServer; the session-auth check uses the CloudServer's registered
  // CapabilityVerifier. The ctor binds and listens; io/worker threads
  // start immediately. Throws ServingError(kIo) when the bind fails.
  explicit NetServer(const SearchEngine& engine,
                     NetServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // The bound port (after an ephemeral bind) and host.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const std::string& host() const noexcept {
    return options_.host;
  }

  // Graceful shutdown: stop accepting, wait up to `grace_ms` for inflight
  // search batches to finish, then fire every connection's cancellation
  // token (the engine stops at the next block boundary), flush a kShutdown
  // status to idle connections and join all threads. Idempotent.
  void stop(std::uint64_t grace_ms = 0);

  [[nodiscard]] bool stopped() const noexcept {
    return stopped_.load(std::memory_order_acquire);
  }

  [[nodiscard]] NetServerStats stats() const {
    std::lock_guard lock(stats_mutex_);
    return stats_;
  }

  // The shard set new requests are validated and served against (nullptr
  // for a plain server). Thread-safe.
  [[nodiscard]] std::shared_ptr<const ShardEngineSet> shard_set() const {
    std::lock_guard lock(shard_set_mutex_);
    return shard_set_;
  }
  // Installs a new shard set: requests dispatched after this see the new
  // placement; jobs already dispatched finish against their snapshot of
  // the old one. Thread-safe (the map-update handler calls it from a
  // worker thread).
  void set_shard_set(std::shared_ptr<const ShardEngineSet> set) {
    std::lock_guard lock(shard_set_mutex_);
    shard_set_ = std::move(set);
  }
  // Search jobs currently running or queued on the worker pool.
  [[nodiscard]] std::size_t inflight_jobs() const noexcept {
    return inflight_jobs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t open_connections() const noexcept {
    return open_conns_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;
  struct IoLoop;
  struct SearchJob {
    std::weak_ptr<Conn> conn;
    SearchMsg request;
    AnyQuery query;  // copied at dispatch: an auth swap never races a scan
    // The session's digest of `query`, computed once at kAuth and copied
    // alongside it, so the engine never re-hashes the capability.
    QueryDigest digest{};
    // kShardSearch jobs (set != nullptr): reply with ShardChunkMsg frames
    // (id-carrying hits) for exactly these shards. `set` is the shard set
    // the job was validated against, snapshotted at dispatch: a concurrent
    // set_shard_set never invalidates a running scan (graceful handoff).
    std::vector<std::uint32_t> shards;
    std::shared_ptr<const ShardEngineSet> set;
    // kMapUpdate jobs ride the same worker queue (applying a map loads
    // shard engines — far too slow for an io loop thread).
    bool map_update = false;
    std::vector<std::uint8_t> map_bytes;
  };

  void io_thread_main(std::size_t loop_index);
  void worker_thread_main();

  void accept_ready();
  void handle_readable(IoLoop& loop, const std::shared_ptr<Conn>& conn);
  void handle_writable(IoLoop& loop, const std::shared_ptr<Conn>& conn);
  void handle_payload(IoLoop& loop, const std::shared_ptr<Conn>& conn,
                      std::span<const std::uint8_t> payload);
  void handle_auth(IoLoop& loop, const std::shared_ptr<Conn>& conn,
                   const AuthMsg& msg);
  void handle_search(IoLoop& loop, const std::shared_ptr<Conn>& conn,
                     const SearchMsg& msg);
  void handle_shard_search(IoLoop& loop, const std::shared_ptr<Conn>& conn,
                           const ShardSearchMsg& msg);
  void handle_map_update(IoLoop& loop, const std::shared_ptr<Conn>& conn,
                         MapUpdateMsg msg);
  void run_search_job(const SearchJob& job);
  void run_map_update_job(const SearchJob& job);
  // Serve the job through SearchEngine::serve_admitted: a plain job on
  // this server's engine; a shard job on each requested shard's engine
  // (from `job.set`, its snapshot) in turn under one deadline budget, with
  // the hits merged ascending by record id. Fills `end` with the
  // aggregated outcome; throws what the engines throw.
  [[nodiscard]] std::vector<ShardHit> serve_job(const SearchJob& job,
                                                const ServeControl& control,
                                                ResultEndMsg& end) const;
  // Total records across the serving engines (summed over owned shards for
  // a shard-backed server) — the hello ack's record count.
  [[nodiscard]] std::uint64_t served_records() const;

  // Enqueue an encoded frame on the connection's write queue and try to
  // flush (loop thread only).
  void send_frame(IoLoop& loop, const std::shared_ptr<Conn>& conn,
                  std::vector<std::uint8_t> frame_bytes);
  // Send a terminal status frame, then close.
  void fail_conn(IoLoop& loop, const std::shared_ptr<Conn>& conn,
                 WireStatus status, const std::string& message);
  void close_conn(IoLoop& loop, const std::shared_ptr<Conn>& conn);
  void flush_writes(IoLoop& loop, const std::shared_ptr<Conn>& conn);
  void update_epoll(IoLoop& loop, const Conn& conn, bool want_write);

  void bump(std::uint64_t NetServerStats::* field, std::uint64_t by = 1) const {
    std::lock_guard lock(stats_mutex_);
    stats_.*field += by;
  }

  const SearchEngine* engine_;
  const CapabilityVerifier* verifier_;
  const SearchBackend* backend_;
  NetServerOptions options_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;

  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::vector<std::thread> io_threads_;
  std::vector<std::thread> workers_;

  // Worker queue.
  std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::deque<SearchJob> jobs_;
  bool jobs_closed_ = false;
  std::atomic<std::size_t> inflight_jobs_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  std::atomic<std::size_t> open_conns_{0};
  std::atomic<std::size_t> next_loop_{0};
  std::atomic<bool> accepting_{true};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::mutex stop_mutex_;

  mutable std::mutex stats_mutex_;
  mutable NetServerStats stats_;

  mutable std::mutex shard_set_mutex_;
  std::shared_ptr<const ShardEngineSet> shard_set_;
};

}  // namespace apks::net
