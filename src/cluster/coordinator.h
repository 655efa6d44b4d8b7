// Coordinator — the scatter-gather edge of the cluster tier (DESIGN.md
// §5i; self-healing behaviour §5j).
//
// One coordinator holds a ClusterMap and a persistent NetClient per node.
// A search authenticates ONCE at the edge (the authority-signature check
// of the paper's protocol, memoized in a digest-keyed BoundedLru of
// verified signatures; common/bounded_lru.h), then
// fans out shard-scoped kShardSearch RPCs to the owning nodes — the
// internal hop re-sends the query unchecked, which only nodes opted into
// allow_unchecked accept (the trusted-tier deployment). Per-shard hits
// come back with their record ids and are merged ascending by id:
// byte-identical to a single-node SearchEngine over the same records,
// which answers in ascending-id order (CloudServer::load_from sorts by
// id) — ids are unique, so the merge order is the scan order.
//
// Failure handling is the proxy pool's pattern lifted to nodes, made
// PROACTIVE by the health subsystem:
//
//   * every node has a CircuitBreaker (common/breaker.h) ticked on one
//     op counter per cluster search — a node that keeps failing is
//     skipped for cooldown_ops searches, then probed;
//   * with heartbeats enabled, each shard's replica order is re-sorted
//     by liveness rank (alive < suspect < dead) at search start and a
//     dead node's breaker is force-tripped — a corpse is deprioritized
//     and gated BEFORE any request pays for discovering it;
//   * a failed node RPC (dial/transport/refusal) moves its shards to the
//     next replica in the effective order and redials lazily;
//   * hedged reads: when enabled, a primary RPC that outlives the node's
//     adaptive latency quantile is raced against the shards' next
//     replica on a fresh connection; the first usable answer wins per
//     shard and the loser is aborted. A per-search hedge budget bounds
//     the extra RPCs so hedging can never storm a degraded fleet;
//   * a shard whose every replica failed either fails the search
//     (ServingError kUnavailable) or, under control.partial_ok,
//     contributes nothing and is counted in shards_failed;
//   * a node refusing with `stale cluster map` gets this coordinator's
//     map pushed (kMapUpdate) and the shards are retried against it —
//     invisible healing when the coordinator is ahead. If the node
//     refuses the push (ITS map is newer), the search aborts with a
//     typed error: only a fresh map at the caller can heal that.
//
// apply_map() is the live-rebalance entry point: node states survive by
// name (breakers and sessions carry over), the new map is pushed to
// every reachable node, and subsequent searches scatter under the new
// placement.
//
// Failpoint sites: "cluster.scatter" fires per node RPC (throw = the RPC
// fails and its shards fail over; delay = a slow replica), and
// "cluster.stale_map" makes the coordinator advertise version+1 — the
// stale-coordinator drill.
//
// Not thread-safe: one Coordinator per thread (the bench does exactly
// that), matching NetClient's contract. The internal heartbeat and
// scatter threads are coordinated by the implementation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "auth/authority.h"
#include "cluster/health.h"
#include "cluster/placement.h"
#include "common/bounded_lru.h"
#include "common/breaker.h"
#include "common/sha256.h"
#include "core/backend.h"
#include "core/capability_digest.h"
#include "net/client.h"

namespace apks::cluster {

inline constexpr const char* kSiteScatter = "cluster.scatter";
inline constexpr const char* kSiteStaleMap = "cluster.stale_map";

struct HedgeOptions {
  bool enabled = false;
  // Delay before racing the next replica: the per-node p`quantile` of its
  // recent RPC latencies, clamped to [min_delay_ms, max_delay_ms];
  // initial_delay_ms seeds the estimate while a node has no samples.
  std::uint64_t initial_delay_ms = 50;
  double quantile = 0.9;
  std::uint64_t min_delay_ms = 5;
  std::uint64_t max_delay_ms = 2000;
  // Hedge RPCs allowed per search (primaries and failover retries are not
  // counted — this bounds only the speculative extras).
  std::size_t budget = 2;
};

struct CoordinatorOptions {
  // Per-RPC socket budget: connect timeout and send/recv timeout on the
  // node connections (0 = block — scans are seconds-long, so the default
  // trusts the deadline machinery instead).
  std::uint64_t node_timeout_ms = 0;
  // Per-node circuit breaker (same semantics as the proxy pool's). The
  // coordinator seeds each node's cooldown jitter with its index.
  BreakerOptions breaker;
  // Heartbeat failure detection: 0 disables the monitor entirely;
  // otherwise a background thread pings every node each interval and
  // feeds replica ordering + breaker pre-tripping.
  std::uint64_t heartbeat_ms = 0;
  std::uint64_t ping_timeout_ms = 250;
  FailureDetectorOptions detector;
  // Hedged shard reads (off by default; see HedgeOptions).
  HedgeOptions hedge;
  // Edge auth memoization: verified SignedQuery digests kept in an LRU of
  // this capacity. 0 disables caching: every search_signed re-verifies and
  // counts a miss.
  std::size_t auth_cache_capacity = 128;
};

// One cluster search's outcome. scanned/matched sum the per-shard engine
// figures; a hedged search may count a shard's scan effort twice (both
// racers ran) — the merged refs are still exactly the single-node bytes.
struct ClusterSearchStats {
  bool authorized = false;  // search_signed only
  std::uint64_t scanned = 0;
  std::uint64_t matched = 0;
  bool deadline_exceeded = false;
  bool cancelled = false;
  // Any contribution was a prefix or a shard gave up: the result is a
  // union of per-shard prefixes (partial_ok searches only).
  bool partial = false;
  std::size_t shards_ok = 0;      // shards that answered (fully or prefix)
  std::size_t shards_failed = 0;  // partial_ok: every replica failed
  std::size_t rpcs = 0;           // node RPCs issued (hedges included)
  std::size_t retries = 0;        // node RPCs that failed
  std::size_t failovers = 0;      // shard assignments moved to a later replica
  std::size_t breaker_opens = 0;
  std::size_t breaker_probes = 0;
  std::size_t breaker_skips = 0;
  std::size_t hedges = 0;          // speculative RPCs launched
  std::size_t hedge_wins = 0;      // hedges that resolved >= 1 shard
  std::size_t hedge_cancelled = 0; // racers aborted after losing
  std::size_t map_pushes = 0;      // kMapUpdate pushes to stale nodes
};

// Per-node health snapshot (mirrors ProxyPool::health).
struct NodeHealth {
  std::string name;
  std::size_t consecutive_failures = 0;
  bool breaker_open = false;
  NodeLiveness liveness = NodeLiveness::kAlive;  // kAlive when no monitor
  std::size_t heartbeat_misses = 0;
};

// Edge auth LRU counters.
using AuthCacheStats = LruStats;

class Coordinator {
 public:
  // The backend supplies the query codec for the internal hop; the
  // verifier is the edge's authentication. Both must outlive the
  // coordinator.
  Coordinator(const SearchBackend& backend, CapabilityVerifier verifier,
              ClusterMap map, CoordinatorOptions options = {});
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // Full protocol: verify the authority signature once (memoized in the
  // bounded LRU), then scatter. An unauthorized query returns empty with
  // stats.authorized == false and never touches the network (same
  // contract as SearchEngine::search_batch_signed).
  [[nodiscard]] std::vector<std::string> search_signed(
      const SignedQuery& query, ClusterSearchStats* stats = nullptr,
      const ServeControl& control = {});

  // Trusted-edge path (CLI/bench): skip the signature check.
  [[nodiscard]] std::vector<std::string> search_any(
      const AnyQuery& query, ClusterSearchStats* stats = nullptr,
      const ServeControl& control = {});

  // Live rebalance: adopt a strictly newer map. Node states carry over by
  // name (breaker history, sessions); the map is pushed to every
  // reachable node best-effort — unreachable ones are healed on demand by
  // the stale-map push-and-retry path. Throws std::invalid_argument when
  // the map is not strictly newer.
  void apply_map(const ClusterMap& new_map);

  [[nodiscard]] const ClusterMap& map() const noexcept { return map_; }
  [[nodiscard]] std::vector<NodeHealth> health() const;
  [[nodiscard]] AuthCacheStats auth_cache_stats() const {
    return auth_cache_.stats();
  }
  // The heartbeat monitor (nullptr when heartbeat_ms == 0 at
  // construction). Exposed so tests can drive deterministic rounds.
  [[nodiscard]] HealthMonitor* health_monitor() noexcept {
    return health_.get();
  }

 private:
  struct NodeState {
    std::shared_ptr<net::NetClient> client;  // lazily dialed, persistent
    CircuitBreaker breaker;
    bool authed = false;  // session holds `session_query`
    // The query bytes the node's session was last authorized for: a
    // repeat search with the same query skips the auth round-trip (the
    // node keeps its prepared session query between requests).
    std::vector<std::uint8_t> session_query;
    // Recent RPC latencies (ring, newest overwrites oldest) — the hedge
    // delay's quantile source.
    std::vector<std::uint64_t> latency_ring;
    std::size_t latency_pos = 0;
    // One map push per node per search: a node that stays stale after a
    // successful push is broken, not healable.
    bool map_pushed_this_search = false;
  };
  struct RpcOutcome {
    bool ok = false;
    net::ShardRemoteResult result;
    std::string error;
  };
  // One racer (primary or hedge) of a scatter round.
  struct Attempt {
    std::uint32_t node = 0;
    std::vector<std::uint32_t> shards;
    bool is_hedge = false;
    bool aborted = false;    // cancelled by the coordinator: not a fault
    bool processed = false;  // outcome consumed by the round loop
    RpcOutcome out;
    std::uint64_t duration_ms = 0;
    std::uint64_t hedge_at_ms = 0;  // launch a hedge when still running
    bool hedge_launched = false;
    // The exact client the attempt runs on (persistent for primaries,
    // owned ephemeral for hedges) — abort() targets this object even if
    // the node state redials meanwhile.
    std::shared_ptr<net::NetClient> client;
    std::thread thread;
    bool done = false;  // guarded by the round mutex
  };

  // What one shard RPC asks a node; a primary and its hedges ask the same.
  struct ShardRpc {
    std::span<const std::uint32_t> shards;
    std::span<const std::uint8_t> query_bytes;
    std::uint64_t map_version = 0;
    std::uint64_t deadline_ms = 0;
    bool partial_ok = false;
  };
  // Runs `a`'s RPC: dial and hello when its client is not connected,
  // authenticate the session query, then one shard-scoped search. A
  // primary (only ever one per node at a time: a scatter round assigns
  // each node at most one) uses the node's persistent client and session;
  // a hedge uses its own fresh client.
  void run_rpc(Attempt& a, const ShardRpc& rpc, std::mutex& round_mu);
  // Push this coordinator's map to a stale node over a one-shot
  // connection. Returns true when the node ended at our version.
  bool push_map_to(std::uint32_t node, std::string* error);
  [[nodiscard]] std::uint64_t hedge_delay_ms(const NodeState& node) const;
  void note_latency(NodeState& node, std::uint64_t ms);
  // `query_bytes` is backend_->encode_query(query.query).
  [[nodiscard]] bool auth_cache_check(
      const SignedQuery& query, std::span<const std::uint8_t> query_bytes);
  // search_any over an encoded query.
  [[nodiscard]] std::vector<std::string> scatter(
      const std::vector<std::uint8_t>& query_bytes, ClusterSearchStats* stats,
      const ServeControl& control);

  const SearchBackend* backend_;
  CapabilityVerifier verifier_;
  ClusterMap map_;
  CoordinatorOptions options_;
  std::vector<NodeState> nodes_;
  std::atomic<std::uint64_t> op_counter_{0};
  std::vector<std::uint8_t> map_bytes_;  // serialized map_, for pushes
  std::unique_ptr<HealthMonitor> health_;

  // Edge auth LRU: digest over (query bytes, issuer, signature bytes).
  BoundedLru<Sha256::Digest, std::monostate, CapabilityDigestHash>
      auth_cache_;
};

}  // namespace apks::cluster
