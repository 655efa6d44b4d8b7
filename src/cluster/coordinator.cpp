#include "cluster/coordinator.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/failpoint.h"

namespace apks::cluster {

using net::WireStatus;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ms(Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            since)
          .count());
}

constexpr std::size_t kLatencyRingCapacity = 32;
// Map pushes must converge even when node_timeout_ms is 0 (block forever):
// a push to a dead node is bounded by this budget instead.
constexpr std::uint64_t kMapPushTimeoutMs = 2000;

}  // namespace

Coordinator::Coordinator(const SearchBackend& backend,
                         CapabilityVerifier verifier, ClusterMap map,
                         CoordinatorOptions options)
    : backend_(&backend),
      verifier_(std::move(verifier)),
      map_(std::move(map)),
      options_(options) {
  nodes_.resize(map_.nodes().size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].breaker = CircuitBreaker(options_.breaker);
    nodes_[i].breaker.seed_jitter(i);
  }
  map_bytes_ = map_.serialize();
  if (options_.heartbeat_ms != 0) {
    HealthMonitorOptions h;
    h.interval_ms = options_.heartbeat_ms;
    h.ping_timeout_ms = options_.ping_timeout_ms;
    h.detector = options_.detector;
    health_ = std::make_unique<HealthMonitor>(backend_->kind(), map_, h);
  }
}

Coordinator::~Coordinator() = default;

std::vector<NodeHealth> Coordinator::health() const {
  std::vector<NodeHealthSnapshot> hb;
  if (health_ != nullptr) hb = health_->snapshot();
  const std::uint64_t now_op = op_counter_.load(std::memory_order_relaxed);
  std::vector<NodeHealth> out;
  out.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeHealth h;
    h.name = map_.nodes()[i].name;
    h.consecutive_failures = nodes_[i].breaker.consecutive_failures();
    h.breaker_open = nodes_[i].breaker.open_now(now_op);
    if (i < hb.size()) {
      h.liveness = hb[i].liveness;
      h.heartbeat_misses = hb[i].misses;
    }
    out.push_back(std::move(h));
  }
  return out;
}

bool Coordinator::auth_cache_check(
    const SignedQuery& query, std::span<const std::uint8_t> query_bytes) {
  if (options_.auth_cache_capacity == 0) {
    return verifier_.verify(*backend_, query);
  }
  // Key = H(len(query) || query || len(issuer) || issuer || len(sig) ||
  // sig): any change to what the verifier would see changes the key.
  const std::vector<std::uint8_t> sig_bytes =
      net::encode_signature(backend_->pairing().curve(), query.sig);
  Sha256 h;
  const auto update_sized = [&h](std::span<const std::uint8_t> data) {
    std::uint8_t len[8];
    std::uint64_t n = data.size();
    for (int i = 0; i < 8; ++i) len[i] = static_cast<std::uint8_t>(n >> (8 * i));
    h.update(std::span<const std::uint8_t>(len, 8));
    h.update(data);
  };
  update_sized(query_bytes);
  update_sized(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(query.issuer.data()),
      query.issuer.size()));
  update_sized(sig_bytes);
  const Sha256::Digest digest = h.finish();

  const auto it = auth_cache_.find(digest);
  if (it != auth_cache_.end()) {
    ++auth_cache_stats_.hits;
    auth_lru_.splice(auth_lru_.begin(), auth_lru_, it->second);
    return true;
  }
  ++auth_cache_stats_.misses;
  if (!verifier_.verify(*backend_, query)) return false;
  // Only positives are cached: a rejected signature may become valid
  // after authority registration changes, and negatives are cheap to
  // re-reject anyway.
  auth_lru_.push_front(digest);
  auth_cache_.emplace(digest, auth_lru_.begin());
  while (auth_cache_.size() > options_.auth_cache_capacity) {
    auth_cache_.erase(auth_lru_.back());
    auth_lru_.pop_back();
    ++auth_cache_stats_.evictions;
  }
  auth_cache_stats_.size = auth_cache_.size();
  return true;
}

std::vector<std::string> Coordinator::search_signed(
    const SignedQuery& query, ClusterSearchStats* stats,
    const ServeControl& control) {
  ClusterSearchStats local;
  ClusterSearchStats& s = stats != nullptr ? *stats : local;
  // Encoded once: the auth cache key and every node RPC carry these bytes.
  const std::vector<std::uint8_t> query_bytes =
      backend_->encode_query(query.query);
  if (!auth_cache_check(query, query_bytes)) {
    s = ClusterSearchStats{};  // authorized stays false; nothing scanned
    return {};
  }
  std::vector<std::string> refs = scatter(query_bytes, &s, control);
  s.authorized = true;
  return refs;
}

void Coordinator::apply_map(const ClusterMap& new_map) {
  if (new_map.version() <= map_.version()) {
    throw std::invalid_argument(
        "Coordinator: map v" + std::to_string(new_map.version()) +
        " is not newer than the held v" + std::to_string(map_.version()));
  }
  // Node states survive by name: breaker history and live sessions carry
  // over; a node whose address moved gets a fresh connection.
  std::vector<NodeState> next(new_map.nodes().size());
  for (std::size_t i = 0; i < new_map.nodes().size(); ++i) {
    const NodeInfo& info = new_map.nodes()[i];
    bool carried = false;
    for (std::size_t j = 0; j < map_.nodes().size(); ++j) {
      if (map_.nodes()[j].name != info.name) continue;
      next[i] = std::move(nodes_[j]);
      if (map_.nodes()[j].host != info.host ||
          map_.nodes()[j].port != info.port) {
        next[i].client.reset();
        next[i].authed = false;
      }
      carried = true;
      break;
    }
    if (!carried) {
      next[i].breaker = CircuitBreaker(options_.breaker);
      next[i].breaker.seed_jitter(i);
    }
  }
  nodes_ = std::move(next);
  map_ = new_map;
  map_bytes_ = map_.serialize();
  if (health_ != nullptr) health_->set_map(map_);
  // Best-effort fan-out of the new map; a node that misses it is healed
  // on demand by the stale-map push-and-retry path.
  for (std::uint32_t i = 0; i < map_.nodes().size(); ++i) {
    std::string err;
    (void)push_map_to(i, &err);
  }
}

bool Coordinator::push_map_to(std::uint32_t node, std::string* error) {
  const NodeInfo& info = map_.nodes()[node];
  const std::uint64_t timeout = options_.node_timeout_ms != 0
                                    ? options_.node_timeout_ms
                                    : kMapPushTimeoutMs;
  try {
    net::NetClient client;
    client.connect(info.host, info.port, timeout);
    const net::HelloAckMsg hello = client.hello(backend_->kind());
    if (hello.status != WireStatus::kOk) {
      throw ServingError(ErrorCode::kUnavailable,
                         "hello refused: " + hello.message);
    }
    const net::MapUpdateAckMsg ack = client.push_map(map_bytes_);
    if (ack.status == WireStatus::kOk && ack.version == map_.version()) {
      return true;
    }
    if (error != nullptr) {
      *error = !ack.message.empty()
                   ? ack.message
                   : "node stayed at map v" + std::to_string(ack.version);
    }
    return false;
  } catch (const std::exception& ex) {
    if (error != nullptr) *error = ex.what();
    return false;
  }
}

std::uint64_t Coordinator::hedge_delay_ms(const NodeState& node) const {
  const HedgeOptions& h = options_.hedge;
  std::uint64_t delay = h.initial_delay_ms;
  if (!node.latency_ring.empty()) {
    std::vector<std::uint64_t> sorted = node.latency_ring;
    std::sort(sorted.begin(), sorted.end());
    const double q = std::clamp(h.quantile, 0.0, 1.0);
    const std::size_t idx = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
    delay = sorted[idx];
  }
  return std::clamp(delay, h.min_delay_ms, h.max_delay_ms);
}

void Coordinator::note_latency(NodeState& node, std::uint64_t ms) {
  if (node.latency_ring.size() < kLatencyRingCapacity) {
    node.latency_ring.push_back(ms);
  } else {
    node.latency_ring[node.latency_pos] = ms;
  }
  node.latency_pos = (node.latency_pos + 1) % kLatencyRingCapacity;
}

std::vector<std::string> Coordinator::search_any(const AnyQuery& query,
                                                 ClusterSearchStats* stats,
                                                 const ServeControl& control) {
  return scatter(backend_->encode_query(query), stats, control);
}

std::vector<std::string> Coordinator::scatter(
    const std::vector<std::uint8_t>& query_bytes, ClusterSearchStats* stats,
    const ServeControl& control) {
  ClusterSearchStats local;
  ClusterSearchStats& s = stats != nullptr ? *stats : local;
  s = ClusterSearchStats{};
  const std::uint64_t now_op =
      op_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  const Clock::time_point t0 = Clock::now();
  for (NodeState& node : nodes_) node.map_pushed_this_search = false;

  // Proactive health: a node the heartbeats declared dead gets its breaker
  // force-tripped (nothing waits on a corpse) and every shard's replica
  // order is re-sorted by liveness rank so suspects are tried last.
  std::vector<NodeLiveness> rank(nodes_.size(), NodeLiveness::kAlive);
  if (health_ != nullptr) {
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      rank[i] = health_->liveness(i);
      if (rank[i] == NodeLiveness::kDead) {
        if (nodes_[i].breaker.trip(now_op)) ++s.breaker_opens;
        // The persistent session died with the node: drop it now so the
        // post-revival probe dials fresh instead of failing once on a
        // half-open socket.
        nodes_[i].client.reset();
        nodes_[i].authed = false;
      }
    }
  }
  std::vector<std::vector<std::uint32_t>> order(map_.total_shards());
  for (std::uint32_t shard = 0; shard < map_.total_shards(); ++shard) {
    order[shard] = map_.replicas_of(shard);
    if (health_ != nullptr) {
      std::stable_sort(order[shard].begin(), order[shard].end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return static_cast<int>(rank[a]) <
                                static_cast<int>(rank[b]);
                       });
    }
  }

  // The stale-coordinator drill: advertise a version the nodes don't
  // hold, so every shard RPC comes back `stale cluster map`.
  std::uint64_t advertised_version = map_.version();
  try {
    if (failpoint(kSiteStaleMap).fired()) ++advertised_version;
  } catch (const FailpointError&) {
    ++advertised_version;
  }

  const bool hedge_active = options_.hedge.enabled;
  std::size_t hedge_budget_left = options_.hedge.budget;

  // Per-shard failover cursor: index into the shard's (liveness-ordered)
  // replica list of the next node to try. A shard leaves `pending` when a
  // node answered for it or every replica failed.
  std::vector<std::size_t> next_replica(map_.total_shards(), 0);
  std::vector<char> pending(map_.total_shards(), 1);
  std::size_t pending_count = map_.total_shards();
  std::vector<std::vector<net::ShardHit>> parts;
  std::string last_error;

  while (pending_count > 0) {
    // Honour the caller's global budget between rounds (node-side engine
    // deadlines handle mid-scan expiry).
    std::uint64_t remaining_ms = control.deadline_ms;
    if (control.deadline_ms != 0) {
      const std::uint64_t spent = elapsed_ms(t0);
      if (spent >= control.deadline_ms) {
        if (!control.partial_ok) {
          throw DeadlineExceeded("cluster search deadline exceeded");
        }
        s.deadline_exceeded = true;
        s.partial = true;
        s.shards_failed += pending_count;
        break;
      }
      remaining_ms = control.deadline_ms - spent;
    }
    if (control.cancel != nullptr &&
        control.cancel->load(std::memory_order_relaxed)) {
      if (!control.partial_ok) {
        throw ServingError(ErrorCode::kCancelled, "cluster search cancelled");
      }
      s.cancelled = true;
      s.partial = true;
      s.shards_failed += pending_count;
      break;
    }

    // Assign every pending shard to its next untried replica, grouped by
    // node (one primary RPC per node per round).
    std::map<std::uint32_t, std::vector<std::uint32_t>> groups;
    for (std::uint32_t shard = 0; shard < map_.total_shards(); ++shard) {
      if (pending[shard] == 0) continue;
      const std::vector<std::uint32_t>& replicas = order[shard];
      if (next_replica[shard] >= replicas.size()) {
        // Every replica of this shard failed.
        if (!control.partial_ok) {
          throw ServingError(
              ErrorCode::kUnavailable,
              "shard " + std::to_string(shard) + " unavailable after " +
                  std::to_string(replicas.size()) + " replica attempts" +
                  (last_error.empty() ? "" : " (last error: " + last_error +
                                                 ")"));
        }
        pending[shard] = 0;
        --pending_count;
        ++s.shards_failed;
        s.partial = true;
        continue;
      }
      if (next_replica[shard] > 0) ++s.failovers;
      groups[replicas[next_replica[shard]]].push_back(shard);
    }
    if (groups.empty()) break;

    // Breaker gate per node, then one RPC thread per admitted node.
    std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> batch;
    for (auto& [node, shards] : groups) {
      switch (nodes_[node].breaker.admit(now_op)) {
        case CircuitBreaker::Gate::kSkip:
          ++s.breaker_skips;
          last_error = "node '" + map_.nodes()[node].name +
                       "' skipped (breaker open)";
          for (const std::uint32_t shard : shards) ++next_replica[shard];
          continue;
        case CircuitBreaker::Gate::kProbe:
          ++s.breaker_probes;
          break;
        case CircuitBreaker::Gate::kClosed:
          break;
      }
      batch.emplace_back(node, std::move(shards));
    }
    if (batch.empty()) continue;

    // --- one scatter round: primaries, plus hedges racing slow ones -----
    std::mutex round_mu;
    std::condition_variable round_cv;
    std::vector<std::unique_ptr<Attempt>> attempts;
    attempts.reserve(batch.size());
    const Clock::time_point round_t0 = Clock::now();
    std::exception_ptr round_error;

    const auto launch_thread = [&](Attempt* a) {
      const ShardRpc rpc{a->shards, query_bytes, advertised_version,
                         remaining_ms, control.partial_ok};
      a->thread = std::thread([this, a, rpc, &round_mu, &round_cv, round_t0] {
        run_rpc(*a, rpc, round_mu);
        {
          std::lock_guard lk(round_mu);
          a->duration_ms = elapsed_ms(round_t0);
          a->done = true;
        }
        round_cv.notify_all();
      });
    };

    s.rpcs += batch.size();
    for (auto& [node, shards] : batch) {
      auto a = std::make_unique<Attempt>();
      a->node = node;
      a->shards = std::move(shards);
      a->hedge_at_ms = hedge_delay_ms(nodes_[node]);
      Attempt* ap = a.get();
      attempts.push_back(std::move(a));
      launch_thread(ap);
    }

    // Abort every unfinished attempt (terminal error / loser cancel).
    const auto abort_attempt = [&](Attempt* a) {
      if (a->aborted) return;
      a->aborted = true;
      std::shared_ptr<net::NetClient> client;
      {
        std::lock_guard lk(round_mu);
        if (!a->done) client = a->client;
      }
      if (client != nullptr) client->abort();
    };
    const auto abort_all = [&] {
      for (auto& a : attempts) abort_attempt(a.get());
    };

    // Launch the speculative racers for one slow primary: its still-
    // pending shards, grouped by each shard's NEXT replica in the
    // effective order, each sub-group one fresh-connection RPC.
    const auto launch_hedges_for = [&](Attempt* a) {
      a->hedge_launched = true;
      std::map<std::uint32_t, std::vector<std::uint32_t>> targets;
      for (const std::uint32_t shard : a->shards) {
        if (pending[shard] == 0) continue;
        const std::vector<std::uint32_t>& replicas = order[shard];
        const std::size_t nx = next_replica[shard] + 1;
        if (nx < replicas.size()) targets[replicas[nx]].push_back(shard);
      }
      for (auto& [tnode, tshards] : targets) {
        if (hedge_budget_left == 0) break;
        if (tnode == a->node) continue;
        if (nodes_[tnode].breaker.admit(now_op) ==
            CircuitBreaker::Gate::kSkip) {
          continue;
        }
        --hedge_budget_left;
        ++s.hedges;
        ++s.rpcs;
        auto hedge = std::make_unique<Attempt>();
        hedge->node = tnode;
        hedge->shards = std::move(tshards);
        hedge->is_hedge = true;
        hedge->client = std::make_shared<net::NetClient>();
        Attempt* hp = hedge.get();
        attempts.push_back(std::move(hedge));
        launch_thread(hp);
      }
    };

    // Consume one finished attempt's outcome (round_mu NOT held).
    const auto process = [&](Attempt* a) {
      NodeState& st = nodes_[a->node];
      if (!a->aborted) note_latency(st, a->duration_ms);
      RpcOutcome& out = a->out;
      if (!out.ok) {
        if (a->aborted) {
          ++s.hedge_cancelled;
          return;
        }
        ++s.retries;
        last_error = out.error;
        if (st.breaker.on_failure(now_op)) ++s.breaker_opens;
        if (!a->is_hedge) {
          for (const std::uint32_t shard : a->shards) {
            if (pending[shard] != 0) ++next_replica[shard];
          }
        }
        return;
      }
      net::ShardRemoteResult& result = out.result;
      switch (result.status) {
        case WireStatus::kOk:
        case WireStatus::kDeadlineExceeded: {
          // kDeadlineExceeded: the node answered properly; the request
          // budget ran out. Not a node fault — no failover (a replica
          // would be no faster). A kCancelled, by contrast, means the
          // NODE abandoned the scan (shutdown / dying connection) — the
          // default (failover) case below, since the coordinator's own
          // loser-cancels surface as transport errors, not statuses.
          st.breaker.on_success();
          if (result.status == WireStatus::kDeadlineExceeded) {
            if (!control.partial_ok) {
              if (round_error == nullptr) {
                round_error = std::make_exception_ptr(DeadlineExceeded(
                    result.message.empty()
                        ? "cluster search deadline exceeded"
                        : result.message));
              }
              abort_all();
              return;
            }
            s.deadline_exceeded = true;
            s.partial = true;
          }
          // First usable answer wins PER SHARD: a racer that lost every
          // shard contributes nothing (its scan effort is the hedging
          // overhead the budget bounds).
          std::vector<std::uint32_t> accepted;
          for (const std::uint32_t shard : a->shards) {
            if (pending[shard] != 0) accepted.push_back(shard);
          }
          if (accepted.empty()) return;
          s.scanned += result.scanned;
          s.matched += result.matched;
          s.shards_ok += accepted.size();
          if (accepted.size() == a->shards.size()) {
            parts.push_back(std::move(result.hits));
          } else {
            const std::uint64_t total = map_.total_shards();
            std::vector<net::ShardHit> kept;
            for (net::ShardHit& hit : result.hits) {
              const auto shard = static_cast<std::uint32_t>(hit.id % total);
              if (std::find(accepted.begin(), accepted.end(), shard) !=
                  accepted.end()) {
                kept.push_back(std::move(hit));
              }
            }
            parts.push_back(std::move(kept));
          }
          for (const std::uint32_t shard : accepted) {
            pending[shard] = 0;
            --pending_count;
          }
          if (a->is_hedge) ++s.hedge_wins;
          // Cancel racers whose every shard is now resolved.
          for (auto& other : attempts) {
            if (other.get() == a || other->processed) continue;
            bool moot = true;
            for (const std::uint32_t shard : other->shards) {
              if (pending[shard] != 0) {
                moot = false;
                break;
              }
            }
            if (moot) abort_attempt(other.get());
          }
          return;
        }
        case WireStatus::kBadRequest: {
          st.breaker.on_success();
          if (result.message.find("stale cluster map") != std::string::npos &&
              !st.map_pushed_this_search) {
            // The node holds an older map than we advertise: push ours
            // and retry the shards against it next round — the invisible
            // half of a live rebalance. One push per node per search; a
            // node still stale after a successful push is broken.
            st.map_pushed_this_search = true;
            ++s.map_pushes;
            std::string err;
            if (push_map_to(a->node, &err)) return;  // shards stay pending
            if (round_error == nullptr) {
              round_error = std::make_exception_ptr(ServingError(
                  ErrorCode::kUnavailable,
                  "node '" + map_.nodes()[a->node].name +
                      "' refused: " + result.message +
                      " (map push failed: " + err + ")"));
            }
            abort_all();
            return;
          }
          // Protocol-level refusal replicas cannot heal: surface it.
          if (round_error == nullptr) {
            round_error = std::make_exception_ptr(ServingError(
                ErrorCode::kUnavailable, "node '" +
                                             map_.nodes()[a->node].name +
                                             "' refused: " + result.message));
          }
          abort_all();
          return;
        }
        default:
          // kOverloaded / kShutdown / kUnavailable / kIo...: this
          // replica can't serve right now; try the next.
          ++s.retries;
          last_error = "node '" + map_.nodes()[a->node].name + "' status " +
                       result.message;
          if (st.breaker.on_failure(now_op)) ++s.breaker_opens;
          if (!a->is_hedge) {
            for (const std::uint32_t shard : a->shards) {
              if (pending[shard] != 0) ++next_replica[shard];
            }
          }
          return;
      }
    };

    // Event loop: consume completions as they land (ordering is what
    // makes loser-cancel and per-shard winners work), launching hedges
    // when a primary outlives its node's adaptive delay.
    for (;;) {
      std::vector<Attempt*> finished;
      {
        std::unique_lock lk(round_mu);
        for (;;) {
          finished.clear();
          bool all_done = true;
          for (auto& a : attempts) {
            if (a->done && !a->processed) finished.push_back(a.get());
            if (!a->done) all_done = false;
          }
          if (!finished.empty() || all_done) break;
          // Earliest hedge deadline among running primaries.
          std::uint64_t next_hedge = UINT64_MAX;
          if (hedge_active && hedge_budget_left > 0 &&
              round_error == nullptr) {
            const std::uint64_t now_ms = elapsed_ms(round_t0);
            for (auto& a : attempts) {
              if (a->done || a->is_hedge || a->hedge_launched || a->aborted) {
                continue;
              }
              if (a->hedge_at_ms <= now_ms) {
                launch_hedges_for(a.get());
                next_hedge = 0;  // recompute: attempts changed
                break;
              }
              next_hedge = std::min(next_hedge, a->hedge_at_ms);
            }
            if (next_hedge == 0) continue;
          }
          if (next_hedge == UINT64_MAX) {
            round_cv.wait(lk);
          } else {
            round_cv.wait_until(
                lk, round_t0 + std::chrono::milliseconds(next_hedge));
          }
        }
      }
      if (finished.empty()) break;  // every attempt done and processed
      for (Attempt* a : finished) {
        process(a);
        a->processed = true;
      }
    }
    for (auto& a : attempts) {
      if (a->thread.joinable()) a->thread.join();
    }
    if (round_error != nullptr) std::rethrow_exception(round_error);
  }

  // The scatter may have completed only after the caller's budget ran
  // out (a slow replica stalls the whole round). A strict caller's
  // deadline is a contract, not a hint — a late answer is still a miss.
  if (control.deadline_ms != 0 && elapsed_ms(t0) >= control.deadline_ms) {
    if (!control.partial_ok) {
      throw DeadlineExceeded("cluster search deadline exceeded");
    }
    s.deadline_exceeded = true;
  }

  return merge_by_id(std::move(parts));
}

void Coordinator::run_rpc(Attempt& a, const ShardRpc& rpc,
                          std::mutex& round_mu) {
  const NodeInfo& info = map_.nodes()[a.node];
  // A primary runs on the node's persistent client and may reuse its
  // session. A hedge runs on its own fresh client and always authenticates:
  // the node may be serving a primary on the persistent session
  // concurrently, and NetClient is strictly one-thread-at-a-time.
  NodeState* const session = a.is_hedge ? nullptr : &nodes_[a.node];
  try {
    (void)failpoint(kSiteScatter);  // kThrow fails the RPC, kDelay stalls it
    std::shared_ptr<net::NetClient> client =
        session != nullptr ? session->client : a.client;
    if (client == nullptr || !client->connected()) {
      if (session != nullptr) client = std::make_shared<net::NetClient>();
      client->connect(info.host, info.port, options_.node_timeout_ms);
      const net::HelloAckMsg hello = client->hello(backend_->kind());
      if (hello.status != WireStatus::kOk) {
        throw ServingError(ErrorCode::kUnavailable,
                           "hello refused: " + hello.message);
      }
      if (session != nullptr) {
        session->client = client;
        session->authed = false;
      }
    }
    if (session != nullptr) {
      // Publish the exact client this attempt blocks on, so the round
      // loop can abort() it cross-thread if a hedge wins.
      std::lock_guard lk(round_mu);
      a.client = client;
    }
    if (session == nullptr || !session->authed ||
        !std::ranges::equal(session->session_query, rpc.query_bytes)) {
      const net::AuthAckMsg ack = client->auth_unchecked(rpc.query_bytes);
      if (ack.status != WireStatus::kOk) {
        throw ServingError(ErrorCode::kUnavailable,
                           "auth refused: " + ack.message);
      }
      if (session != nullptr) {
        session->authed = true;
        session->session_query.assign(rpc.query_bytes.begin(),
                                      rpc.query_bytes.end());
      }
    }
    a.out.result = client->shard_search(rpc.shards, rpc.map_version,
                                        map_.total_shards(), rpc.deadline_ms,
                                        rpc.partial_ok);
    a.out.ok = true;
  } catch (const std::exception& ex) {
    a.out.error = (session != nullptr ? "node '" : "hedge to '") + info.name +
                  "': " + ex.what();
    if (session != nullptr) {
      // Drop the connection: a transport fault leaves the stream in an
      // unknown state, and the next attempt redials cleanly.
      session->client.reset();
      session->authed = false;
    }
  }
}

}  // namespace apks::cluster
