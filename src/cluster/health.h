// Health subsystem of the self-healing cluster tier (DESIGN.md §5j).
//
// Two pieces:
//
//   * FailureDetector — a pure consecutive-miss state machine, one per
//     node. A missed heartbeat moves the node kAlive → kSuspect after
//     `suspect_misses` consecutive misses and kSuspect → kDead after
//     `dead_misses`; any pong snaps it back to kAlive. Deliberately
//     memory-free beyond the miss counter: heartbeats are cheap and
//     frequent, so a simple consecutive count converges fast and is
//     trivially deterministic for tests.
//
//   * HealthMonitor — the coordinator-side heartbeat driver: a background
//     thread (or a manual tick() when interval_ms == 0, the deterministic
//     test mode) that keeps one dedicated NetClient per node and sends
//     kPing every interval. Pongs also report the node's current
//     ClusterMap version and in-flight job count, so the monitor doubles
//     as a cheap map-agreement and load probe.
//
// The monitor never gates requests itself — it feeds the coordinator,
// which (a) orders each shard's replica set by liveness rank so suspect/
// dead nodes are tried last, and (b) force-trips the dead node's circuit
// breaker so nothing waits on a corpse before failing over. That is the
// "heal before a request fails" half of the tentpole; the breaker's own
// consecutive-failure path remains the reactive half.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/placement.h"
#include "net/client.h"

namespace apks::cluster {

enum class NodeLiveness : std::uint8_t { kAlive = 0, kSuspect = 1, kDead = 2 };

[[nodiscard]] std::string_view liveness_name(NodeLiveness liveness) noexcept;

struct FailureDetectorOptions {
  // Consecutive heartbeat misses before a node is suspected (deprioritized
  // in replica ordering) and before it is declared dead (breaker tripped).
  std::size_t suspect_misses = 1;
  std::size_t dead_misses = 3;
};

class FailureDetector {
 public:
  FailureDetector() = default;
  explicit FailureDetector(FailureDetectorOptions options)
      : options_(options) {}

  // One heartbeat answered / missed; returns the resulting liveness.
  NodeLiveness on_pong() noexcept {
    misses_ = 0;
    return NodeLiveness::kAlive;
  }
  NodeLiveness on_miss() noexcept {
    ++misses_;
    return liveness();
  }

  [[nodiscard]] NodeLiveness liveness() const noexcept {
    if (misses_ >= options_.dead_misses) return NodeLiveness::kDead;
    if (misses_ >= options_.suspect_misses) return NodeLiveness::kSuspect;
    return NodeLiveness::kAlive;
  }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }

 private:
  FailureDetectorOptions options_{};
  std::size_t misses_ = 0;
};

// One node's health as the monitor last saw it.
struct NodeHealthSnapshot {
  std::string name;
  NodeLiveness liveness = NodeLiveness::kAlive;
  std::size_t misses = 0;
  std::uint64_t pongs = 0;        // lifetime pongs received
  std::uint64_t map_version = 0;  // the node's map version per its last pong
  std::uint32_t inflight = 0;     // node-side job backlog per its last pong
};

struct HealthMonitorOptions {
  // Heartbeat period. 0 = no background thread; the owner drives rounds
  // explicitly with tick() — the deterministic mode every test uses.
  std::uint64_t interval_ms = 0;
  // Socket budget per ping (connect + round-trip). Must be finite: a
  // blackholed node must register as a miss, not hang the monitor.
  std::uint64_t ping_timeout_ms = 250;
  FailureDetectorOptions detector;
};

class HealthMonitor {
 public:
  // Fired after a round for every node whose liveness changed, outside the
  // monitor's lock (safe to call back into snapshot()/liveness()).
  using TransitionHook = std::function<void(
      const std::string& node, NodeLiveness from, NodeLiveness to)>;

  // `scheme` is the backend kind spoken in the hello handshake. Starts the
  // heartbeat thread unless options.interval_ms == 0.
  HealthMonitor(SchemeKind scheme, const ClusterMap& map,
                HealthMonitorOptions options = {},
                TransitionHook on_transition = {});
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // Runs one heartbeat round synchronously: ping every node, feed the
  // detectors, fire transition hooks. The background thread calls exactly
  // this; tests call it directly for deterministic schedules. Must not be
  // called concurrently with itself (the background thread owns it once
  // started).
  void tick();

  // Swap in a new map (live reconfiguration): nodes are matched by NAME —
  // a surviving node keeps its detector state and its heartbeat
  // connection; added nodes start alive-with-zero-history; removed nodes
  // are forgotten. Thread-safe against a concurrent tick.
  void set_map(const ClusterMap& map);

  // Liveness by node index into the CURRENT map (kAlive for an index out
  // of range — the conservative answer while maps are swapping).
  [[nodiscard]] NodeLiveness liveness(std::uint32_t node) const;
  [[nodiscard]] std::vector<NodeHealthSnapshot> snapshot() const;
  [[nodiscard]] std::uint64_t rounds() const noexcept;

  void stop();

 private:
  struct Peer {
    NodeInfo info;
    FailureDetector detector;
    std::uint64_t pongs = 0;
    std::uint64_t map_version = 0;
    std::uint32_t inflight = 0;
  };

  void thread_main();

  SchemeKind scheme_;
  HealthMonitorOptions options_;
  TransitionHook hook_;

  mutable std::mutex mu_;  // guards peers_ and round counter
  std::vector<Peer> peers_;
  std::uint64_t rounds_ = 0;

  // Heartbeat connections, keyed by node name. Touched only by whoever
  // runs tick() (the background thread once started), never under mu_ —
  // pings must not block snapshot()/liveness() readers.
  std::vector<std::pair<std::string, std::unique_ptr<net::NetClient>>>
      clients_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace apks::cluster
