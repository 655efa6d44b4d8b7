#include "cluster/health.h"

#include <chrono>
#include <utility>

namespace apks::cluster {

std::string_view liveness_name(NodeLiveness liveness) noexcept {
  switch (liveness) {
    case NodeLiveness::kAlive: return "alive";
    case NodeLiveness::kSuspect: return "suspect";
    case NodeLiveness::kDead: return "dead";
  }
  return "?";
}

HealthMonitor::HealthMonitor(SchemeKind scheme, const ClusterMap& map,
                             HealthMonitorOptions options,
                             TransitionHook on_transition)
    : scheme_(scheme), options_(options), hook_(std::move(on_transition)) {
  peers_.reserve(map.nodes().size());
  for (const NodeInfo& info : map.nodes()) {
    Peer peer;
    peer.info = info;
    peer.detector = FailureDetector(options_.detector);
    peers_.push_back(std::move(peer));
  }
  if (options_.interval_ms != 0) {
    thread_ = std::thread([this] { thread_main(); });
  }
}

HealthMonitor::~HealthMonitor() { stop(); }

void HealthMonitor::stop() {
  {
    std::lock_guard lk(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  clients_.clear();
}

void HealthMonitor::thread_main() {
  for (;;) {
    {
      std::unique_lock lk(stop_mu_);
      stop_cv_.wait_for(lk, std::chrono::milliseconds(options_.interval_ms),
                        [&] { return stopping_; });
      if (stopping_) return;
    }
    tick();
  }
}

void HealthMonitor::tick() {
  // Snapshot the member list, then do the (slow, possibly timing-out)
  // network round without holding mu_ — liveness() readers never wait on
  // a blackholed peer.
  std::vector<NodeInfo> members;
  {
    std::lock_guard lk(mu_);
    members.reserve(peers_.size());
    for (const Peer& peer : peers_) members.push_back(peer.info);
  }

  struct Probe {
    bool pong = false;
    net::PongMsg msg;
  };
  std::vector<Probe> probes(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    const NodeInfo& info = members[i];
    // Find (or create) this node's dedicated heartbeat client.
    std::unique_ptr<net::NetClient>* slot = nullptr;
    for (auto& [name, client] : clients_) {
      if (name == info.name) {
        slot = &client;
        break;
      }
    }
    if (slot == nullptr) {
      clients_.emplace_back(info.name, nullptr);
      slot = &clients_.back().second;
    }
    try {
      if (*slot == nullptr || !(*slot)->connected()) {
        auto client = std::make_unique<net::NetClient>();
        client->connect(info.host, info.port, options_.ping_timeout_ms);
        const net::HelloAckMsg hello = client->hello(scheme_);
        if (hello.status != net::WireStatus::kOk) {
          throw ServingError(ErrorCode::kUnavailable, "hello refused");
        }
        *slot = std::move(client);
      }
      probes[i].msg = (*slot)->ping();
      probes[i].pong = true;
    } catch (const std::exception&) {
      slot->reset();  // redial next round: the stream state is unknown
    }
  }
  // Forget connections of nodes a set_map removed.
  std::erase_if(clients_, [&](const auto& entry) {
    for (const NodeInfo& info : members) {
      if (info.name == entry.first) return false;
    }
    return true;
  });

  // Apply the round to the detectors; nodes are re-matched by name in
  // case a set_map raced the network round.
  struct Transition {
    std::string name;
    NodeLiveness from;
    NodeLiveness to;
  };
  std::vector<Transition> transitions;
  {
    std::lock_guard lk(mu_);
    ++rounds_;
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (Peer& peer : peers_) {
        if (peer.info.name != members[i].name) continue;
        const NodeLiveness before = peer.detector.liveness();
        NodeLiveness after;
        if (probes[i].pong) {
          after = peer.detector.on_pong();
          ++peer.pongs;
          peer.map_version = probes[i].msg.map_version;
          peer.inflight = probes[i].msg.inflight;
        } else {
          after = peer.detector.on_miss();
        }
        if (after != before) {
          transitions.push_back(Transition{peer.info.name, before, after});
        }
        break;
      }
    }
  }
  if (hook_) {
    for (const Transition& t : transitions) hook_(t.name, t.from, t.to);
  }
}

void HealthMonitor::set_map(const ClusterMap& map) {
  std::lock_guard lk(mu_);
  std::vector<Peer> next;
  next.reserve(map.nodes().size());
  for (const NodeInfo& info : map.nodes()) {
    Peer peer;
    peer.info = info;
    peer.detector = FailureDetector(options_.detector);
    for (Peer& old : peers_) {
      if (old.info.name == info.name) {
        // Same identity: keep its history even if host/port moved.
        peer.detector = old.detector;
        peer.pongs = old.pongs;
        peer.map_version = old.map_version;
        peer.inflight = old.inflight;
        break;
      }
    }
    next.push_back(std::move(peer));
  }
  peers_ = std::move(next);
}

NodeLiveness HealthMonitor::liveness(std::uint32_t node) const {
  std::lock_guard lk(mu_);
  if (node >= peers_.size()) return NodeLiveness::kAlive;
  return peers_[node].detector.liveness();
}

std::vector<NodeHealthSnapshot> HealthMonitor::snapshot() const {
  std::lock_guard lk(mu_);
  std::vector<NodeHealthSnapshot> out;
  out.reserve(peers_.size());
  for (const Peer& peer : peers_) {
    out.push_back(NodeHealthSnapshot{
        peer.info.name,
        peer.detector.liveness(),
        peer.detector.misses(),
        peer.pongs,
        peer.map_version,
        peer.inflight,
    });
  }
  return out;
}

std::uint64_t HealthMonitor::rounds() const noexcept {
  std::lock_guard lk(mu_);
  return rounds_;
}

}  // namespace apks::cluster
