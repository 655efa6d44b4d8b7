// ClusterNode — one serving process of the scale-out tier (DESIGN.md §5i,
// self-healing extensions §5j).
//
// A node takes a ClusterMap plus its own index in it, loads the shards
// the map assigns to it from a ShardedStore (the store's on-disk
// partitioning — id % S — must match the map's shard count, so a store
// shard IS a cluster shard), and serves them over the PR-8 network layer:
// one CloudServer + SearchEngine per owned shard, wired into NetServer
// through a ShardEngineSet. Coordinators issue shard-scoped kShardSearch
// RPCs; a plain kSearch is refused with kBadRequest, since the node holds
// only a subset of the store.
//
// Live reconfiguration: a kMapUpdate (or a direct apply_map call)
// carrying a strictly newer map swaps the node's serving set in place —
// no restart. Still-owned shards keep their loaded engines (shared
// ownership moves to the new set), newly-assigned shards are loaded from
// the shared store, and de-assigned engines are unloaded as soon as the
// last in-flight RPC that snapshotted them finishes: dispatched scans
// always complete against the placement they were admitted under (the
// graceful handoff), while the next request sees the new map. A map that
// is NOT strictly newer is refused — version ties and regressions must
// surface at the coordinator, never silently reorder placement.
//
// Each shard's engine scans only that shard's records in ascending-id
// order, so per-shard scanned/matched counts sum across the cluster to
// exactly the single-node figures and the coordinator's merge-by-id
// reproduces the single-node result bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cloud/search_engine.h"
#include "cluster/placement.h"
#include "net/server.h"

namespace apks::cluster {

struct ClusterNodeOptions {
  // Per-shard engine options (threads apply per shard scan). Every engine
  // of the node shares one prepared-query cache: engine.prepared_cache if
  // set, else one the node creates with engine.cache_capacity. It outlives
  // apply_map, so a newly assigned shard serves capabilities the node
  // already prepared.
  SearchEngine::Options engine;
  // Network front end. host/port here are the BIND address (port 0 =
  // ephemeral, read back via port()); the map's host/port entries are
  // what coordinators dial, so tests can bind ephemerally and publish
  // the bound ports in the map afterwards.
  net::NetServerOptions net;
};

class ClusterNode {
 public:
  // Loads `store`'s records for every shard the map assigns to
  // `node_index` and starts serving. Throws std::invalid_argument when
  // the store's shard count differs from the map's (the partition would
  // be mis-scoped) or node_index is out of range. The backend, verifier
  // target, and store must outlive the node.
  ClusterNode(const SearchBackend& backend, CapabilityVerifier verifier,
              ShardedStore& store, const ClusterMap& map,
              std::uint32_t node_index, ClusterNodeOptions options = {});
  ~ClusterNode();

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  // Applies a strictly newer map (the kMapUpdate handler routes here; the
  // CLI/test harness may call it directly). Identifies this node by NAME
  // in the new map — its index may have moved. Loads newly-assigned
  // shards from the store, retains still-owned engines, swaps the serving
  // set; in-flight RPCs finish against the old engines. Throws
  // std::invalid_argument when the map is not strictly newer, its shard
  // count differs from the store's, or this node's name is absent.
  void apply_map(const ClusterMap& new_map);

  [[nodiscard]] std::uint16_t port() const noexcept { return net_->port(); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t map_version() const;
  [[nodiscard]] std::vector<std::uint32_t> owned_shards() const;
  // Records loaded across all owned shards.
  [[nodiscard]] std::uint64_t record_count() const;
  [[nodiscard]] net::NetServer& server() noexcept { return *net_; }
  [[nodiscard]] const net::NetServer& server() const noexcept { return *net_; }

  void stop(std::uint64_t grace_ms = 0) { net_->stop(grace_ms); }

 private:
  // One placement epoch's serving state: the per-shard record sets +
  // engines and the ShardEngineSet pointing at them. Engine ownership is
  // shared_ptr because consecutive epochs share still-owned shards — a
  // shard's engine dies only when no epoch (and no in-flight job
  // snapshot) references it any more.
  struct ShardState {
    std::vector<std::uint32_t> owned;
    std::vector<std::shared_ptr<CloudServer>> servers;
    std::vector<std::shared_ptr<SearchEngine>> engines;
    net::ShardEngineSet set;
  };

  // Builds the epoch state for `map`, reusing engines from `prev` (may be
  // null) for shards owned in both epochs and loading the rest from the
  // store.
  [[nodiscard]] std::shared_ptr<ShardState> build_state(
      const ClusterMap& map, std::uint32_t node_index,
      const ShardState* prev);
  [[nodiscard]] net::MapUpdateAckMsg handle_map_update(
      const std::vector<std::uint8_t>& bytes);

  const SearchBackend* backend_;
  CapabilityVerifier verifier_;
  ShardedStore* store_;
  std::string name_;
  SearchEngine::Options engine_options_;  // prepared_cache always set

  std::mutex apply_mu_;      // serializes apply_map calls
  mutable std::mutex mu_;    // guards map_ and state_
  ClusterMap map_;
  std::shared_ptr<ShardState> state_;

  // The NetServer's session backend/verifier anchor: a record-free engine
  // that is never part of any swap, so the server's engine reference
  // stays valid across every reconfiguration.
  std::unique_ptr<CloudServer> anchor_server_;
  std::unique_ptr<SearchEngine> anchor_engine_;
  std::unique_ptr<net::NetServer> net_;
};

}  // namespace apks::cluster
