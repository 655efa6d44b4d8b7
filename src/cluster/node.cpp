#include "cluster/node.h"

#include <stdexcept>
#include <utility>

namespace apks::cluster {

ClusterNode::ClusterNode(const SearchBackend& backend,
                         CapabilityVerifier verifier, ShardedStore& store,
                         const ClusterMap& map, std::uint32_t node_index,
                         ClusterNodeOptions options)
    : backend_(&backend),
      verifier_(verifier),
      store_(&store),
      engine_options_(options.engine) {
  if (engine_options_.prepared_cache == nullptr) {
    engine_options_.prepared_cache =
        std::make_shared<PreparedQueryCache>(engine_options_.cache_capacity);
  }
  if (node_index >= map.nodes().size()) {
    throw std::invalid_argument("ClusterNode: node index " +
                                std::to_string(node_index) +
                                " out of range");
  }
  if (store.shard_count() != map.total_shards()) {
    throw std::invalid_argument(
        "ClusterNode: store has " + std::to_string(store.shard_count()) +
        " shards but the cluster map expects " +
        std::to_string(map.total_shards()) +
        " — the on-disk partition IS the cluster partition");
  }
  name_ = map.nodes()[node_index].name;
  map_ = map;
  state_ = build_state(map, node_index, nullptr);

  // The session backend/verifier anchor NetServer hangs onto: record-free
  // and never part of a swap, so reconfigurations can never dangle it.
  anchor_server_ = std::make_unique<CloudServer>(backend, verifier_);
  anchor_engine_ =
      std::make_unique<SearchEngine>(*anchor_server_, engine_options_);

  options.net.shard_set = std::shared_ptr<const net::ShardEngineSet>(
      state_, &state_->set);
  options.net.map_update_handler =
      [this](const std::vector<std::uint8_t>& bytes) {
        return handle_map_update(bytes);
      };
  net_ = std::make_unique<net::NetServer>(*anchor_engine_, options.net);
}

ClusterNode::~ClusterNode() {
  // Stop the server before the engines: the map-update handler captures
  // `this`, and worker jobs hold shard-set snapshots.
  if (net_ != nullptr) net_->stop(0);
}

std::shared_ptr<ClusterNode::ShardState> ClusterNode::build_state(
    const ClusterMap& map, std::uint32_t node_index, const ShardState* prev) {
  auto state = std::make_shared<ShardState>();
  state->owned = map.shards_of(node_index);

  // Reuse still-owned shards' engines (records are immutable per shard, so
  // an engine built under the old map serves the new one unchanged); mark
  // the rest for loading.
  std::vector<std::uint32_t> to_load;
  std::vector<CloudServer*> loading(map.total_shards(), nullptr);
  state->servers.resize(state->owned.size());
  state->engines.resize(state->owned.size());
  for (std::size_t i = 0; i < state->owned.size(); ++i) {
    bool reused = false;
    if (prev != nullptr) {
      for (std::size_t j = 0; j < prev->owned.size(); ++j) {
        if (prev->owned[j] == state->owned[i]) {
          state->servers[i] = prev->servers[j];
          state->engines[i] = prev->engines[j];
          reused = true;
          break;
        }
      }
    }
    if (!reused) {
      state->servers[i] = std::make_shared<CloudServer>(*backend_, verifier_);
      state->engines[i] =
          std::make_shared<SearchEngine>(*state->servers[i], engine_options_);
      to_load.push_back(state->owned[i]);
      loading[state->owned[i]] = state->servers[i].get();
    }
  }

  // Stream (and decode) only the newly assigned shards. Store shard ==
  // id % total_shards == cluster shard, and each store shard streams its
  // records in ascending-id order, which is the order restore needs.
  if (!to_load.empty()) {
    store_->for_each_record_any(
        [&](StoredAnyRecord&& record, const SegmentId& seg, bool) {
          loading[seg.shard]->restore_any(record.id, std::move(record.index),
                                          std::move(record.doc_ref));
        },
        to_load);
  }

  state->set.map_version = map.version();
  state->set.total_shards = map.total_shards();
  for (std::size_t i = 0; i < state->owned.size(); ++i) {
    state->set.shards.emplace_back(state->owned[i], state->engines[i].get());
  }
  return state;
}

void ClusterNode::apply_map(const ClusterMap& new_map) {
  std::lock_guard apply_lk(apply_mu_);
  if (new_map.total_shards() != store_->shard_count()) {
    throw std::invalid_argument(
        "ClusterNode: map update expects " +
        std::to_string(new_map.total_shards()) + " shards but the store has " +
        std::to_string(store_->shard_count()));
  }
  std::uint32_t node_index = 0;
  bool found = false;
  for (std::size_t i = 0; i < new_map.nodes().size(); ++i) {
    if (new_map.nodes()[i].name == name_) {
      node_index = static_cast<std::uint32_t>(i);
      found = true;
      break;
    }
  }
  if (!found) {
    throw std::invalid_argument("ClusterNode: node '" + name_ +
                                "' absent from map v" +
                                std::to_string(new_map.version()));
  }
  std::shared_ptr<ShardState> prev;
  {
    std::lock_guard lk(mu_);
    if (new_map.version() <= map_.version()) {
      throw std::invalid_argument(
          "ClusterNode: map v" + std::to_string(new_map.version()) +
          " is not newer than the node's v" + std::to_string(map_.version()));
    }
    prev = state_;
  }
  // Loading happens outside mu_ (it is slow); apply_mu_ keeps concurrent
  // updates from interleaving their loads.
  std::shared_ptr<ShardState> next =
      build_state(new_map, node_index, prev.get());
  {
    std::lock_guard lk(mu_);
    map_ = new_map;
    state_ = next;
  }
  // New requests see the new placement from here on; jobs in flight keep
  // their snapshot of `prev` alive until they finish, then de-assigned
  // engines unload.
  net_->set_shard_set(
      std::shared_ptr<const net::ShardEngineSet>(next, &next->set));
}

net::MapUpdateAckMsg ClusterNode::handle_map_update(
    const std::vector<std::uint8_t>& bytes) {
  net::MapUpdateAckMsg ack;
  ClusterMap incoming;
  try {
    incoming = ClusterMap::deserialize(bytes);
  } catch (const std::exception& ex) {
    ack.status = net::WireStatus::kBadRequest;
    ack.version = map_version();
    ack.message = std::string("map rejected: ") + ex.what();
    return ack;
  }
  // Idempotent re-push of the version we already hold: fine (placement is
  // a pure function of the member list, so equal versions agree).
  if (incoming.version() == map_version()) {
    ack.version = incoming.version();
    return ack;
  }
  try {
    apply_map(incoming);
    ack.version = incoming.version();
  } catch (const std::exception& ex) {
    ack.status = net::WireStatus::kBadRequest;
    ack.version = map_version();
    ack.message = ex.what();
  }
  return ack;
}

std::uint64_t ClusterNode::map_version() const {
  std::lock_guard lk(mu_);
  return map_.version();
}

std::vector<std::uint32_t> ClusterNode::owned_shards() const {
  std::lock_guard lk(mu_);
  return state_->owned;
}

std::uint64_t ClusterNode::record_count() const {
  std::lock_guard lk(mu_);
  std::uint64_t total = 0;
  for (const auto& server : state_->servers) total += server->record_count();
  return total;
}

}  // namespace apks::cluster
