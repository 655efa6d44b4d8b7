// ClusterMap — explicit, versioned shard placement for the scale-out
// serving tier (DESIGN.md §5i).
//
// A single-process deployment routes records implicitly: ShardedStore puts
// id i into shard i % S and a scan touches every shard locally. The
// cluster generalizes that into an explicit map every party can hold a
// copy of: S shards placed on N named nodes by rendezvous (highest-
// random-weight) hashing, each shard owned by the R best-scoring nodes —
// its replica set, best score first (the primary). HRW gives the two
// properties the tier needs with no coordination state:
//
//   * determinism — placement is a pure function of (node names, S, R),
//     so a coordinator and every node derive byte-identical ownership
//     from the same member list; nothing is negotiated at runtime, and
//   * minimal movement — adding/removing a node only reassigns the
//     shards whose top-R set actually changed.
//
// The map carries a version; every shard-scoped RPC quotes (version,
// total_shards) and a node refuses mismatches (`stale cluster map`), so a
// coordinator holding yesterday's map gets a typed error, never a
// silently mis-scoped answer. serialize()/deserialize() round-trip the
// map byte-for-byte (magic + CRC framing, same hostile-input posture as
// the wire codecs); the placement itself is never serialized — receivers
// rebuild it, which is what guarantees agreement.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire.h"

namespace apks::cluster {

struct NodeInfo {
  std::string name;  // stable identity — the only input to placement
  std::string host;  // where the node's NetServer listens
  std::uint16_t port = 0;

  friend bool operator==(const NodeInfo&, const NodeInfo&) = default;
};

// The HRW score of (node, shard): FNV-1a over the node name, mixed with
// the shard through a splitmix64 finalizer. Exposed for tests asserting
// placement determinism.
[[nodiscard]] std::uint64_t placement_score(std::string_view node_name,
                                            std::uint32_t shard);

class ClusterMap {
 public:
  ClusterMap() = default;

  // Builds the placement deterministically from (nodes, total_shards,
  // replicas, version). Throws std::invalid_argument on an empty node
  // list, zero shards/replicas, or duplicate node names. replicas is
  // clamped to the node count (a 2-node map can hold R=3 nominally but
  // each shard gets 2 owners).
  ClusterMap(std::vector<NodeInfo> nodes, std::uint32_t total_shards,
             std::uint32_t replicas, std::uint64_t version = 1);

  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] std::uint32_t total_shards() const noexcept {
    return total_shards_;
  }
  [[nodiscard]] std::uint32_t replicas() const noexcept { return replicas_; }
  [[nodiscard]] const std::vector<NodeInfo>& nodes() const noexcept {
    return nodes_;
  }

  // The shard's replica set as node indexes, best HRW score first — the
  // first entry is the primary, the rest the failover order. Throws
  // std::out_of_range for a shard beyond total_shards.
  [[nodiscard]] const std::vector<std::uint32_t>& replicas_of(
      std::uint32_t shard) const;
  [[nodiscard]] std::uint32_t primary_of(std::uint32_t shard) const {
    return replicas_of(shard)[0];
  }

  // Every shard whose replica set includes `node`, ascending — what a
  // ClusterNode loads and serves.
  [[nodiscard]] std::vector<std::uint32_t> shards_of(
      std::uint32_t node) const;

  // Byte-exact round trip (magic "APKSMAP1", CRC32 trailer). deserialize
  // throws ServingError(kCorrupt) on framing damage and
  // std::invalid_argument on structurally invalid contents.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static ClusterMap deserialize(
      std::span<const std::uint8_t> data);

  friend bool operator==(const ClusterMap& a, const ClusterMap& b) {
    return a.version_ == b.version_ && a.total_shards_ == b.total_shards_ &&
           a.replicas_ == b.replicas_ && a.nodes_ == b.nodes_;
  }

 private:
  void build_placement();

  std::uint64_t version_ = 0;
  std::uint32_t total_shards_ = 0;
  std::uint32_t replicas_ = 0;
  std::vector<NodeInfo> nodes_;
  // shard -> replica node indexes (derived, never serialized).
  std::vector<std::vector<std::uint32_t>> placement_;
};

// Merge per-shard hit streams back into one ascending-id ref list. A
// single-node SearchEngine answers in ascending-id order (its server's
// records are sorted by id), so a coordinator gluing node responses
// together reproduces the single-node byte order exactly (record ids are
// unique across shards).
// Consumes the hits (refs are moved out).
[[nodiscard]] std::vector<std::string> merge_by_id(
    std::vector<std::vector<net::ShardHit>> parts);

}  // namespace apks::cluster
