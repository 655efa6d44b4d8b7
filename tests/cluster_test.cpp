// Cluster-mode tests (cluster/placement.h, cluster/node.h,
// cluster/coordinator.h):
//
//  - Placement: rendezvous hashing is deterministic, spreads shards with
//    R unique owners each, and only moves the affected shards when the
//    member list changes; maps serialize byte-exactly and refuse damage.
//  - Merge property: ANY partition of the id space across shards —
//    modulo, random, adversarial — k-way merges back to the exact upload
//    order (the byte-identity invariant the coordinator relies on).
//  - Loopback equivalence: a 3-node / R=2 cluster over a real ShardedStore
//    returns byte-identical doc_refs and equal scanned/matched stats to
//    the single-node answer (one SearchEngine over a CloudServer loaded
//    from the same store), for all three schemes (APKS, APKS+, MRQED^D).
//  - Loading: a node decodes only the store shards it is assigned, at
//    start and on a map update.
//  - Failover: a killed node's shards are served by their replicas; the
//    result stays byte-identical and the breaker/retry stats say why.
//  - Refusals: a node refuses stale-map and unowned-shard RPCs and a
//    plain kSearch (it holds only a subset of the store), and the session
//    keeps answering shard searches.
//  - Chaos (ClusterChaos*, run under the CI cluster stage): scatter
//    failpoints (mid-batch node faults, slow replicas), partial scatter
//    with every replica down, and the stale-map drill — partial results
//    are always correct prefix unions, never silently wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cloud/proxy.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "cluster/placement.h"
#include "common/failpoint.h"
#include "core/apks_backend.h"
#include "core/apks_plus.h"
#include "data/nursery.h"
#include "data/workload.h"
#include "mrqed/mrqed_backend.h"
#include "net/client.h"
#include "serve.h"
#include "test_dir.h"

namespace apks {
namespace {

namespace fs = std::filesystem;
using cluster::ClusterMap;
using cluster::ClusterNode;
using cluster::ClusterNodeOptions;
using cluster::ClusterSearchStats;
using cluster::Coordinator;
using cluster::CoordinatorOptions;
using cluster::merge_by_id;
using cluster::NodeInfo;
using net::WireStatus;

constexpr std::uint32_t kShards = 4;

// One populated scheme: a backend, a 4-shard on-disk store, and a query
// with a known non-empty answer.
struct SchemeRig {
  const SearchBackend* backend = nullptr;
  std::unique_ptr<ShardedStore> store;
  AnyQuery query;
};

// The pairing setup and record encryption are expensive; build the three
// scheme rigs once and share them (read-only after construction).
struct ClusterEnv {
  Pairing e;
  ChaChaRng rng;

  Apks apks;
  TrustedAuthority ta;
  CapabilityVerifier verifier;
  ApksBackend apks_backend;

  ApksPlus plus;
  ApksPlusSetupResult plus_setup;
  ApksPlusBackend plus_backend;

  Mrqed mrqed;
  MrqedBackend mrqed_backend;

  SchemeRig apks_rig;
  SchemeRig plus_rig;
  SchemeRig mrqed_rig;
  SignedCapability apks_cap;  // for the signed-edge test

  static CapabilityVerifier make_verifier(const Pairing& e,
                                          const IbsPublicParams& params) {
    CapabilityVerifier v(e, params);
    v.register_authority("TA");
    return v;
  }

  explicit ClusterEnv(const fs::path& base)
      : e(default_type_a_params()),
        rng("cluster-test"),
        apks(e, nursery_schema(1)),
        ta(apks, rng),
        verifier(make_verifier(e, ta.ibs_params())),
        apks_backend(apks),
        plus(e, nursery_schema(1)),
        plus_setup(plus.setup_plus(rng)),
        plus_backend(plus),
        mrqed(e, 2, 3),
        mrqed_backend(mrqed) {
    const std::vector<PlainIndex> rows = nursery_rows();

    ShardedStoreOptions opts;
    opts.shards = kShards;

    apks_rig.backend = &apks_backend;
    apks_rig.store =
        std::make_unique<ShardedStore>(apks_backend, base / "apks", opts);
    for (std::size_t i = 0; i < 10; ++i) {
      const PlainIndex& row = rows[(i * 769) % rows.size()];
      (void)apks_rig.store->append_any(
          "apks-" + std::to_string(i),
          AnyIndex::own(SchemeKind::kApks,
                        apks.gen_index(ta.public_key(), row, rng)));
    }
    apks_cap = ta.issue(nursery_point_query(rows[769 % rows.size()]), rng);
    apks_rig.query = AnyQuery::own(SchemeKind::kApks, apks_cap.cap);

    plus_rig.backend = &plus_backend;
    plus_rig.store =
        std::make_unique<ShardedStore>(plus_backend, base / "plus", opts);
    ProxyPipeline chain = make_proxy_pipeline(plus, plus_setup.r, 2, rng);
    for (std::size_t i = 0; i < 10; ++i) {
      const PlainIndex& row = rows[(i * 1201) % rows.size()];
      (void)plus_rig.store->append_any(
          "plus-" + std::to_string(i),
          AnyIndex::own(SchemeKind::kApksPlus,
                        chain.process(plus.partial_gen_index(plus_setup.pk,
                                                             row, rng))));
    }
    plus_rig.query = AnyQuery::own(
        SchemeKind::kApksPlus,
        plus.gen_cap(plus_setup.msk,
                     nursery_point_query(rows[1201 % rows.size()]), rng));

    MrqedPublicKey pk;
    MrqedMasterKey msk;
    mrqed.setup(rng, pk, msk);
    mrqed_rig.backend = &mrqed_backend;
    mrqed_rig.store =
        std::make_unique<ShardedStore>(mrqed_backend, base / "mrqed", opts);
    const std::vector<std::vector<std::uint64_t>> points = {
        {0, 0}, {1, 5}, {3, 3}, {4, 7}, {6, 2},
        {7, 7}, {2, 1}, {5, 5}, {0, 6}, {3, 7}};
    for (std::size_t i = 0; i < points.size(); ++i) {
      (void)mrqed_rig.store->append_any(
          "pt-" + std::to_string(i),
          AnyIndex::own(SchemeKind::kMrqed,
                        mrqed.encrypt(pk, points[i], rng)));
    }
    mrqed_rig.query = AnyQuery::own(
        SchemeKind::kMrqed, mrqed.gen_key(pk, msk, {{0, 3}, {0, 7}}, rng));
  }
};

ClusterEnv& env() {
  // The env is leaked on purpose; its store directory (private to this
  // process) is still removed at exit.
  static const TestDir dir("cluster-env");
  static ClusterEnv* e = new ClusterEnv(dir.path());
  return *e;
}

// The single-node answer: the path production serves, one SearchEngine
// over a CloudServer loaded from the rig's store (search_engine_test pins
// that engine to a per-record Apks::search oracle).
std::vector<std::string> single_node_search(const SchemeRig& rig,
                                            ServerMetrics* metrics = nullptr) {
  CloudServer server(*rig.backend, env().verifier);
  (void)server.load_from(*rig.store);
  SearchReply reply =
      serve(SearchEngine(server, {.threads = 1}), {.queries = {&rig.query, 1}});
  if (metrics != nullptr) *metrics = reply.metrics.per_query[0];
  return std::move(reply.refs[0]);
}

// A running 3-node loopback cluster plus the map (with bound ports) a
// coordinator dials.
struct Cluster {
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  ClusterMap map;
};

Cluster start_cluster(const SchemeRig& rig, std::uint32_t replicas = 2,
                      std::uint64_t version = 1) {
  std::vector<NodeInfo> infos = {{"node-a", "127.0.0.1", 0},
                                 {"node-b", "127.0.0.1", 0},
                                 {"node-c", "127.0.0.1", 0}};
  // Placement depends only on node names, so build ownership first, bind
  // ephemerally, then publish the bound ports in the map coordinators use.
  const ClusterMap port0(infos, rig.store->shard_count(), replicas, version);
  ClusterNodeOptions opts;
  opts.engine.threads = 1;
  opts.net.allow_unchecked = true;  // trusted internal tier
  Cluster c;
  for (std::uint32_t i = 0; i < infos.size(); ++i) {
    c.nodes.push_back(std::make_unique<ClusterNode>(
        *rig.backend, env().verifier, *rig.store, port0, i, opts));
    infos[i].port = c.nodes[i]->port();
  }
  c.map = ClusterMap(std::move(infos), rig.store->shard_count(), replicas,
                     version);
  return c;
}

// Failpoints are process-global: start and end every test clean.
class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::instance().clear_all(); }
  void TearDown() override { Failpoints::instance().clear_all(); }
};

// --- placement ---------------------------------------------------------------

TEST_F(ClusterTest, PlacementIsDeterministicWithUniqueReplicaSets) {
  const std::vector<NodeInfo> nodes = {{"alpha", "h1", 1},
                                       {"beta", "h2", 2},
                                       {"gamma", "h3", 3}};
  const ClusterMap a(nodes, 16, 2, 7);
  const ClusterMap b(nodes, 16, 2, 7);
  std::vector<std::size_t> owner_counts(nodes.size(), 0);
  for (std::uint32_t shard = 0; shard < 16; ++shard) {
    const std::vector<std::uint32_t>& owners = a.replicas_of(shard);
    EXPECT_EQ(owners, b.replicas_of(shard)) << "shard " << shard;
    ASSERT_EQ(owners.size(), 2u);
    EXPECT_NE(owners[0], owners[1]);
    EXPECT_EQ(owners[0], a.primary_of(shard));
    for (const std::uint32_t owner : owners) ++owner_counts[owner];
  }
  // HRW should give every node some work (16 shards, 3 nodes, R=2).
  for (std::size_t i = 0; i < owner_counts.size(); ++i) {
    EXPECT_GT(owner_counts[i], 0u) << "node " << i << " owns nothing";
  }
  // shards_of inverts replicas_of.
  for (std::uint32_t node = 0; node < nodes.size(); ++node) {
    for (const std::uint32_t shard : a.shards_of(node)) {
      const std::vector<std::uint32_t>& owners = a.replicas_of(shard);
      EXPECT_NE(std::find(owners.begin(), owners.end(), node), owners.end());
    }
  }
}

TEST_F(ClusterTest, PlacementOnlyMovesAffectedShardsWhenMembershipGrows) {
  const std::vector<NodeInfo> three = {{"alpha", "h", 1},
                                       {"beta", "h", 2},
                                       {"gamma", "h", 3}};
  std::vector<NodeInfo> four = three;
  four.push_back({"delta", "h", 4});
  const ClusterMap before(three, 64, 2, 1);
  const ClusterMap after(four, 64, 2, 2);
  // HRW: a shard's owners change only when the new node out-scores one of
  // the incumbents — surviving owners keep their relative order, so any
  // owner of `after` that is not `delta` must already own the shard in
  // `before`.
  std::size_t moved = 0;
  for (std::uint32_t shard = 0; shard < 64; ++shard) {
    const auto& a = before.replicas_of(shard);
    const auto& b = after.replicas_of(shard);
    if (a != b) ++moved;
    for (const std::uint32_t owner : b) {
      if (owner == 3) continue;  // the newcomer
      EXPECT_NE(std::find(a.begin(), a.end(), owner), a.end())
          << "shard " << shard << " reshuffled an incumbent owner";
    }
  }
  // Some shards must move to the new node, but never all of them.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, 64u);
}

TEST_F(ClusterTest, MapSerializationRoundTripsAndRefusesDamage) {
  const std::vector<NodeInfo> nodes = {{"alpha", "10.0.0.1", 7001},
                                       {"beta", "10.0.0.2", 7002}};
  const ClusterMap map(nodes, 8, 2, 42);
  const std::vector<std::uint8_t> bytes = map.serialize();

  const ClusterMap back = ClusterMap::deserialize(bytes);
  EXPECT_EQ(map, back);
  EXPECT_EQ(back.version(), 42u);
  EXPECT_EQ(back.total_shards(), 8u);
  EXPECT_EQ(back.nodes()[1].host, "10.0.0.2");
  for (std::uint32_t shard = 0; shard < 8; ++shard) {
    EXPECT_EQ(map.replicas_of(shard), back.replicas_of(shard));
  }
  // Re-serialization is byte-exact — every party agrees on the map bytes.
  EXPECT_EQ(back.serialize(), bytes);

  // Bit flips and truncations are refused, never misparsed.
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    std::vector<std::uint8_t> bad = bytes;
    bad[i] ^= 0x40;
    EXPECT_THROW((void)ClusterMap::deserialize(bad), std::exception)
        << "flipped byte " << i;
  }
  for (std::size_t cut = 0; cut < bytes.size(); cut += 5) {
    EXPECT_THROW(
        (void)ClusterMap::deserialize({bytes.data(), cut}), std::exception)
        << "cut " << cut;
  }
}

// --- merge property ----------------------------------------------------------

// ANY partition of the ids across shards — not just id % S — merges back
// to the exact upload order. This is the invariant that makes the
// coordinator's gather byte-identical to a single-node scan.
TEST_F(ClusterTest, MergeRestoresUploadOrderForArbitraryPartitions) {
  ChaChaRng rng("cluster-merge-property");
  for (std::size_t round = 0; round < 32; ++round) {
    const std::size_t n = 1 + rng.next_below(64);
    const std::size_t parts_count = 1 + rng.next_below(7);

    // Upload order: ascending ids with random gaps (ids need not be
    // dense, only unique and increasing).
    std::vector<net::ShardHit> upload;
    std::uint64_t id = 0;
    for (std::size_t i = 0; i < n; ++i) {
      id += 1 + rng.next_below(5);
      upload.push_back({id, "doc-" + std::to_string(id)});
    }
    std::vector<std::string> expected;
    for (const net::ShardHit& hit : upload) expected.push_back(hit.ref);

    // Adversarial partition: each record lands in a random part; parts
    // keep ascending-id order internally (what every shard stream
    // guarantees) but are otherwise arbitrary — including empty parts.
    std::vector<std::vector<net::ShardHit>> parts(parts_count);
    for (const net::ShardHit& hit : upload) {
      parts[rng.next_below(parts_count)].push_back(hit);
    }
    EXPECT_EQ(merge_by_id(std::move(parts)), expected) << "round " << round;
  }
}

// --- loopback cluster equivalence -------------------------------------------

void expect_cluster_equivalent(const SchemeRig& rig) {
  ServerMetrics local;
  const std::vector<std::string> expected = single_node_search(rig, &local);
  ASSERT_FALSE(expected.empty());

  Cluster c = start_cluster(rig);
  Coordinator coord(*rig.backend, env().verifier, c.map);
  ClusterSearchStats stats;
  const std::vector<std::string> refs =
      coord.search_any(rig.query, &stats);

  EXPECT_EQ(refs, expected);  // byte-identical, same order
  EXPECT_EQ(stats.scanned, local.scanned);
  EXPECT_EQ(stats.matched, local.matched);
  EXPECT_EQ(stats.matched, refs.size());
  EXPECT_EQ(stats.shards_ok, kShards);
  EXPECT_EQ(stats.shards_failed, 0u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_FALSE(stats.partial);

  // A second search reuses the pooled connections.
  const std::size_t first_rpcs = stats.rpcs;
  const std::vector<std::string> again = coord.search_any(rig.query, &stats);
  EXPECT_EQ(again, expected);
  EXPECT_LE(stats.rpcs, first_rpcs);

  for (auto& node : c.nodes) node->stop();
}

TEST_F(ClusterTest, ApksClusterMatchesSingleNodeByteForByte) {
  expect_cluster_equivalent(env().apks_rig);
}

TEST_F(ClusterTest, ApksPlusClusterMatchesSingleNodeByteForByte) {
  expect_cluster_equivalent(env().plus_rig);
}

TEST_F(ClusterTest, MrqedClusterMatchesSingleNodeByteForByte) {
  expect_cluster_equivalent(env().mrqed_rig);
}

TEST_F(ClusterTest, SignedQueryAuthenticatesOnceAtTheEdge) {
  const SchemeRig& rig = env().apks_rig;
  const std::vector<std::string> expected = single_node_search(rig);

  Cluster c = start_cluster(rig);
  Coordinator coord(*rig.backend, env().verifier, c.map);

  SignedQuery sq{AnyQuery::ref(SchemeKind::kApks, &env().apks_cap.cap),
                 env().apks_cap.issuer, env().apks_cap.sig};
  ClusterSearchStats stats;
  EXPECT_EQ(coord.search_signed(sq, &stats), expected);
  EXPECT_TRUE(stats.authorized);

  // A rogue issuer is refused at the edge: empty result, zero scatter.
  sq.issuer = "rogue";
  const std::vector<std::string> refused = coord.search_signed(sq, &stats);
  EXPECT_TRUE(refused.empty());
  EXPECT_FALSE(stats.authorized);
  EXPECT_EQ(stats.rpcs, 0u);
  EXPECT_EQ(stats.scanned, 0u);

  for (auto& node : c.nodes) node->stop();
}

TEST_F(ClusterTest, KilledNodeFailsOverToReplicas) {
  const SchemeRig& rig = env().apks_rig;
  const std::vector<std::string> expected = single_node_search(rig);

  Cluster c = start_cluster(rig);  // R=2: every shard has a standby
  Coordinator coord(*rig.backend, env().verifier, c.map);

  // Warm the connection pool, then kill a node that is the PRIMARY of at
  // least one shard (killing a pure standby would never be noticed).
  ClusterSearchStats stats;
  EXPECT_EQ(coord.search_any(rig.query, &stats), expected);
  const std::uint32_t victim = c.map.primary_of(0);
  c.nodes[victim]->stop();

  const std::vector<std::string> refs = coord.search_any(rig.query, &stats);
  EXPECT_EQ(refs, expected);  // still byte-identical
  EXPECT_FALSE(stats.partial);
  EXPECT_EQ(stats.shards_failed, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.failovers, 0u);

  for (auto& node : c.nodes) node->stop();
}

TEST_F(ClusterTest, ShardSearchAgainstPlainServerIsRefused) {
  // A non-cluster NetServer must refuse shard RPCs, not misroute them.
  const SchemeRig& rig = env().apks_rig;
  Cluster c = start_cluster(rig, /*replicas=*/2);

  net::NetClient client;
  client.connect("127.0.0.1", c.nodes[0]->port(), 10000);
  ASSERT_EQ(client.hello(rig.backend->kind()).status, WireStatus::kOk);
  const std::vector<std::uint8_t> qbytes =
      rig.backend->encode_query(rig.query);
  ASSERT_EQ(client.auth_unchecked(qbytes).status, WireStatus::kOk);

  // Wrong map version → typed stale-map refusal, not a wrong answer.
  const net::ShardRemoteResult stale = client.shard_search(
      c.nodes[0]->owned_shards(), c.map.version() + 1, c.map.total_shards());
  EXPECT_EQ(stale.status, WireStatus::kBadRequest);
  EXPECT_TRUE(stale.hits.empty());
  EXPECT_NE(stale.message.find("stale cluster map"), std::string::npos)
      << stale.message;
  // Unowned shard → refusal.
  const std::vector<std::uint32_t> owned = c.nodes[0]->owned_shards();
  std::uint32_t unowned = 0;
  while (std::find(owned.begin(), owned.end(), unowned) != owned.end()) {
    ++unowned;
  }
  if (unowned < c.map.total_shards()) {
    const net::ShardRemoteResult refused = client.shard_search(
        {&unowned, 1}, c.map.version(), c.map.total_shards());
    EXPECT_EQ(refused.status, WireStatus::kBadRequest);
    EXPECT_TRUE(refused.hits.empty());
  }

  // The mirror case: a plain kSearch to a cluster node is refused (the
  // node holds only a subset of the store), and the session stays open —
  // a shard search on it still answers, byte-identical to the node's
  // share of a single-node scan.
  const net::RemoteResult plain = client.search();
  EXPECT_EQ(plain.status, WireStatus::kBadRequest);
  EXPECT_TRUE(plain.refs.empty());
  EXPECT_NE(plain.message.find("node serves shard searches only"),
            std::string::npos)
      << plain.message;
  const net::ShardRemoteResult answered =
      client.shard_search(owned, c.map.version(), c.map.total_shards());
  ASSERT_EQ(answered.status, WireStatus::kOk) << answered.message;
  EXPECT_EQ(answered.scanned, c.nodes[0]->record_count());
  const AnyPrepared prepared = rig.backend->prepare(rig.query);
  std::vector<std::string> want;
  for (const StoredAnyRecord& rec : rig.store->load_all_any()) {
    if (std::find(owned.begin(), owned.end(),
                  rec.id % c.map.total_shards()) != owned.end() &&
        rig.backend->match(prepared, rec.index)) {
      want.push_back(rec.doc_ref);
    }
  }
  std::vector<std::string> got;
  for (const net::ShardHit& hit : answered.hits) got.push_back(hit.ref);
  EXPECT_EQ(got, want);

  for (auto& node : c.nodes) node->stop();
}

// One prepared-query cache per node: a node owning several shards prepares
// a new capability once, not once per shard, and keeps it across a map
// update — a newly assigned shard serves the capability unprepared.
TEST_F(ClusterTest, NodePreparesEachCapabilityOnceAcrossItsShards) {
  const SchemeRig& rig = env().apks_rig;
  Cluster c = start_cluster(rig);
  ClusterNode* node = c.nodes[0].get();
  for (const auto& n : c.nodes) {
    if (n->owned_shards().size() > node->owned_shards().size()) {
      node = n.get();
    }
  }
  const std::vector<std::uint32_t> owned = node->owned_shards();
  ASSERT_GE(owned.size(), 2u);
  ASSERT_LT(owned.size(), c.map.total_shards());

  net::NetClient client;
  client.connect("127.0.0.1", node->port(), 10000);
  ASSERT_EQ(client.hello(rig.backend->kind()).status, WireStatus::kOk);
  ASSERT_EQ(client.auth_unchecked(rig.backend->encode_query(rig.query)).status,
            WireStatus::kOk);
  const net::ShardRemoteResult first =
      client.shard_search(owned, c.map.version(), c.map.total_shards());
  ASSERT_EQ(first.status, WireStatus::kOk) << first.message;
  // Any shard engine reports the counters of the cache they all share.
  const auto engine = [&] {
    return node->server().shard_set()->shards.front().second;
  };
  EXPECT_EQ(engine()->cache_misses(), 1u);
  EXPECT_EQ(engine()->cache_hits(), owned.size() - 1);
  EXPECT_EQ(engine()->cache_size(), 1u);

  // R = 3 over 3 nodes: this node now owns every shard, some newly loaded.
  const ClusterMap all(c.map.nodes(), c.map.total_shards(), 3,
                       c.map.version() + 1);
  node->apply_map(all);
  const std::vector<std::uint32_t> every = node->owned_shards();
  ASSERT_EQ(every.size(), c.map.total_shards());
  const net::ShardRemoteResult second =
      client.shard_search(every, all.version(), all.total_shards());
  ASSERT_EQ(second.status, WireStatus::kOk) << second.message;
  std::vector<std::string> refs;
  for (const net::ShardHit& hit : second.hits) refs.push_back(hit.ref);
  EXPECT_EQ(refs, single_node_search(rig));
  EXPECT_EQ(engine()->cache_misses(), 1u);
  EXPECT_EQ(engine()->cache_size(), 1u);

  for (auto& n : c.nodes) n->stop();
}

// Forwards to a scheme backend and counts decode_index calls: the number
// of store records decoded through it.
class DecodeCountingBackend final : public SearchBackend {
 public:
  explicit DecodeCountingBackend(const SearchBackend& inner)
      : SearchBackend(inner.context()), inner_(&inner) {}

  [[nodiscard]] std::size_t decodes() const { return decodes_.load(); }

  [[nodiscard]] SchemeKind kind() const noexcept override {
    return inner_->kind();
  }
  [[nodiscard]] std::vector<std::uint8_t> encode_index(
      const AnyIndex& index) const override {
    return inner_->encode_index(index);
  }
  [[nodiscard]] AnyIndex decode_index(
      std::span<const std::uint8_t> data) const override {
    decodes_.fetch_add(1);
    return inner_->decode_index(data);
  }
  [[nodiscard]] std::vector<std::uint8_t> encode_query(
      const AnyQuery& query) const override {
    return inner_->encode_query(query);
  }
  [[nodiscard]] AnyQuery decode_query(
      std::span<const std::uint8_t> data) const override {
    return inner_->decode_query(data);
  }
  [[nodiscard]] QueryDigest digest(const AnyQuery& query) const override {
    return inner_->digest(query);
  }
  [[nodiscard]] AnyPrepared prepare(const AnyQuery& query) const override {
    return inner_->prepare(query);
  }
  [[nodiscard]] bool match(const AnyPrepared& prepared,
                           const AnyIndex& index) const override {
    return inner_->match(prepared, index);
  }
  void match_block(const AnyPrepared& prepared,
                   const AnyIndex* const* indexes, std::size_t n,
                   bool* out) const override {
    inner_->match_block(prepared, indexes, n, out);
  }
  [[nodiscard]] std::vector<std::uint8_t> query_message(
      const AnyQuery& query, const std::string& issuer) const override {
    return inner_->query_message(query, issuer);
  }

 private:
  const SearchBackend* inner_;
  mutable std::atomic<std::size_t> decodes_{0};
};

// A node decodes the records of the shards it loads and no others: at
// start, exactly its owned shards'; on a map update, exactly the newly
// assigned shards' (still-owned shards keep their engines).
TEST_F(ClusterTest, NodeDecodesOnlyTheShardsItLoads) {
  const SchemeRig& rig = env().apks_rig;
  rig.store->flush();
  const TestDir dir("cluster-decodes");
  fs::copy(rig.store->dir(), dir.path(), fs::copy_options::recursive);
  DecodeCountingBackend backend(*rig.backend);
  ShardedStore store(backend, dir.path());

  std::vector<std::size_t> per_shard(kShards, 0);
  for (const StoredAnyRecord& rec : rig.store->load_all_any()) {
    ++per_shard[rec.id % kShards];
  }
  const auto records_of = [&](const std::vector<std::uint32_t>& shards) {
    std::size_t n = 0;
    for (const std::uint32_t shard : shards) n += per_shard[shard];
    return n;
  };

  const std::vector<NodeInfo> infos = {{"node-a", "127.0.0.1", 0},
                                       {"node-b", "127.0.0.1", 0},
                                       {"node-c", "127.0.0.1", 0}};
  const ClusterMap map(infos, kShards, 2, 1);
  std::uint32_t index = 0;
  while (map.shards_of(index).size() == kShards) ++index;
  const std::vector<std::uint32_t> owned = map.shards_of(index);
  ASSERT_FALSE(owned.empty());

  ClusterNodeOptions opts;
  opts.engine.threads = 1;
  opts.net.allow_unchecked = true;
  const std::size_t before = backend.decodes();
  ClusterNode node(backend, env().verifier, store, map, index, opts);
  EXPECT_EQ(node.owned_shards(), owned);
  EXPECT_EQ(backend.decodes() - before, records_of(owned));
  EXPECT_EQ(node.record_count(), records_of(owned));

  // R = 3 over 3 nodes: the node now owns every shard.
  std::vector<std::uint32_t> added;
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    if (std::find(owned.begin(), owned.end(), shard) == owned.end()) {
      added.push_back(shard);
    }
  }
  const std::size_t at_start = backend.decodes();
  node.apply_map(ClusterMap(infos, kShards, 3, 2));
  EXPECT_EQ(backend.decodes() - at_start, records_of(added));
  EXPECT_EQ(node.record_count(), rig.store->record_count());
  node.stop();
}

// --- chaos -------------------------------------------------------------------

TEST_F(ClusterTest, ClusterChaosMidBatchNodeFaultFailsOver) {
  const SchemeRig& rig = env().apks_rig;
  const std::vector<std::string> expected = single_node_search(rig);

  Cluster c = start_cluster(rig);
  Coordinator coord(*rig.backend, env().verifier, c.map);

  // Exactly one engine scan block throws mid-batch (whichever node's scan
  // reaches it first): that RPC fails, its shards fail over, the merged
  // result must still be byte-identical.
  FailpointPolicy policy;
  policy.action = FailAction::kThrow;
  policy.max_hits = 1;
  Failpoints::instance().set("engine.scan_block", policy);

  ClusterSearchStats stats;
  const std::vector<std::string> refs = coord.search_any(rig.query, &stats);
  EXPECT_EQ(refs, expected);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_FALSE(stats.partial);
  EXPECT_EQ(Failpoints::instance().fires("engine.scan_block"), 1u);

  for (auto& node : c.nodes) node->stop();
}

TEST_F(ClusterTest, ClusterChaosScatterFaultFailsOver) {
  const SchemeRig& rig = env().apks_rig;
  const std::vector<std::string> expected = single_node_search(rig);

  Cluster c = start_cluster(rig);
  Coordinator coord(*rig.backend, env().verifier, c.map);

  // The first scatter RPC dies on the coordinator side before sending.
  FailpointPolicy policy;
  policy.action = FailAction::kThrow;
  policy.max_hits = 1;
  Failpoints::instance().set(cluster::kSiteScatter, policy);

  ClusterSearchStats stats;
  EXPECT_EQ(coord.search_any(rig.query, &stats), expected);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(stats.failovers, 1u);

  for (auto& node : c.nodes) node->stop();
}

TEST_F(ClusterTest, ClusterChaosSlowReplicaHonoursPartialDeadline) {
  const SchemeRig& rig = env().apks_rig;
  const std::vector<std::string> expected = single_node_search(rig);

  Cluster c = start_cluster(rig);
  Coordinator coord(*rig.backend, env().verifier, c.map);
  // Warm connections so the delay hits the scatter, not the dial.
  ASSERT_EQ(coord.search_any(rig.query), expected);

  // Every scatter RPC stalls 300 ms against a 50 ms budget.
  FailpointPolicy policy;
  policy.action = FailAction::kDelay;
  policy.delay_ms = 300;
  Failpoints::instance().set(cluster::kSiteScatter, policy);

  ServeControl control;
  control.deadline_ms = 50;
  control.partial_ok = true;
  ClusterSearchStats stats;
  const std::vector<std::string> refs =
      coord.search_any(rig.query, &stats, control);
  EXPECT_TRUE(stats.deadline_exceeded || stats.partial ||
              refs == expected);
  // Whatever came back is a correct subset in the correct order.
  std::size_t cursor = 0;
  for (const std::string& ref : refs) {
    while (cursor < expected.size() && expected[cursor] != ref) ++cursor;
    ASSERT_LT(cursor, expected.size()) << "spurious ref '" << ref << "'";
    ++cursor;
  }

  // Without partial_ok the same squeeze throws the typed error.
  Failpoints::instance().set(cluster::kSiteScatter, policy);
  ServeControl strict;
  strict.deadline_ms = 50;
  EXPECT_THROW((void)coord.search_any(rig.query, nullptr, strict),
               ServingError);

  for (auto& node : c.nodes) node->stop();
}

TEST_F(ClusterTest, ClusterChaosPartialScatterNeverFabricatesResults) {
  const SchemeRig& rig = env().apks_rig;
  Cluster c = start_cluster(rig);
  Coordinator coord(*rig.backend, env().verifier, c.map);

  // Every scatter RPC fails: all replicas exhausted.
  FailpointPolicy policy;
  policy.action = FailAction::kThrow;
  Failpoints::instance().set(cluster::kSiteScatter, policy);

  // Without partial_ok: typed unavailability, no fabricated rows.
  try {
    (void)coord.search_any(rig.query);
    FAIL() << "scatter with every replica down must not succeed";
  } catch (const ServingError& ex) {
    EXPECT_EQ(ex.code(), ErrorCode::kUnavailable);
    EXPECT_NE(std::string(ex.what()).find("unavailable"), std::string::npos);
  }

  // With partial_ok: an empty (but honest) result, every shard marked.
  ServeControl control;
  control.partial_ok = true;
  ClusterSearchStats stats;
  const std::vector<std::string> refs =
      coord.search_any(rig.query, &stats, control);
  EXPECT_TRUE(refs.empty());
  EXPECT_TRUE(stats.partial);
  EXPECT_EQ(stats.shards_failed, kShards);
  EXPECT_EQ(stats.shards_ok, 0u);
  EXPECT_GT(stats.retries, 0u);

  for (auto& node : c.nodes) node->stop();
}

TEST_F(ClusterTest, ClusterChaosStaleMapSurfacesTypedError) {
  const SchemeRig& rig = env().apks_rig;
  Cluster c = start_cluster(rig);
  Coordinator coord(*rig.backend, env().verifier, c.map);

  // The coordinator advertises a version the nodes don't hold.
  FailpointPolicy policy;
  policy.action = FailAction::kError;
  Failpoints::instance().set(cluster::kSiteStaleMap, policy);

  try {
    (void)coord.search_any(rig.query);
    FAIL() << "stale map must abort the search";
  } catch (const ServingError& ex) {
    EXPECT_EQ(ex.code(), ErrorCode::kUnavailable);
    EXPECT_NE(std::string(ex.what()).find("stale cluster map"),
              std::string::npos)
        << ex.what();
  }

  // Disarm: the same coordinator heals immediately.
  Failpoints::instance().clear_all();
  EXPECT_EQ(coord.search_any(rig.query), single_node_search(rig));

  for (auto& node : c.nodes) node->stop();
}

TEST_F(ClusterTest, ClusterChaosBreakerSkipsRepeatedlyDeadNode) {
  const SchemeRig& rig = env().apks_rig;
  const std::vector<std::string> expected = single_node_search(rig);

  Cluster c = start_cluster(rig);
  CoordinatorOptions opts;
  opts.breaker.threshold = 2;
  opts.breaker.cooldown_ops = 2;
  Coordinator coord(*rig.backend, env().verifier, c.map, opts);

  c.nodes[2]->stop();  // dead for good
  if (c.nodes[2]->owned_shards().empty()) {
    return;  // placement gave it nothing to own; nothing to assert
  }

  ClusterSearchStats totals;
  for (std::size_t i = 0; i < 6; ++i) {
    ClusterSearchStats stats;
    EXPECT_EQ(coord.search_any(rig.query, &stats), expected) << "op " << i;
    totals.retries += stats.retries;
    totals.breaker_opens += stats.breaker_opens;
    totals.breaker_skips += stats.breaker_skips;
    totals.breaker_probes += stats.breaker_probes;
  }
  // Two consecutive failures open the breaker; cooled-down ops skip the
  // dead node outright (no dial, no timeout) and later ops probe it.
  EXPECT_GE(totals.breaker_opens, 1u);
  EXPECT_GE(totals.breaker_skips, 1u);
  EXPECT_GE(totals.breaker_probes, 1u);

  const std::vector<cluster::NodeHealth> health = coord.health();
  EXPECT_EQ(health.size(), 3u);
  EXPECT_GT(health[2].consecutive_failures, 0u);

  for (auto& node : c.nodes) node->stop();
}

}  // namespace
}  // namespace apks
