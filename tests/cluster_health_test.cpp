// Self-healing cluster tests (cluster/health.h + the coordinator/node
// reconfiguration paths; DESIGN.md §5j):
//
//  - FailureDetector: the consecutive-miss state machine is deterministic
//    (alive → suspect → dead, any pong snaps back).
//  - CircuitBreaker hardening: force-trip semantics, cooldown jitter
//    (range + determinism per seed), and a concurrent-caller hammer (the
//    TSan stage's main target).
//  - HealthMonitor: manual ticks track a node through kill and revive;
//    transition hooks fire; pongs report the node's map version.
//  - Coordinator + heartbeats: a node the detector declared dead is
//    pre-tripped and deprioritized BEFORE any search pays for it
//    (retries == 0), and a revived node returns to primary duty.
//  - Live reconfiguration: apply_map adds a node with graceful shard
//    handoff; a stale node is healed mid-search by a map push; a
//    coordinator behind the fleet gets a typed error.
//  - The chaos drill: node added AND node killed mid-query-stream, every
//    result byte-identical to the single-node answer (one SearchEngine
//    over a CloudServer loaded from the same store).
//  - Hedged reads: a slow primary is raced against the next replica
//    within the hedge budget; results stay byte-identical.
//  - Edge auth LRU: hit/miss/eviction counters, negatives never cached.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "cluster/coordinator.h"
#include "cluster/health.h"
#include "cluster/node.h"
#include "cluster/placement.h"
#include "common/breaker.h"
#include "common/failpoint.h"
#include "core/apks_backend.h"
#include "data/nursery.h"
#include "data/workload.h"
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
using cluster::FailureDetector;
using cluster::FailureDetectorOptions;
using cluster::HealthMonitor;
using cluster::HealthMonitorOptions;
using cluster::NodeHealthSnapshot;
using cluster::NodeInfo;
using cluster::NodeLiveness;

constexpr std::uint32_t kShards = 4;

// One populated APKS rig shared by every test (read-only after setup) —
// the health machinery is scheme-agnostic, so one scheme suffices.
struct HealthEnv {
  Pairing e;
  ChaChaRng rng;
  Apks apks;
  TrustedAuthority ta;
  CapabilityVerifier verifier;
  ApksBackend backend;
  std::unique_ptr<ShardedStore> store;
  AnyQuery query;
  SignedCapability cap;        // signs `query`
  SignedCapability other_cap;  // a second distinct signed query

  static CapabilityVerifier make_verifier(const Pairing& e,
                                          const IbsPublicParams& params) {
    CapabilityVerifier v(e, params);
    v.register_authority("TA");
    return v;
  }

  explicit HealthEnv(const fs::path& base)
      : e(default_type_a_params()),
        rng("cluster-health-test"),
        apks(e, nursery_schema(1)),
        ta(apks, rng),
        verifier(make_verifier(e, ta.ibs_params())),
        backend(apks) {
    const std::vector<PlainIndex> rows = nursery_rows();
    ShardedStoreOptions opts;
    opts.shards = kShards;
    store = std::make_unique<ShardedStore>(backend, base / "apks", opts);
    for (std::size_t i = 0; i < 10; ++i) {
      const PlainIndex& row = rows[(i * 769) % rows.size()];
      (void)store->append_any(
          "doc-" + std::to_string(i),
          AnyIndex::own(SchemeKind::kApks,
                        apks.gen_index(ta.public_key(), row, rng)));
    }
    cap = ta.issue(nursery_point_query(rows[769 % rows.size()]), rng);
    query = AnyQuery::own(SchemeKind::kApks, cap.cap);
    other_cap = ta.issue(nursery_point_query(rows[(2 * 769) % rows.size()]),
                         rng);
  }
};

HealthEnv& env() {
  // The env is leaked on purpose; its store directory (private to this
  // process) is still removed at exit.
  static const TestDir dir("cluster-health-env");
  static HealthEnv* e = new HealthEnv(dir.path());
  return *e;
}

// The single-node answer: the path production serves, one SearchEngine
// over a CloudServer loaded from the env's store.
std::vector<std::string> single_node_search() {
  CloudServer server(env().backend, env().verifier);
  (void)server.load_from(*env().store);
  return serve(SearchEngine(server, {.threads = 1}),
               {.queries = {&env().query, 1}})
      .refs[0];
}

struct Fleet {
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  ClusterMap map;
};

ClusterNodeOptions node_options() {
  ClusterNodeOptions opts;
  opts.engine.threads = 1;
  opts.net.allow_unchecked = true;
  return opts;
}

Fleet start_fleet(std::uint32_t replicas = 2, std::uint64_t version = 1) {
  std::vector<NodeInfo> infos = {{"node-a", "127.0.0.1", 0},
                                 {"node-b", "127.0.0.1", 0},
                                 {"node-c", "127.0.0.1", 0}};
  const ClusterMap port0(infos, kShards, replicas, version);
  Fleet f;
  for (std::uint32_t i = 0; i < infos.size(); ++i) {
    f.nodes.push_back(std::make_unique<ClusterNode>(
        *&env().backend, env().verifier, *env().store, port0, i,
        node_options()));
    infos[i].port = f.nodes[i]->port();
  }
  f.map = ClusterMap(std::move(infos), kShards, replicas, version);
  return f;
}

// The fleet grown by node-d: the v2 map over the same store. The new
// node is constructed against a port-0 copy of v2 (placement depends
// only on names), then the final map publishes every bound port.
ClusterMap grow_fleet(Fleet& f, std::uint64_t version = 2) {
  std::vector<NodeInfo> infos;
  for (std::size_t i = 0; i < f.map.nodes().size(); ++i) {
    infos.push_back(f.map.nodes()[i]);
  }
  infos.push_back({"node-d", "127.0.0.1", 0});
  const ClusterMap port0(infos, kShards, f.map.replicas(), version);
  f.nodes.push_back(std::make_unique<ClusterNode>(
      env().backend, env().verifier, *env().store, port0,
      static_cast<std::uint32_t>(infos.size() - 1), node_options()));
  infos.back().port = f.nodes.back()->port();
  return ClusterMap(std::move(infos), kShards, f.map.replicas(), version);
}

class ClusterHealthTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::instance().clear_all(); }
  void TearDown() override { Failpoints::instance().clear_all(); }
};

// --- failure detector --------------------------------------------------------

TEST_F(ClusterHealthTest, FailureDetectorStateMachine) {
  FailureDetectorOptions opts;
  opts.suspect_misses = 2;
  opts.dead_misses = 4;
  FailureDetector d(opts);
  EXPECT_EQ(d.liveness(), NodeLiveness::kAlive);
  EXPECT_EQ(d.on_miss(), NodeLiveness::kAlive);    // 1 miss
  EXPECT_EQ(d.on_miss(), NodeLiveness::kSuspect);  // 2
  EXPECT_EQ(d.on_miss(), NodeLiveness::kSuspect);  // 3
  EXPECT_EQ(d.on_miss(), NodeLiveness::kDead);     // 4
  EXPECT_EQ(d.misses(), 4u);
  // Any pong snaps straight back to alive, not through suspect.
  EXPECT_EQ(d.on_pong(), NodeLiveness::kAlive);
  EXPECT_EQ(d.misses(), 0u);
  EXPECT_EQ(d.on_miss(), NodeLiveness::kAlive);  // counter restarted
}

// --- breaker hardening -------------------------------------------------------

TEST_F(ClusterHealthTest, BreakerTripForcesOpenAndProbeRecovers) {
  BreakerOptions opts;
  opts.threshold = 3;
  opts.cooldown_ops = 2;
  CircuitBreaker b(opts);
  EXPECT_EQ(b.admit(1), CircuitBreaker::Gate::kClosed);
  // trip() opens without any recorded failure (the failure detector's
  // path) and reports the transition exactly once.
  EXPECT_TRUE(b.trip(1));
  EXPECT_FALSE(b.trip(1));
  EXPECT_EQ(b.admit(2), CircuitBreaker::Gate::kSkip);
  EXPECT_EQ(b.admit(3), CircuitBreaker::Gate::kProbe);  // cooldown elapsed
  b.on_success();
  EXPECT_EQ(b.admit(4), CircuitBreaker::Gate::kClosed);
  EXPECT_EQ(b.consecutive_failures(), 0u);
  // threshold == 0 disables tripping entirely.
  CircuitBreaker off(BreakerOptions{0, 2, 0});
  EXPECT_FALSE(off.trip(1));
  EXPECT_EQ(off.admit(2), CircuitBreaker::Gate::kClosed);
}

TEST_F(ClusterHealthTest, BreakerJitterStaysInRangeAndIsDeterministic) {
  BreakerOptions opts;
  opts.threshold = 1;
  opts.cooldown_ops = 4;
  opts.cooldown_jitter_ops = 3;
  const auto probe_op = [&](std::uint64_t seed) {
    CircuitBreaker b(opts);
    b.seed_jitter(seed);
    EXPECT_TRUE(b.on_failure(10));
    // First op at which a probe is admitted.
    for (std::uint64_t op = 11; op <= 30; ++op) {
      if (b.admit(op) == CircuitBreaker::Gate::kProbe) return op;
    }
    return std::uint64_t{0};
  };
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const std::uint64_t op = probe_op(seed);
    // Cooldown span is cooldown_ops + U[0, jitter]: probe between op 14
    // and op 17 inclusive (failure at 10).
    EXPECT_GE(op, 14u) << "seed " << seed;
    EXPECT_LE(op, 17u) << "seed " << seed;
    // Same seed, same schedule — chaos replays stay reproducible.
    EXPECT_EQ(op, probe_op(seed)) << "seed " << seed;
  }
}

TEST_F(ClusterHealthTest, BreakerSurvivesConcurrentCallers) {
  BreakerOptions opts;
  opts.threshold = 2;
  opts.cooldown_ops = 1;
  opts.cooldown_jitter_ops = 2;
  CircuitBreaker b(opts);
  b.seed_jitter(7);
  std::atomic<std::uint64_t> op{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&b, &op, t] {
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t now = op.fetch_add(1) + 1;
        switch (t % 4) {
          case 0: (void)b.admit(now); break;
          case 1: (void)b.on_failure(now); break;
          case 2: b.on_success(); break;
          default:
            (void)b.trip(now);
            (void)b.open_now(now);
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // The machine must land in a coherent state: after a success it is
  // closed with a zero failure count.
  b.on_success();
  EXPECT_EQ(b.consecutive_failures(), 0u);
  EXPECT_EQ(b.admit(op.load() + 1), CircuitBreaker::Gate::kClosed);
}

// --- health monitor ----------------------------------------------------------

TEST_F(ClusterHealthTest, HealthMonitorTracksKillAndRevive) {
  Fleet f = start_fleet();
  HealthMonitorOptions opts;
  opts.interval_ms = 0;  // manual ticks: fully deterministic
  opts.ping_timeout_ms = 400;
  opts.detector.suspect_misses = 1;
  opts.detector.dead_misses = 3;
  std::vector<std::string> transitions;
  HealthMonitor monitor(SchemeKind::kApks, f.map, opts,
                        [&](const std::string& node, NodeLiveness from,
                            NodeLiveness to) {
                          transitions.push_back(
                              node + ":" +
                              std::string(cluster::liveness_name(from)) +
                              ">" +
                              std::string(cluster::liveness_name(to)));
                        });

  monitor.tick();
  EXPECT_EQ(monitor.rounds(), 1u);
  std::vector<NodeHealthSnapshot> snap = monitor.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  for (const NodeHealthSnapshot& n : snap) {
    EXPECT_EQ(n.liveness, NodeLiveness::kAlive) << n.name;
    EXPECT_EQ(n.pongs, 1u) << n.name;
    EXPECT_EQ(n.map_version, 1u) << n.name;  // pong reports the node's map
  }
  EXPECT_TRUE(transitions.empty());  // no change, no hook

  // Kill node-c: one miss suspects it, three declare it dead.
  const std::uint16_t dead_port = f.nodes[2]->port();
  f.nodes[2]->stop();
  monitor.tick();
  EXPECT_EQ(monitor.liveness(2), NodeLiveness::kSuspect);
  monitor.tick();
  monitor.tick();
  EXPECT_EQ(monitor.liveness(2), NodeLiveness::kDead);
  EXPECT_EQ(monitor.liveness(0), NodeLiveness::kAlive);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0], "node-c:alive>suspect");
  EXPECT_EQ(transitions[1], "node-c:suspect>dead");

  // Revive on the same port: the next pong snaps it back to alive.
  ClusterNodeOptions revived = node_options();
  revived.net.port = dead_port;
  f.nodes[2] = std::make_unique<ClusterNode>(env().backend, env().verifier,
                                             *env().store, f.map, 2, revived);
  monitor.tick();
  EXPECT_EQ(monitor.liveness(2), NodeLiveness::kAlive);
  EXPECT_EQ(transitions.back(), "node-c:dead>alive");

  for (auto& node : f.nodes) node->stop();
}

// --- coordinator + heartbeats ------------------------------------------------

TEST_F(ClusterHealthTest, HeartbeatPreTripsDeadNodeAndRevivedNodeReturns) {
  const std::vector<std::string> expected = single_node_search();
  Fleet f = start_fleet();

  CoordinatorOptions opts;
  opts.heartbeat_ms = 20;
  opts.ping_timeout_ms = 200;
  opts.detector.suspect_misses = 1;
  opts.detector.dead_misses = 2;
  opts.breaker.threshold = 2;
  opts.breaker.cooldown_ops = 1;
  Coordinator coord(env().backend, env().verifier, f.map, opts);
  ASSERT_NE(coord.health_monitor(), nullptr);
  ASSERT_EQ(coord.search_any(env().query), expected);

  // Kill node-b and wait for the detector (not a request!) to notice.
  const std::uint16_t dead_port = f.nodes[1]->port();
  f.nodes[1]->stop();
  for (int i = 0; i < 200 && coord.health()[1].liveness != NodeLiveness::kDead;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(coord.health()[1].liveness, NodeLiveness::kDead);

  // The search never touches the corpse: replicas were re-ordered and the
  // breaker pre-tripped, so zero RPCs fail and zero retries happen.
  ClusterSearchStats stats;
  EXPECT_EQ(coord.search_any(env().query, &stats), expected);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_FALSE(stats.partial);
  EXPECT_EQ(coord.health()[1].breaker_open, true);

  // Revive node-b on its old port; heartbeats close the loop and the node
  // serves primary traffic again without a single failed request.
  ClusterNodeOptions revived = node_options();
  revived.net.port = dead_port;
  f.nodes[1] = std::make_unique<ClusterNode>(env().backend, env().verifier,
                                             *env().store, f.map, 1, revived);
  for (int i = 0;
       i < 200 && coord.health()[1].liveness != NodeLiveness::kAlive; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(coord.health()[1].liveness, NodeLiveness::kAlive);

  // First search after revival may spend the breaker's half-open probe on
  // node-b; it must succeed and close the breaker for good.
  ClusterSearchStats after;
  EXPECT_EQ(coord.search_any(env().query, &after), expected);
  EXPECT_EQ(after.retries, 0u);
  ClusterSearchStats steady;
  EXPECT_EQ(coord.search_any(env().query, &steady), expected);
  EXPECT_EQ(steady.retries, 0u);
  EXPECT_EQ(steady.breaker_skips, 0u);
  EXPECT_FALSE(coord.health()[1].breaker_open);

  for (auto& node : f.nodes) node->stop();
}

// --- live reconfiguration ----------------------------------------------------

TEST_F(ClusterHealthTest, ApplyMapAddsNodeWithGracefulHandoff) {
  const std::vector<std::string> expected = single_node_search();
  Fleet f = start_fleet();
  Coordinator coord(env().backend, env().verifier, f.map);
  ASSERT_EQ(coord.search_any(env().query), expected);

  const ClusterMap v2 = grow_fleet(f);
  coord.apply_map(v2);
  EXPECT_EQ(coord.map().version(), 2u);

  // Every node adopted v2 (the eager push) and owns exactly what v2
  // assigns — de-assigned shards were unloaded, new ones loaded.
  for (std::uint32_t i = 0; i < f.nodes.size(); ++i) {
    EXPECT_EQ(f.nodes[i]->map_version(), 2u) << f.nodes[i]->name();
    EXPECT_EQ(f.nodes[i]->owned_shards(), v2.shards_of(i))
        << f.nodes[i]->name();
  }

  ClusterSearchStats stats;
  EXPECT_EQ(coord.search_any(env().query, &stats), expected);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.map_pushes, 0u);  // nobody is stale after the fan-out

  // Not-strictly-newer maps are refused at every layer.
  EXPECT_THROW(coord.apply_map(v2), std::invalid_argument);
  EXPECT_THROW(f.nodes[0]->apply_map(v2), std::invalid_argument);

  for (auto& node : f.nodes) node->stop();
}

TEST_F(ClusterHealthTest, StaleNodesHealedMidSearchByMapPush) {
  const std::vector<std::string> expected = single_node_search();
  Fleet f = start_fleet();

  // A coordinator born with v2 of the same member list, while every node
  // still holds v1: the first scatter gets `stale cluster map` refusals,
  // pushes its map, and retries — invisibly to the caller.
  const ClusterMap v2(
      {f.map.nodes()[0], f.map.nodes()[1], f.map.nodes()[2]}, kShards,
      f.map.replicas(), 2);
  Coordinator coord(env().backend, env().verifier, v2);
  ClusterSearchStats stats;
  EXPECT_EQ(coord.search_any(env().query, &stats), expected);
  EXPECT_GE(stats.map_pushes, 1u);
  // Only nodes the scatter actually hit (a shard's primary) were healed —
  // a node serving no primaries never refused and so was never pushed.
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    EXPECT_EQ(f.nodes[v2.primary_of(shard)]->map_version(), 2u)
        << "primary of shard " << shard;
  }

  // Steady state: no more pushes.
  ClusterSearchStats steady;
  EXPECT_EQ(coord.search_any(env().query, &steady), expected);
  EXPECT_EQ(steady.map_pushes, 0u);

  for (auto& node : f.nodes) node->stop();
}

TEST_F(ClusterHealthTest, CoordinatorBehindTheFleetSurfacesTypedError) {
  Fleet f = start_fleet();
  Coordinator coord(env().backend, env().verifier, f.map);

  // The fleet moves ahead to v3 behind the coordinator's back. Its push
  // of the old map is refused — only a fresh map at the caller heals it.
  const ClusterMap v3(
      {f.map.nodes()[0], f.map.nodes()[1], f.map.nodes()[2]}, kShards,
      f.map.replicas(), 3);
  for (auto& node : f.nodes) node->apply_map(v3);

  try {
    (void)coord.search_any(env().query);
    FAIL() << "a coordinator behind the fleet must not harvest results";
  } catch (const ServingError& ex) {
    EXPECT_EQ(ex.code(), ErrorCode::kUnavailable);
    EXPECT_NE(std::string(ex.what()).find("refused"), std::string::npos)
        << ex.what();
  }

  // Handing it the fleet's map heals it.
  coord.apply_map(v3);
  EXPECT_EQ(coord.search_any(env().query), single_node_search());

  for (auto& node : f.nodes) node->stop();
}

// --- the chaos drill ---------------------------------------------------------

// Node added AND node killed mid-query-stream: every answer byte-identical
// to the single-node scan, zero fabricated or dropped shards.
TEST_F(ClusterHealthTest, ChaosDrillLiveRebalanceUnderQueryStream) {
  const std::vector<std::string> expected = single_node_search();
  Fleet f = start_fleet();

  CoordinatorOptions opts;
  opts.breaker.threshold = 2;
  opts.breaker.cooldown_ops = 2;
  Coordinator coord(env().backend, env().verifier, f.map);

  for (std::size_t i = 0; i < 12; ++i) {
    if (i == 4) {
      // Rebalance: node-d joins, shards hand off live.
      coord.apply_map(grow_fleet(f));
    }
    if (i == 8) {
      // And a node dies mid-stream (its shards have replicas).
      f.nodes[2]->stop();
    }
    ClusterSearchStats stats;
    const std::vector<std::string> refs =
        coord.search_any(env().query, &stats);
    ASSERT_EQ(refs, expected) << "query " << i;
    EXPECT_FALSE(stats.partial) << "query " << i;
    EXPECT_EQ(stats.shards_failed, 0u) << "query " << i;
  }

  for (auto& node : f.nodes) node->stop();
}

// --- hedged reads ------------------------------------------------------------

TEST_F(ClusterHealthTest, HedgedReadRacesSlowPrimaryWithinBudget) {
  const std::vector<std::string> expected = single_node_search();
  Fleet f = start_fleet();

  CoordinatorOptions opts;
  opts.hedge.enabled = true;
  opts.hedge.initial_delay_ms = 20;
  opts.hedge.min_delay_ms = 5;
  // The latency ring's quantile includes the scan itself; cap the hedge
  // delay well under the injected stall so the race is decisive.
  opts.hedge.max_delay_ms = 50;
  opts.hedge.budget = 4;
  Coordinator coord(env().backend, env().verifier, f.map, opts);
  // Warm the connections and the latency rings.
  ASSERT_EQ(coord.search_any(env().query), expected);

  // Every primary RPC of the next round stalls 2 s on the coordinator
  // side; the failpoint disarms after the primaries (max three nodes), so
  // the hedges launched off the (capped) latency quantile run at full
  // speed and win their shards long before the primaries wake.
  FailpointPolicy policy;
  policy.action = FailAction::kDelay;
  policy.delay_ms = 2000;
  policy.max_hits = 3;
  Failpoints::instance().set(cluster::kSiteScatter, policy);

  ClusterSearchStats stats;
  const std::vector<std::string> refs = coord.search_any(env().query, &stats);
  EXPECT_EQ(refs, expected);
  EXPECT_GE(stats.hedges, 1u);
  EXPECT_LE(stats.hedges, opts.hedge.budget);
  EXPECT_GE(stats.hedge_wins, 1u);
  EXPECT_EQ(stats.retries, 0u);  // nothing failed — one side was just slow
  EXPECT_FALSE(stats.partial);
  // Total RPCs stay within primaries + the hedge budget.
  EXPECT_LE(stats.rpcs, 3u + opts.hedge.budget);

  // With the failpoint gone, hedging stays quiet.
  Failpoints::instance().clear_all();
  ClusterSearchStats calm;
  EXPECT_EQ(coord.search_any(env().query, &calm), expected);
  EXPECT_FALSE(calm.partial);

  for (auto& node : f.nodes) node->stop();
}

// --- edge auth LRU -----------------------------------------------------------

TEST_F(ClusterHealthTest, AuthCacheMemoizesVerifiedQueriesAndEvicts) {
  const std::vector<std::string> expected = single_node_search();
  Fleet f = start_fleet();

  CoordinatorOptions opts;
  opts.auth_cache_capacity = 1;
  Coordinator coord(env().backend, env().verifier, f.map, opts);

  SignedQuery good{AnyQuery::ref(SchemeKind::kApks, &env().cap.cap),
                   env().cap.issuer, env().cap.sig};
  ClusterSearchStats stats;
  EXPECT_EQ(coord.search_signed(good, &stats), expected);
  EXPECT_TRUE(stats.authorized);
  EXPECT_EQ(coord.auth_cache_stats().misses, 1u);
  EXPECT_EQ(coord.auth_cache_stats().hits, 0u);

  // Same query again: served from the LRU, no second verification.
  EXPECT_EQ(coord.search_signed(good, &stats), expected);
  EXPECT_TRUE(stats.authorized);
  EXPECT_EQ(coord.auth_cache_stats().hits, 1u);
  EXPECT_EQ(coord.auth_cache_stats().size, 1u);

  // A rogue issuer is a miss AND is never cached (a later registration
  // change must be able to flip the verdict).
  SignedQuery rogue = good;
  rogue.issuer = "rogue";
  EXPECT_TRUE(coord.search_signed(rogue, &stats).empty());
  EXPECT_FALSE(stats.authorized);
  EXPECT_EQ(coord.auth_cache_stats().misses, 2u);
  EXPECT_EQ(coord.auth_cache_stats().size, 1u);

  // A second valid query evicts the first at capacity 1...
  SignedQuery other{AnyQuery::ref(SchemeKind::kApks, &env().other_cap.cap),
                    env().other_cap.issuer, env().other_cap.sig};
  (void)coord.search_signed(other, &stats);
  EXPECT_TRUE(stats.authorized);
  EXPECT_EQ(coord.auth_cache_stats().evictions, 1u);
  EXPECT_EQ(coord.auth_cache_stats().size, 1u);

  // ...so the first query misses (and re-verifies) again.
  EXPECT_EQ(coord.search_signed(good, &stats), expected);
  EXPECT_EQ(coord.auth_cache_stats().misses, 4u);

  for (auto& node : f.nodes) node->stop();
}

}  // namespace
}  // namespace apks
