// Scale-out cluster throughput: coordinator scatter-gather over N serving
// nodes on loopback (DESIGN.md §5i).
//
// The single-node serving bench (bench_serving) measures one engine behind
// one epoll front end; this bench partitions the same store across a node
// fleet with rendezvous-hash placement and drives it through Coordinators:
//
//   nodes=1: one node owns every shard — the scatter degenerates to a
//            single RPC and the node scans its shards sequentially.
//   nodes=3: shards spread across three processes' worth of engines, so
//            a full scatter runs shard scans on three nodes concurrently.
//
// Two kinds of scaling rows, because this bench runs the whole fleet on
// ONE box:
//
//   scatter: the raw pairing-CPU scan. On a multi-core host the 3-node
//            rows approach 3x the 1-node QPS; on a single core the
//            concurrent scans timeshare and the fan-out overhead makes
//            3 nodes slightly *slower* — that is the machine, not the
//            cluster.
//   iobound: the scan stalls a fixed delay per record (engine.scan_block
//            failpoint — modelling remote storage), so per-search wall
//            time is records/nodes * delay regardless of cores. This row
//            is where scatter-width itself shows: QPS scales ~Nx from
//            1 to 3 nodes even on one core, because stalls overlap.
//
// A failover row kills the primary of shard 0 mid-fleet and repeats the
// load: every search still returns the full (byte-identical) result via
// replicas, and the row reports the failover rate the breaker settles
// into.
//
// A final pair of slowtail rows stalls one node's scan per search
// (engine.scan_block kDelay) and runs the load with hedged reads off,
// then on: hedging races the shards' next replica after the node's
// latency quantile, so the on-row's p99 drops from ~the stall to ~the
// hedge delay while total RPCs stay within primaries + hedge budget.
//
// JSON artifact (BENCH_cluster.json): one row per (nodes, coordinators)
// plus the failover and slowtail rows, each with p50/p99 latency (ms)
// and QPS.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "common/failpoint.h"
#include "core/apks_backend.h"
#include "data/nursery.h"
#include "store/sharded_store.h"

using namespace apks;
using namespace apks::bench;

namespace {

namespace fs = std::filesystem;

struct Timer {
  Clock::time_point start = Clock::now();
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }
};

struct LoadStats {
  std::vector<double> latencies_ms;  // sorted on finish()
  double wall_s = 0;
  std::uint64_t searches = 0;
  std::uint64_t rpcs = 0;
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;

  void finish() { std::sort(latencies_ms.begin(), latencies_ms.end()); }
  [[nodiscard]] double qps() const {
    return wall_s > 0 ? static_cast<double>(searches) / wall_s : 0;
  }
};

// A running fleet: in-process nodes bound to ephemeral loopback ports,
// plus the map (with real ports) coordinators dial.
struct Fleet {
  std::vector<std::unique_ptr<cluster::ClusterNode>> nodes;
  cluster::ClusterMap map{{{"seed", "127.0.0.1", 1}}, 1, 1};

  void stop() {
    for (auto& node : nodes) node->stop();
  }
};

Fleet start_fleet(const ApksBackend& backend, const Pairing& pairing,
                  ShardedStore& store, std::size_t node_count,
                  std::uint32_t replicas) {
  // Placement depends on names only, so build the map twice: once with
  // port 0 to learn ownership, again with the ports the nodes bound.
  std::vector<cluster::NodeInfo> infos;
  for (std::size_t i = 0; i < node_count; ++i) {
    infos.push_back({"bench-node-" + std::to_string(i), "127.0.0.1", 0});
  }
  const cluster::ClusterMap port0(infos, store.shard_count(), replicas);

  Fleet fleet;
  for (std::size_t i = 0; i < node_count; ++i) {
    cluster::ClusterNodeOptions opts;
    opts.engine.threads = 1;  // scaling must come from the fleet, not SMP
    opts.engine.block_records = 1;  // iobound rows: one stall per record
    opts.net.allow_unchecked = true;
    fleet.nodes.push_back(std::make_unique<cluster::ClusterNode>(
        backend, CapabilityVerifier(pairing, IbsPublicParams{}), store, port0,
        static_cast<std::uint32_t>(i), std::move(opts)));
    infos[i].port = fleet.nodes.back()->port();
  }
  fleet.map = cluster::ClusterMap(std::move(infos), store.shard_count(),
                                  replicas);
  return fleet;
}

// Closed loop: `coordinators` threads, each with its own Coordinator
// (matching its thread-affinity contract), each issuing `iters` searches.
LoadStats closed_loop(const ApksBackend& backend, const Pairing& pairing,
                      const cluster::ClusterMap& map, const AnyQuery& query,
                      std::size_t coordinators, std::size_t iters,
                      const std::vector<std::string>& expected) {
  LoadStats total;
  std::mutex merge_mutex;
  std::vector<std::thread> threads;
  bool all_exact = true;
  for (std::size_t c = 0; c < coordinators; ++c) {
    threads.emplace_back([&] {
      LoadStats local;
      bool exact = true;
      cluster::Coordinator coord(
          backend, CapabilityVerifier(pairing, IbsPublicParams{}), map);
      // Untimed warmup: dial every node, authorize the session query and
      // populate the engines' prepared-query caches, so the timed rows
      // measure the steady state (the coordinator keeps its connections
      // and session auth across searches).
      (void)coord.search_any(query);
      Timer loop;  // wall excludes the warmup: steady-state QPS
      for (std::size_t i = 0; i < iters; ++i) {
        Timer t;
        cluster::ClusterSearchStats stats;
        const std::vector<std::string> refs =
            coord.search_any(query, &stats);
        local.latencies_ms.push_back(t.seconds() * 1e3);
        ++local.searches;
        local.rpcs += stats.rpcs;
        local.retries += stats.retries;
        local.failovers += stats.failovers;
        exact = exact && refs == expected;
      }
      local.wall_s = loop.seconds();
      const std::lock_guard<std::mutex> lock(merge_mutex);
      total.latencies_ms.insert(total.latencies_ms.end(),
                                local.latencies_ms.begin(),
                                local.latencies_ms.end());
      total.searches += local.searches;
      total.rpcs += local.rpcs;
      total.retries += local.retries;
      total.failovers += local.failovers;
      total.wall_s = std::max(total.wall_s, local.wall_s);
      all_exact = all_exact && exact;
    });
  }
  for (auto& t : threads) t.join();
  total.finish();
  if (!all_exact) {
    std::printf("  WARNING: a cluster search diverged from the single-node "
                "result\n");
  }
  return total;
}

// The hedged-read tail row: one coordinator, every search has exactly ONE
// node scan stalled `stall_ms` server-side (engine.scan_block kDelay,
// re-armed with max_hits=1 per search — the first node to reach a block
// eats the delay, the rest run clean). The stall leaves the primary RPC
// parked in recv — exactly the slow-replica shape hedging is for, and a
// wait abort() can interrupt. With hedging off the stall IS the search's
// latency; with hedging on the coordinator races the shards' next
// replica after the node's latency quantile, the hedge wins, the stuck
// loser is aborted, and p99 collapses to ~(hedge delay + scan) while the
// per-search RPC count stays within primaries + hedge budget.
LoadStats slowtail_loop(const ApksBackend& backend, const Pairing& pairing,
                        const cluster::ClusterMap& map, const AnyQuery& query,
                        std::size_t iters, std::uint32_t stall_ms,
                        std::uint64_t hedge_delay_ms,
                        const std::vector<std::string>& expected) {
  const bool hedge_on = hedge_delay_ms != 0;
  cluster::CoordinatorOptions copts;
  if (hedge_on) {
    copts.hedge.enabled = true;
    // The delay window sits ABOVE a healthy scan (calibrated by the
    // caller) and far below the stall: healthy primaries finish before
    // their hedge deadline (no budget burned on them), the stalled one
    // trips it. The max clamp keeps the adaptive quantile from chasing
    // the very tail the hedges exist to cut once stall samples enter
    // the latency ring.
    copts.hedge.initial_delay_ms = hedge_delay_ms;
    copts.hedge.min_delay_ms = hedge_delay_ms;
    copts.hedge.max_delay_ms = hedge_delay_ms * 2;
    copts.hedge.budget = 2;
  }
  cluster::Coordinator coord(
      backend, CapabilityVerifier(pairing, IbsPublicParams{}), map,
      std::move(copts));
  (void)coord.search_any(query);  // warmup: dial + session auth, no stall
  LoadStats s;
  bool exact = true;
  Timer loop;
  for (std::size_t i = 0; i < iters; ++i) {
    FailpointPolicy slow;
    slow.action = FailAction::kDelay;
    slow.delay_ms = stall_ms;
    slow.max_hits = 1;
    Failpoints::instance().set("engine.scan_block", slow);
    Timer t;
    cluster::ClusterSearchStats stats;
    const std::vector<std::string> refs = coord.search_any(query, &stats);
    s.latencies_ms.push_back(t.seconds() * 1e3);
    ++s.searches;
    s.rpcs += stats.rpcs;
    s.retries += stats.retries;
    s.failovers += stats.failovers;
    s.hedges += stats.hedges;
    s.hedge_wins += stats.hedge_wins;
    exact = exact && refs == expected;
  }
  Failpoints::instance().clear_all();
  s.wall_s = loop.seconds();
  s.finish();
  if (!exact) {
    std::printf("  WARNING: a hedged cluster search diverged from the "
                "single-node result\n");
  }
  return s;
}

void print_row(const char* mode, std::size_t nodes, std::size_t coords,
               const LoadStats& s) {
  std::printf("  %-8s nodes=%zu coords=%zu  searches=%4" PRIu64
              "  qps=%7.2f  p50=%7.2f ms  p99=%7.2f ms"
              "  rpcs=%" PRIu64 " retries=%" PRIu64 " failovers=%" PRIu64 "\n",
              mode, nodes, coords, s.searches, s.qps(),
              percentile(s.latencies_ms, 0.50),
              percentile(s.latencies_ms, 0.99), s.rpcs, s.retries,
              s.failovers);
}

void add_row(JsonReport& report, const char* mode, std::size_t nodes,
             std::size_t coords, const LoadStats& s) {
  report.add_row({{"mode", mode},
                  {"nodes", nodes},
                  {"coordinators", coords},
                  {"searches", static_cast<std::size_t>(s.searches)},
                  {"qps", s.qps()},
                  {"p50_ms", percentile(s.latencies_ms, 0.50)},
                  {"p99_ms", percentile(s.latencies_ms, 0.99)},
                  {"rpcs", static_cast<std::size_t>(s.rpcs)},
                  {"retries", static_cast<std::size_t>(s.retries)},
                  {"failovers", static_cast<std::size_t>(s.failovers)}});
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv, "BENCH_cluster.json");
  const std::size_t kRecords = args.smoke ? 12 : 48;
  const std::size_t kIters = args.smoke ? 2 : 6;
  const std::vector<std::size_t> kCoordCounts =
      args.smoke ? std::vector<std::size_t>{1} : std::vector<std::size_t>{1, 4};
  constexpr std::uint32_t kShards = 6;

  const Pairing pairing(default_type_a_params());
  ChaChaRng rng("bench-cluster");
  const Apks scheme(pairing, nursery_schema(1));
  ApksPublicKey pk;
  ApksMasterKey msk;
  scheme.setup(rng, pk, msk);
  const ApksBackend backend(scheme);

  print_header(
      "Cluster scatter-gather: QPS scaling 1 -> 3 nodes, plus failover",
      "the same store partitioned by rendezvous hashing across a node "
      "fleet; the coordinator merges per-shard hits byte-identically to "
      "the single-node scan");

  const std::vector<PlainIndex> rows = nursery_rows();
  const fs::path dir =
      fs::temp_directory_path() /
      ("apks-bench-cluster-" + std::to_string(static_cast<unsigned>(getpid())));
  fs::remove_all(dir);
  ShardedStoreOptions store_opts;
  store_opts.shards = kShards;
  ShardedStore store(backend, dir, store_opts);
  for (std::size_t i = 0; i < kRecords; ++i) {
    (void)store.append("doc-" + std::to_string(i),
                       scheme.gen_index(pk, rows[(i * 739) % rows.size()], rng));
  }
  store.sync();

  // A point query for a row the ingest loop actually wrote, so the merge
  // path carries real hits (an empty result would make byte-identity
  // trivially true).
  const Capability cap =
      scheme.gen_cap(msk, nursery_point_query(rows[739 % rows.size()]), rng);
  const AnyQuery query = AnyQuery::ref(SchemeKind::kApks, &cap);
  // The single-node answer every fleet must reproduce: one SearchEngine
  // over a CloudServer loaded from the same store.
  CloudServer single(backend, CapabilityVerifier(pairing, IbsPublicParams{}));
  (void)single.load_from(store);
  SearchReply single_reply;
  SearchEngine(single, {.threads = 1})
      .serve_admitted({.queries = {&query, 1}}, single_reply);
  const std::vector<std::string>& expected = single_reply.refs[0];
  std::printf("records: %zu across %u shards, %zu match the bench query\n",
              store.record_count(), store.shard_count(), expected.size());

  JsonReport report("cluster", args);
  report.set_meta("records", store.record_count());
  report.set_meta("shards", kShards);
  report.set_meta("iters", kIters);

  // --- scaling sweep: same load against 1-node and 3-node fleets -----------
  const std::uint32_t kStallMs = args.smoke ? 5u : 10u;
  for (const std::size_t node_count : {std::size_t{1}, std::size_t{3}}) {
    const std::uint32_t replicas = node_count >= 2 ? 2u : 1u;
    Fleet fleet = start_fleet(backend, pairing, store, node_count, replicas);
    for (const std::size_t coords : kCoordCounts) {
      const LoadStats s = closed_loop(backend, pairing, fleet.map, query,
                                      coords, kIters, expected);
      print_row("scatter", node_count, coords, s);
      add_row(report, "scatter", node_count, coords, s);
    }

    // Latency-bound scan: a fixed stall per record makes per-search wall
    // time (records / nodes) * stall — scatter-width scaling independent
    // of how many cores this box has.
    FailpointPolicy stall;
    stall.action = FailAction::kDelay;
    stall.delay_ms = kStallMs;
    Failpoints::instance().set("engine.scan_block", stall);
    const LoadStats io = closed_loop(backend, pairing, fleet.map, query,
                                     /*coordinators=*/1, kIters, expected);
    Failpoints::instance().clear_all();
    print_row("iobound", node_count, 1, io);
    add_row(report, "iobound", node_count, 1, io);

    fleet.stop();
  }

  // --- failover row: kill shard 0's primary, keep serving ------------------
  {
    Fleet fleet = start_fleet(backend, pairing, store, 3, /*replicas=*/2);
    fleet.nodes[fleet.map.primary_of(0)]->stop();
    const LoadStats s = closed_loop(backend, pairing, fleet.map, query,
                                    /*coordinators=*/1, kIters, expected);
    print_row("failover", 3, 1, s);
    add_row(report, "failover", 3, 1, s);
    if (s.failovers == 0) {
      std::printf("  note: expected failovers > 0 with the primary down\n");
    }
    fleet.stop();
  }

  // --- hedged-read rows: a slow replica's tail, hedge off vs on ------------
  // Every search stalls exactly one primary RPC; see slowtail_loop. The
  // off/on pair shares the fleet, so the p99 delta is the hedging.
  {
    const std::size_t kTailIters = args.smoke ? 6 : 16;
    Fleet fleet = start_fleet(backend, pairing, store, 3, /*replicas=*/2);

    // Calibrate the hedge deadline off THIS machine's healthy scatter
    // latency (fixed numbers would hedge clean primaries on a slow box
    // and never fire on a fast one): delay = 2x a healthy search, stall
    // covers the delay with a wide margin so the p99 contrast is the
    // hedging, not the calibration.
    double healthy_ms = 0;
    {
      cluster::Coordinator cal(
          backend, CapabilityVerifier(pairing, IbsPublicParams{}), fleet.map);
      (void)cal.search_any(query);  // warmup: dial + session auth
      constexpr std::size_t kCalIters = 3;
      Timer t;
      for (std::size_t i = 0; i < kCalIters; ++i) (void)cal.search_any(query);
      healthy_ms = t.seconds() * 1e3 / kCalIters;
    }
    const auto hedge_delay_ms =
        std::max<std::uint64_t>(30, static_cast<std::uint64_t>(2 * healthy_ms));
    const auto stall_ms = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(8 * hedge_delay_ms, 300));
    std::printf("  slowtail calibration: healthy=%.2f ms -> hedge delay %"
                PRIu64 " ms, stall %u ms\n",
                healthy_ms, hedge_delay_ms, stall_ms);

    const LoadStats off =
        slowtail_loop(backend, pairing, fleet.map, query, kTailIters,
                      stall_ms, /*hedge_delay_ms=*/0, expected);
    const LoadStats on =
        slowtail_loop(backend, pairing, fleet.map, query, kTailIters,
                      stall_ms, hedge_delay_ms, expected);
    fleet.stop();
    for (const auto* pair : {&off, &on}) {
      const LoadStats& s = *pair;
      const bool hedged = pair == &on;
      std::printf("  %-8s nodes=3 coords=1  searches=%4" PRIu64
                  "  qps=%7.2f  p50=%7.2f ms  p99=%7.2f ms"
                  "  rpcs=%" PRIu64 " hedges=%" PRIu64 " wins=%" PRIu64 "\n",
                  hedged ? "hedge-on" : "hedge-off", s.searches, s.qps(),
                  percentile(s.latencies_ms, 0.50),
                  percentile(s.latencies_ms, 0.99), s.rpcs, s.hedges,
                  s.hedge_wins);
      report.add_row({{"mode", "slowtail"},
                      {"nodes", std::size_t{3}},
                      {"coordinators", std::size_t{1}},
                      {"hedge", hedged ? std::size_t{1} : std::size_t{0}},
                      {"stall_ms", static_cast<std::size_t>(stall_ms)},
                      {"searches", static_cast<std::size_t>(s.searches)},
                      {"qps", s.qps()},
                      {"p50_ms", percentile(s.latencies_ms, 0.50)},
                      {"p99_ms", percentile(s.latencies_ms, 0.99)},
                      {"rpcs", static_cast<std::size_t>(s.rpcs)},
                      {"hedges", static_cast<std::size_t>(s.hedges)},
                      {"hedge_wins", static_cast<std::size_t>(s.hedge_wins)}});
    }
    const double p99_off = percentile(off.latencies_ms, 0.99);
    const double p99_on = percentile(on.latencies_ms, 0.99);
    // The hedge budget bounds speculative extras: primaries (3 nodes) plus
    // at most `budget` hedges per search.
    const std::uint64_t rpc_cap = on.searches * (3 + 2);
    if (p99_on >= p99_off) {
      std::printf("  note: expected hedging to cut the slow-replica p99 "
                  "(off %.2f ms, on %.2f ms)\n", p99_off, p99_on);
    }
    if (on.rpcs > rpc_cap) {
      std::printf("  note: hedged RPCs (%" PRIu64 ") exceed the per-search "
                  "budget cap (%" PRIu64 ")\n", on.rpcs, rpc_cap);
    }
    std::printf("  slow-replica tail: hedging cut p99 %.2f -> %.2f ms "
                "(%.1fx) with %" PRIu64 " extra rpcs over %" PRIu64
                " searches\n",
                p99_off, p99_on, p99_on > 0 ? p99_off / p99_on : 0.0,
                on.rpcs - off.rpcs, on.searches);
  }

  if (args.json) (void)report.write(args.json_path);
  fs::remove_all(dir);
  return 0;
}
