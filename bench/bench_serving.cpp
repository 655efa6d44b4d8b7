// End-to-end serving throughput and latency through the network layer:
// NetServer (epoll front end) + NetClient load generator over loopback.
//
// The paper's cost story stops at the scan (pairings per record); this
// bench measures what a deployment actually observes — wire round-trip
// latency percentiles and sustained QPS — and how the serving-side caches
// change them end-to-end:
//
//   cold: every connection authorizes its own fresh capability and runs
//         one search — full pairing scans, verdict-cache misses.
//   hot:  the same sessions repeat their searches — digest-keyed prepared
//         queries and per-segment verdict hits collapse the scan cost, so
//         the wire + framing overhead dominates.
//
// Closed-loop rows sweep connection counts (each connection issues its
// next request as soon as the previous response lands); one open-loop row
// schedules arrivals at a fixed rate against c=4 connections and reports
// queueing-inclusive latency. A final overload row (tiny engine admission
// budget + slowed scan + tight deadlines) checks that shed and expired
// requests surface as *distinct* wire statuses — kOverloaded vs
// kDeadlineExceeded — rather than a generic failure.
//
// JSON artifact (BENCH_serving.json): one row per (conns, mode) with
// p50/p99 latency (ms) and QPS, plus the overload status counts.
#include <unistd.h>

#include <algorithm>
#include <atomic>
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
#include "common/failpoint.h"
#include "core/apks_backend.h"
#include "net/client.h"
#include "net/server.h"
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
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t deadline = 0;
  std::uint64_t other = 0;

  void finish() { std::sort(latencies_ms.begin(), latencies_ms.end()); }
  [[nodiscard]] double qps() const {
    return wall_s > 0 ? static_cast<double>(latencies_ms.size()) / wall_s : 0;
  }
};

void count_status(LoadStats& stats, net::WireStatus status) {
  switch (status) {
    case net::WireStatus::kOk: ++stats.ok; break;
    case net::WireStatus::kOverloaded: ++stats.overloaded; break;
    case net::WireStatus::kDeadlineExceeded: ++stats.deadline; break;
    default: ++stats.other; break;
  }
}

// One closed-loop pass: `conns` connections, each authorized for its own
// capability, each issuing `iters` back-to-back searches.
LoadStats closed_loop(const ApksBackend& backend, std::uint16_t port,
                      std::span<const Capability> caps, std::size_t conns,
                      std::size_t iters, std::uint64_t deadline_ms = 0) {
  LoadStats total;
  std::mutex merge_mutex;
  std::vector<std::thread> threads;
  Timer wall;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      LoadStats local;
      net::NetClient client;
      client.connect("127.0.0.1", port, /*timeout_ms=*/30000);
      (void)client.hello(SchemeKind::kApks);
      const Capability& cap = caps[c % caps.size()];
      (void)client.auth_unchecked(backend.encode_query(
          AnyQuery::ref(SchemeKind::kApks, &cap)));
      for (std::size_t i = 0; i < iters; ++i) {
        Timer t;
        const net::RemoteResult r =
            client.search(deadline_ms, /*partial_ok=*/true);
        local.latencies_ms.push_back(t.seconds() * 1e3);
        count_status(local, r.status);
      }
      const std::lock_guard<std::mutex> lock(merge_mutex);
      total.latencies_ms.insert(total.latencies_ms.end(),
                                local.latencies_ms.begin(),
                                local.latencies_ms.end());
      total.ok += local.ok;
      total.overloaded += local.overloaded;
      total.deadline += local.deadline;
      total.other += local.other;
    });
  }
  for (auto& t : threads) t.join();
  total.wall_s = wall.seconds();
  total.finish();
  return total;
}

// One open-loop pass: arrivals scheduled at `rate_qps` spread over `conns`
// connections; latency is measured from the *scheduled* arrival, so
// queueing delay counts (the closed-loop blind spot).
LoadStats open_loop(const ApksBackend& backend, std::uint16_t port,
                    const Capability& cap, std::size_t conns,
                    std::size_t total_requests, double rate_qps) {
  LoadStats total;
  std::mutex merge_mutex;
  std::vector<std::thread> threads;
  const double interval_s =
      static_cast<double>(conns) / std::max(rate_qps, 1e-9);
  Timer wall;
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      LoadStats local;
      net::NetClient client;
      client.connect("127.0.0.1", port, /*timeout_ms=*/30000);
      (void)client.hello(SchemeKind::kApks);
      (void)client.auth_unchecked(backend.encode_query(
          AnyQuery::ref(SchemeKind::kApks, &cap)));
      const std::size_t n = total_requests / conns;
      for (std::size_t i = 0; i < n; ++i) {
        // This connection's i-th arrival, interleaved across connections.
        const auto scheduled =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(
                         interval_s * (static_cast<double>(i) +
                                       static_cast<double>(c) /
                                           static_cast<double>(conns))));
        std::this_thread::sleep_until(scheduled);  // late => send immediately
        const net::RemoteResult r = client.search(0, /*partial_ok=*/true);
        local.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
                .count());
        count_status(local, r.status);
      }
      const std::lock_guard<std::mutex> lock(merge_mutex);
      total.latencies_ms.insert(total.latencies_ms.end(),
                                local.latencies_ms.begin(),
                                local.latencies_ms.end());
      total.ok += local.ok;
      total.overloaded += local.overloaded;
      total.deadline += local.deadline;
      total.other += local.other;
    });
  }
  for (auto& t : threads) t.join();
  total.wall_s = wall.seconds();
  total.finish();
  return total;
}

void print_row(const char* mode, std::size_t conns, const LoadStats& s) {
  std::printf(
      "  %-8s conns=%2zu  reqs=%4zu  qps=%8.1f  p50=%7.2f ms  p99=%7.2f ms"
      "  ok=%" PRIu64 " shed=%" PRIu64 " deadline=%" PRIu64 "\n",
      mode, conns, s.latencies_ms.size(), s.qps(),
      percentile(s.latencies_ms, 0.50), percentile(s.latencies_ms, 0.99),
      s.ok, s.overloaded, s.deadline);
}

void add_row(JsonReport& report, const char* mode, std::size_t conns,
             const LoadStats& s, const SearchEngine& engine) {
  const LruStats vs = engine.verdict_cache() != nullptr
                          ? engine.verdict_cache()->stats()
                          : LruStats{};
  report.add_row({{"mode", mode},
                  {"conns", conns},
                  {"requests", s.latencies_ms.size()},
                  {"qps", s.qps()},
                  {"p50_ms", percentile(s.latencies_ms, 0.50)},
                  {"p99_ms", percentile(s.latencies_ms, 0.99)},
                  {"ok", static_cast<std::size_t>(s.ok)},
                  {"overloaded", static_cast<std::size_t>(s.overloaded)},
                  {"deadline_exceeded", static_cast<std::size_t>(s.deadline)},
                  {"verdict_hits", static_cast<std::size_t>(vs.hits)},
                  {"prepared_hits", engine.cache_hits()}});
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv, "BENCH_serving.json");
  const std::size_t kRecords = args.smoke ? 12 : 48;
  const std::size_t kHotIters = args.smoke ? 4 : 16;
  const std::vector<std::size_t> kConnCounts =
      args.smoke ? std::vector<std::size_t>{1, 4}
                 : std::vector<std::size_t>{1, 4, 16};
  const std::size_t kMaxConns =
      *std::max_element(kConnCounts.begin(), kConnCounts.end());

  const Pairing pairing(default_type_a_params());
  ChaChaRng rng("bench-serving");
  const Apks scheme(pairing, nursery_schema(1));
  ApksPublicKey pk;
  ApksMasterKey msk;
  scheme.setup(rng, pk, msk);
  const ApksBackend backend(scheme);

  print_header(
      "Network serving: loopback QPS + latency percentiles, hot vs cold",
      "the paper costs the scan in pairings/record; this adds the wire "
      "(framing, sessions, streaming) and the serving caches end-to-end");

  // Sealed-segment-dominated store so the verdict cache participates:
  // segment_max_bytes = 1 rotates before every append after the first.
  const std::vector<PlainIndex> rows = nursery_rows();
  const fs::path dir =
      fs::temp_directory_path() /
      ("apks-bench-serving-" + std::to_string(static_cast<unsigned>(getpid())));
  fs::remove_all(dir);
  ShardedStoreOptions store_opts;
  store_opts.shards = 2;
  store_opts.segment.segment_max_bytes = 1;
  ShardedStore store(backend, dir, store_opts);
  for (std::size_t i = 0; i < kRecords; ++i) {
    (void)store.append("doc-" + std::to_string(i),
                       scheme.gen_index(pk, rows[(i * 739) % rows.size()], rng));
  }
  store.sync();

  CloudServer server(scheme, CapabilityVerifier(pairing, IbsPublicParams{}));
  const std::size_t loaded = server.load_from(store);

  // One distinct capability per connection slot: the cold pass is all
  // verdict-cache misses, the hot pass all hits.
  std::vector<Capability> caps;
  caps.reserve(kMaxConns);
  for (std::size_t i = 0; i < kMaxConns; ++i) {
    caps.push_back(scheme.gen_cap(msk, nursery_worst_case_query(1, rng), rng));
  }
  std::printf("records: %zu (%zu sealed segments), capabilities: %zu\n",
              loaded, server.segment_table().size(), caps.size());

  JsonReport report("serving", args);
  report.set_meta("records", loaded);
  report.set_meta("hot_iters", kHotIters);

  // --- closed-loop sweep: cold then hot per connection count ---------------
  for (const std::size_t conns : kConnCounts) {
    // Fresh engine + server per row: each cold pass really is cold.
    SearchEngine engine(server, {.threads = 2,
                                 .verdict_cache_bytes = 4u << 20});
    net::NetServerOptions opts;
    opts.allow_unchecked = true;
    opts.io_threads = 2;
    opts.worker_threads = std::max<std::size_t>(2, conns / 2);
    net::NetServer net_server(engine, opts);

    const LoadStats cold =
        closed_loop(backend, net_server.port(), caps, conns, 1);
    print_row("cold", conns, cold);
    add_row(report, "cold", conns, cold, engine);

    const LoadStats hot =
        closed_loop(backend, net_server.port(), caps, conns, kHotIters);
    print_row("hot", conns, hot);
    add_row(report, "hot", conns, hot, engine);
  }

  // --- open-loop row: fixed arrival rate, queueing-inclusive latency -------
  {
    SearchEngine engine(server, {.threads = 2,
                                 .verdict_cache_bytes = 4u << 20});
    net::NetServerOptions opts;
    opts.allow_unchecked = true;
    net::NetServer net_server(engine, opts);
    // Warm the hot path once, then offer a fixed rate.
    const LoadStats warm =
        closed_loop(backend, net_server.port(), caps, 1, 1);
    const double rate = std::max(10.0, warm.qps() * 2.0);
    const std::size_t open_requests = args.smoke ? 16 : 64;
    const LoadStats open = open_loop(backend, net_server.port(), caps[0],
                                     /*conns=*/4, open_requests, rate);
    std::printf("  open-loop offered rate: %.1f qps\n", rate);
    print_row("open", 4, open);
    add_row(report, "open", 4, open, engine);
  }

  // --- overload row: shed vs deadline as distinct wire statuses ------------
  {
    SearchEngine engine(server, {.threads = 1,
                                 .block_records = 1,
                                 .max_inflight = 1});
    net::NetServerOptions opts;
    opts.allow_unchecked = true;
    opts.worker_threads = 4;
    net::NetServer net_server(engine, opts);

    FailpointPolicy slow;
    slow.action = FailAction::kDelay;
    slow.delay_ms = 10;
    Failpoints::instance().set("engine.scan_block", slow);
    const LoadStats overload =
        closed_loop(backend, net_server.port(), caps, /*conns=*/4,
                    args.smoke ? 4 : 8, /*deadline_ms=*/25);
    Failpoints::instance().clear_all();

    print_row("overload", 4, overload);
    add_row(report, "overload", 4, overload, engine);
    if (overload.overloaded == 0 || overload.deadline == 0) {
      std::printf(
          "  note: expected both kOverloaded (%" PRIu64
          ") and kDeadlineExceeded (%" PRIu64 ") under overload\n",
          overload.overloaded, overload.deadline);
    }
  }

  if (args.json) (void)report.write(args.json_path);
  fs::remove_all(dir);
  return 0;
}
