// Fault-injection bench: what resilience costs, and what degradation
// delivers, in numbers (DESIGN.md §5e).
//
// Three layers, one seeded fault schedule each, publishing the fault
// counters as BENCH_faults.json:
//
//   proxy   — APKS+ ingest through the ResilientProxyPipeline: fault-free
//             throughput vs failover (one replica dead) vs park+drain
//             (every replica of one share dead, then recovered). The
//             interesting number is the failover premium — it should be
//             one extra (cheap) failed attempt per upload, not a second
//             proxy_transform.
//   store   — IndexStore ingest under a seeded one-shot fault schedule
//             (injected EIO/ENOSPC/short writes across the syscall shim),
//             counting crashes, recoveries and recovered records; ingest
//             and recovery wall time show what the crash/recover cycle
//             costs relative to clean appends.
//   serving — SearchEngine batches under a per-block stall with a tight
//             deadline, a generous deadline, and admission pressure;
//             EngineCounters (served / shed / deadline_exceeded) plus scan
//             coverage show the degradation modes actually engaging.
//
// The schedule is deterministic (fixed failpoint seeds, op-count breaker
// cooldowns), so two runs on the same machine publish identical counters —
// only the timings move.
#include <atomic>
#include <cerrno>
#include <filesystem>
#include <memory>
#include <thread>
#include <unistd.h>

#include "bench/bench_util.h"
#include "cloud/proxy_pool.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "common/failpoint.h"
#include "core/apks_backend.h"
#include "core/apks_plus.h"
#include "store/fs.h"
#include "store/index_store.h"

using namespace apks;
using namespace apks::bench;

namespace {

namespace fs = std::filesystem;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Timer {
  Clock::time_point start = Clock::now();
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }
};

void arm_throw(const char* site) {
  FailpointPolicy dead;
  dead.action = FailAction::kThrow;
  Failpoints::instance().set(site, dead);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv, "BENCH_faults.json");
  const std::size_t kUploads = args.smoke ? 4 : 16;
  const int kStoreOps = args.smoke ? 60 : 400;

  JsonReport report("bench_faults", args);
  report.set_meta("uploads", kUploads);
  report.set_meta("store_ops", kStoreOps);

  // --- Proxy layer -----------------------------------------------------------
  print_header("Fault injection: resilient proxy chain",
               "Section V proxies made fault-tolerant; failover must not "
               "re-run the pairing-heavy transform chain");

  const Pairing e(default_type_a_params());
  const ApksPlus plus(e, nursery_schema(1));
  ChaChaRng rng("bench-faults");
  const ApksPlusSetupResult setup = plus.setup_plus(rng);
  const std::vector<Fq> shares = plus.split_secret(setup.r, 3, rng);
  const std::vector<PlainIndex> rows = nursery_rows();
  std::vector<EncryptedIndex> partials;
  for (std::size_t i = 0; i < kUploads; ++i) {
    partials.push_back(
        plus.partial_gen_index(setup.pk, rows[(i * 739) % rows.size()], rng));
  }

  ProxyPoolOptions pool_opts;
  pool_opts.replicas = 2;
  pool_opts.breaker_threshold = 0;  // measure raw failover, not skip-cost
  const auto run_pool = [&](const char* mode) {
    ResilientProxyPipeline pool(plus, shares, pool_opts);
    Timer t;
    std::size_t completed = 0;
    for (std::size_t i = 0; i < partials.size(); ++i) {
      if (pool.process(partials[i], "u" + std::to_string(i)).has_value()) {
        ++completed;
      }
    }
    const double wall = t.seconds();
    const ProxyPoolStats s = pool.stats();
    std::printf(
        "%-14s %7.1f ms/upload   transformed %zu  parked %zu  retries %zu  "
        "failovers %zu\n",
        mode, wall / static_cast<double>(partials.size()) * 1e3,
        s.transformed, s.parked, s.retries, s.failovers);
    report.add_row({{"section", "proxy"},
                    {"mode", mode},
                    {"s_per_upload", wall / static_cast<double>(
                                                partials.size())},
                    {"completed", completed},
                    {"transformed", s.transformed},
                    {"parked", s.parked},
                    {"retries", s.retries},
                    {"failovers", s.failovers}});
    return pool.parked_count();
  };

  Failpoints::instance().clear_all();
  (void)run_pool("fault-free");
  arm_throw("proxy.s1.r0");
  (void)run_pool("failover");

  // Park + drain: both replicas of share 1 dead during ingest, recovered
  // before the drain.
  {
    ProxyPoolOptions park_opts = pool_opts;
    park_opts.parking_capacity = kUploads;
    ResilientProxyPipeline pool(plus, shares, park_opts);
    arm_throw("proxy.s1.r0");
    arm_throw("proxy.s1.r1");
    Timer t_ingest;
    for (std::size_t i = 0; i < partials.size(); ++i) {
      (void)pool.process(partials[i], "u" + std::to_string(i));
    }
    const double ingest_wall = t_ingest.seconds();
    Failpoints::instance().clear_all();
    Timer t_drain;
    const std::size_t drained =
        pool.drain([](const std::string&, EncryptedIndex) {});
    const double drain_wall = t_drain.seconds();
    const ProxyPoolStats s = pool.stats();
    std::printf(
        "park+drain     %7.1f ms park, %7.1f ms drain   parked %zu  drained "
        "%zu  lost %zu\n",
        ingest_wall * 1e3, drain_wall * 1e3, s.parked, drained,
        s.parked - drained);
    report.add_row({{"section", "proxy"},
                    {"mode", "park-drain"},
                    {"s_park", ingest_wall},
                    {"s_drain", drain_wall},
                    {"parked", s.parked},
                    {"drained", drained},
                    {"lost", s.parked - drained}});
  }

  // --- Store layer -----------------------------------------------------------
  print_header("Fault injection: store crash/recover cycle",
               "segment+manifest machinery under injected EIO/ENOSPC/short "
               "writes; acknowledged records must all survive");

  const fs::path dir =
      fs::temp_directory_path() /
      ("apks-bench-faults-" + std::to_string(static_cast<unsigned>(getpid())));
  fs::remove_all(dir);
  {
    IndexStoreOptions store_opts;
    store_opts.segment_max_bytes = 4096;
    auto store = std::make_unique<IndexStore>(dir, 0, store_opts);
    std::uint64_t srng = 0x5eed;
    const char* sites[] = {storefs::kSiteWrite, storefs::kSiteFlush,
                           storefs::kSiteFsync, storefs::kSiteRename,
                           storefs::kSiteDirsync};
    std::vector<std::uint8_t> payload(96, 0xab);
    std::size_t acked = 0;
    std::size_t faults_armed = 0;
    std::size_t crashes = 0;
    double recovery_s = 0;
    Timer t_total;
    for (int op = 0; op < kStoreOps; ++op) {
      if (splitmix64(srng) % 8 == 0) {
        FailpointPolicy p;
        p.max_hits = 1;
        p.action = FailAction::kError;
        p.error_code = splitmix64(srng) % 2 == 0 ? EIO : ENOSPC;
        Failpoints::instance().set(sites[splitmix64(srng) % 5], p);
        ++faults_armed;
      }
      try {
        store->put(payload);
        store->sync();
        ++acked;
      } catch (const StoreError&) {
        ++crashes;
        Failpoints::instance().clear_all();
        Timer t_rec;
        store.reset();
        store = std::make_unique<IndexStore>(dir, 0, store_opts);
        recovery_s += t_rec.seconds();
        acked = store->record_count();
      }
      Failpoints::instance().clear_all();
    }
    const double total_s = t_total.seconds();
    std::printf(
        "ops %d  faults armed %zu  crashes %zu  recovered records %zu  "
        "segments %zu\n",
        kStoreOps, faults_armed, crashes, store->record_count(),
        store->segment_count());
    std::printf("total %.1f ms (recovery %.1f ms, %.2f ms/crash)\n",
                total_s * 1e3, recovery_s * 1e3,
                crashes == 0 ? 0.0
                             : recovery_s * 1e3 / static_cast<double>(crashes));
    report.add_row({{"section", "store"},
                    {"ops", kStoreOps},
                    {"faults_armed", faults_armed},
                    {"crashes", crashes},
                    {"acked_records", acked},
                    {"recovered_records", store->record_count()},
                    {"segments", store->segment_count()},
                    {"s_total", total_s},
                    {"s_recovery", recovery_s}});
  }
  fs::remove_all(dir);

  // --- Serving layer ---------------------------------------------------------
  print_header("Fault injection: deadline-aware serving",
               "admission control + per-query deadlines over the Section "
               "VII linear scan");

  ApksPlusBackend backend(plus);
  TrustedAuthority ta(plus, setup.pk, setup.msk, rng);
  CapabilityVerifier verifier(e, ta.ibs_params());
  CloudServer server(backend, verifier);
  ProxyPipeline chain;
  for (const Fq& share : shares) chain.add(ProxyServer(plus, share));
  for (std::size_t i = 0; i < kUploads; ++i) {
    (void)server.store(chain.process(partials[i]), "u" + std::to_string(i));
  }
  std::vector<Capability> caps;
  caps.push_back(
      plus.gen_cap(setup.msk, nursery_point_query(rows[739 % rows.size()]),
                   rng));

  SearchEngine::Options eng_opts;
  eng_opts.threads = 1;
  eng_opts.block_records = 1;
  SearchEngine engine(server, eng_opts);

  // Stall every block so the deadline modes are forced deterministically.
  FailpointPolicy slow;
  slow.action = FailAction::kDelay;
  slow.delay_ms = args.smoke ? 5 : 10;
  Failpoints::instance().set("engine.scan_block", slow);

  const auto serve = [&](const char* mode, std::uint64_t deadline_ms,
                         bool partial_ok) {
    ServeControl ctl;
    ctl.deadline_ms = deadline_ms;
    ctl.partial_ok = partial_ok;
    BatchMetrics bm;
    Timer t;
    std::size_t results = 0;
    bool deadline_hit = false;
    try {
      results = engine.search_batch_unchecked(caps, &bm, ctl)[0].size();
      deadline_hit = bm.deadline_exceeded;
    } catch (const DeadlineExceeded&) {
      deadline_hit = true;
    }
    std::printf("%-18s %7.1f ms  scanned %zu/%zu  results %zu  %s\n", mode,
                t.seconds() * 1e3, bm.per_query[0].scanned, kUploads, results,
                deadline_hit ? "deadline" : "completed");
    report.add_row({{"section", "serving"},
                    {"mode", mode},
                    {"deadline_ms", deadline_ms},
                    {"s_wall", t.seconds()},
                    {"scanned", bm.per_query[0].scanned},
                    {"records", kUploads},
                    {"results", results},
                    {"deadline_exceeded", deadline_hit ? 1 : 0}});
  };
  serve("no-deadline", 0, false);
  serve("generous", 60000, false);
  serve("tight-throw", slow.delay_ms * 2, false);
  serve("tight-partial", slow.delay_ms * 2, true);

  // Admission: one slot, a second batch arrives while the first is mid-scan.
  Failpoints::instance().clear_all();
  Failpoints::instance().set("engine.scan_block", slow);
  SearchEngine::Options strict_opts = eng_opts;
  strict_opts.max_inflight = 1;
  SearchEngine gated(server, strict_opts);
  std::atomic<bool> bg_done{false};
  std::thread bg([&] {
    (void)gated.search_batch_unchecked(caps);
    bg_done.store(true);
  });
  while (gated.inflight() == 0 && !bg_done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::size_t shed_seen = 0;
  try {
    (void)gated.search_batch_unchecked(caps);
  } catch (const Overloaded&) {
    shed_seen = 1;
  }
  bg.join();
  Failpoints::instance().clear_all();

  const EngineCounters ec = engine.counters();
  const EngineCounters gc = gated.counters();
  std::printf(
      "engine counters: served %llu  deadline_exceeded %llu  shed (gated "
      "engine) %llu\n",
      static_cast<unsigned long long>(ec.served),
      static_cast<unsigned long long>(ec.deadline_exceeded),
      static_cast<unsigned long long>(gc.shed));
  report.add_row({{"section", "serving"},
                  {"mode", "counters"},
                  {"served", static_cast<std::size_t>(ec.served)},
                  {"deadline_exceeded",
                   static_cast<std::size_t>(ec.deadline_exceeded)},
                  {"cancelled", static_cast<std::size_t>(ec.cancelled)},
                  {"shed", static_cast<std::size_t>(gc.shed)},
                  {"shed_observed", shed_seen}});

  if (args.json) {
    if (!report.write(args.json_path)) return 1;
  }
  return 0;
}
