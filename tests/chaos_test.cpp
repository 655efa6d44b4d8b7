// Chaos suite: randomized, seeded fault schedules driven through the
// failpoint framework (common/failpoint.h).
//
//  - Store chaos: 100 seeded schedules of injected EIO/ENOSPC/short-write
//    faults over ingest -> crash -> recover cycles of an IndexStore,
//    asserting after every recovery that no acknowledged record is lost,
//    none is invented, and bytes/order match what a fault-free twin holds.
//  - Proxy chaos: APKS+ uploads through the ResilientProxyPipeline with
//    replicas killed mid-run — failover keeps transformed ciphertexts
//    byte-identical to the fault-free chain, parked uploads drain after
//    recovery with zero loss and byte-identical post-recovery search,
//    the strict path refunds budgets and throws typed errors, and the
//    per-replica circuit breaker opens/probes/closes.
//  - Serving chaos: per-query deadlines and cancellation stop the scan at
//    block boundaries (typed errors, partial-result mode) and admission
//    control sheds batches beyond max_inflight with Overloaded.
//  - Network chaos: torn frames, mid-search client disconnects, slow
//    clients and injected accept/read/write faults against a live
//    NetServer — a dying client must never leak an inflight slot or
//    poison the engine for the sessions that follow.
//
// Every schedule is deterministic: faults fire from seeded splitmix64
// streams and breaker cooldowns are measured in pipeline operations, so a
// failing seed replays exactly.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string_view>
#include <thread>

#include "cloud/proxy.h"
#include "cloud/proxy_pool.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "common/failpoint.h"
#include "core/apks_backend.h"
#include "core/apks_plus.h"
#include "core/serialize_apks.h"
#include "data/nursery.h"
#include "data/workload.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "store/fs.h"
#include "store/index_store.h"
#include "store/sharded_store.h"
#include "test_dir.h"

namespace apks {
namespace {

namespace fs = std::filesystem;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Failpoints are process-global: every chaos test starts and ends clean.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::instance().clear_all(); }
  void TearDown() override { Failpoints::instance().clear_all(); }

  TestDir dir_{"chaos"};
};

// --- Store chaos ------------------------------------------------------------

std::vector<std::uint8_t> random_payload(std::uint64_t& rng) {
  std::vector<std::uint8_t> payload(8 + splitmix64(rng) % 64);
  for (auto& b : payload) b = static_cast<std::uint8_t>(splitmix64(rng));
  return payload;
}

std::vector<std::vector<std::uint8_t>> all_records(IndexStore& store) {
  std::vector<std::vector<std::uint8_t>> got;
  store.for_each([&](std::span<const std::uint8_t> payload) {
    got.emplace_back(payload.begin(), payload.end());
  });
  return got;
}

// One hundred seeded ingest -> fault -> crash -> recover schedules. The
// invariant after every recovery: the store holds every acknowledged
// record, in order, byte-identical — plus at most the one record that was
// in flight when the fault hit (its commit raced the fault; either way the
// recovered frame chain is intact).
TEST_F(ChaosTest, HundredSeededStoreFaultSchedules) {
  constexpr int kSeeds = 100;
  constexpr int kOpsPerSeed = 30;
  const std::array<std::string_view, 5> sites = {
      storefs::kSiteWrite, storefs::kSiteFlush, storefs::kSiteFsync,
      storefs::kSiteRename, storefs::kSiteDirsync};

  IndexStoreOptions opts;
  opts.segment_max_bytes = 256;  // rotate often: manifests in the blast zone

  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const fs::path d = dir_.path() / ("seed-" + std::to_string(seed));
    std::uint64_t rng =
        static_cast<std::uint64_t>(seed) * std::uint64_t{0x9e3779b9} + 1;

    std::vector<std::vector<std::uint8_t>> acked;  // fault-free twin content
    auto store = std::make_unique<IndexStore>(d, /*shard_id=*/0, opts);

    for (int op = 0; op < kOpsPerSeed; ++op) {
      const std::vector<std::uint8_t> payload = random_payload(rng);
      if (splitmix64(rng) % 3 == 0) {
        // Arm a one-shot fault somewhere in the store's syscall surface.
        FailpointPolicy p;
        p.max_hits = 1;
        const std::string_view site = sites[splitmix64(rng) % sites.size()];
        if (site == storefs::kSiteWrite && splitmix64(rng) % 2 == 0) {
          p.action = FailAction::kShortWrite;
          p.short_bytes = splitmix64(rng) % (payload.size() + 8);
        } else {
          p.action = FailAction::kError;
          p.error_code = splitmix64(rng) % 2 == 0 ? EIO : ENOSPC;
        }
        Failpoints::instance().set(site, p);
      }

      try {
        store->put(payload);
        store->sync();
        acked.push_back(payload);
      } catch (const StoreError&) {
        // The writer is poisoned mid-frame: hard-crash it (the destructor
        // abandons, no graceful close) and run recovery, exactly as a
        // restarted process would.
        Failpoints::instance().clear_all();
        store.reset();
        store = std::make_unique<IndexStore>(d, /*shard_id=*/0, opts);
        const auto got = all_records(*store);
        ASSERT_GE(got.size(), acked.size()) << "acknowledged record lost";
        ASSERT_LE(got.size(), acked.size() + 1) << "record invented";
        for (std::size_t i = 0; i < acked.size(); ++i) {
          ASSERT_EQ(got[i], acked[i]) << "record " << i << " bytes differ";
        }
        // The in-flight record's fate resolved at recovery: whatever the
        // store committed is what a restarted server serves from now on.
        acked = got;
      }
      Failpoints::instance().clear_all();
    }

    // Final restart with no faults: byte-identical to the twin.
    store.reset();
    store = std::make_unique<IndexStore>(d, /*shard_id=*/0, opts);
    EXPECT_EQ(all_records(*store), acked);
    EXPECT_EQ(store->record_count(), acked.size());
  }
}

// --- APKS+ proxy chaos ------------------------------------------------------

// The pairing/scheme setup and the owner-side partial ciphertexts are
// expensive; build them once and share them across the proxy and serving
// chaos tests (all of which treat them as read-mostly inputs).
struct PlusEnv {
  Pairing e;
  ApksPlus plus;
  ChaChaRng rng;
  ApksPlusSetupResult setup;
  TrustedAuthority ta;
  CapabilityVerifier verifier;
  std::vector<Fq> shares;                // r = shares[0]*shares[1]*shares[2]
  std::vector<EncryptedIndex> partials;  // owner uploads (pre-proxy)
  std::vector<std::string> refs;
  std::vector<EncryptedIndex> expected;  // fault-free fully transformed
  std::vector<std::vector<std::uint8_t>> expected_bytes;

  PlusEnv()
      : e(default_type_a_params()),
        plus(e, nursery_schema(1)),
        rng("chaos-plus"),
        setup(plus.setup_plus(rng)),
        ta(plus, setup.pk, setup.msk, rng),
        verifier(e, ta.ibs_params()) {
    verifier.register_authority("TA");
    shares = plus.split_secret(setup.r, 3, rng);
    const std::vector<PlainIndex> rows = nursery_rows();
    ProxyPipeline reference;
    for (const Fq& share : shares) reference.add(ProxyServer(plus, share));
    for (std::size_t i = 0; i < 4; ++i) {
      partials.push_back(plus.partial_gen_index(
          setup.pk, rows[(i * 1201) % rows.size()], rng));
      refs.push_back("row-" + std::to_string(i));
      expected.push_back(reference.process(partials[i]));
      expected_bytes.push_back(serialize_index(e, expected.back()));
    }
  }

  [[nodiscard]] const PlainIndex& target_row() const {
    static const std::vector<PlainIndex> rows = nursery_rows();
    return rows[1201 % rows.size()];  // the row behind partials[1]
  }
};

PlusEnv& plus_env() {
  static PlusEnv* env = new PlusEnv();
  return *env;
}

// A dead replica is invisible to uploads: the pool fails over to the
// share's live replica, and the output bytes are identical to the
// fault-free chain (shares commute; each replica holds the same r_i).
TEST_F(ChaosTest, ProxyFailoverKeepsTransformBytesIdentical) {
  PlusEnv& env = plus_env();
  ProxyPoolOptions opts;
  opts.replicas = 2;
  opts.breaker_threshold = 0;  // keep retrying the dead replica every op
  ResilientProxyPipeline pool(env.plus, env.shares, opts);

  FailpointPolicy dead;
  dead.action = FailAction::kThrow;
  Failpoints::instance().set("proxy.s1.r0", dead);  // kill share 1, replica 0

  for (std::size_t i = 0; i < env.partials.size(); ++i) {
    const auto out = pool.process(env.partials[i], env.refs[i]);
    ASSERT_TRUE(out.has_value()) << "upload " << i << " parked unexpectedly";
    EXPECT_EQ(serialize_index(env.e, *out), env.expected_bytes[i])
        << "upload " << i;
  }
  const ProxyPoolStats stats = pool.stats();
  EXPECT_EQ(stats.transformed, env.partials.size());
  EXPECT_EQ(stats.parked, 0u);
  EXPECT_EQ(stats.failovers, env.partials.size());  // s1.r0 -> s1.r1 each op
  EXPECT_EQ(stats.retries, env.partials.size());
}

// With every replica of one share dead, uploads park (progress on the
// other shares retained — shares commute) and drain after recovery. Zero
// indexes lost, and a server fed by the drained pool serves byte-identical
// results — same doc_refs, same order, same scanned/matched counts — as a
// fault-free twin.
TEST_F(ChaosTest, ParkedUploadsDrainAfterRecoveryWithZeroLoss) {
  PlusEnv& env = plus_env();
  ProxyPoolOptions opts;
  opts.replicas = 1;  // single replica: killing it takes the share down
  opts.parking_capacity = 8;
  // The repeated parking failures would trip the dead replica's breaker and
  // stagger the drain across cooldown windows; this test isolates the
  // parking semantics (the breaker has its own test below).
  opts.breaker_threshold = 0;
  ResilientProxyPipeline pool(env.plus, env.shares, opts);

  ApksPlusBackend backend(env.plus);
  CloudServer faulty(backend, env.verifier);
  CloudServer twin(backend, env.verifier);

  FailpointPolicy dead;
  dead.action = FailAction::kThrow;
  Failpoints::instance().set("proxy.s1.r0", dead);

  for (std::size_t i = 0; i < env.partials.size(); ++i) {
    const auto out = pool.process(env.partials[i], env.refs[i]);
    EXPECT_FALSE(out.has_value()) << "share 1 is down; upload must park";
  }
  EXPECT_EQ(pool.parked_count(), env.partials.size());

  // Still down: drain completes nothing and loses nothing.
  EXPECT_EQ(pool.drain([](const std::string&, EncryptedIndex) {
    FAIL() << "nothing can complete while share 1 is down";
  }),
            0u);
  EXPECT_EQ(pool.parked_count(), env.partials.size());

  // Replica recovers: every parked upload completes, in FIFO order.
  Failpoints::instance().clear_all();
  const std::size_t drained =
      pool.drain([&](const std::string& tag, EncryptedIndex transformed) {
        (void)faulty.store(std::move(transformed), tag);
      });
  EXPECT_EQ(drained, env.partials.size());
  EXPECT_EQ(pool.parked_count(), 0u);
  EXPECT_EQ(faulty.record_count(), env.partials.size());
  const ProxyPoolStats stats = pool.stats();
  EXPECT_EQ(stats.parked, env.partials.size());
  EXPECT_EQ(stats.drained, env.partials.size());
  EXPECT_EQ(stats.transformed, env.partials.size());
  EXPECT_EQ(stats.rejected, 0u);

  // Fault-free twin ingests the same uploads in the same order.
  for (std::size_t i = 0; i < env.partials.size(); ++i) {
    (void)twin.store(env.expected[i], env.refs[i]);
  }

  const SignedCapability cap =
      env.ta.issue(nursery_point_query(env.target_row()), env.rng);
  ServerMetrics faulty_stats;
  ServerMetrics twin_stats;
  const auto faulty_hits = SearchEngine(faulty).search(cap, &faulty_stats);
  const auto twin_hits = SearchEngine(twin).search(cap, &twin_stats);
  ASSERT_FALSE(twin_hits.empty());
  EXPECT_EQ(faulty_hits, twin_hits);
  EXPECT_EQ(faulty_stats.authorized, twin_stats.authorized);
  EXPECT_EQ(faulty_stats.scanned, twin_stats.scanned);
  EXPECT_EQ(faulty_stats.matched, twin_stats.matched);
}

// A park beyond the queue bound is refused with the typed error, not
// silently dropped; the uploads already parked stay safe.
TEST_F(ChaosTest, FullParkingQueueRejectsWithProxyUnavailable) {
  PlusEnv& env = plus_env();
  ProxyPoolOptions opts;
  opts.replicas = 1;
  opts.parking_capacity = 1;
  ResilientProxyPipeline pool(env.plus, env.shares, opts);

  FailpointPolicy dead;
  dead.action = FailAction::kThrow;
  Failpoints::instance().set("proxy.s0.r0", dead);

  EXPECT_FALSE(pool.process(env.partials[0], "a").has_value());
  try {
    (void)pool.process(env.partials[1], "b");
    FAIL() << "second park must overflow the capacity-1 queue";
  } catch (const ProxyUnavailable& err) {
    EXPECT_EQ(err.code(), ErrorCode::kUnavailable);
    EXPECT_EQ(err.share(), 0u);
  }
  EXPECT_EQ(pool.stats().rejected, 1u);
  EXPECT_EQ(pool.parked_count(), 1u);
}

// The strict (backend-hook) path cannot park: it must refund the shares
// already charged and throw the typed error, so a retried upload is not
// double-billed against the proxies' rate budgets.
TEST_F(ChaosTest, StrictPathRefundsBudgetsAndThrowsTyped) {
  PlusEnv& env = plus_env();
  ProxyPoolOptions opts;
  opts.replicas = 1;
  opts.rate_limit = 5;  // per replica
  ResilientProxyPipeline pool(env.plus, env.shares, opts);

  FailpointPolicy dead;
  dead.action = FailAction::kThrow;
  Failpoints::instance().set("proxy.s2.r0", dead);
  try {
    (void)pool.process_strict(env.partials[0]);
    FAIL() << "share 2 is down; strict path must throw";
  } catch (const ProxyUnavailable& err) {
    EXPECT_EQ(err.share(), 2u);
  }
  Failpoints::instance().clear_all();

  // The failed upload charged shares 0 and 1 before share 2 refused — and
  // refunded them. With a budget of 5 per replica, exactly 5 more uploads
  // fit; without the refund only 4 would.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(serialize_index(env.e, pool.process_strict(env.partials[0])),
              env.expected_bytes[0])
        << "upload " << i;
  }
  try {
    (void)pool.process_strict(env.partials[0]);
    FAIL() << "budget of 5 must be exhausted by now";
  } catch (const ProxyUnavailable& err) {
    EXPECT_EQ(err.share(), 0u);  // first share to hit its exhausted budget
  }
}

// A persistently failing replica trips its circuit breaker: it stops being
// tried during the cooldown window (measured in pipeline operations), gets
// probed half-open afterwards, and closes again once a probe succeeds.
TEST_F(ChaosTest, CircuitBreakerOpensProbesAndRecovers) {
  PlusEnv& env = plus_env();
  ProxyPoolOptions opts;
  opts.replicas = 2;
  opts.breaker_threshold = 2;
  opts.breaker_cooldown_ops = 2;
  ResilientProxyPipeline pool(env.plus, env.shares, opts);
  auto& fp = Failpoints::instance();

  FailpointPolicy dead;
  dead.action = FailAction::kThrow;
  fp.set("proxy.s0.r0", dead);

  // Ops 1-2: r0 fails twice -> consecutive failures reach the threshold.
  (void)pool.process_strict(env.partials[0]);
  (void)pool.process_strict(env.partials[0]);
  EXPECT_EQ(pool.stats().breaker_opens, 1u);
  const std::uint64_t evals_at_open = fp.evaluations("proxy.s0.r0");

  // Op 3 is inside the cooldown: the dead replica is not even tried.
  (void)pool.process_strict(env.partials[0]);
  EXPECT_EQ(fp.evaluations("proxy.s0.r0"), evals_at_open);

  // Op 4: cooldown over -> half-open probe (still dead: fails, re-opens).
  (void)pool.process_strict(env.partials[0]);
  EXPECT_EQ(fp.evaluations("proxy.s0.r0"), evals_at_open + 1);
  EXPECT_GE(pool.stats().breaker_probes, 1u);

  // Replica recovers; op 5 is inside the renewed cooldown, op 6 probes
  // successfully and closes the breaker.
  fp.clear_all();
  (void)pool.process_strict(env.partials[0]);
  (void)pool.process_strict(env.partials[0]);
  for (const ProxyReplicaHealth& h : pool.health()) {
    EXPECT_FALSE(h.breaker_open)
        << "s" << h.share << ".r" << h.replica << " still open";
    if (h.share == 0 && h.replica == 0) {
      EXPECT_GE(h.successes, 1u);
    }
  }
  // Every upload came out byte-identical throughout.
  EXPECT_EQ(serialize_index(env.e, pool.process_strict(env.partials[0])),
            env.expected_bytes[0]);
}

// --- Deadline / cancellation / load-shedding chaos --------------------------

// A populated APKS+ server plus one raw capability for the engine's
// unchecked batch path.
struct ServingRig {
  explicit ServingRig(PlusEnv& env)
      : backend(env.plus), server(backend, env.verifier) {
    for (std::size_t i = 0; i < env.expected.size(); ++i) {
      (void)server.store(env.expected[i], env.refs[i]);
    }
    caps.push_back(env.plus.gen_cap(
        env.setup.msk, nursery_point_query(env.target_row()), env.rng));
  }
  ApksPlusBackend backend;
  CloudServer server;
  std::vector<Capability> caps;
};

TEST_F(ChaosTest, EngineDeadlineStopsAtBlockBoundary) {
  PlusEnv& env = plus_env();
  ServingRig rig(env);
  SearchEngine engine(rig.server, {.threads = 1, .block_records = 1});

  // Fault-free reference first (also warms the prepared-query cache).
  const auto full = engine.search_batch_unchecked(rig.caps);
  ASSERT_FALSE(full[0].empty());

  // Each block stalls 30 ms; a 40 ms deadline dies mid-scan.
  FailpointPolicy slow;
  slow.action = FailAction::kDelay;
  slow.delay_ms = 30;
  Failpoints::instance().set("engine.scan_block", slow);

  ServeControl ctl;
  ctl.deadline_ms = 40;
  BatchMetrics bm;
  EXPECT_THROW((void)engine.search_batch_unchecked(rig.caps, &bm, ctl),
               DeadlineExceeded);
  EXPECT_TRUE(bm.deadline_exceeded);
  EXPECT_FALSE(bm.cancelled);
  EXPECT_LT(bm.per_query[0].scanned, rig.server.record_count());
  EXPECT_TRUE(bm.per_query[0].deadline_exceeded);

  // Degraded mode: partial results are the matches from the blocks that
  // ran — a prefix of the fault-free results (one thread scans blocks in
  // record order).
  ctl.partial_ok = true;
  BatchMetrics partial_bm;
  const auto partial = engine.search_batch_unchecked(rig.caps, &partial_bm, ctl);
  EXPECT_TRUE(partial_bm.deadline_exceeded);
  EXPECT_LT(partial_bm.per_query[0].scanned, rig.server.record_count());
  ASSERT_LE(partial[0].size(), full[0].size());
  for (std::size_t i = 0; i < partial[0].size(); ++i) {
    EXPECT_EQ(partial[0][i], full[0][i]);
  }

  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.deadline_exceeded, 2u);
  EXPECT_EQ(counters.served, 1u);  // only the fault-free reference batch
}

TEST_F(ChaosTest, EngineCancellationTokenStopsScan) {
  PlusEnv& env = plus_env();
  ServingRig rig(env);
  SearchEngine engine(rig.server, {.threads = 1, .block_records = 1});

  std::atomic<bool> cancel{true};  // already cancelled at admission
  ServeControl ctl;
  ctl.cancel = &cancel;
  BatchMetrics bm;
  try {
    (void)engine.search_batch_unchecked(rig.caps, &bm, ctl);
    FAIL() << "cancelled batch must throw";
  } catch (const ServingError& err) {
    EXPECT_EQ(err.code(), ErrorCode::kCancelled);
  }
  EXPECT_TRUE(bm.cancelled);
  EXPECT_EQ(bm.per_query[0].scanned, 0u);
  EXPECT_EQ(engine.counters().cancelled, 1u);

  // Partial mode returns the (empty) prefix instead of throwing.
  ctl.partial_ok = true;
  const auto partial = engine.search_batch_unchecked(rig.caps, nullptr, ctl);
  EXPECT_TRUE(partial[0].empty());
  EXPECT_EQ(engine.counters().cancelled, 2u);
}

TEST_F(ChaosTest, AdmissionShedsBatchesBeyondMaxInflight) {
  PlusEnv& env = plus_env();
  ServingRig rig(env);
  SearchEngine engine(rig.server,
                      {.threads = 1, .block_records = 1, .max_inflight = 1});

  // Slow the scan down so the first batch reliably occupies the only slot.
  FailpointPolicy slow;
  slow.action = FailAction::kDelay;
  slow.delay_ms = 40;
  Failpoints::instance().set("engine.scan_block", slow);

  std::thread bg([&] {
    const auto hits = engine.search_batch_unchecked(rig.caps);
    EXPECT_FALSE(hits[0].empty());
  });
  // Wait (bounded) until the background batch is admitted.
  for (int spin = 0; spin < 2000 && engine.inflight() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(engine.inflight(), 1u) << "background batch never started";

  try {
    (void)engine.search_batch_unchecked(rig.caps);
    FAIL() << "second concurrent batch must be shed";
  } catch (const Overloaded& err) {
    EXPECT_EQ(err.code(), ErrorCode::kOverloaded);
  }
  bg.join();

  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.shed, 1u);
  EXPECT_EQ(counters.served, 1u);
  EXPECT_EQ(engine.inflight(), 0u);
}

// The shard-parallel disk scan honours the same ServeControl contract as
// the in-memory paths: a cancel token or deadline stops the workers at the
// next per-record poll — mid-shard, not after streaming every segment —
// with the typed error and the partial progress in the stats.
TEST_F(ChaosTest, StoreScanCancellationStopsMidShard) {
  PlusEnv& env = plus_env();
  ApksPlusBackend backend(env.plus);
  ShardedStoreOptions sopts;
  sopts.shards = 2;
  ShardedStore store(backend, dir_.path(), sopts);
  for (std::size_t i = 0; i < env.expected.size(); ++i) {
    (void)store.append_any(env.refs[i],
                           AnyIndex::own(SchemeKind::kApksPlus,
                                         env.expected[i]));
  }
  store.sync();
  const Capability cap = env.plus.gen_cap(
      env.setup.msk, nursery_point_query(env.target_row()), env.rng);
  const AnyQuery query = AnyQuery::ref(SchemeKind::kApksPlus, &cap);

  // Fault-free reference: the whole store is scanned.
  StoreScanStats full_stats;
  const auto full = store.search_any(query, 2, &full_stats);
  ASSERT_EQ(full_stats.scanned, env.expected.size());
  ASSERT_FALSE(full.empty());

  // A pre-cancelled token stops the workers before the scan makes any
  // progress; the typed error carries the cancellation code.
  std::atomic<bool> cancel{true};
  ServeControl ctl;
  ctl.cancel = &cancel;
  StoreScanStats cancel_stats;
  try {
    (void)store.search_any(query, 2, &cancel_stats, ctl);
    FAIL() << "cancelled store scan must throw";
  } catch (const ServingError& err) {
    EXPECT_EQ(err.code(), ErrorCode::kCancelled);
  }
  EXPECT_TRUE(cancel_stats.cancelled);
  EXPECT_FALSE(cancel_stats.deadline_exceeded);
  EXPECT_LT(cancel_stats.scanned, full_stats.scanned);

  // Partial mode returns the prefix each worker reached instead.
  ctl.partial_ok = true;
  StoreScanStats partial_stats;
  const auto partial = store.search_any(query, 2, &partial_stats, ctl);
  EXPECT_TRUE(partial_stats.cancelled);
  EXPECT_LE(partial.size(), full.size());

  // Deadline mid-shard: stall every record decode; the scan gets through
  // some records but dies at a per-record poll well before the end —
  // proving the workers poll inside a shard's stream, not between shards.
  FailpointPolicy slow;
  slow.action = FailAction::kDelay;
  slow.delay_ms = 30;
  Failpoints::instance().set("store.scan_record", slow);
  ServeControl tight;
  tight.deadline_ms = 45;
  tight.partial_ok = true;
  StoreScanStats deadline_stats;
  (void)store.search_any(query, 1, &deadline_stats, tight);
  EXPECT_TRUE(deadline_stats.deadline_exceeded);
  EXPECT_FALSE(deadline_stats.cancelled);
  EXPECT_GT(deadline_stats.scanned, 0u);
  EXPECT_LT(deadline_stats.scanned, full_stats.scanned);
}

TEST_F(ChaosTest, CloudServerDeadlineAndCancellationThrowTyped) {
  PlusEnv& env = plus_env();
  ServingRig rig(env);
  const SignedCapability cap =
      env.ta.issue(nursery_point_query(env.target_row()), env.rng);

  // One worker, one record per block: the scan stops at a known boundary.
  const SearchEngine engine(rig.server, {.threads = 1, .block_records = 1});

  // Fault-free: a search with a generous deadline is byte-identical to one
  // with none.
  ServerMetrics plain_stats;
  const auto plain = engine.search(cap, &plain_stats);
  ServeControl relaxed;
  relaxed.deadline_ms = 60000;
  ServerMetrics relaxed_stats;
  EXPECT_EQ(engine.search(cap, &relaxed_stats, relaxed), plain);
  EXPECT_EQ(relaxed_stats.scanned, plain_stats.scanned);
  EXPECT_EQ(relaxed_stats.matched, plain_stats.matched);

  // Stall the scan; a tight deadline dies at a block boundary with the
  // typed error and the progress-so-far in the metrics.
  FailpointPolicy slow;
  slow.action = FailAction::kDelay;
  slow.delay_ms = 50;
  Failpoints::instance().set("engine.scan_block", slow);
  ServeControl tight;
  tight.deadline_ms = 25;
  ServerMetrics stats;
  EXPECT_THROW((void)engine.search(cap, &stats, tight), DeadlineExceeded);
  EXPECT_TRUE(stats.authorized);
  EXPECT_TRUE(stats.deadline_exceeded);
  EXPECT_LT(stats.scanned, rig.server.record_count());

  // Cancellation routes through the same boundary with its own code.
  Failpoints::instance().clear_all();
  std::atomic<bool> cancel{true};
  ServeControl cancelled;
  cancelled.cancel = &cancel;
  ServerMetrics cancel_stats;
  try {
    (void)engine.search(cap, &cancel_stats, cancelled);
    FAIL() << "cancelled search must throw";
  } catch (const ServingError& err) {
    EXPECT_EQ(err.code(), ErrorCode::kCancelled);
  }
  EXPECT_TRUE(cancel_stats.cancelled);
  EXPECT_FALSE(cancel_stats.deadline_exceeded);
}

// --- Network serving chaos ---------------------------------------------------

net::NetServerOptions net_unchecked() {
  net::NetServerOptions opts;
  opts.allow_unchecked = true;
  return opts;
}

std::vector<std::uint8_t> rig_query_bytes(const ServingRig& rig) {
  return rig.backend.encode_query(
      AnyQuery::ref(SchemeKind::kApksPlus, &rig.caps[0]));
}

// A frame-level raw client: NetClient refuses to send torn frames, a
// hostile (or dying) peer does not.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void raw_send(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

// A client that dies mid-frame: the server sees the torn tail, closes the
// connection, and keeps serving well-formed sessions bit-for-bit.
TEST_F(ChaosTest, NetTornFrameDisconnectDoesNotPoisonServer) {
  PlusEnv& env = plus_env();
  ServingRig rig(env);
  SearchEngine engine(rig.server, {.threads = 1});
  const auto full = engine.search_batch_unchecked(rig.caps);
  ASSERT_FALSE(full[0].empty());
  net::NetServer server(engine, net_unchecked());

  {
    const int fd = raw_connect(server.port());
    raw_send(fd, net::encode_frame(
                     net::HelloMsg{net::kNetVersion, SchemeKind::kApksPlus}
                         .encode()));
    net::AuthMsg auth;
    auth.mode = net::AuthMsg::Mode::kUnchecked;
    auth.query = rig_query_bytes(rig);
    const auto frame = net::encode_frame(auth.encode());
    // Half an auth frame, then a hard close: the torn tail must evaporate.
    raw_send(fd, std::span<const std::uint8_t>(frame.data(), frame.size() / 2));
    ::close(fd);
  }
  for (int spin = 0; spin < 5000 && server.open_connections() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.open_connections(), 0u);

  net::NetClient client;
  client.connect("127.0.0.1", server.port(), 10000);
  ASSERT_EQ(client.hello(SchemeKind::kApksPlus).status, net::WireStatus::kOk);
  ASSERT_EQ(client.auth_unchecked(rig_query_bytes(rig)).status,
            net::WireStatus::kOk);
  const net::RemoteResult r = client.search();
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  EXPECT_EQ(r.refs, full[0]);
  EXPECT_GE(server.stats().closed, 1u);
}

// A client that dies mid-batch: the disconnect fires the session's cancel
// token, the engine abandons the scan at a block boundary, and neither the
// engine inflight slot nor the server job slot leaks.
TEST_F(ChaosTest, NetMidSearchDisconnectFreesInflightSlot) {
  PlusEnv& env = plus_env();
  ServingRig rig(env);
  SearchEngine engine(rig.server,
                      {.threads = 1, .block_records = 1, .max_inflight = 1});
  const auto full = engine.search_batch_unchecked(rig.caps);
  net::NetServer server(engine, net_unchecked());

  FailpointPolicy slow;
  slow.action = FailAction::kDelay;
  slow.delay_ms = 30;
  Failpoints::instance().set("engine.scan_block", slow);

  const int fd = raw_connect(server.port());
  raw_send(fd, net::encode_frame(
                   net::HelloMsg{net::kNetVersion, SchemeKind::kApksPlus}
                       .encode()));
  net::AuthMsg auth;
  auth.mode = net::AuthMsg::Mode::kUnchecked;
  auth.query = rig_query_bytes(rig);
  raw_send(fd, net::encode_frame(auth.encode()));
  net::SearchMsg search;
  search.request_id = 1;
  search.partial_ok = true;
  raw_send(fd, net::encode_frame(search.encode()));

  for (int spin = 0; spin < 5000 && engine.inflight() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(engine.inflight(), 1u) << "remote search never started";
  ::close(fd);  // mid-scan disconnect

  // The cancel token stops the scan at the next block; both slots drain.
  for (int spin = 0; spin < 5000 && engine.inflight() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(engine.inflight(), 0u) << "engine inflight slot leaked";
  for (int spin = 0; spin < 5000 && server.inflight_jobs() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.inflight_jobs(), 0u) << "server job slot leaked";
  Failpoints::instance().clear_all();

  // max_inflight is 1: a leaked slot would shed this follow-up session.
  net::NetClient client;
  client.connect("127.0.0.1", server.port(), 10000);
  ASSERT_EQ(client.hello(SchemeKind::kApksPlus).status, net::WireStatus::kOk);
  ASSERT_EQ(client.auth_unchecked(rig_query_bytes(rig)).status,
            net::WireStatus::kOk);
  const net::RemoteResult r = client.search();
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  EXPECT_EQ(r.refs, full[0]);
  EXPECT_EQ(server.stats().searches_overloaded, 0u);
}

// A client that stops draining its socket while results stream: the write
// buffer cap closes it (backpressure of last resort) instead of buffering
// without bound.
TEST_F(ChaosTest, NetSlowClientClosedAtWriteBufferCap) {
  PlusEnv& env = plus_env();
  ServingRig rig(env);
  SearchEngine engine(rig.server, {.threads = 1});
  net::NetServerOptions opts = net_unchecked();
  opts.write_buffer_cap = 32;  // hello-ack fits; the auth-ack frame cannot
  net::NetServer server(engine, opts);

  net::NetClient client;
  client.connect("127.0.0.1", server.port(), 10000);
  ASSERT_EQ(client.hello(SchemeKind::kApksPlus).status, net::WireStatus::kOk);
  EXPECT_THROW((void)client.auth_unchecked(rig_query_bytes(rig)),
               ServingError);
  for (int spin = 0; spin < 5000 && server.open_connections() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.stats().slow_client_closes, 1u);
  EXPECT_EQ(server.open_connections(), 0u);
  EXPECT_FALSE(server.stopped());
}

// Injected socket faults on the accept/read/write sites: each one costs
// exactly the affected connection, never the server.
TEST_F(ChaosTest, NetSocketFailpointsCloseOnlyTheAffectedConnection) {
  PlusEnv& env = plus_env();
  ServingRig rig(env);
  SearchEngine engine(rig.server, {.threads = 1});
  const auto full = engine.search_batch_unchecked(rig.caps);
  net::NetServer server(engine, net_unchecked());

  FailpointPolicy fault;
  fault.action = FailAction::kError;
  fault.max_hits = 1;

  // accept: the connection is accepted, then refused before any frame.
  Failpoints::instance().set(net::kSiteAccept, fault);
  {
    net::NetClient client;
    client.connect("127.0.0.1", server.port(), 10000);
    EXPECT_THROW((void)client.hello(SchemeKind::kApksPlus), ServingError);
  }
  EXPECT_GE(server.stats().refused_connections, 1u);

  // read: the session dies on its first readable event.
  Failpoints::instance().set(net::kSiteRead, fault);
  {
    net::NetClient client;
    client.connect("127.0.0.1", server.port(), 10000);
    EXPECT_THROW((void)client.hello(SchemeKind::kApksPlus), ServingError);
  }

  // write: the hello is read fine; the ack write fails and closes.
  Failpoints::instance().set(net::kSiteWrite, fault);
  {
    net::NetClient client;
    client.connect("127.0.0.1", server.port(), 10000);
    EXPECT_THROW((void)client.hello(SchemeKind::kApksPlus), ServingError);
  }
  Failpoints::instance().clear_all();

  // The server itself never died: a clean session serves full results.
  net::NetClient client;
  client.connect("127.0.0.1", server.port(), 10000);
  ASSERT_EQ(client.hello(SchemeKind::kApksPlus).status, net::WireStatus::kOk);
  ASSERT_EQ(client.auth_unchecked(rig_query_bytes(rig)).status,
            net::WireStatus::kOk);
  const net::RemoteResult r = client.search();
  EXPECT_EQ(r.status, net::WireStatus::kOk);
  EXPECT_EQ(r.refs, full[0]);
}

}  // namespace
}  // namespace apks
