// Crash-recovery tests for the storage engine (run under ASan in CI's
// store stage): a writer killed mid-append leaves a torn tail that reopen
// must truncate, recovering every fully-committed record — and a
// CloudServer restarted from the recovered store must return byte-identical
// search results (same doc_refs, same order, same scanned/matched counts)
// to the in-memory server that never crashed.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "cloud/proxy.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "core/apks_backend.h"
#include "data/nursery.h"
#include "data/workload.h"
#include "store/sharded_store.h"
#include "serve.h"
#include "test_dir.h"

namespace apks {
namespace {

namespace fs = std::filesystem;

// The active (largest-seq) segment file of a shard directory.
fs::path active_segment(const fs::path& shard_dir) {
  fs::path best;
  for (const auto& entry : fs::directory_iterator(shard_dir)) {
    if (entry.path().extension() != ".apks") continue;
    if (best.empty() || entry.path().filename() > best.filename()) {
      best = entry.path();
    }
  }
  return best;
}

void append_bytes(const fs::path& file,
                  std::span<const std::uint8_t> bytes) {
  std::FILE* f = std::fopen(file.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

class StoreRecoveryTest : public ::testing::Test {
 protected:
  TestDir dir_{"recovery"};
};

// The acceptance scenario: a Nursery-workload server with write-through
// persistence crashes mid-append; the reopened store recovers all
// committed records and a server restarted from it is indistinguishable.
TEST_F(StoreRecoveryTest, TornWriteRecoveryMatchesPreCrashServer) {
  const Pairing e(default_type_a_params());
  const Apks scheme(e, nursery_schema(1));
  ChaChaRng rng("store-recovery");
  TrustedAuthority ta(scheme, rng);
  auto make_verifier = [&] {
    CapabilityVerifier v(e, ta.ibs_params());
    v.register_authority("TA");
    return v;
  };

  // Nursery workload: a spread of dataset rows, searched with signed
  // capabilities for point and worst-case queries.
  const std::vector<PlainIndex> rows = nursery_rows();
  constexpr std::size_t kRecords = 24;
  ShardedStoreOptions opts;
  opts.shards = 3;
  opts.segment.segment_max_bytes = 16 << 10;  // a few segments per shard

  CloudServer pre_crash(scheme, make_verifier());
  const ApksBackend backend(scheme);
  ShardedStore store(backend, dir_.path(), opts);
  pre_crash.attach_store(&store);
  std::vector<const PlainIndex*> stored;
  for (std::size_t i = 0; i < kRecords; ++i) {
    const PlainIndex& row = rows[(i * 541) % rows.size()];
    stored.push_back(&row);
    (void)pre_crash.store(scheme.gen_index(ta.public_key(), row, rng),
                          "row-" + std::to_string(i));
  }
  store.sync();  // all 24 records are fully committed

  std::vector<SignedCapability> caps;
  caps.push_back(ta.issue(nursery_point_query(*stored[3]), rng));
  caps.push_back(ta.issue(nursery_point_query(*stored[17]), rng));
  caps.push_back(ta.issue(nursery_worst_case_query(1, rng), rng));
  const std::vector<SignedQuery> queries =
      borrow_capabilities(pre_crash.backend(), caps);
  std::vector<std::vector<std::string>> pre_results;
  std::vector<ServerMetrics> pre_stats(caps.size());
  const SearchEngine pre_engine(pre_crash);
  for (std::size_t i = 0; i < caps.size(); ++i) {
    BatchMetrics bm;
    pre_results.push_back(
        pre_engine.search_batch_signed({&queries[i], 1}, &bm)[0]);
    pre_stats[i] = bm.per_query[0];
  }
  ASSERT_FALSE(pre_results[0].empty());  // point query hits its row

  // Crash mid-append of record 25: every shard's active segment gains a
  // torn tail — a partial frame, a bare frame header, stray garbage.
  pre_crash.attach_store(nullptr);
  const std::uint8_t partial_frame[9] = {200, 0, 0, 0,  // len = 200
                                         1,   2, 3, 4,  // bogus crc
                                         99};           // 1 of 200 bytes
  const std::uint8_t header_only[6] = {16, 0, 0, 0, 7, 7};
  const std::uint8_t garbage[3] = {0xDE, 0xAD, 0xBF};
  append_bytes(active_segment(dir_.path() / "shard-000"), partial_frame);
  append_bytes(active_segment(dir_.path() / "shard-001"), header_only);
  append_bytes(active_segment(dir_.path() / "shard-002"), garbage);

  // Reopen: recovery truncates all three tails and keeps all 24 records.
  ShardedStore recovered(backend, dir_.path(), opts);
  const RecoveryStats rec = recovered.recovery();
  EXPECT_TRUE(rec.torn_tail);
  EXPECT_EQ(rec.torn_bytes,
            sizeof(partial_frame) + sizeof(header_only) + sizeof(garbage));
  EXPECT_EQ(recovered.record_count(), kRecords);

  // A restarted server over the recovered store is byte-identical.
  CloudServer restarted(scheme, make_verifier());
  EXPECT_EQ(restarted.load_from(recovered), kRecords);
  const SearchEngine restarted_engine(restarted);
  for (std::size_t i = 0; i < caps.size(); ++i) {
    BatchMetrics bm;
    EXPECT_EQ(restarted_engine.search_batch_signed({&queries[i], 1}, &bm)[0],
              pre_results[i])
        << i;
    const ServerMetrics& stats = bm.per_query[0];
    EXPECT_EQ(stats.authorized, pre_stats[i].authorized);
    EXPECT_EQ(stats.scanned, pre_stats[i].scanned);
    EXPECT_EQ(stats.matched, pre_stats[i].matched);
  }

  // And the next upload starts where the pre-crash sequence left off.
  EXPECT_EQ(recovered.next_id(), kRecords + 1);
}

// The same acceptance scenario for APKS+ served through the backend
// interface: owner-partial indexes traverse the proxy chain at ingest, the
// *transformed* ciphertexts are persisted (the proxy transformation is
// randomized, so byte-identical restart results prove the store holds the
// transformed bytes, not re-derived ones), a crash leaves torn tails, and
// the recovered store serves byte-identical results and metrics.
TEST_F(StoreRecoveryTest, ApksPlusRestartServesIdenticalResults) {
  const Pairing e(default_type_a_params());
  const ApksPlus plus(e, nursery_schema(1));
  ChaChaRng rng("plus-recovery");
  const ApksPlusSetupResult setup = plus.setup_plus(rng);
  TrustedAuthority ta(plus, setup.pk, setup.msk, rng);
  auto make_verifier = [&] {
    CapabilityVerifier v(e, ta.ibs_params());
    v.register_authority("TA");
    return v;
  };

  ApksPlusBackend backend(plus);
  ProxyPipeline pipeline = make_proxy_pipeline(plus, setup.r, 2, rng);
  attach_ingest_pipeline(backend, pipeline);
  backend.set_ingest_canary(
      plus.gen_cap(setup.msk, make_canary_query(plus.schema()), rng));

  const std::vector<PlainIndex> rows = nursery_rows();
  constexpr std::size_t kRecords = 12;
  ShardedStoreOptions opts;
  opts.shards = 2;
  opts.segment.segment_max_bytes = 16 << 10;

  CloudServer pre_crash(backend, make_verifier());
  ShardedStore store(backend, dir_.path(), opts);
  pre_crash.attach_store(&store);
  for (std::size_t i = 0; i < kRecords; ++i) {
    const PlainIndex& row = rows[(i * 433) % rows.size()];
    (void)pre_crash.store(plus.partial_gen_index(setup.pk, row, rng),
                          "row-" + std::to_string(i));
  }
  store.sync();
  ASSERT_EQ(pipeline.size(), 2u);

  std::vector<SignedCapability> caps;
  caps.push_back(ta.issue(nursery_point_query(rows[433 % rows.size()]), rng));
  caps.push_back(
      ta.issue(nursery_point_query(rows[(7 * 433) % rows.size()]), rng));
  caps.push_back(ta.issue(nursery_worst_case_query(1, rng), rng));
  const std::vector<SignedQuery> queries =
      borrow_capabilities(pre_crash.backend(), caps);
  std::vector<std::vector<std::string>> pre_results;
  std::vector<ServerMetrics> pre_stats(caps.size());
  const SearchEngine pre_engine(pre_crash);
  for (std::size_t i = 0; i < caps.size(); ++i) {
    BatchMetrics bm;
    pre_results.push_back(
        pre_engine.search_batch_signed({&queries[i], 1}, &bm)[0]);
    pre_stats[i] = bm.per_query[0];
  }
  ASSERT_FALSE(pre_results[0].empty());  // the transformed index matches

  // Crash mid-append: torn tails on both shards.
  pre_crash.attach_store(nullptr);
  const std::uint8_t partial_frame[7] = {64, 0, 0, 0, 9, 9, 9};
  const std::uint8_t garbage[2] = {0xBA, 0xD1};
  append_bytes(active_segment(dir_.path() / "shard-000"), partial_frame);
  append_bytes(active_segment(dir_.path() / "shard-001"), garbage);

  // Reopen under the same backend: the scheme tag matches, recovery
  // truncates the tails, and the persisted-transformed records serve
  // byte-identical results without re-running the proxy chain.
  ShardedStore recovered(backend, dir_.path(), opts);
  EXPECT_EQ(recovered.scheme(), SchemeKind::kApksPlus);
  EXPECT_TRUE(recovered.recovery().torn_tail);
  EXPECT_EQ(recovered.record_count(), kRecords);

  CloudServer restarted(backend, make_verifier());
  EXPECT_EQ(restarted.load_from(recovered), kRecords);
  const SearchEngine restarted_engine(restarted);
  for (std::size_t i = 0; i < caps.size(); ++i) {
    BatchMetrics bm;
    EXPECT_EQ(restarted_engine.search_batch_signed({&queries[i], 1}, &bm)[0],
              pre_results[i])
        << i;
    const ServerMetrics& stats = bm.per_query[0];
    EXPECT_EQ(stats.authorized, pre_stats[i].authorized);
    EXPECT_EQ(stats.scanned, pre_stats[i].scanned);
    EXPECT_EQ(stats.matched, pre_stats[i].matched);
  }
}

// Verdict-cache equivalence across the events that change segment
// identities: a crash-reopen (identities survive — the cache keeps
// serving) and a compaction (identities are retired — the cache must not
// serve stale verdicts). One shared VerdictCache lives through all of it;
// at every step a cached engine must return byte-identical results to an
// uncached engine over the same server.
TEST_F(StoreRecoveryTest, VerdictCacheEquivalentAcrossCrashAndCompaction) {
  const Pairing e(default_type_a_params());
  const Apks scheme(e, nursery_schema(1));
  ChaChaRng rng("verdict-recovery");
  TrustedAuthority ta(scheme, rng);

  const std::vector<PlainIndex> rows = nursery_rows();
  constexpr std::size_t kRecords = 12;
  ShardedStoreOptions opts;
  opts.shards = 2;
  opts.segment.segment_max_bytes = 1;  // seal after every append
  const ApksBackend backend(scheme);

  {
    ShardedStore store(backend, dir_.path(), opts);
    for (std::size_t i = 0; i < kRecords; ++i) {
      const PlainIndex& row = rows[(i * 541) % rows.size()];
      (void)store.append("row-" + std::to_string(i),
                         scheme.gen_index(ta.public_key(), row, rng));
    }
    store.sync();
  }

  const std::vector<Capability> caps = {
      ta.issue(nursery_point_query(rows[541 % rows.size()]), rng).cap,
      ta.issue(nursery_worst_case_query(1, rng), rng).cap,
  };

  const auto vcache = std::make_shared<VerdictCache>(1u << 20);
  SearchEngine::Options copts;
  copts.verdict_cache = vcache;

  auto check_equivalent = [&](CloudServer& server, const char* what) {
    const SearchEngine cached(server, copts);
    const SearchEngine plain(server);
    const std::vector<AnyQuery> queries =
        borrow_capabilities(server.backend(), caps);
    const auto want = serve(plain, {.queries = queries}).refs;
    const auto got = serve(cached, {.queries = queries}).refs;
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << what << " query " << i;
    }
  };

  // Populate: first cached batch memoizes every sealed segment's verdict.
  {
    ShardedStore store(backend, dir_.path(), opts);
    CloudServer server(scheme, CapabilityVerifier(e, ta.ibs_params()));
    ASSERT_EQ(server.load_from(store), kRecords);
    ASSERT_FALSE(server.segment_table().empty());
    check_equivalent(server, "initial");
    EXPECT_GT(vcache->stats().insertions, 0u);
  }

  // Crash: torn tails on both shards, no shutdown ceremony. Sealed
  // identities are durable, so the SAME cache keeps serving the reopened
  // store — and must still match an uncached engine exactly.
  const std::uint8_t garbage[5] = {0xBA, 0xD0, 0xCA, 0xFE, 0x01};
  append_bytes(active_segment(dir_.path() / "shard-000"), garbage);
  append_bytes(active_segment(dir_.path() / "shard-001"), garbage);
  {
    ShardedStore recovered(backend, dir_.path(), opts);
    EXPECT_TRUE(recovered.recovery().torn_tail);
    ASSERT_EQ(recovered.record_count(), kRecords);
    CloudServer server(scheme, CapabilityVerifier(e, ta.ibs_params()));
    ASSERT_EQ(server.load_from(recovered), kRecords);
    const std::uint64_t hits_before = vcache->stats().hits;
    check_equivalent(server, "after crash-reopen");
    EXPECT_GT(vcache->stats().hits, hits_before);  // the cache did the work

    // Compaction retires every segment identity; the invalidation hook
    // drops the now-unreachable verdicts, and post-compaction identities
    // (fresh epochs) must re-memoize — never alias the retired ones.
    recovered.set_invalidation_hook(
        [&](std::span<const SegmentId> retired) {
          vcache->invalidate(retired);
        });
    (void)recovered.compact();
    EXPECT_GT(vcache->stats().erased, 0u);
    ASSERT_EQ(server.load_from(recovered), kRecords);
    check_equivalent(server, "after compaction");
  }
}

// Byte-level truncation sweep (payload-agnostic, no crypto): for a cut at
// any byte position, reopen recovers exactly the frames that were fully on
// disk — never a partial one, never fewer than the complete prefix.
TEST_F(StoreRecoveryTest, TruncationSweepRecoversCommittedPrefix) {
  constexpr std::size_t kRecords = 10;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::uint64_t> frame_end;  // file offset after frame i
  const fs::path writer_dir = dir_.path() / "writer";
  {
    IndexStore store(writer_dir, 0, {});
    for (std::size_t i = 0; i < kRecords; ++i) {
      std::vector<std::uint8_t> payload(5 + i * 3);
      for (std::size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<std::uint8_t>(i * 31 + j);
      }
      store.put(payload);
      payloads.push_back(std::move(payload));
      frame_end.push_back(store.bytes());
    }
    store.sync();
  }
  const fs::path seg = active_segment(writer_dir);
  const std::uint64_t file_size = fs::file_size(seg);
  ASSERT_EQ(file_size, frame_end.back());

  // Sweep cuts: every frame boundary, plus positions inside each frame.
  std::vector<std::uint64_t> cuts;
  for (const std::uint64_t end : frame_end) {
    cuts.push_back(end);
    cuts.push_back(end - 1);           // mid-frame (chops CRC/payload)
    cuts.push_back(end - kFrameHeaderSize / 2);
  }
  for (const std::uint64_t cut : cuts) {
    if (cut < kSegmentHeaderSize) continue;
    const fs::path trial = dir_.path() / ("trial-" + std::to_string(cut));
    fs::copy(writer_dir, trial, fs::copy_options::recursive);
    fs::resize_file(active_segment(trial), cut);

    IndexStore reopened(trial, 0, {});
    std::size_t expected = 0;
    while (expected < kRecords && frame_end[expected] <= cut) ++expected;
    EXPECT_EQ(reopened.record_count(), expected) << "cut at " << cut;
    const std::uint64_t committed_end =
        expected == 0 ? kSegmentHeaderSize : frame_end[expected - 1];
    EXPECT_EQ(reopened.recovery().torn_tail, cut != committed_end)
        << "cut at " << cut;

    // The recovered prefix is byte-identical to what was written...
    std::vector<std::vector<std::uint8_t>> replayed;
    reopened.for_each(
        [&](std::span<const std::uint8_t> p, const SegmentId&, bool) {
          replayed.emplace_back(p.begin(), p.end());
        });
    ASSERT_EQ(replayed.size(), expected);
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(replayed[i], payloads[i]);
    }
    // ...and the store accepts new appends after recovery.
    reopened.put(payloads[0]);
    reopened.sync();
    EXPECT_EQ(reopened.record_count(), expected + 1);
    fs::remove_all(trial);
  }
}

// A torn tail must also be recoverable repeatedly: crash, recover, crash
// again — each recovery preserves everything committed before it.
TEST_F(StoreRecoveryTest, RepeatedCrashesNeverLoseCommittedRecords) {
  const std::vector<std::uint8_t> garbage = {1, 2, 3};
  std::size_t committed = 0;
  for (int round = 0; round < 4; ++round) {
    {
      IndexStore store(dir_.path(), 0, {});
      EXPECT_EQ(store.record_count(), committed);
      const std::string payload = "round-" + std::to_string(round);
      store.put(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(payload.data()),
          payload.size()));
      store.sync();
      ++committed;
    }
    append_bytes(active_segment(dir_.path()), garbage);  // crash mid-append
  }
  IndexStore store(dir_.path(), 0, {});
  EXPECT_EQ(store.record_count(), committed);
  EXPECT_TRUE(store.recovery().torn_tail);
}

}  // namespace
}  // namespace apks
