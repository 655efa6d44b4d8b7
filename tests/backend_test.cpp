// Tests for the scheme-agnostic serving core (core/backend.h): all three
// constructions — APKS, APKS+, MRQED^D — through the one CloudServer /
// SearchEngine / ShardedStore path, the APKS+ ingest guard, the
// signed-query admission check, scheme-tag enforcement on persistent
// stores, and the legacy (untagged v1) on-disk migration.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "cloud/proxy.h"
#include "cloud/proxy_pool.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "core/apks_backend.h"
#include "core/apks_plus.h"
#include "core/serialize_apks.h"
#include "data/nursery.h"
#include "data/workload.h"
#include "mrqed/mrqed_backend.h"
#include "store/sharded_store.h"
#include "test_dir.h"

namespace apks {
namespace {

namespace fs = std::filesystem;

ShardedStoreOptions two_shards() {
  ShardedStoreOptions opts;
  opts.shards = 2;
  return opts;
}

class BackendTest : public ::testing::Test {
 protected:
  TestDir dir_{"backend"};
};

// For the APKS family the backend's query_message must be byte-identical
// to capability_message, so a SignedCapability re-wrapped as a SignedQuery
// verifies against the very same signature bytes.
TEST_F(BackendTest, SignedCapabilityVerifiesAsSignedQuery) {
  const Pairing e(default_type_a_params());
  const Apks scheme(e, nursery_schema(1));
  ChaChaRng rng("backend-signed");
  TrustedAuthority ta(scheme, rng);
  CapabilityVerifier verifier(e, ta.ibs_params());
  verifier.register_authority("TA");

  const ApksBackend backend(scheme);
  const std::vector<PlainIndex> rows = nursery_rows();
  const SignedCapability cap = ta.issue(nursery_point_query(rows[7]), rng);

  const AnyQuery query = AnyQuery::ref(SchemeKind::kApks, &cap.cap);
  EXPECT_EQ(backend.query_message(query, cap.issuer),
            capability_message(e, cap.cap, cap.issuer));

  // The very same signature object admits the re-wrapped query...
  SignedQuery sq{AnyQuery::ref(SchemeKind::kApks, &cap.cap), cap.issuer,
                 cap.sig};
  EXPECT_TRUE(verifier.verify(cap));
  EXPECT_TRUE(verifier.verify(backend, sq));
  // ...and an unregistered issuer is still refused.
  sq.issuer = "rogue";
  EXPECT_FALSE(verifier.verify(backend, sq));
}

// The typed (SignedCapability) and scheme-agnostic (SignedQuery) serving
// paths return identical results and stats over the same record set.
TEST_F(BackendTest, ApksSignedQueryPathMatchesTypedPath) {
  const Pairing e(default_type_a_params());
  const Apks scheme(e, nursery_schema(1));
  ChaChaRng rng("backend-apks");
  TrustedAuthority ta(scheme, rng);
  CapabilityVerifier verifier(e, ta.ibs_params());
  verifier.register_authority("TA");

  const ApksBackend backend(scheme);
  CloudServer server(backend, verifier);
  const std::vector<PlainIndex> rows = nursery_rows();
  for (std::size_t i = 0; i < 8; ++i) {
    const PlainIndex& row = rows[(i * 769) % rows.size()];
    (void)server.store(scheme.gen_index(ta.public_key(), row, rng),
                       "row-" + std::to_string(i));
  }

  const SignedCapability cap =
      ta.issue(nursery_point_query(rows[769 % rows.size()]), rng);
  CloudServer::SearchStats typed_stats;
  const auto typed = server.search(cap, &typed_stats);
  ASSERT_FALSE(typed.empty());

  const SignedQuery sq{AnyQuery::ref(SchemeKind::kApks, &cap.cap), cap.issuer,
                       cap.sig};
  CloudServer::SearchStats generic_stats;
  EXPECT_EQ(server.search_signed(sq, &generic_stats), typed);
  EXPECT_TRUE(generic_stats.authorized);
  EXPECT_EQ(generic_stats.scanned, typed_stats.scanned);
  EXPECT_EQ(generic_stats.matched, typed_stats.matched);
}

// MRQED^D through the identical serving path: signed admission, correct
// range-match results and per-query stats, and the engine's blocked
// parallel batch agreeing with sequential scans.
TEST_F(BackendTest, MrqedServesThroughUnifiedServerAndEngine) {
  const Pairing e(default_type_a_params());
  const Mrqed mrqed(e, 2, 3);  // 2 dims over [0, 8)
  ChaChaRng rng("backend-mrqed");
  MrqedPublicKey pk;
  MrqedMasterKey msk;
  mrqed.setup(rng, pk, msk);

  // The TA's IBS layer is scheme-independent; an Apks instance only seeds
  // its capability side, which this test never touches.
  const Apks ibs_host(e, nursery_schema(1));
  TrustedAuthority ta(ibs_host, rng);
  CapabilityVerifier verifier(e, ta.ibs_params());
  verifier.register_authority("TA");

  const MrqedBackend backend(mrqed);
  CloudServer server(backend, verifier);
  const std::vector<std::vector<std::uint64_t>> points = {
      {0, 0}, {1, 5}, {3, 3}, {4, 7}, {6, 2}, {7, 7}};
  for (std::size_t i = 0; i < points.size(); ++i) {
    (void)server.store_any(
        AnyIndex::own(SchemeKind::kMrqed, mrqed.encrypt(pk, points[i], rng)),
        "pt-" + std::to_string(i));
  }

  struct Case {
    std::vector<MrqedRange> ranges;
    std::vector<std::string> expect;
  };
  const std::vector<Case> cases = {
      {{{0, 3}, {0, 7}}, {"pt-0", "pt-1", "pt-2"}},  // half-plane
      {{{4, 4}, {7, 7}}, {"pt-3"}},                  // point query
      {{{0, 7}, {0, 7}}, {"pt-0", "pt-1", "pt-2", "pt-3", "pt-4", "pt-5"}},
      {{{5, 5}, {0, 1}}, {}},                        // empty rectangle
  };

  std::vector<AnyQuery> queries;
  std::vector<std::vector<std::string>> sequential;
  std::vector<CloudServer::SearchStats> seq_stats(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    queries.push_back(AnyQuery::own(
        SchemeKind::kMrqed, mrqed.gen_key(pk, msk, cases[i].ranges, rng)));
    sequential.push_back(
        server.search_unchecked_any(queries[i], &seq_stats[i]));
    EXPECT_EQ(sequential[i], cases[i].expect) << "case " << i;
  }

  // Signed path: the authority signs the backend's query_message.
  const SignedQuery sq = ta.issue_query(backend, queries[0], rng);
  CloudServer::SearchStats signed_stats;
  EXPECT_EQ(server.search_signed(sq, &signed_stats), sequential[0]);
  EXPECT_TRUE(signed_stats.authorized);
  EXPECT_EQ(signed_stats.scanned, points.size());

  // Batch (parallel, blocked, cached) == sequential, with per-query stats.
  SearchEngine engine(server, {.threads = 3});
  BatchMetrics metrics;
  const auto batched = engine.search_batch_unchecked_any(queries, &metrics);
  ASSERT_EQ(batched.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(batched[i], sequential[i]) << "case " << i;
    EXPECT_EQ(metrics.per_query[i].scanned, seq_stats[i].scanned);
    EXPECT_EQ(metrics.per_query[i].matched, seq_stats[i].matched);
  }
  EXPECT_EQ(metrics.records, points.size());
}

// APKS+ through the unified ingest stage: owner-partial indexes traverse
// the proxy chain installed on the backend, the transformed records match
// under blinded-basis capabilities, and the canary refuses what a
// dictionary attacker can forge from pk alone.
TEST_F(BackendTest, ApksPlusIngestStageTransformsAndGuards) {
  const Pairing e(default_type_a_params());
  const ApksPlus plus(e, nursery_schema(1));
  ChaChaRng rng("backend-plus");
  const ApksPlusSetupResult setup = plus.setup_plus(rng);
  TrustedAuthority ta(plus, setup.pk, setup.msk, rng);
  CapabilityVerifier verifier(e, ta.ibs_params());
  verifier.register_authority("TA");

  ApksPlusBackend backend(plus);
  ProxyPipeline pipeline = make_proxy_pipeline(plus, setup.r, 2, rng);
  attach_ingest_pipeline(backend, pipeline);
  backend.set_ingest_canary(
      plus.gen_cap(setup.msk, make_canary_query(plus.schema()), rng));

  CloudServer server(backend, verifier);
  const std::vector<PlainIndex> rows = nursery_rows();
  for (std::size_t i = 0; i < 6; ++i) {
    const PlainIndex& row = rows[(i * 1201) % rows.size()];
    // partial_gen_index: what an owner can produce from pk alone.
    (void)server.store(plus.partial_gen_index(setup.pk, row, rng),
                       "row-" + std::to_string(i));
  }
  EXPECT_EQ(pipeline.size(), 2u);
  EXPECT_EQ(server.record_count(), 6u);

  const PlainIndex& target = rows[1201 % rows.size()];
  const SignedCapability cap = ta.issue(nursery_point_query(target), rng);
  CloudServer::SearchStats stats;
  const auto hits = server.search(cap, &stats);
  EXPECT_FALSE(hits.empty());
  EXPECT_EQ(hits[0], "row-1");
  EXPECT_EQ(stats.scanned, 6u);

  // A forged (never-transformed) ciphertext is refused at ingest: detach
  // the pipeline as an attacker bypassing the proxies would.
  ApksPlusBackend bypass(plus);
  bypass.set_ingest_canary(
      plus.gen_cap(setup.msk, make_canary_query(plus.schema()), rng));
  CloudServer open_door(bypass, verifier);
  EXPECT_THROW((void)open_door.store(
                   plus.partial_gen_index(setup.pk, target, rng), "forged"),
               std::invalid_argument);
  EXPECT_EQ(open_door.record_count(), 0u);

  // Even force-restored past the guard, the partial ciphertext stays dead:
  // it never matches a blinded-basis capability, so the dictionary attack
  // learns nothing from search results either.
  CloudServer unguarded(static_cast<const Apks&>(plus), verifier);
  unguarded.restore(1, plus.partial_gen_index(setup.pk, target, rng),
                    "forged");
  EXPECT_TRUE(unguarded.search(cap).empty());
}

// A store written under one scheme must be refused — with an error naming
// both schemes — when opened under another.
// Regression: proxies charge their rate budget on *success* only, and the
// chain is the unit of charging — when a later proxy refuses mid-chain,
// the earlier proxies refund, so retrying the same upload is not
// double-billed (the old code charged before transforming and leaked the
// budget on a mid-chain throw).
TEST_F(BackendTest, ProxyBudgetChargedOnSuccessOnlyWithMidChainRefund) {
  const Pairing e(default_type_a_params());
  const ApksPlus plus(e, nursery_schema(1));
  ChaChaRng rng("backend-budget");
  const ApksPlusSetupResult setup = plus.setup_plus(rng);
  const std::vector<Fq> shares = plus.split_secret(setup.r, 2, rng);

  ProxyPipeline pipeline;
  pipeline.add(ProxyServer(plus, shares[0], /*rate_limit=*/2));
  pipeline.add(ProxyServer(plus, shares[1], /*rate_limit=*/1));

  const std::vector<PlainIndex> rows = nursery_rows();
  const EncryptedIndex partial =
      plus.partial_gen_index(setup.pk, rows[0], rng);

  (void)pipeline.process(partial);
  EXPECT_EQ(pipeline.proxy(0).transformed_count(), 1u);
  EXPECT_EQ(pipeline.proxy(1).transformed_count(), 1u);

  // Second upload: proxy 0 transforms (briefly charged to 2), proxy 1's
  // budget of 1 is spent -> typed kExhausted, and proxy 0 refunds to 1.
  try {
    (void)pipeline.process(partial);
    FAIL() << "proxy 1's budget of 1 must be exhausted";
  } catch (const ServingError& err) {
    EXPECT_EQ(err.code(), ErrorCode::kExhausted);
  }
  EXPECT_EQ(pipeline.proxy(0).transformed_count(), 1u)
      << "mid-chain failure leaked proxy 0's budget";
  EXPECT_EQ(pipeline.proxy(1).transformed_count(), 1u);
}

// The multiplicative shares commute: any application order — the canonical
// chain, a permuted chain, an interleaved by-hand order, or a replicated
// pool failing over around dead replicas — yields the byte-identical
// transformed ciphertext. This is the property the resilient pool's
// failover and park/resume machinery relies on.
TEST_F(BackendTest, ProxyShareCommutativityUnderFailover) {
  const Pairing e(default_type_a_params());
  const ApksPlus plus(e, nursery_schema(1));
  ChaChaRng rng("backend-commute");
  const ApksPlusSetupResult setup = plus.setup_plus(rng);
  const std::vector<Fq> shares = plus.split_secret(setup.r, 3, rng);

  const std::vector<PlainIndex> rows = nursery_rows();
  const EncryptedIndex partial =
      plus.partial_gen_index(setup.pk, rows[42 % rows.size()], rng);

  ProxyPipeline canonical;
  for (const Fq& share : shares) canonical.add(ProxyServer(plus, share));
  const std::vector<std::uint8_t> expected =
      serialize_index(e, canonical.process(partial));

  // Permuted chain order.
  ProxyPipeline permuted;
  permuted.add(ProxyServer(plus, shares[2]));
  permuted.add(ProxyServer(plus, shares[0]));
  permuted.add(ProxyServer(plus, shares[1]));
  EXPECT_EQ(serialize_index(e, permuted.process(partial)), expected);

  // Interleaved by hand: share 1 first, then 2, then 0.
  ProxyServer p0(plus, shares[0]);
  ProxyServer p1(plus, shares[1]);
  ProxyServer p2(plus, shares[2]);
  EXPECT_EQ(serialize_index(e, p0.transform(p2.transform(p1.transform(
                                   partial)))),
            expected);

  // Replicated pool with replicas killed on different shares: failover
  // changes which replica serves (and in what retry order), never the
  // bytes. Clear the process-global failpoints even if an assertion fails.
  struct FailpointGuard {
    ~FailpointGuard() { Failpoints::instance().clear_all(); }
  } guard;
  FailpointPolicy dead;
  dead.action = FailAction::kThrow;
  Failpoints::instance().set("proxy.s0.r0", dead);
  Failpoints::instance().set("proxy.s2.r1", dead);
  ProxyPoolOptions opts;
  opts.replicas = 2;
  ResilientProxyPipeline pool(plus, shares, opts);
  const auto via_pool = pool.process(partial, "commute");
  ASSERT_TRUE(via_pool.has_value());
  EXPECT_EQ(serialize_index(e, *via_pool), expected);
  EXPECT_GE(pool.stats().failovers, 1u);
}

TEST_F(BackendTest, StoreSchemeMismatchRefused) {
  const Pairing e(default_type_a_params());
  const Apks scheme(e, nursery_schema(1));
  const Mrqed mrqed(e, 2, 3);
  ChaChaRng rng("backend-mismatch");
  ApksPublicKey pk;
  ApksMasterKey msk;
  scheme.setup(rng, pk, msk);

  const ApksBackend apks_backend(scheme);
  {
    ShardedStore store(apks_backend, dir_.path(), two_shards());
    (void)store.append_any(
        "row",
        AnyIndex::own(SchemeKind::kApks,
                      scheme.gen_index(pk, nursery_rows()[0], rng)));
    store.sync();
  }

  const MrqedBackend mrqed_backend(mrqed);
  try {
    ShardedStore reopened(mrqed_backend, dir_.path(), two_shards());
    FAIL() << "mrqed open of an apks store must throw";
  } catch (const std::invalid_argument& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find("apks"), std::string::npos) << what;
    EXPECT_NE(what.find("mrqed"), std::string::npos) << what;
  }

  // Same-family confusion is refused too (apks+ records are on a blinded
  // basis; silently serving them as basic apks would mis-match).
  const ApksPlus plus(e, nursery_schema(1));
  const ApksPlusBackend plus_backend(plus);
  EXPECT_THROW(ShardedStore(plus_backend, dir_.path(), two_shards()),
               std::invalid_argument);

  // The matching scheme still opens.
  ShardedStore again(apks_backend, dir_.path(), two_shards());
  EXPECT_EQ(again.record_count(), 1u);
}

// Rewrites a v2 STORE/MANIFEST file as the pre-scheme-tag v1 layout: the
// version field drops to 1 and the scheme byte (immediately after the u32
// following the version) is removed; the trailing CRC is recomputed.
void downgrade_to_v1(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  ASSERT_TRUE(in) << file;
  const std::vector<std::uint8_t> data{std::istreambuf_iterator<char>(in),
                                       std::istreambuf_iterator<char>()};
  in.close();
  ASSERT_GE(data.size(), 8u + 4 + 4 + 1 + 4);
  ByteReader r(std::span<const std::uint8_t>(data.data(), data.size() - 4));
  const auto magic = r.raw(8);
  const bool is_manifest = std::memcmp(magic.data(), "APKSMAN1", 8) == 0;
  const std::uint32_t version = r.u32();
  ASSERT_TRUE(version == 2 || version == 3) << file << " version " << version;
  const std::uint32_t id_field = r.u32();  // shard count / shard id
  (void)r.u8();                            // scheme byte: dropped in v1

  ByteWriter w;
  w.raw(magic);
  w.u32(1);  // v1
  w.u32(id_field);
  if (version == 3) {
    // v3 added the segment-epoch machinery (manifest) and the store uid
    // (STORE meta); both are dropped in v1.
    if (is_manifest) {
      (void)r.u64();   // epoch counter
      w.u64(r.u64());  // active seq
      w.u64(r.u64());  // next seq
      const std::uint32_t nsealed = r.u32();
      w.u32(nsealed);
      for (std::uint32_t i = 0; i < nsealed; ++i) {
        w.u64(r.u64());  // seq
        w.u64(r.u64());  // records
        w.u64(r.u64());  // bytes
        (void)r.u64();   // seal epoch
      }
    } else {
      (void)r.u64();  // store uid
    }
  } else {
    w.raw(r.raw(r.remaining()));
  }
  w.u32(crc32(w.data()));
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << file;
  out.write(reinterpret_cast<const char*>(w.data().data()),
            static_cast<std::streamsize>(w.size()));
}

// Pre-refactor stores carry no scheme tag. They must keep loading — as
// legacy basic APKS, serving byte-identical results — and must still be
// refused by non-APKS backends.
TEST_F(BackendTest, UntaggedV1StoreLoadsAsLegacyApks) {
  const Pairing e(default_type_a_params());
  const Apks scheme(e, nursery_schema(1));
  ChaChaRng rng("backend-v1");
  TrustedAuthority ta(scheme, rng);
  CapabilityVerifier verifier(e, ta.ibs_params());
  verifier.register_authority("TA");

  constexpr std::size_t kRecords = 6;
  const std::vector<PlainIndex> rows = nursery_rows();
  const SignedCapability cap =
      ta.issue(nursery_point_query(rows[997 % rows.size()]), rng);
  std::vector<std::string> original;
  CloudServer::SearchStats original_stats;
  {
    // Written through the pre-backend (Pairing-based) path, as PR 3 did.
    ShardedStore store(e, dir_.path(), two_shards());
    CloudServer writer(scheme, verifier);
    writer.attach_store(&store);
    for (std::size_t i = 0; i < kRecords; ++i) {
      (void)writer.store(
          scheme.gen_index(ta.public_key(), rows[(i * 997) % rows.size()],
                           rng),
          "row-" + std::to_string(i));
    }
    store.sync();
    original = writer.search(cap, &original_stats);
    ASSERT_FALSE(original.empty());
  }

  // Strip the scheme tags, as if the store had been written pre-refactor.
  downgrade_to_v1(dir_.path() / "STORE");
  for (const auto& entry : fs::directory_iterator(dir_.path())) {
    if (entry.is_directory()) downgrade_to_v1(entry.path() / "MANIFEST");
  }

  // Legacy open path and backend open path both accept it as basic APKS.
  const ApksBackend backend(scheme);
  for (const bool use_backend : {false, true}) {
    const ShardedStoreOptions opts = two_shards();
    auto reopened = use_backend
                        ? std::make_unique<ShardedStore>(backend, dir_.path(), opts)
                        : std::make_unique<ShardedStore>(e, dir_.path(), opts);
    EXPECT_EQ(reopened->scheme(), SchemeKind::kApks);
    EXPECT_EQ(reopened->record_count(), kRecords);
    CloudServer restarted(scheme, verifier);
    EXPECT_EQ(restarted.load_from(*reopened), kRecords);
    CloudServer::SearchStats stats;
    EXPECT_EQ(restarted.search(cap, &stats), original);
    EXPECT_EQ(stats.scanned, original_stats.scanned);
    EXPECT_EQ(stats.matched, original_stats.matched);
  }

  // A v1 store is still not up for grabs by other schemes.
  const Mrqed mrqed(e, 2, 3);
  const MrqedBackend mrqed_backend(mrqed);
  EXPECT_THROW(ShardedStore(mrqed_backend, dir_.path(), two_shards()),
               std::invalid_argument);
}

}  // namespace
}  // namespace apks
