// Tests for the scheme-agnostic serving core (core/backend.h): all three
// constructions — APKS, APKS+, MRQED^D — through the one CloudServer /
// SearchEngine / ShardedStore path, the APKS+ ingest guard, the
// signed-query admission check, scheme-tag enforcement on persistent
// stores, and the refusal of every other on-disk STORE/MANIFEST version.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>

#include "cloud/proxy.h"
#include "cloud/proxy_pool.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "core/apks_backend.h"
#include "core/apks_plus.h"
#include "core/capability_digest.h"
#include "core/serialize_apks.h"
#include "data/nursery.h"
#include "data/workload.h"
#include "mrqed/mrqed_backend.h"
#include "store/sharded_store.h"
#include "serve.h"
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

// decode_query is the serving decoder: it decodes only k*_dec and keeps the
// bytes it received. A served handle must digest, sign-check and re-encode
// byte-identically to the typed capability it was encoded from, and
// prepare to the same verdicts, at the TA's level 1 and after delegation.
TEST_F(BackendTest, ServedQueryDecodeMatchesTypedCapability) {
  const Pairing e(default_type_a_params());
  const Apks scheme(e, nursery_schema(1));
  ChaChaRng rng("backend-served");
  TrustedAuthority ta(scheme, rng);
  CapabilityVerifier verifier(e, ta.ibs_params());
  verifier.register_authority("TA");
  const ApksBackend backend(scheme);

  const std::vector<PlainIndex> rows = nursery_rows();
  std::vector<AnyIndex> records;
  for (std::size_t i = 0; i < 8; ++i) {
    records.push_back(AnyIndex::own(
        SchemeKind::kApks,
        scheme.gen_index(ta.public_key(), rows[(i * 769) % rows.size()],
                         rng)));
  }
  std::vector<const AnyIndex*> block;
  for (const AnyIndex& r : records) block.push_back(&r);

  const Query point = nursery_point_query(rows[769 % rows.size()]);
  const Capability level1 = ta.issue(point, rng).cap;
  const Capability level2 = scheme.delegate_cap(level1, point, rng);
  ASSERT_EQ(level1.key.level, 1u);
  ASSERT_EQ(level2.key.level, 2u);

  for (const Capability* cap : {&level1, &level2}) {
    SCOPED_TRACE("level " + std::to_string(cap->key.level));
    const AnyQuery typed = AnyQuery::ref(SchemeKind::kApks, cap);
    const std::vector<std::uint8_t> wire = backend.encode_query(typed);
    const AnyQuery served = backend.decode_query(wire);
    ASSERT_NE(served.wire(), nullptr);
    EXPECT_EQ(typed.wire(), nullptr);

    const Capability& got = served.as<Capability>();
    EXPECT_EQ(got.key.level, cap->key.level);
    EXPECT_EQ(got.key.dec, cap->key.dec);
    EXPECT_TRUE(got.key.ran.empty());
    EXPECT_TRUE(got.key.del.empty());

    EXPECT_EQ(backend.digest(served), backend.digest(typed));
    EXPECT_EQ(backend.digest(served), capability_digest(e, *cap));
    EXPECT_EQ(backend.query_message(served, "TA"),
              backend.query_message(typed, "TA"));
    EXPECT_EQ(backend.query_message(served, "TA"),
              capability_message(e, *cap, "TA"));
    EXPECT_EQ(backend.encode_query(served), wire);

    // A signature issued over the typed query admits the served one.
    const SignedQuery sq = ta.issue_query(backend, typed, rng);
    EXPECT_TRUE(verifier.verify(backend, SignedQuery{served, sq.issuer,
                                                     sq.sig}));

    bool want[8] = {};
    bool have[8] = {};
    backend.match_block(backend.prepare(typed), block.data(), block.size(),
                        want);
    backend.match_block(backend.prepare(served), block.data(), block.size(),
                        have);
    EXPECT_TRUE(std::equal(want, want + 8, have));
    EXPECT_TRUE(want[1]);  // rows[769] is record 1
  }
}

// A typed SignedCapability borrowed as a SignedQuery and an independently
// built SignedQuery over the same capability verify alike and return
// identical results and stats over the same record set.
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
  const SearchEngine engine(server, {.threads = 1});
  const std::vector<SignedQuery> borrowed =
      borrow_capabilities(backend, {&cap, 1});
  EXPECT_TRUE(verifier.verify(cap));
  EXPECT_TRUE(verifier.verify(backend, borrowed[0]));
  BatchMetrics typed_metrics;
  const auto typed = engine.search_batch_signed(borrowed, &typed_metrics)[0];
  const ServerMetrics& typed_stats = typed_metrics.per_query[0];
  ASSERT_FALSE(typed.empty());

  const SignedQuery sq{AnyQuery::own(SchemeKind::kApks, cap.cap), cap.issuer,
                       cap.sig};
  BatchMetrics generic;
  EXPECT_EQ(engine.search_batch_signed({&sq, 1}, &generic)[0], typed);
  const ServerMetrics& generic_stats = generic.per_query[0];
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

  // One query at a time on one worker, with no prepared cache.
  const SearchEngine single(server, {.threads = 1, .cache_capacity = 0});
  std::vector<AnyQuery> queries;
  std::vector<ServerMetrics> seq_stats(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    queries.push_back(AnyQuery::own(
        SchemeKind::kMrqed, mrqed.gen_key(pk, msk, cases[i].ranges, rng)));
    const SearchReply one = serve(single, {.queries = {&queries[i], 1}});
    EXPECT_EQ(one.refs[0], cases[i].expect) << "case " << i;
    seq_stats[i] = one.metrics.per_query[0];
  }

  // Signed path: the authority signs the backend's query_message.
  const SignedQuery sq = ta.issue_query(backend, queries[0], rng);
  BatchMetrics signed_metrics;
  EXPECT_EQ(single.search_batch_signed({&sq, 1}, &signed_metrics)[0],
            cases[0].expect);
  const ServerMetrics& signed_stats = signed_metrics.per_query[0];
  EXPECT_TRUE(signed_stats.authorized);
  EXPECT_EQ(signed_stats.scanned, points.size());

  // Batch (parallel, blocked, cached) == one query at a time, with
  // per-query stats.
  SearchEngine engine(server, {.threads = 3});
  const SearchReply reply = serve(engine, {.queries = queries});
  const auto& batched = reply.refs;
  const BatchMetrics& metrics = reply.metrics;
  ASSERT_EQ(batched.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(batched[i], cases[i].expect) << "case " << i;
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
  BatchMetrics bm;
  const auto hits = SearchEngine(server).search_batch_signed(
      borrow_capabilities(server.backend(), {&cap, 1}), &bm)[0];
  const ServerMetrics& stats = bm.per_query[0];
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
  EXPECT_TRUE(SearchEngine(unguarded)
                  .search_batch_signed(
                      borrow_capabilities(unguarded.backend(), {&cap, 1}))[0]
                  .empty());
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

std::vector<std::uint8_t> read_bytes(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& file, std::span<const std::uint8_t> data) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

// Every file under `dir`, keyed by path: the on-disk state of a store.
std::map<fs::path, std::vector<std::uint8_t>> snapshot(const fs::path& dir) {
  std::map<fs::path, std::vector<std::uint8_t>> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) files[entry.path()] = read_bytes(entry.path());
  }
  return files;
}

// STORE and MANIFEST both open with [8-byte magic] [u32 version] and end
// in a CRC32 of everything before it. Rewrites the version field and
// recomputes the CRC, so only the version is wrong.
std::vector<std::uint8_t> with_version(std::vector<std::uint8_t> data,
                                       std::uint32_t version) {
  ByteWriter v;
  v.u32(version);
  std::memcpy(data.data() + 8, v.data().data(), 4);
  data.resize(data.size() - 4);
  ByteWriter crc;
  crc.u32(crc32(data));
  data.insert(data.end(), crc.data().begin(), crc.data().end());
  return data;
}

// A STORE or shard MANIFEST carries exactly one on-disk version. Any other
// version, even with a valid checksum, is refused as corrupt without
// touching a byte on disk, and the untouched store still opens and serves
// the results it served before.
TEST_F(BackendTest, OtherStoreAndManifestVersionsAreRefused) {
  const Pairing e(default_type_a_params());
  const Apks scheme(e, nursery_schema(1));
  ChaChaRng rng("backend-versions");
  TrustedAuthority ta(scheme, rng);
  CapabilityVerifier verifier(e, ta.ibs_params());
  verifier.register_authority("TA");
  const ApksBackend backend(scheme);

  const std::vector<PlainIndex> rows = nursery_rows();
  const SignedCapability cap =
      ta.issue(nursery_point_query(rows[997 % rows.size()]), rng);
  std::vector<std::string> original;
  {
    ShardedStore store(backend, dir_.path(), two_shards());
    CloudServer writer(scheme, verifier);
    writer.attach_store(&store);
    for (std::size_t i = 0; i < 6; ++i) {
      (void)writer.store(
          scheme.gen_index(ta.public_key(), rows[(i * 997) % rows.size()],
                           rng),
          "row-" + std::to_string(i));
    }
    store.sync();
    original = SearchEngine(writer).search_batch_signed(
        borrow_capabilities(writer.backend(), {&cap, 1}))[0];
    ASSERT_FALSE(original.empty());
  }

  for (const fs::path& file :
       {dir_.path() / "STORE", dir_.path() / "shard-001" / "MANIFEST"}) {
    const std::vector<std::uint8_t> good = read_bytes(file);
    ASSERT_GT(good.size(), 16u) << file;
    for (const std::uint32_t version : {1u, 2u, 4u}) {
      write_bytes(file, with_version(good, version));
      const auto before = snapshot(dir_.path());
      try {
        ShardedStore reopened(backend, dir_.path(), two_shards());
        ADD_FAILURE() << file << " version " << version << " was accepted";
      } catch (const StoreError& ex) {
        EXPECT_EQ(ex.code(), ErrorCode::kCorrupt) << ex.what();
        EXPECT_EQ(fs::path(ex.path()), file) << ex.what();
      }
      EXPECT_EQ(snapshot(dir_.path()), before) << file << " v" << version;
    }
    write_bytes(file, good);
  }

  ShardedStore reopened(backend, dir_.path(), two_shards());
  CloudServer restarted(scheme, verifier);
  EXPECT_EQ(restarted.load_from(reopened), 6u);
  EXPECT_EQ(SearchEngine(restarted).search_batch_signed(
                borrow_capabilities(restarted.backend(), {&cap, 1}))[0],
            original);
}

}  // namespace
}  // namespace apks
