// SearchEngine: batched multi-query serving must be observationally
// identical to the paper's per-record Search (Apks::search over each
// uploaded index, in upload order), with the metrics layers (authorization
// / preprocessing-cache / scan) each filling only their own fields.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "common/failpoint.h"
#include "store/sharded_store.h"
#include "serve.h"
#include "test_dir.h"

namespace apks {
namespace {

Schema small_schema() {
  return Schema({{"illness", nullptr, 2},
                 {"sex", nullptr, 1},
                 {"provider", nullptr, 1}});
}

Query q3(QueryTerm a = QueryTerm::any(), QueryTerm b = QueryTerm::any(),
         QueryTerm c = QueryTerm::any()) {
  return Query{{std::move(a), std::move(b), std::move(c)}};
}

class SearchEngineTest : public ::testing::Test {
 protected:
  SearchEngineTest()
      : e_(default_type_a_params()),
        apks_(e_, small_schema()),
        rng_("search-engine-test"),
        ta_(apks_, rng_) {
    lta_ = ta_.make_lta("hospital-A",
                        q3(QueryTerm::any(), QueryTerm::any(),
                           QueryTerm::equals("Hospital A")),
                        rng_);
    UserAttributes peter;
    peter.values["illness"] = {"Diabetes", "Flu"};
    peter.values["sex"] = {"Male"};
    peter.values["provider"] = {"Hospital A"};
    lta_->register_user("peter", peter);

    CapabilityVerifier verifier(e_, ta_.ibs_params());
    verifier.register_authority("hospital-A");
    server_ = std::make_unique<CloudServer>(apks_, std::move(verifier));

    store({"Diabetes", "Male", "Hospital A"}, "doc-bob");
    store({"Diabetes", "Female", "Hospital A"}, "doc-carol");
    store({"Flu", "Male", "Hospital A"}, "doc-dave");
    store({"Diabetes", "Male", "Hospital B"}, "doc-erin");
    store({"Flu", "Female", "Hospital A"}, "doc-fay");
  }

  void store(std::vector<std::string> values, std::string ref) {
    EncryptedIndex index =
        apks_.gen_index(ta_.public_key(), PlainIndex{std::move(values)}, rng_);
    uploaded_.emplace_back(index, ref);
    (void)server_->store(std::move(index), std::move(ref));
  }

  // The independent oracle: the signature check, then Apks::search one
  // record at a time over the fixture's own copies of the uploads. It
  // shares no code with the engine's block kernel, prepared cache or
  // block scheduler.
  [[nodiscard]] std::vector<std::string> reference(
      const SignedCapability& cap) const {
    std::vector<std::string> out;
    if (!server_->verifier().verify(cap)) return out;
    for (const auto& [index, ref] : uploaded_) {
      if (apks_.search(cap.cap, index)) out.push_back(ref);
    }
    return out;
  }

  // The engine's view of typed capabilities; the handles borrow `caps`.
  [[nodiscard]] std::vector<SignedQuery> signed_queries(
      std::span<const SignedCapability> caps) const {
    return borrow_capabilities(server_->backend(), caps);
  }

  [[nodiscard]] SignedCapability issue(const Query& q) {
    auto cap = lta_->delegate_for_user("peter", q, rng_);
    EXPECT_TRUE(cap.has_value());
    return *cap;
  }

  Pairing e_;
  Apks apks_;
  ChaChaRng rng_;
  TrustedAuthority ta_;
  std::unique_ptr<LocalAuthority> lta_;
  std::unique_ptr<CloudServer> server_;
  std::vector<std::pair<EncryptedIndex, std::string>> uploaded_;
};

TEST_F(SearchEngineTest, BatchMatchesIndependentSearches) {
  std::vector<SignedCapability> caps;
  caps.push_back(issue(q3(QueryTerm::equals("Diabetes"))));
  caps.push_back(issue(q3(QueryTerm::any(), QueryTerm::equals("Male"))));
  caps.push_back(ta_.issue(q3(), rng_));  // "TA" is not registered: rejected
  caps.push_back(issue(q3()));
  caps.push_back(caps[0]);  // duplicate of the first (hot key)

  SearchEngine engine(*server_, {.threads = 2, .block_records = 2});
  BatchMetrics metrics;
  const auto batch = engine.search_batch_signed(signed_queries(caps), &metrics);

  ASSERT_EQ(batch.size(), caps.size());
  ASSERT_EQ(metrics.per_query.size(), caps.size());
  EXPECT_EQ(metrics.queries, caps.size());
  EXPECT_EQ(metrics.authorized, caps.size() - 1);
  EXPECT_EQ(metrics.records, server_->record_count());

  for (std::size_t i = 0; i < caps.size(); ++i) {
    const bool authorized = server_->verifier().verify(caps[i]);
    const auto expect = reference(caps[i]);
    EXPECT_EQ(batch[i], expect) << "query " << i;  // same docs, same order
    EXPECT_EQ(metrics.per_query[i].authorized, authorized);
    EXPECT_EQ(metrics.per_query[i].scanned,
              authorized ? server_->record_count() : 0u);
    EXPECT_EQ(metrics.per_query[i].matched, expect.size());
  }
}

TEST_F(SearchEngineTest, UnauthorizedQueryIsNeverScanned) {
  const SignedCapability forged = ta_.issue(q3(), rng_);
  SearchEngine engine(*server_);
  BatchMetrics bm;
  const auto docs =
      engine.search_batch_signed(signed_queries({&forged, 1}), &bm)[0];
  const ServerMetrics& m = bm.per_query[0];
  EXPECT_TRUE(docs.empty());
  EXPECT_FALSE(m.authorized);
  EXPECT_EQ(m.scanned, 0u);
  EXPECT_EQ(m.matched, 0u);
  EXPECT_EQ(m.prepare_calls, 0u);
  EXPECT_EQ(m.ops.miller, 0u);
  EXPECT_EQ(m.ops.final_exp, 0u);
}

TEST_F(SearchEngineTest, RepeatedCapabilitySkipsPreprocessing) {
  const SignedCapability cap = issue(q3(QueryTerm::equals("Diabetes")));
  std::vector<SignedCapability> caps(4, cap);

  SearchEngine engine(*server_, {.threads = 2});
  BatchMetrics metrics;
  const auto batch = engine.search_batch_signed(signed_queries(caps), &metrics);

  EXPECT_EQ(metrics.prepare_calls, 1u);  // one miss, Q-1 hits
  EXPECT_EQ(metrics.cache_hits, caps.size() - 1);
  for (std::size_t i = 1; i < batch.size(); ++i) EXPECT_EQ(batch[i], batch[0]);

  // A later batch with the same capability hits the cache across batches.
  BatchMetrics again;
  (void)engine.search_batch_signed(signed_queries({&cap, 1}), &again);
  EXPECT_EQ(again.prepare_calls, 0u);
  EXPECT_EQ(again.cache_hits, 1u);
  EXPECT_EQ(engine.cache_misses(), 1u);
  EXPECT_EQ(engine.cache_hits(), caps.size());
}

TEST_F(SearchEngineTest, DeterministicAcrossThreadAndBlockCounts) {
  std::vector<SignedCapability> caps;
  caps.push_back(issue(q3(QueryTerm::equals("Diabetes"))));
  caps.push_back(issue(q3(QueryTerm::equals("Flu"))));

  std::vector<std::vector<std::string>> expect;
  for (const auto& cap : caps) expect.push_back(reference(cap));
  ASSERT_NE(expect[0], expect[1]);

  for (const std::size_t threads : {1u, 2u, 4u, 0u}) {
    for (const std::size_t block : {1u, 3u, 16u}) {
      SearchEngine engine(*server_,
                          {.threads = threads, .block_records = block});
      EXPECT_EQ(engine.search_batch_signed(signed_queries(caps)), expect)
          << "threads=" << threads << " block=" << block;
    }
  }
}

TEST_F(SearchEngineTest, MetricsReportPairingWork) {
  const SignedCapability cap = issue(q3(QueryTerm::equals("Diabetes")));
  SearchEngine engine(*server_, {.threads = 1});
  BatchMetrics bm;
  const auto docs =
      engine.search_batch_signed(signed_queries({&cap, 1}), &bm)[0];
  const ServerMetrics& m = bm.per_query[0];
  // Diabetes at Hospital A (LTA scope): bob and carol, not erin (B).
  EXPECT_EQ(docs.size(), 2u);
  EXPECT_TRUE(m.authorized);
  EXPECT_EQ(m.scanned, server_->record_count());
  EXPECT_EQ(m.matched, docs.size());
  EXPECT_EQ(m.prepare_calls, 1u);
  // The scan pairs every record (n+3 Miller loops each, >= 1 final exp).
  EXPECT_GE(m.ops.miller, server_->record_count());
  EXPECT_GE(m.ops.final_exp, server_->record_count());
  EXPECT_GT(m.wall_s, 0.0);
}

TEST_F(SearchEngineTest, VerifiedParallelServerPathChecksSignature) {
  const SignedCapability good = issue(q3(QueryTerm::equals("Diabetes")));
  const SignedCapability forged = ta_.issue(q3(), rng_);
  SearchEngine engine(*server_, {.threads = 3, .block_records = 1});

  BatchMetrics bm;
  const auto docs =
      engine.search_batch_signed(signed_queries({&good, 1}), &bm)[0];
  EXPECT_TRUE(bm.per_query[0].authorized);
  EXPECT_EQ(bm.per_query[0].scanned, server_->record_count());
  EXPECT_EQ(docs, reference(good));

  // Stale values in the caller's struct must not leak through either layer.
  ServerMetrics& m = bm.per_query[0];
  m.authorized = true;
  m.scanned = 999;
  m.matched = 999;
  const auto rejected =
      engine.search_batch_signed(signed_queries({&forged, 1}), &bm)[0];
  EXPECT_TRUE(rejected.empty());
  EXPECT_FALSE(bm.per_query[0].authorized);
  EXPECT_EQ(bm.per_query[0].scanned, 0u);
  EXPECT_EQ(bm.per_query[0].matched, 0u);
}

TEST_F(SearchEngineTest, StatsLayersFillOnlyTheirOwnFields) {
  const SignedCapability cap = issue(q3(QueryTerm::equals("Diabetes")));
  SearchEngine engine(*server_, {.threads = 1});
  BatchMetrics signed_bm;
  signed_bm.per_query.resize(1);
  ServerMetrics& m = signed_bm.per_query[0];
  m.authorized = true;
  m.scanned = 999;
  m.matched = 999;
  (void)engine.search_batch_signed(signed_queries({&cap, 1}), &signed_bm);
  EXPECT_TRUE(signed_bm.per_query[0].authorized);
  EXPECT_EQ(signed_bm.per_query[0].scanned, server_->record_count());

  // The admitted path never runs the authorization layer, so authorized
  // stays false while the scan layer fills scanned.
  const AnyQuery query = borrow_capability(server_->backend(), cap.cap);
  SearchReply reply;
  reply.metrics.per_query.resize(1);
  reply.metrics.per_query[0].authorized = true;
  engine.serve_admitted({.queries = {&query, 1}}, reply);
  EXPECT_FALSE(reply.metrics.per_query[0].authorized);
  EXPECT_EQ(reply.metrics.per_query[0].scanned, server_->record_count());
}

// A single search stopped by its deadline throws with the caller's metrics
// already filled, exactly as a batch does: the progress so far and the
// outcome flag.
TEST_F(SearchEngineTest, SingleSearchFillsMetricsWhenItThrows) {
  const SignedCapability cap = issue(q3(QueryTerm::equals("Diabetes")));
  SearchEngine engine(*server_, {.threads = 1, .block_records = 1});

  FailpointPolicy slow;
  slow.action = FailAction::kDelay;
  slow.delay_ms = 50;
  Failpoints::instance().set("engine.scan_block", slow);
  ServeControl tight;
  tight.deadline_ms = 25;
  BatchMetrics bm;
  EXPECT_THROW(
      (void)engine.search_batch_signed(signed_queries({&cap, 1}), &bm, tight),
      DeadlineExceeded);
  Failpoints::instance().clear_all();
  ASSERT_EQ(bm.per_query.size(), 1u);
  const ServerMetrics& m = bm.per_query[0];
  EXPECT_TRUE(m.authorized);
  EXPECT_TRUE(m.deadline_exceeded);
  EXPECT_FALSE(m.cancelled);
  EXPECT_LT(m.scanned, server_->record_count());
}

// A batch stopped before a query's prepare ran still flags that query:
// every served query of a stopped batch carries the outcome, whether the
// batch returns partial results or throws. An unauthorized query was never
// served and carries no flag.
TEST_F(SearchEngineTest, StoppedBeforePrepareFlagsEveryServedQuery) {
  std::vector<SignedCapability> caps;
  caps.push_back(issue(q3(QueryTerm::equals("Diabetes"))));
  caps.push_back(ta_.issue(q3(), rng_));  // "TA" is not registered
  caps.push_back(issue(q3(QueryTerm::equals("Flu"))));
  SearchEngine engine(*server_, {.threads = 1});

  std::atomic<bool> cancel{true};
  auto expect_flags = [&](const BatchMetrics& bm, const char* mode) {
    EXPECT_TRUE(bm.cancelled) << mode;
    ASSERT_EQ(bm.per_query.size(), caps.size()) << mode;
    for (std::size_t i = 0; i < caps.size(); ++i) {
      const ServerMetrics& m = bm.per_query[i];
      EXPECT_EQ(m.cancelled, i != 1) << mode << " query " << i;
      EXPECT_FALSE(m.deadline_exceeded) << mode << " query " << i;
      EXPECT_EQ(m.scanned, 0u) << mode << " query " << i;
      EXPECT_EQ(m.prepare_calls, 0u) << mode << " query " << i;
    }
  };

  ServeControl partial;
  partial.cancel = &cancel;
  partial.partial_ok = true;
  BatchMetrics pm;
  const auto out = engine.search_batch_signed(signed_queries(caps), &pm, partial);
  for (const auto& docs : out) EXPECT_TRUE(docs.empty());
  expect_flags(pm, "partial_ok");

  ServeControl strict;
  strict.cancel = &cancel;
  BatchMetrics sm;
  try {
    (void)engine.search_batch_signed(signed_queries(caps), &sm, strict);
    FAIL() << "cancelled batch must throw";
  } catch (const ServingError& err) {
    EXPECT_EQ(err.code(), ErrorCode::kCancelled);
  }
  expect_flags(sm, "throwing");
}

// A disabled prepared-query cache (capacity 0) must stay out of the way —
// never cache, never hit — while keeping its hit/miss totals coherent with
// the engine's prepare_calls (every get is a counted miss).
TEST_F(SearchEngineTest, DisabledPreparedCacheCountsMissesWithoutCaching) {
  const SignedCapability cap = issue(q3(QueryTerm::equals("Diabetes")));
  std::vector<SignedCapability> caps(3, cap);

  SearchEngine engine(*server_, {.threads = 1, .cache_capacity = 0});
  BatchMetrics first;
  const auto a = engine.search_batch_signed(signed_queries(caps), &first);
  EXPECT_EQ(first.prepare_calls, caps.size());  // every query re-prepares
  EXPECT_EQ(first.cache_hits, 0u);

  BatchMetrics second;
  const auto b = engine.search_batch_signed(signed_queries(caps), &second);
  EXPECT_EQ(second.prepare_calls, caps.size());
  EXPECT_EQ(second.cache_hits, 0u);
  EXPECT_EQ(a, b);

  EXPECT_EQ(engine.cache_size(), 0u);
  EXPECT_EQ(engine.cache_hits(), 0u);
  EXPECT_EQ(engine.cache_misses(), 2 * caps.size());  // misses still counted
}

// Regression: a partial (cancelled or deadline-stopped) batch has holes in
// its hit matrix and must never memoize segment verdicts; only a complete
// pass populates the verdict cache.
TEST_F(SearchEngineTest, PartialScansNeverPopulateVerdictCache) {
  const TestDir dir("engine-vcache-partial");
  ShardedStoreOptions sopts;
  sopts.shards = 1;
  sopts.segment.segment_max_bytes = 1;  // seal after every append
  const ApksBackend codec(apks_);
  ShardedStore store(codec, dir.path(), sopts);
  auto put = [&](std::vector<std::string> values, std::string ref) {
    (void)store.append(std::move(ref),
                       apks_.gen_index(ta_.public_key(),
                                       PlainIndex{std::move(values)}, rng_));
  };
  put({"Diabetes", "Male", "Hospital A"}, "doc-bob");
  put({"Diabetes", "Female", "Hospital A"}, "doc-carol");
  put({"Flu", "Male", "Hospital A"}, "doc-dave");
  put({"Diabetes", "Male", "Hospital B"}, "doc-erin");
  store.sync();

  CapabilityVerifier verifier(e_, ta_.ibs_params());
  verifier.register_authority("hospital-A");
  CloudServer server(apks_, std::move(verifier));
  ASSERT_EQ(server.load_from(store), 4u);
  ASSERT_FALSE(server.segment_table().empty());

  SearchEngine::Options opts;
  opts.threads = 1;
  opts.block_records = 1;
  opts.verdict_cache_bytes = 1 << 20;
  SearchEngine engine(server, opts);
  ASSERT_NE(engine.verdict_cache(), nullptr);
  const SignedCapability cap = issue(q3(QueryTerm::equals("Diabetes")));
  const std::vector<SignedQuery> query = signed_queries({&cap, 1});

  // (a) Cancelled before any work: nothing may be memoized.
  std::atomic<bool> cancel{true};
  ServeControl ctl;
  ctl.cancel = &cancel;
  ctl.partial_ok = true;
  BatchMetrics cm;
  (void)engine.search_batch_signed(query, &cm, ctl);
  EXPECT_TRUE(cm.cancelled);
  EXPECT_EQ(cm.verdict_puts, 0u);
  EXPECT_EQ(engine.verdict_cache()->stats().insertions, 0u);

  // (b) Deadline fires mid-scan (each block stalls 50 ms, budget 40 ms):
  // the hit matrix is incomplete, so population must be skipped.
  FailpointPolicy slow;
  slow.action = FailAction::kDelay;
  slow.delay_ms = 50;
  Failpoints::instance().set("engine.scan_block", slow);
  ServeControl tight;
  tight.deadline_ms = 40;
  tight.partial_ok = true;
  BatchMetrics dm;
  (void)engine.search_batch_signed(query, &dm, tight);
  Failpoints::instance().clear_all();
  EXPECT_TRUE(dm.deadline_exceeded);
  EXPECT_LT(dm.per_query[0].scanned, server.record_count());
  EXPECT_EQ(dm.verdict_puts, 0u);
  EXPECT_EQ(engine.verdict_cache()->stats().insertions, 0u);

  // (c) A complete pass memoizes, and the repeat resolves from the cache
  // with byte-identical results.
  BatchMetrics full;
  const auto want = engine.search_batch_signed(query, &full);
  EXPECT_GT(full.verdict_puts, 0u);
  BatchMetrics hot;
  const auto got = engine.search_batch_signed(query, &hot);
  EXPECT_EQ(got, want);
  EXPECT_GT(hot.verdict_hits, 0u);
  EXPECT_EQ(hot.verdict_puts, 0u);
}

// The worker count follows the pairing work left after the verdict probe:
// a batch the verdict cache answers entirely runs on the calling thread
// with zero pairings, while an unmemoized segment or an unsealed record
// brings the configured workers back. Results stay identical either way,
// with or without a caller-supplied digest.
TEST_F(SearchEngineTest, VerdictCachedBatchRunsOnTheCallingThread) {
  const TestDir dir("engine-vcache-threads");
  ShardedStoreOptions sopts;
  sopts.shards = 1;
  sopts.segment.segment_max_bytes = 1;  // seal after every append
  const ApksBackend codec(apks_);
  ShardedStore store(codec, dir.path(), sopts);
  auto put = [&](std::vector<std::string> values, std::string ref) {
    (void)store.append(std::move(ref),
                       apks_.gen_index(ta_.public_key(),
                                       PlainIndex{std::move(values)}, rng_));
  };
  put({"Diabetes", "Male", "Hospital A"}, "doc-bob");
  put({"Diabetes", "Female", "Hospital A"}, "doc-carol");
  put({"Flu", "Male", "Hospital A"}, "doc-dave");
  put({"Diabetes", "Male", "Hospital B"}, "doc-erin");
  store.sync();
  (void)store.compact();  // seals the active tail too

  CloudServer server(apks_, CapabilityVerifier(e_, ta_.ibs_params()));
  ASSERT_EQ(server.load_from(store), 4u);

  SearchEngine::Options opts;
  opts.threads = 2;
  opts.block_records = 1;
  opts.verdict_cache_bytes = 1 << 20;
  const SearchEngine engine(server, opts);
  // The oracle scans every record live, with no cache of any kind.
  const SearchEngine oracle(server, {.threads = 1, .cache_capacity = 0});
  const SearchBackend& backend = server.backend();

  const AnyQuery qa = AnyQuery::own(
      SchemeKind::kApks, issue(q3(QueryTerm::equals("Diabetes"))).cap);
  const AnyQuery qb = AnyQuery::own(
      SchemeKind::kApks, issue(q3(QueryTerm::any(),
                                  QueryTerm::equals("Male"))).cap);
  const std::vector<AnyQuery> both = {qa, qb};
  const std::vector<QueryDigest> digests = {backend.digest(qa),
                                            backend.digest(qb)};
  const auto want = serve(oracle, {.queries = both}).refs;
  ASSERT_NE(want[0], want[1]);

  // Cold: every segment is unmemoized, so the configured workers scan.
  const SearchReply cold_reply = serve(engine, {.queries = {&qa, 1}});
  const BatchMetrics& cold = cold_reply.metrics;
  EXPECT_EQ(cold_reply.refs[0], want[0]);
  EXPECT_EQ(cold.threads, 2u);
  EXPECT_GT(cold.ops.final_exp, 0u);
  EXPECT_EQ(cold.verdict_puts, server.segment_table().size());

  // Hot: the verdict cache answers every record — calling thread, zero
  // pairings — with and without the digest supplied.
  for (const bool supplied : {false, true}) {
    const SearchReply reply = serve(
        engine,
        {.queries = {&qa, 1},
         .digests = supplied ? std::span<const QueryDigest>(digests.data(), 1)
                             : std::span<const QueryDigest>()});
    const BatchMetrics& hot = reply.metrics;
    EXPECT_EQ(reply.refs[0], want[0]) << "supplied=" << supplied;
    EXPECT_EQ(hot.threads, 1u) << "supplied=" << supplied;
    EXPECT_EQ(hot.verdict_hits, 4u) << "supplied=" << supplied;
    EXPECT_EQ(hot.ops.miller + hot.ops.multi_miller + hot.ops.final_exp, 0u)
        << "supplied=" << supplied;
  }

  // One memoized and one unmemoized query in a batch: pairing work is
  // left, so the workers come back; the ids path agrees with the plain one.
  const SearchReply mixed =
      serve(engine, {.queries = both, .digests = digests, .want_ids = true});
  EXPECT_EQ(mixed.refs, want);
  EXPECT_EQ(mixed.metrics.threads, 2u);
  EXPECT_EQ(mixed.ids[0].size(), want[0].size());
  EXPECT_EQ(mixed.ids[1].size(), want[1].size());

  // An unsealed tail record is always scanned live, even when every sealed
  // segment is memoized for every query.
  (void)server.store(apks_.gen_index(ta_.public_key(),
                                     PlainIndex{{"Diabetes", "Male",
                                                 "Hospital C"}},
                                     rng_),
                     "doc-gil");
  const auto want_tail = serve(oracle, {.queries = both}).refs;
  const SearchReply tail_reply =
      serve(engine, {.queries = both, .digests = digests});
  const BatchMetrics& tail = tail_reply.metrics;
  EXPECT_EQ(tail_reply.refs, want_tail);
  EXPECT_EQ(tail.threads, 2u);
  EXPECT_EQ(tail.verdict_hits, 2 * 4u);
  EXPECT_GT(tail.ops.final_exp, 0u);

  // A digest span that does not cover the batch is a caller error.
  EXPECT_THROW(
      (void)serve(engine, {.queries = both, .digests = {digests.data(), 1}}),
      std::invalid_argument);
}

// The lifetime counters are snapshotted under one lock; concurrent batches
// must produce a final snapshot whose outcome counts exactly add up (a torn
// view would undercount one field while overcounting another).
TEST_F(SearchEngineTest, CountersSnapshotAddsUpUnderConcurrency) {
  const SignedCapability cap = issue(q3(QueryTerm::equals("Diabetes")));
  const std::vector<SignedQuery> query = signed_queries({&cap, 1});
  SearchEngine engine(*server_, {.threads = 1});

  constexpr int kBatches = 3;
  std::atomic<bool> cancel{true};
  std::vector<std::thread> pool;
  for (int t = 0; t < kBatches; ++t) {
    pool.emplace_back([&] {
      (void)engine.search_batch_signed(query);  // served
      ServeControl ctl;
      ctl.cancel = &cancel;
      ctl.partial_ok = true;
      (void)engine.search_batch_signed(query, nullptr, ctl);  // cancelled
      const EngineCounters mid = engine.counters();  // racing snapshot
      EXPECT_LE(mid.served + mid.cancelled, 2u * kBatches);
    });
  }
  for (auto& t : pool) t.join();

  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.served, static_cast<std::uint64_t>(kBatches));
  EXPECT_EQ(counters.cancelled, static_cast<std::uint64_t>(kBatches));
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_EQ(counters.deadline_exceeded, 0u);
}

TEST_F(SearchEngineTest, ConcurrentStoreAndSearchAreSerialized) {
  // Writer uploads while a two-worker scan runs: the shared_mutex must keep
  // every scan on a consistent snapshot (this is the TSan target of
  // tools/ci.sh).
  const SignedCapability cap = issue(q3(QueryTerm::equals("Diabetes")));
  auto extra = apks_.gen_index(ta_.public_key(),
                               PlainIndex{{"Diabetes", "Male", "Hospital A"}},
                               rng_);
  const std::size_t before = server_->record_count();
  SearchEngine engine(*server_, {.threads = 2, .block_records = 1});

  std::thread writer([&] {
    (void)server_->store(std::move(extra), "doc-late");
  });
  for (int i = 0; i < 3; ++i) {
    BatchMetrics bm;
    (void)engine.search_batch_signed(signed_queries({&cap, 1}), &bm);
    const ServerMetrics& m = bm.per_query[0];
    EXPECT_TRUE(m.authorized);
    EXPECT_TRUE(m.scanned == before || m.scanned == before + 1);
  }
  writer.join();
  EXPECT_EQ(server_->record_count(), before + 1);
}

}  // namespace
}  // namespace apks
