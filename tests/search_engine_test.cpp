// SearchEngine: batched multi-query serving must be observationally
// identical to independent CloudServer::search calls, with the metrics
// layers (authorization / preprocessing-cache / scan) each filling only
// their own fields.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "common/failpoint.h"
#include "store/sharded_store.h"
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
    (void)server_->store(
        apks_.gen_index(ta_.public_key(), PlainIndex{std::move(values)}, rng_),
        std::move(ref));
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
  const auto batch = engine.search_batch(caps, &metrics);

  ASSERT_EQ(batch.size(), caps.size());
  ASSERT_EQ(metrics.per_query.size(), caps.size());
  EXPECT_EQ(metrics.queries, caps.size());
  EXPECT_EQ(metrics.authorized, caps.size() - 1);
  EXPECT_EQ(metrics.records, server_->record_count());

  for (std::size_t i = 0; i < caps.size(); ++i) {
    CloudServer::SearchStats stats;
    const auto expect = server_->search(caps[i], &stats);
    EXPECT_EQ(batch[i], expect) << "query " << i;  // same docs, same order
    EXPECT_EQ(metrics.per_query[i].authorized, stats.authorized);
    EXPECT_EQ(metrics.per_query[i].scanned, stats.scanned);
    EXPECT_EQ(metrics.per_query[i].matched, stats.matched);
  }
}

TEST_F(SearchEngineTest, UnauthorizedQueryIsNeverScanned) {
  const SignedCapability forged = ta_.issue(q3(), rng_);
  SearchEngine engine(*server_);
  ServerMetrics m;
  const auto docs = engine.search(forged, &m);
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
  const auto batch = engine.search_batch(caps, &metrics);

  EXPECT_EQ(metrics.prepare_calls, 1u);  // one miss, Q-1 hits
  EXPECT_EQ(metrics.cache_hits, caps.size() - 1);
  for (std::size_t i = 1; i < batch.size(); ++i) EXPECT_EQ(batch[i], batch[0]);

  // A later batch with the same capability hits the cache across batches.
  BatchMetrics again;
  (void)engine.search_batch({&cap, 1}, &again);
  EXPECT_EQ(again.prepare_calls, 0u);
  EXPECT_EQ(again.cache_hits, 1u);
  EXPECT_EQ(engine.cache_misses(), 1u);
  EXPECT_EQ(engine.cache_hits(), caps.size());
}

TEST_F(SearchEngineTest, DeterministicAcrossThreadAndBlockCounts) {
  std::vector<SignedCapability> caps;
  caps.push_back(issue(q3(QueryTerm::equals("Diabetes"))));
  caps.push_back(issue(q3(QueryTerm::equals("Flu"))));

  std::vector<std::vector<std::string>> reference;
  for (const auto& cap : caps) reference.push_back(server_->search(cap));

  for (const std::size_t threads : {1u, 2u, 4u, 0u}) {
    for (const std::size_t block : {1u, 3u, 16u}) {
      SearchEngine engine(*server_,
                          {.threads = threads, .block_records = block});
      EXPECT_EQ(engine.search_batch(caps), reference)
          << "threads=" << threads << " block=" << block;
    }
  }
}

TEST_F(SearchEngineTest, MetricsReportPairingWork) {
  const SignedCapability cap = issue(q3(QueryTerm::equals("Diabetes")));
  SearchEngine engine(*server_, {.threads = 1});
  ServerMetrics m;
  const auto docs = engine.search(cap, &m);
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

  CloudServer::SearchStats stats;
  const auto docs = server_->search_parallel(good, 3, &stats);
  EXPECT_TRUE(stats.authorized);
  EXPECT_EQ(stats.scanned, server_->record_count());
  EXPECT_EQ(docs, server_->search(good));

  // Stale values in the caller's struct must not leak through either layer.
  stats = {true, 999, 999};
  const auto rejected = server_->search_parallel(forged, 3, &stats);
  EXPECT_TRUE(rejected.empty());
  EXPECT_FALSE(stats.authorized);
  EXPECT_EQ(stats.scanned, 0u);
  EXPECT_EQ(stats.matched, 0u);
}

TEST_F(SearchEngineTest, StatsLayersFillOnlyTheirOwnFields) {
  const SignedCapability cap = issue(q3(QueryTerm::equals("Diabetes")));
  CloudServer::SearchStats stats{true, 999, 999};
  (void)server_->search(cap, &stats);
  EXPECT_TRUE(stats.authorized);
  EXPECT_EQ(stats.scanned, server_->record_count());

  // The unchecked scan owns only scanned/matched: authorized is untouched.
  stats = {};
  (void)server_->search_unchecked(cap.cap, &stats);
  EXPECT_FALSE(stats.authorized);
  EXPECT_EQ(stats.scanned, server_->record_count());
}

// A disabled prepared-query cache (capacity 0) must stay out of the way —
// never cache, never hit — while keeping its hit/miss totals coherent with
// the engine's prepare_calls (every get is a counted miss).
TEST_F(SearchEngineTest, DisabledPreparedCacheCountsMissesWithoutCaching) {
  const SignedCapability cap = issue(q3(QueryTerm::equals("Diabetes")));
  std::vector<SignedCapability> caps(3, cap);

  SearchEngine engine(*server_, {.threads = 1, .cache_capacity = 0});
  BatchMetrics first;
  const auto a = engine.search_batch(caps, &first);
  EXPECT_EQ(first.prepare_calls, caps.size());  // every query re-prepares
  EXPECT_EQ(first.cache_hits, 0u);

  BatchMetrics second;
  const auto b = engine.search_batch(caps, &second);
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

  // (a) Cancelled before any work: nothing may be memoized.
  std::atomic<bool> cancel{true};
  ServeControl ctl;
  ctl.cancel = &cancel;
  ctl.partial_ok = true;
  BatchMetrics cm;
  (void)engine.search_batch({&cap, 1}, &cm, ctl);
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
  (void)engine.search_batch({&cap, 1}, &dm, tight);
  Failpoints::instance().clear_all();
  EXPECT_TRUE(dm.deadline_exceeded);
  EXPECT_LT(dm.per_query[0].scanned, server.record_count());
  EXPECT_EQ(dm.verdict_puts, 0u);
  EXPECT_EQ(engine.verdict_cache()->stats().insertions, 0u);

  // (c) A complete pass memoizes, and the repeat resolves from the cache
  // with byte-identical results.
  BatchMetrics full;
  const auto want = engine.search_batch({&cap, 1}, &full);
  EXPECT_GT(full.verdict_puts, 0u);
  BatchMetrics hot;
  const auto got = engine.search_batch({&cap, 1}, &hot);
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
  const auto want = oracle.search_batch_unchecked_any(both);
  ASSERT_NE(want[0], want[1]);

  // Cold: every segment is unmemoized, so the configured workers scan.
  BatchMetrics cold;
  EXPECT_EQ(engine.search_batch_unchecked_any({&qa, 1}, &cold)[0], want[0]);
  EXPECT_EQ(cold.threads, 2u);
  EXPECT_GT(cold.ops.final_exp, 0u);
  EXPECT_EQ(cold.verdict_puts, server.segment_table().size());

  // Hot: the verdict cache answers every record — calling thread, zero
  // pairings — with and without the digest supplied.
  for (const bool supplied : {false, true}) {
    BatchMetrics hot;
    const auto got = engine.search_batch_unchecked_any(
        {&qa, 1}, &hot, {},
        supplied ? std::span<const QueryDigest>(digests.data(), 1)
                 : std::span<const QueryDigest>());
    EXPECT_EQ(got[0], want[0]) << "supplied=" << supplied;
    EXPECT_EQ(hot.threads, 1u) << "supplied=" << supplied;
    EXPECT_EQ(hot.verdict_hits, 4u) << "supplied=" << supplied;
    EXPECT_EQ(hot.ops.miller + hot.ops.multi_miller + hot.ops.final_exp, 0u)
        << "supplied=" << supplied;
  }

  // One memoized and one unmemoized query in a batch: pairing work is
  // left, so the workers come back; the ids path agrees with the plain one.
  BatchMetrics mixed;
  std::vector<std::vector<std::uint64_t>> ids;
  const auto got_mixed = engine.search_batch_unchecked_any_ids(
      both, &ids, &mixed, {}, digests);
  EXPECT_EQ(got_mixed, want);
  EXPECT_EQ(mixed.threads, 2u);
  EXPECT_EQ(ids[0].size(), want[0].size());
  EXPECT_EQ(ids[1].size(), want[1].size());

  // An unsealed tail record is always scanned live, even when every sealed
  // segment is memoized for every query.
  (void)server.store(apks_.gen_index(ta_.public_key(),
                                     PlainIndex{{"Diabetes", "Male",
                                                 "Hospital C"}},
                                     rng_),
                     "doc-gil");
  const auto want_tail = oracle.search_batch_unchecked_any(both);
  BatchMetrics tail;
  EXPECT_EQ(engine.search_batch_unchecked_any(both, &tail, {}, digests),
            want_tail);
  EXPECT_EQ(tail.threads, 2u);
  EXPECT_EQ(tail.verdict_hits, 2 * 4u);
  EXPECT_GT(tail.ops.final_exp, 0u);

  // A digest span that does not cover the batch is a caller error.
  EXPECT_THROW((void)engine.search_batch_unchecked_any(
                   both, nullptr, {},
                   std::span<const QueryDigest>(digests.data(), 1)),
               std::invalid_argument);
}

// The lifetime counters are snapshotted under one lock; concurrent batches
// must produce a final snapshot whose outcome counts exactly add up (a torn
// view would undercount one field while overcounting another).
TEST_F(SearchEngineTest, CountersSnapshotAddsUpUnderConcurrency) {
  const SignedCapability cap = issue(q3(QueryTerm::equals("Diabetes")));
  SearchEngine engine(*server_, {.threads = 1});

  constexpr int kBatches = 3;
  std::atomic<bool> cancel{true};
  std::vector<std::thread> pool;
  for (int t = 0; t < kBatches; ++t) {
    pool.emplace_back([&] {
      (void)engine.search_batch({&cap, 1});  // served
      ServeControl ctl;
      ctl.cancel = &cancel;
      ctl.partial_ok = true;
      (void)engine.search_batch({&cap, 1}, nullptr, ctl);  // cancelled
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
  // Writer uploads while readers scan: the shared_mutex must keep every
  // scan on a consistent snapshot (this is the TSan target of tools/ci.sh).
  const SignedCapability cap = issue(q3(QueryTerm::equals("Diabetes")));
  auto extra = apks_.gen_index(ta_.public_key(),
                               PlainIndex{{"Diabetes", "Male", "Hospital A"}},
                               rng_);
  const std::size_t before = server_->record_count();

  std::thread writer([&] {
    (void)server_->store(std::move(extra), "doc-late");
  });
  for (int i = 0; i < 3; ++i) {
    CloudServer::SearchStats stats;
    (void)server_->search_parallel(cap, 2, &stats);
    EXPECT_TRUE(stats.authorized);
    EXPECT_TRUE(stats.scanned == before || stats.scanned == before + 1);
  }
  writer.join();
  EXPECT_EQ(server_->record_count(), before + 1);
}

}  // namespace
}  // namespace apks
