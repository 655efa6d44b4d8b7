// Verdict-cache speedup and equivalence: hot repeated queries over a
// sealed-segment-dominated store.
//
// The paper's search is pairing-bound (~tens of probes/s), and a sealed
// segment's record set never changes — so the per-segment verdict cache
// (cloud/verdict_cache.h) should turn a repeated hot query into binary
// searches over memoized id lists, paying pairings only for the active
// tail. This bench measures exactly that claim on a store where almost
// every record lives in a sealed segment (segment_max_bytes = 1 seals
// after every append):
//
//   cold: first batch through an engine with the cache enabled (misses,
//         full pairing scan, populates)
//   hot:  the same batch repeated (verdict hits, no pairings beyond the
//         active tail)
//
// Gate: hot probes_per_s >= 5x cold (the ISSUE acceptance bar; in
// practice it is orders of magnitude). Alongside the speedup, the bench
// asserts byte-identical results between cached and uncached engines
// across the events that change segment identities: more appends
// (rotations), compaction, and a crash-style store reopen — with ONE
// shared VerdictCache surviving all of them, so stale entries would be
// caught, not aged out.
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "core/serialize_apks.h"
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

using Results = std::vector<std::vector<std::string>>;

bool same_results(const Results& a, const Results& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

// One batch through the engine's admitted entry point.
Results serve(const SearchEngine& engine, std::span<const AnyQuery> queries,
              BatchMetrics* metrics = nullptr) {
  SearchReply reply;
  engine.serve_admitted({.queries = queries}, reply);
  if (metrics != nullptr) *metrics = std::move(reply.metrics);
  return std::move(reply.refs);
}

// The uncached ground truth: a fresh engine with no verdict cache.
Results reference_results(const CloudServer& server,
                          std::span<const AnyQuery> queries) {
  return serve(SearchEngine(server), queries);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv, "BENCH_cache.json");
  const std::size_t kRecords = args.smoke ? 20 : 48;
  const std::size_t kExtra = args.smoke ? 4 : 8;  // appended later (rotations)
  const std::uint32_t kShards = 2;
  const std::size_t kHotIters = args.smoke ? 3 : 10;

  const Pairing pairing(default_type_a_params());
  ChaChaRng rng("bench-cache");
  const Apks scheme(pairing, nursery_schema(1));
  ApksPublicKey pk;
  ApksMasterKey msk;
  scheme.setup(rng, pk, msk);
  const ApksBackend backend(scheme);

  const std::vector<PlainIndex> rows = nursery_rows();
  auto make_index = [&](std::size_t i) {
    return scheme.gen_index(pk, rows[(i * 739) % rows.size()], rng);
  };
  const std::vector<Capability> caps = {
      scheme.gen_cap(msk, nursery_worst_case_query(1, rng), rng),
      scheme.gen_cap(msk, nursery_worst_case_query(1, rng), rng),
  };
  const std::vector<AnyQuery> queries = borrow_capabilities(backend, caps);

  const fs::path dir =
      fs::temp_directory_path() /
      ("apks-bench-cache-" + std::to_string(static_cast<unsigned>(getpid())));
  fs::remove_all(dir);

  print_header("Per-segment verdict cache: hot-query speedup + equivalence",
               "search is pairing-bound (Sec. 5.2 linear scan); memoized "
               "sealed-segment verdicts should collapse repeated queries to "
               "binary searches");

  // Sealed-segment-dominated store: segment_max_bytes = 1 rotates before
  // every append after the first, so only the newest record per shard sits
  // in the (unsealed) active tail.
  ShardedStoreOptions opts;
  opts.shards = kShards;
  opts.segment.segment_max_bytes = 1;
  auto store = std::make_unique<ShardedStore>(backend, dir, opts);
  for (std::size_t i = 0; i < kRecords; ++i) {
    (void)store->append("doc-" + std::to_string(i), make_index(i));
  }
  store->sync();

  CloudServer server(scheme, CapabilityVerifier(pairing, IbsPublicParams{}));
  const std::size_t loaded = server.load_from(*store);
  const std::size_t sealed_segments = server.segment_table().size();
  std::printf("records: %zu (%zu sealed segments), queries: %zu\n", loaded,
              sealed_segments, caps.size());

  JsonReport report("bench_cache", args);
  report.set_meta("records", kRecords);
  report.set_meta("shards", kShards);
  report.set_meta("sealed_segments", sealed_segments);
  report.set_meta("queries", caps.size());

  // One cache shared by every cached engine below — it must stay correct
  // across rotations, compaction, and a store reopen.
  const auto vcache = std::make_shared<VerdictCache>(8u << 20);
  SearchEngine::Options eopts;
  eopts.verdict_cache = vcache;
  SearchEngine engine(server, eopts);
  store->set_invalidation_hook([&vcache](std::span<const SegmentId> retired) {
    vcache->invalidate(retired);
  });

  const Results expect = reference_results(server, queries);

  // --- Cold: first batch misses everywhere, runs the pairing scan, and
  // memoizes every (query, sealed segment) verdict.
  BatchMetrics cold_m;
  Timer cold_t;
  const Results cold = serve(engine, queries, &cold_m);
  const double cold_s = cold_t.seconds();
  if (!same_results(cold, expect)) {
    std::fprintf(stderr, "FAIL: cold cached batch != uncached reference\n");
    return 1;
  }
  const double probes = static_cast<double>(loaded * caps.size());
  const double cold_pps = probes / cold_s;
  std::printf("cold: %.4f s (%.0f probes/s), %zu verdicts memoized\n", cold_s,
              cold_pps, cold_m.verdict_puts);
  report.add_row({{"phase", "cold"},
                  {"seconds", cold_s},
                  {"probes_per_s", cold_pps},
                  {"verdict_puts", cold_m.verdict_puts}});

  // --- Hot: identical batch; sealed records resolve from the cache.
  BatchMetrics hot_m;
  double hot_s = 0;
  Results hot;
  for (std::size_t i = 0; i < kHotIters; ++i) {
    Timer t;
    hot = serve(engine, queries, &hot_m);
    const double s = t.seconds();
    if (i == 0 || s < hot_s) hot_s = s;  // best of N (hot path, no warmup)
  }
  if (!same_results(hot, expect)) {
    std::fprintf(stderr, "FAIL: hot cached batch != uncached reference\n");
    return 1;
  }
  const double hot_pps = probes / hot_s;
  const double speedup = hot_pps / cold_pps;
  std::printf("hot: %.6f s (%.0f probes/s) — %.1fx cold; %zu/%zu records "
              "from cache\n",
              hot_s, hot_pps, speedup, hot_m.verdict_hits,
              loaded * caps.size());
  report.add_row({{"phase", "hot"},
                  {"seconds", hot_s},
                  {"probes_per_s", hot_pps},
                  {"speedup_vs_cold", speedup},
                  {"verdict_hits", hot_m.verdict_hits}});

  bool ok = true;
  if (speedup < 5.0) {
    std::fprintf(stderr, "FAIL: hot speedup %.2fx below the 5x gate\n",
                 speedup);
    ok = false;
  }

  // --- Equivalence under rotation: more appends seal new segments (and
  // re-seal the old active tails); the reloaded server mixes old cached
  // identities with new ones.
  for (std::size_t i = 0; i < kExtra; ++i) {
    (void)store->append("doc-extra-" + std::to_string(i),
                        make_index(kRecords + i));
  }
  store->sync();
  (void)server.load_from(*store);
  {
    const Results got = serve(engine, queries);
    const Results want = reference_results(server, queries);
    const bool same = same_results(got, want);
    std::printf("after rotations: %s\n", same ? "identical" : "MISMATCH");
    report.add_row({{"phase", "equiv_rotate"}, {"identical", same ? 1 : 0}});
    ok = ok && same;
  }

  // --- Equivalence under compaction: every segment identity is replaced;
  // the invalidation hook drops the retired verdicts.
  const LruStats before_compact = vcache->stats();
  (void)store->compact();
  (void)server.load_from(*store);
  {
    const Results got = serve(engine, queries);
    const Results want = reference_results(server, queries);
    const bool same = same_results(got, want);
    const LruStats after = vcache->stats();
    std::printf("after compaction: %s (%" PRIu64 " verdicts invalidated)\n",
                same ? "identical" : "MISMATCH",
                after.erased - before_compact.erased);
    report.add_row({{"phase", "equiv_compact"},
                    {"identical", same ? 1 : 0},
                    {"invalidated", static_cast<std::size_t>(
                                        after.erased - before_compact.erased)}});
    ok = ok && same;
  }

  // --- Equivalence across a crash-style reopen: drop the store object
  // without any shutdown ceremony, reopen the directory, rebuild the
  // server — the SAME shared cache keeps serving (sealed identities are
  // durable, so its entries stay valid).
  store.reset();
  store = std::make_unique<ShardedStore>(backend, dir, opts);
  CloudServer server2(scheme, CapabilityVerifier(pairing, IbsPublicParams{}));
  (void)server2.load_from(*store);
  {
    SearchEngine engine2(server2, eopts);  // same shared vcache
    BatchMetrics m2;
    const Results got = serve(engine2, queries, &m2);
    const Results want = reference_results(server2, queries);
    const bool same = same_results(got, want);
    std::printf("after crash-reopen: %s (%zu records served from the "
                "surviving cache)\n",
                same ? "identical" : "MISMATCH", m2.verdict_hits);
    report.add_row({{"phase", "equiv_reopen"},
                    {"identical", same ? 1 : 0},
                    {"verdict_hits", m2.verdict_hits}});
    ok = ok && same;
  }

  const LruStats vs = vcache->stats();
  report.add_row({{"phase", "cache_totals"},
                  {"hits", static_cast<std::size_t>(vs.hits)},
                  {"misses", static_cast<std::size_t>(vs.misses)},
                  {"insertions", static_cast<std::size_t>(vs.insertions)},
                  {"invalidated", static_cast<std::size_t>(vs.erased)},
                  {"entries", vs.entries},
                  {"bytes", static_cast<std::size_t>(vs.cost)}});

  fs::remove_all(dir);
  if (args.json && !report.write(args.json_path)) return 1;
  return ok ? 0 : 1;
}
