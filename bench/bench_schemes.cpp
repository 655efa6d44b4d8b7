// Cross-scheme serving comparison (Table III shape): APKS, APKS+ and
// MRQED^D over the same Nursery workload, all served through the identical
// backend-driven CloudServer/SearchEngine path, so the numbers differ only
// in the cryptography — setup, index build, ingest (which for APKS+
// includes the proxy transformation chain), and the batched linear scan
// with its pairing-op counts.
//
// The paper's claim under test: per scanned record APKS pays ~2(n+1)
// Miller loops behind one multi-pairing (one final exponentiation), APKS+
// pays the same at serve time (the proxy cost is front-loaded at ingest),
// while MRQED^D pays 5 pairings per AIBE probe but over a D*(depth+1)
// node cover — a different latency/flexibility trade, not a strict order.
//
// MRQED's workload maps each Nursery row onto a D-dimensional point by
// hashing its first D attribute values into [0, 2^depth); its queries are
// the paper's "point on one dimension, don't-care elsewhere" shape (dim 0
// pinned, full domain on the rest).
#include "bench/bench_util.h"
#include "cloud/proxy.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "core/apks_backend.h"
#include "core/apks_plus.h"
#include "mrqed/mrqed_backend.h"

using namespace apks;
using namespace apks::bench;

namespace {

struct Timer {
  Clock::time_point start = Clock::now();
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }
};

// Deterministic map from a categorical attribute value to the MRQED domain.
std::uint64_t attr_to_coord(const std::string& value, std::uint64_t domain) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char c : value) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h % domain;
}

struct SchemeRun {
  const char* name = "";
  double setup_s = 0;
  double index_s = 0;    // building all encrypted indexes (owner side)
  double ingest_s = 0;   // server admission (APKS+: proxy chain + canary)
  double batch_wall_s = 0;
  std::size_t records = 0;
  std::size_t queries = 0;
  std::size_t matched = 0;
  std::uint64_t miller = 0;
  std::uint64_t multi_miller = 0;
  std::uint64_t final_exp = 0;
};

void report_run(const SchemeRun& r, JsonReport& report) {
  const double probes = static_cast<double>(r.records * r.queries);
  std::printf(
      "%-6s setup %7.3fs  index %7.3fs  ingest %7.3fs  batch %7.3fs  "
      "(%5.1f probes/s)  matched %3zu  miller %6llu  multi %5llu  "
      "final_exp %5llu\n",
      r.name, r.setup_s, r.index_s, r.ingest_s, r.batch_wall_s,
      r.batch_wall_s > 0 ? probes / r.batch_wall_s : 0.0, r.matched,
      static_cast<unsigned long long>(r.miller),
      static_cast<unsigned long long>(r.multi_miller),
      static_cast<unsigned long long>(r.final_exp));
  report.add_row({{"scheme", r.name},
                  {"records", r.records},
                  {"queries", r.queries},
                  {"setup_s", r.setup_s},
                  {"index_s", r.index_s},
                  {"ingest_s", r.ingest_s},
                  {"batch_wall_s", r.batch_wall_s},
                  {"probes_per_s",
                   r.batch_wall_s > 0 ? probes / r.batch_wall_s : 0.0},
                  {"matched", r.matched},
                  {"miller", static_cast<double>(r.miller)},
                  {"multi_miller", static_cast<double>(r.multi_miller)},
                  {"final_exp", static_cast<double>(r.final_exp)}});
}

// Runs the query batch through the unified engine and fills the serve-side
// numbers of `run` from the per-query metrics.
void serve_batch(const CloudServer& server, std::span<const AnyQuery> queries,
                 std::size_t threads, SchemeRun& run) {
  const SearchEngine engine(server, {.threads = threads});
  BatchMetrics metrics;
  const auto results = engine.search_batch_unchecked_any(queries, &metrics);
  run.batch_wall_s = metrics.wall_s;
  run.records = metrics.records;
  run.queries = metrics.queries;
  for (std::size_t i = 0; i < results.size(); ++i) {
    run.matched += results[i].size();
    run.miller += metrics.per_query[i].ops.miller;
    run.multi_miller += metrics.per_query[i].ops.multi_miller;
    run.final_exp += metrics.per_query[i].ops.final_exp;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv, "BENCH_schemes.json");
  const std::size_t kRecords = args.smoke ? 12 : 48;
  const std::size_t kQueries = args.smoke ? 3 : 6;
  const std::size_t kThreads = 2;
  const std::size_t kProxies = 2;
  const std::size_t kDims = 2;
  const std::size_t kDepth = 4;  // MRQED domain [0, 16) per dimension

  const Pairing e(default_type_a_params());
  ChaChaRng rng("bench-schemes");
  const std::vector<PlainIndex> rows = nursery_rows();
  const CapabilityVerifier stub_verifier(e, IbsPublicParams{});

  // The shared workload: which Nursery rows are stored, which are probed.
  std::vector<const PlainIndex*> workload;
  for (std::size_t i = 0; i < kRecords; ++i) {
    workload.push_back(&rows[(i * 739) % rows.size()]);
  }
  std::vector<std::size_t> probe_rows;
  for (std::size_t q = 0; q < kQueries; ++q) {
    probe_rows.push_back((q * 5) % kRecords);
  }

  print_header("Cross-scheme serving comparison (Table III shape)",
               "same Nursery workload through one CloudServer/SearchEngine; "
               "APKS ~2(n+1) Millers + 1 final-exp per record, APKS+ moves "
               "the r-rescale to ingest, MRQED^D pays 5 pairings per probe "
               "over its interval cover");
  std::printf("records: %zu, queries: %zu, threads: %zu\n\n", kRecords,
              kQueries, kThreads);

  JsonReport report("bench_schemes", args);
  report.set_meta("records", kRecords);
  report.set_meta("queries", kQueries);
  report.set_meta("threads", kThreads);
  report.set_meta("mrqed_dims", kDims);
  report.set_meta("mrqed_depth", kDepth);

  // --- APKS (Section IV) --------------------------------------------------
  {
    SchemeRun run;
    run.name = "apks";
    const Apks scheme(e, nursery_schema(1));
    ApksPublicKey pk;
    ApksMasterKey msk;
    {
      Timer t;
      scheme.setup(rng, pk, msk);
      run.setup_s = t.seconds();
    }
    std::vector<EncryptedIndex> indexes;
    {
      Timer t;
      for (const PlainIndex* row : workload) {
        indexes.push_back(scheme.gen_index(pk, *row, rng));
      }
      run.index_s = t.seconds();
    }
    const ApksBackend backend(scheme);
    CloudServer server(backend, stub_verifier);
    {
      Timer t;
      for (std::size_t i = 0; i < indexes.size(); ++i) {
        (void)server.store(std::move(indexes[i]), "doc-" + std::to_string(i));
      }
      run.ingest_s = t.seconds();
    }
    std::vector<Capability> caps;
    std::vector<AnyQuery> queries;
    for (const std::size_t r : probe_rows) {
      caps.push_back(
          scheme.gen_cap(msk, nursery_point_query(*workload[r]), rng));
    }
    for (const Capability& cap : caps) {
      queries.push_back(AnyQuery::ref(SchemeKind::kApks, &cap));
    }
    serve_batch(server, queries, kThreads, run);
    report_run(run, report);
  }

  // --- APKS+ (Section V): proxy chain + canary at ingest ------------------
  {
    SchemeRun run;
    run.name = "apks+";
    const ApksPlus plus(e, nursery_schema(1));
    Timer setup_t;
    const ApksPlusSetupResult setup = plus.setup_plus(rng);
    run.setup_s = setup_t.seconds();

    std::vector<EncryptedIndex> partials;
    {
      Timer t;
      for (const PlainIndex* row : workload) {
        partials.push_back(plus.partial_gen_index(setup.pk, *row, rng));
      }
      run.index_s = t.seconds();
    }
    ApksPlusBackend backend(plus);
    ProxyPipeline pipeline = make_proxy_pipeline(plus, setup.r, kProxies, rng);
    attach_ingest_pipeline(backend, pipeline);
    backend.set_ingest_canary(
        plus.gen_cap(setup.msk, make_canary_query(plus.schema()), rng));
    CloudServer server(backend, stub_verifier);
    {
      Timer t;  // ingest = proxy transformations + canary admission check
      for (std::size_t i = 0; i < partials.size(); ++i) {
        (void)server.store(std::move(partials[i]), "doc-" + std::to_string(i));
      }
      run.ingest_s = t.seconds();
    }
    std::vector<Capability> caps;
    std::vector<AnyQuery> queries;
    for (const std::size_t r : probe_rows) {
      caps.push_back(
          plus.gen_cap(setup.msk, nursery_point_query(*workload[r]), rng));
    }
    for (const Capability& cap : caps) {
      queries.push_back(AnyQuery::ref(SchemeKind::kApksPlus, &cap));
    }
    serve_batch(server, queries, kThreads, run);
    report_run(run, report);
  }

  // --- MRQED^D (Section VII baseline) -------------------------------------
  {
    SchemeRun run;
    run.name = "mrqed";
    const Mrqed mrqed(e, kDims, kDepth);
    const std::uint64_t domain = 1ull << kDepth;
    MrqedPublicKey pk;
    MrqedMasterKey msk;
    {
      Timer t;
      mrqed.setup(rng, pk, msk);
      run.setup_s = t.seconds();
    }
    auto row_point = [&](const PlainIndex& row) {
      std::vector<std::uint64_t> point;
      for (std::size_t d = 0; d < kDims; ++d) {
        point.push_back(attr_to_coord(row.values[d], domain));
      }
      return point;
    };
    const MrqedBackend backend(mrqed);
    CloudServer server(backend, stub_verifier);
    {
      Timer t;
      std::size_t i = 0;
      for (const PlainIndex* row : workload) {
        const MrqedCiphertext ct = mrqed.encrypt(pk, row_point(*row), rng);
        (void)server.store_any(AnyIndex::own(SchemeKind::kMrqed, ct),
                               "doc-" + std::to_string(i++));
      }
      run.index_s = t.seconds();
    }
    std::vector<AnyQuery> queries;
    {
      for (const std::size_t r : probe_rows) {
        // Point on dim 0, don't-care (full domain) on the others.
        std::vector<MrqedRange> ranges;
        const std::uint64_t pinned = row_point(*workload[r])[0];
        ranges.push_back({pinned, pinned});
        for (std::size_t d = 1; d < kDims; ++d) {
          ranges.push_back({0, domain - 1});
        }
        queries.push_back(AnyQuery::own(SchemeKind::kMrqed,
                                        mrqed.gen_key(pk, msk, ranges, rng)));
      }
    }
    serve_batch(server, queries, kThreads, run);
    report_run(run, report);
  }

  if (args.json) {
    if (!report.write(args.json_path)) return 1;
  }
  return 0;
}
