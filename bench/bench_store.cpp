// Storage engine throughput: ingest, reload, and the scan they feed.
//
// The paper's server is an in-memory linear scanner; the storage engine
// adds durability (CRC-framed segments, crash recovery) underneath it.
// This bench answers the questions that decide whether persistence is
// free: how fast records ingest through the write-through path (crypto
// excluded — records are pre-generated), how fast a cold server reloads
// from disk, and what one scan of the reloaded records costs next to
// them. Expected shape: ingest is I/O-bound; reload is bound by the
// square roots that decompress each index's n+3 points and G_T value
// (lane-packed across records, on every core), and both are orders of
// magnitude faster than gen_index; the scan is pairing-bound.
#include <filesystem>

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

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv, "BENCH_store.json");
  const std::size_t kRecords = args.smoke ? 32 : 256;
  const std::uint32_t kShards = 4;

  const Pairing pairing(default_type_a_params());
  ChaChaRng rng("bench-store");
  const Apks scheme(pairing, nursery_schema(1));
  ApksPublicKey pk;
  ApksMasterKey msk;
  scheme.setup(rng, pk, msk);
  const ApksBackend backend(scheme);

  // Pre-generate the workload so ingest times I/O, not gen_index.
  const std::vector<PlainIndex> rows = nursery_rows();
  std::vector<EncryptedIndex> indexes;
  std::vector<std::string> refs;
  std::uint64_t payload_bytes = 0;
  for (std::size_t i = 0; i < kRecords; ++i) {
    const PlainIndex& row = rows[(i * 739) % rows.size()];
    indexes.push_back(scheme.gen_index(pk, row, rng));
    refs.push_back("doc-" + std::to_string(i));
    payload_bytes += serialize_index(pairing, indexes.back()).size();
  }
  const Capability cap =
      scheme.gen_cap(msk, nursery_worst_case_query(1, rng), rng);

  const fs::path dir =
      fs::temp_directory_path() /
      ("apks-bench-store-" + std::to_string(static_cast<unsigned>(getpid())));
  fs::remove_all(dir);

  print_header("Storage engine: ingest, reload, scan",
               "persistence layer under the Section VII server; the paper's "
               "scan cost is pairing-bound, so ingest and reload should be "
               "small next to one scan");
  std::printf("records: %zu, shards: %u, payload: %.1f KiB\n", kRecords,
              kShards, static_cast<double>(payload_bytes) / 1024.0);

  JsonReport report("bench_store", args);
  report.set_meta("records", kRecords);
  report.set_meta("shards", kShards);
  report.set_meta("payload_bytes", payload_bytes);

  // --- Ingest: append + sync through the sharded write path.
  double ingest_s = 0;
  {
    ShardedStoreOptions opts;
    opts.shards = kShards;
    ShardedStore store(backend, dir, opts);
    const Timer t;
    for (std::size_t i = 0; i < kRecords; ++i) {
      (void)store.append(refs[i], indexes[i]);
    }
    store.sync();
    ingest_s = t.seconds();
  }
  const double ingest_rps = static_cast<double>(kRecords) / ingest_s;
  std::printf("ingest: %.4f s (%.0f records/s, %.2f MiB/s)\n", ingest_s,
              ingest_rps,
              static_cast<double>(payload_bytes) / ingest_s / (1 << 20));
  report.add_row({{"phase", "ingest"},
                  {"seconds", ingest_s},
                  {"records_per_s", ingest_rps}});

  // --- Reload: reopen (replays + checksums every frame) and rebuild the
  // in-memory server, as a restart would.
  Timer reload_timer;
  ShardedStoreOptions opts;
  opts.shards = kShards;
  ShardedStore store(backend, dir, opts);
  CloudServer server(scheme, CapabilityVerifier(pairing, IbsPublicParams{}));
  const std::size_t loaded = server.load_from(store);
  const double reload_s = reload_timer.seconds();
  if (loaded != kRecords) {
    std::fprintf(stderr, "reload lost records: %zu != %zu\n", loaded,
                 kRecords);
    return 1;
  }
  const double reload_rps = static_cast<double>(kRecords) / reload_s;
  std::printf("reload: %.4f s (%.0f records/s)\n", reload_s, reload_rps);
  report.add_row({{"phase", "reload"},
                  {"seconds", reload_s},
                  {"records_per_s", reload_rps}});

  // --- Scan: the server's one scan over the reloaded records,
  // SearchEngine on one worker with the prepared cache off, so every call
  // prepares the worst-case query afresh.
  const SearchEngine engine(server, {.threads = 1, .cache_capacity = 0});
  const AnyQuery query = borrow_capability(backend, cap);
  const double mem_s = time_op_median(
      [&] {
        SearchReply reply;
        engine.serve_admitted({.queries = {&query, 1}}, reply);
      },
      args.smoke ? 200 : 500, args.smoke ? 3 : 8);
  std::printf("scan in-memory: %.4f s\n", mem_s);
  report.add_row({{"phase", "scan_memory"}, {"seconds", mem_s}});

  fs::remove_all(dir);
  if (args.json && !report.write(args.json_path)) return 1;
  return 0;
}
