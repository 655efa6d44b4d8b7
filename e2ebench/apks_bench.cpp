// apks_bench — the end-to-end benchmark of the APKS serving stack.
//
// One process runs one workload against servers it starts in-process on
// loopback, and drives them only through public calls: NetClient and
// NetServer::stats() (net), CapabilityVerifier (auth), SearchBackend,
// Apks::gen_index and TrustedAuthority::issue (core), SearchEngine and
// CloudServer (cloud), the Pairing op counters (pairing), ShardedStore
// (store), ClusterNode and Coordinator (cluster). Each call into a layer is
// timed from outside; nothing in the library is instrumented.
//
//   apks_bench --workload hot|scan|ingest|cluster --seed N --seconds S
//              --trace 0|1 [--work-dir DIR] [--out-dir DIR]
//   apks_bench --check [--benchmark-json BENCHMARK.json]
//
// --trace 0 reports the end-to-end metrics. --trace 1 reruns the workload
// with spans recorded for a pseudo-random half of the requests, replays
// the in-process layer calls on a fixed request sample, writes
// trace-<workload>.json (Chrome trace-event format) into --out-dir, prints
// a per-span self-time table and reports the per-layer metrics. --check is
// the test: a 64-record fixture, every workload for about a second, every
// answer checked, every metric BENCHMARK.json names emitted.
//
// A measured run keeps the records it encrypted under --work-dir, keyed by
// seed, sizes and this binary's identity; a later run with the same seed
// copies them instead of encrypting them again.
//
// The last line of stdout is one JSON object with exactly the keys
// correct, attempted, failed and metrics. e2ebench/README.md describes the
// workloads and every metric.
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cfloat>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "auth/authority.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "core/apks_backend.h"
#include "data/nursery.h"
#include "data/workload.h"
#include "ec/params.h"
#include "net/client.h"
#include "net/server.h"
#include "stats.h"
#include "store/sharded_store.h"
#include "trace.h"

namespace {

using namespace apks;
using namespace apks::e2e;
using cluster::AuthCacheStats;
namespace fs = std::filesystem;

// --- configuration ----------------------------------------------------------

constexpr std::size_t kRows = 128;            // distinct nursery rows in play
constexpr std::size_t kSessionSearches = 16;  // searches per client session
constexpr std::uint32_t kShards = 6;
constexpr std::uint32_t kReplicas = 2;        // cluster replication factor
constexpr std::size_t kClusterNodes = 3;
constexpr std::size_t kFixtureThreads = 4;
constexpr std::uint64_t kVerdictCacheBytes = 8u << 20;
constexpr std::size_t kSpansPerThread = 1u << 16;
constexpr double kIngestRate = 16;  // uploads per second, open loop

struct Shape {
  const char* name;
  bool compact;                // seal every record before serving
  std::size_t search_clients;  // closed-loop connections / coordinators
  bool owner;                  // open-loop upload stream beside the searches
  bool cluster;                // 3-node fleet instead of one NetServer
  // Percentile of search_tail_ms: the highest that a window of
  // run_seconds leaves at least kMinBeyond searches beyond. A full scan of
  // 1024 records answers about 9 to 12 searches a second: 90 to 120 in a
  // 10 s window, too few for p90 on a slow run, so scan and cluster report
  // p80.
  double tail_pct;
};

// BENCHMARK.json lists hot, scan and cluster. ingest runs by name and under
// --check only: a run of any workload takes about 25 s, and comparing two
// commits over four workloads (ten runs a side each, plus traced runs)
// would not finish within an hour.
//
// hot has 2 connections, not 4: its searches take well under a
// millisecond, and with 4 connections plus the server's io loops, workers
// and engine threads on 4 cores, its p50 and tail moved by up to 25% from
// run to run with the host's load. With 2 they moved by at most 19% and
// 10%.
constexpr Shape kShapes[] = {
    {"hot", true, 2, false, false, 99},
    {"scan", false, 4, false, false, 80},
    {"ingest", true, 3, true, false, 95},
    {"cluster", false, 4, false, true, 80},
};

struct Config {
  std::uint64_t seed = 1;
  double seconds = 10;
  double warmup_s = 2;
  bool trace = false;
  bool check = false;
  bool cache_fixture = true;  // keep encrypted records under work_dir
  std::size_t records = 1024;
  std::size_t caps = 32;
  std::size_t setup_reps = 3;      // setup_s is their median
  std::size_t replay_light = 64;   // verify / decode / prepare replays
  std::size_t replay_scan = 20;    // replays that scan the whole store
  std::size_t gen_index_sample = 32;  // gen_index timed on a cache hit
  fs::path work_dir = fs::temp_directory_path();
  fs::path out_dir = ".";

  // Uploads the ingest owner schedules across the timed window.
  [[nodiscard]] std::size_t uploads() const {
    return static_cast<std::size_t>(std::floor(kIngestRate * seconds));
  }
};

// --- small helpers ----------------------------------------------------------

double ms_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
      .count();
}
double s_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
SteadyClock::time_point after(SteadyClock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<SteadyClock::duration>(
                 std::chrono::duration<double>(seconds));
}
double median(std::vector<double> v) { return LatencySummary(std::move(v)).at(50); }
double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Zipf(1.0) over ranks 0..n-1.
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  [[nodiscard]] std::size_t draw(Rng& rng) const {
    const double u = static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// Row ranks for n items: exactly the Zipf(1.0) share of each of `ranks`
// ranks (largest remainder), in a seeded order. Every seed then has the
// same popularity profile, so the cost of a search does not depend on the
// seed; the seed picks which item gets which rank.
std::vector<std::size_t> zipf_ranks(std::size_t n, std::size_t ranks, Rng& rng) {
  double harmonic = 0;
  for (std::size_t r = 0; r < ranks; ++r) harmonic += 1.0 / static_cast<double>(r + 1);
  std::vector<std::size_t> count(ranks);
  std::vector<std::pair<double, std::size_t>> remainder(ranks);
  std::size_t placed = 0;
  for (std::size_t r = 0; r < ranks; ++r) {
    const double share = static_cast<double>(n) / (static_cast<double>(r + 1) * harmonic);
    count[r] = static_cast<std::size_t>(share);
    remainder[r] = {share - static_cast<double>(count[r]), r};
    placed += count[r];
  }
  std::stable_sort(remainder.begin(), remainder.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; placed < n; ++i, ++placed) ++count[remainder[i].second];

  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < ranks; ++r) out.insert(out.end(), count[r], r);
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.next_below(i)]);
  }
  return out;
}

// Seeded stream for one named item: the bytes depend on (seed, what, i)
// only, never on which thread generated them.
ChaChaRng item_rng(std::uint64_t seed, const char* what, std::uint64_t i) {
  return ChaChaRng("apks-bench/" + std::to_string(seed) + "/" + what, i);
}

// Runs fn(i, worker) for i in [0, n) on `threads` workers; rethrows the
// first exception after every worker has joined.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr err;
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      try {
        for (std::size_t i = next++; i < n; i = next++) fn(i, w);
      } catch (...) {
        const std::lock_guard lock(err_mu);
        if (!err) err = std::current_exception();
        next = n;
      }
    });
  }
  for (auto& t : pool) t.join();
  if (err) std::rethrow_exception(err);
}

// A directory unique to this process and workload, removed on exit.
class WorkDir {
 public:
  explicit WorkDir(fs::path path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  [[nodiscard]] const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

// Ordered name -> (value, unit) list rendered as the result's "metrics".
class MetricSet {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  // Percentile p of a latency sample in ms; 0, and listed as unsupported,
  // when fewer than kMinBeyond samples lie beyond p.
  void add_pct(const std::string& name, const LatencySummary& s, double p) {
    add(name, s.supports(p) ? s.at(p) : 0, "ms");
    if (!s.supports(p)) note_unsupported(name);
  }
  void note_unsupported(const std::string& name) { unsupported_.push_back(name); }
  [[nodiscard]] const std::vector<std::string>& unsupported() const noexcept {
    return unsupported_;
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return std::any_of(items_.begin(), items_.end(),
                       [&](const Item& i) { return i.name == name; });
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      char buf[96];
      // JSON has no infinity: a failed operation's latency prints as the
      // largest double.
      const double v = std::isfinite(items_[i].value) ? items_[i].value : DBL_MAX;
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out += (i == 0 ? "\"" : ", \"") + items_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }
  void print(std::FILE* f) const {
    for (const Item& i : items_) {
      std::fprintf(f, "  %-34s %14.4f %s\n", i.name.c_str(), i.value, i.unit);
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
  std::vector<std::string> unsupported_;
};

// --- fixture ----------------------------------------------------------------

struct BenchCap {
  std::size_t rank = 0;  // nursery row rank the point query asks for
  SignedQuery query;
  std::vector<std::uint8_t> query_bytes;  // backend wire codec
  std::vector<std::uint8_t> sig_bytes;    // net::encode_signature
  std::vector<std::string> expected;      // oracle over the base records
  std::vector<std::size_t> upload_hits;   // upload indexes with this row
};

// Everything generated from --seed: keys, records, capabilities, uploads
// and the oracle. Fixture time is reported per item (core.gen_index_ms,
// core.gen_cap_ms), never as setup_s.
struct Fixture {
  Pairing pairing{default_type_a_params()};
  // Signature checks run on their own Pairing so its op counters hold
  // exactly the search scans: pairing.*_per_search are then exact counts.
  Pairing verify_pairing{default_type_a_params()};
  Apks scheme{pairing, nursery_schema(1)};
  ApksBackend backend{scheme};
  std::unique_ptr<TrustedAuthority> ta;
  std::vector<PlainIndex> rows;           // the kRows rows in play, by rank
  std::vector<std::size_t> record_rank;   // row rank of each base record
  std::vector<std::size_t> upload_rank;   // row rank of each upload
  std::vector<BenchCap> caps;
  std::vector<EncryptedIndex> uploads;    // ingest stream, in upload order
  std::vector<std::string> upload_refs;
  std::vector<double> gen_index_ms;
  std::vector<double> gen_cap_ms;
  double compact_s = 0;
  double build_s = 0;      // the whole fixture, record encryption included
  bool cache_hit = false;  // records copied from an earlier run
  fs::path store_dir;

  [[nodiscard]] CapabilityVerifier verifier() const {
    CapabilityVerifier v(verify_pairing, ta->ibs_params());
    v.register_authority("TA");
    return v;
  }
};

ShardedStoreOptions store_options(std::uint32_t shards = kShards) {
  ShardedStoreOptions o;
  o.shards = shards;
  return o;
}

// What the seed decides before anything is encrypted: the authority's
// keys, the rows in play and the row rank of every record and upload.
void plan_fixture(Fixture& fx, const Config& cfg, std::size_t n_uploads) {
  ChaChaRng setup_rng = item_rng(cfg.seed, "setup", 0);
  fx.ta = std::make_unique<TrustedAuthority>(fx.scheme, setup_rng);
  // kRows distinct rows out of the 12,960, by a seeded partial shuffle.
  std::vector<PlainIndex> all = nursery_rows();
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::size_t j = i + setup_rng.next_below(all.size() - i);
    std::swap(all[i], all[j]);
  }
  fx.rows.assign(all.begin(), all.begin() + kRows);
  fx.record_rank = zipf_ranks(cfg.records, kRows, setup_rng);
  fx.upload_rank = zipf_ranks(n_uploads, kRows, setup_rng);
  for (std::size_t u = 0; u < n_uploads; ++u) {
    fx.upload_refs.push_back("up-" + std::to_string(u));
  }
}

// Encrypts item i of the fixture: record i, or upload i - records.
EncryptedIndex encrypt_item(const Fixture& fx, const Config& cfg, std::size_t i) {
  const bool upload = i >= cfg.records;
  const std::size_t k = upload ? i - cfg.records : i;
  ChaChaRng rng = item_rng(cfg.seed, upload ? "upload" : "record", k);
  const std::size_t rank = upload ? fx.upload_rank[k] : fx.record_rank[k];
  return fx.scheme.gen_index(fx.ta->public_key(), fx.rows[rank], rng);
}

// Encrypts every record into dir/store (uncompacted) and every upload into
// dir/uploads, in a child process. The benchmark process thus starts each
// run in the same state whether or not an earlier run left the records,
// and its peak RSS never includes the encryption. The directory appears
// by one rename, so a reader sees all of it or none.
void write_fixture(const Config& cfg, std::size_t n_uploads, const fs::path& dir) {
  std::fflush(nullptr);  // the child must not print the parent's buffers
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    int rc = 0;
    try {
      Fixture fx;
      plan_fixture(fx, cfg, n_uploads);
      std::vector<EncryptedIndex> items(cfg.records + n_uploads);
      parallel_for(items.size(), kFixtureThreads, [&](std::size_t i, std::size_t) {
        items[i] = encrypt_item(fx, cfg, i);
      });
      const fs::path tmp = dir.string() + ".tmp-" + std::to_string(static_cast<long>(getpid()));
      fs::remove_all(tmp);
      {
        ShardedStore store(fx.backend, tmp / "store", store_options());
        for (std::size_t i = 0; i < cfg.records; ++i) {
          (void)store.append("doc-" + std::to_string(i), items[i]);
        }
        store.sync();
        ShardedStore up(fx.backend, tmp / "uploads", store_options(1));
        for (std::size_t u = 0; u < n_uploads; ++u) {
          (void)up.append(fx.upload_refs[u], items[cfg.records + u]);
        }
        up.sync();
      }
      std::error_code ec;
      fs::rename(tmp, dir, ec);
      if (ec) fs::remove_all(tmp, ec);  // another run published it first
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "apks_bench: fixture: %s\n", ex.what());
      rc = 1;
    }
    _exit(rc);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error(std::string("waitpid: ") + std::strerror(errno));
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !fs::exists(dir)) {
    throw std::runtime_error("fixture generation failed");
  }
}

// Where a measured run keeps the records it encrypted, for later runs
// with the same seed: one directory per (seed, sizes), under a directory
// named after this binary's size and modification time, so records
// written by another build are never read. Other builds' directories are
// removed.
fs::path fixture_cache(const Config& cfg, std::size_t n_uploads) {
  const fs::path exe = fs::read_symlink("/proc/self/exe");
  const std::string build =
      "build-" + std::to_string(fs::file_size(exe)) + "-" +
      std::to_string(fs::last_write_time(exe).time_since_epoch().count());
  const fs::path root = cfg.work_dir / "fixtures";
  fs::create_directories(root);
  for (const fs::directory_entry& e : fs::directory_iterator(root)) {
    std::error_code ec;
    if (e.path().filename() != build) fs::remove_all(e.path(), ec);
  }
  return root / build /
         ("seed-" + std::to_string(cfg.seed) + "-records-" + std::to_string(cfg.records) +
          "-uploads-" + std::to_string(n_uploads));
}

// Keys, rows, ranks and capabilities are generated from the seed on every
// run. Records and uploads are encrypted once per seed (write_fixture),
// and each run works on its own copy of them under `work`.
std::unique_ptr<Fixture> build_fixture(const Config& cfg, const Shape& shape,
                                       const fs::path& work, TraceRecorder* rec) {
  const auto t_start = SteadyClock::now();
  const std::size_t n_uploads = shape.owner ? cfg.uploads() : 0;
  const fs::path records =
      cfg.cache_fixture ? fixture_cache(cfg, n_uploads) : work / "fixture";
  auto fx = std::make_unique<Fixture>();
  fx->cache_hit = fs::exists(records);
  if (!fx->cache_hit) write_fixture(cfg, n_uploads, records);

  plan_fixture(*fx, cfg, n_uploads);
  fx->store_dir = work / "store";
  fs::copy(records / "store", fx->store_dir, fs::copy_options::recursive);
  fs::copy(records / "uploads", work / "uploads", fs::copy_options::recursive);
  {
    ShardedStore up(fx->backend, work / "uploads", store_options(1));
    for (StoredIndexRecord& r : up.load_all()) fx->uploads.push_back(std::move(r.index));
  }
  if (fx->uploads.size() != n_uploads) {
    throw std::runtime_error(records.string() + " holds " + std::to_string(fx->uploads.size()) +
                             " uploads, expected " + std::to_string(n_uploads));
  }

  std::vector<SpanBuffer*> bufs(kFixtureThreads, nullptr);
  if (rec != nullptr) {
    for (auto& b : bufs) b = &rec->add_buffer();
  }
  // core.gen_index_ms: a sample of the records encrypted again, after one
  // untimed encryption has built the key's lazy fixed-base tables.
  if (cfg.trace) {
    (void)encrypt_item(*fx, cfg, 0);
    fx->gen_index_ms.assign(std::min(cfg.gen_index_sample, cfg.records), 0);
    parallel_for(fx->gen_index_ms.size(), kFixtureThreads, [&](std::size_t i, std::size_t w) {
      const auto t0 = SteadyClock::now();
      ScopedSpan span(bufs[w], "core.gen_index", i);
      (void)encrypt_item(*fx, cfg, i);
      fx->gen_index_ms[i] = ms_since(t0);
    });
  }

  // Capability j asks for rank j * kRows / caps: the popular capabilities
  // ask for the popular rows, and the result sizes are the same for every
  // seed.
  fx->caps.resize(cfg.caps);
  fx->gen_cap_ms.assign(cfg.caps, 0);
  parallel_for(cfg.caps, kFixtureThreads, [&](std::size_t j, std::size_t w) {
    ChaChaRng rng = item_rng(cfg.seed, "cap", j);
    BenchCap& cap = fx->caps[j];
    cap.rank = j * kRows / cfg.caps;
    const auto t0 = SteadyClock::now();
    ScopedSpan span(bufs[w], "core.gen_cap", j);
    SignedCapability sc =
        fx->ta->issue(nursery_point_query(fx->rows[cap.rank]), rng);
    fx->gen_cap_ms[j] = ms_since(t0);
    cap.sig_bytes = net::encode_signature(fx->pairing.curve(), sc.sig);
    cap.query.issuer = sc.issuer;
    cap.query.sig = sc.sig;
    cap.query.query = AnyQuery::own(SchemeKind::kApks, std::move(sc.cap));
    cap.query_bytes = fx->backend.encode_query(cap.query.query);
  });

  // Oracle: a point query matches exactly the records of its row, and
  // results come back in ascending id = upload order.
  for (BenchCap& cap : fx->caps) {
    for (std::size_t i = 0; i < cfg.records; ++i) {
      if (fx->record_rank[i] == cap.rank) cap.expected.push_back("doc-" + std::to_string(i));
    }
    for (std::size_t u = 0; u < n_uploads; ++u) {
      if (fx->upload_rank[u] == cap.rank) cap.upload_hits.push_back(u);
    }
  }

  if (shape.compact) {
    ShardedStore store(fx->backend, fx->store_dir, store_options());
    const auto t0 = SteadyClock::now();
    (void)store.compact();
    fx->compact_s = ms_since(t0) / 1e3;
  }
  fx->build_s = ms_since(t_start) / 1e3;
  return fx;
}

// A result is correct when it equals the oracle over the base records
// plus the first k uploads, for some k the upload stream allows: every
// upload acked (synced) before the search was sent must be visible, and
// none whose store() had not begun by the time the answer arrived may be.
bool matches_oracle(const Fixture& fx, const BenchCap& cap,
                    const std::vector<std::string>& refs, std::size_t lo,
                    std::size_t hi) {
  const std::size_t base = cap.expected.size();
  if (refs.size() < base ||
      !std::equal(cap.expected.begin(), cap.expected.end(), refs.begin())) {
    return false;
  }
  const std::size_t m = refs.size() - base;
  if (m > cap.upload_hits.size()) return false;
  for (std::size_t t = 0; t < m; ++t) {
    if (refs[base + t] != fx.upload_refs[cap.upload_hits[t]]) return false;
  }
  const auto visible = [&](std::size_t uploads) {
    return static_cast<std::size_t>(
        std::lower_bound(cap.upload_hits.begin(), cap.upload_hits.end(), uploads) -
        cap.upload_hits.begin());
  };
  return m >= visible(lo) && m <= visible(hi);
}

// --- load generation --------------------------------------------------------

// One search as the client saw it.
struct Outcome {
  bool ok = false;
  std::string error;
  std::vector<std::string> refs;
  double auth_ms = -1;  // auth round trip when the session switched caps
  double rtt_ms = 0;    // the search call itself
  double wall_ms = 0;   // server-reported engine wall time
  std::uint64_t scanned = 0;
  cluster::ClusterSearchStats cluster;
};

struct SearchSample {
  double issue_s = 0;  // since window start
  double done_s = 0;   // when the answer (or the failure) arrived
  double latency_ms = 0;  // kFailedLatency when the search failed
  double auth_ms = -1;
  double rtt_ms = 0;
  double wall_ms = 0;
  std::uint64_t scanned = 0;
  bool ok = false;
  bool traced = false;
};

struct UploadSample {
  double ack_ms = 0;   // scheduled send -> durable ack
  double late_ms = 0;  // how late the generator started it
  double store_ms = 0;
  double sync_ms = 0;
  bool ok = false;
};

// Shared between the main thread, the search clients and the owner.
struct LoadControl {
  explicit LoadControl(std::ptrdiff_t parties) : barrier(parties) {}
  std::barrier<> barrier;
  SteadyClock::time_point warmup_end;
  SteadyClock::time_point window_start;  // set between the two barriers
  SteadyClock::time_point window_end;
  bool trace = false;
  std::atomic<std::size_t> uploads_acked{0};
  std::atomic<std::size_t> uploads_begun{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> attempted{0};
  std::mutex err_mu;
  std::string first_error;

  void fail(const std::string& what) {
    ++failed;
    const std::lock_guard lock(err_mu);
    if (first_error.empty()) first_error = what;
  }
  // --trace 1 records spans for a pseudo-random half of the requests
  // (uploads), picked by a hash of the request id. Traced and untraced
  // requests then interleave finely through the window, so neither a
  // drifting workload (ingest) nor the session pattern biases
  // trace.overhead_pct.
  [[nodiscard]] bool traced(std::uint64_t request) const {
    return trace && ((request * 0x9E3779B97F4A7C15ull) >> 63) != 0;
  }
};

struct ClientResult {
  std::vector<SearchSample> samples;
  cluster::ClusterSearchStats cluster;  // window sums
  AuthCacheStats auth_before;
  AuthCacheStats auth_after;
  int barriers_passed = 0;  // a client that dies early must still release the barrier
};

// One closed-loop client: sessions of kSessionSearches searches on a
// Zipf-drawn capability, re-authenticating only on a switch. `Session`
// provides connect() and search(cap, need_auth, buf, parent, request).
template <typename Session>
void run_client(Session& session, const Fixture& fx, LoadControl& ctl,
                std::size_t client, std::size_t clients, std::uint64_t seed,
                SpanBuffer* buf, ClientResult& out) {
  ChaChaRng rng = item_rng(seed, "client", client);
  const Zipf zipf(fx.caps.size());
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t current = kNone;
  std::uint64_t seq = 0;
  bool recording = false;

  // One search; false when the caller should reconnect.
  const auto one = [&](std::size_t j, bool need_auth) {
    const auto t0 = SteadyClock::now();
    const std::uint64_t req = (static_cast<std::uint64_t>(client) << 40) | seq++;
    const bool traced = recording && ctl.traced(req);
    const std::size_t lo = ctl.uploads_acked.load();
    ScopedSpan root(traced ? buf : nullptr, "client.request", req);
    Outcome o;
    try {
      o = session.search(fx.caps[j], need_auth, traced ? buf : nullptr,
                         root.index(), req);
    } catch (const std::exception& ex) {
      o.ok = false;
      o.error = ex.what();
    }
    const double latency = ms_since(t0);
    const std::size_t hi = ctl.uploads_begun.load();
    if (o.ok && !matches_oracle(fx, fx.caps[j], o.refs, lo, hi)) {
      o.ok = false;
      o.error = "result differs from the oracle (" + std::to_string(o.refs.size()) +
                " refs, expected " + std::to_string(fx.caps[j].expected.size()) +
                " base)";
    }
    ++ctl.attempted;
    if (!o.ok) ctl.fail(o.error);
    if (recording) {
      SearchSample s;
      s.issue_s = s_between(ctl.window_start, t0);
      s.done_s = s.issue_s + latency / 1e3;
      s.latency_ms = o.ok ? latency : kFailedLatency;
      s.auth_ms = o.auth_ms;
      s.rtt_ms = o.rtt_ms;
      s.wall_ms = o.wall_ms;
      s.scanned = o.scanned;
      s.ok = o.ok;
      s.traced = traced;
      out.samples.push_back(s);
      out.cluster.rpcs += o.cluster.rpcs;
      out.cluster.retries += o.cluster.retries;
      out.cluster.failovers += o.cluster.failovers;
    }
    return o.ok;
  };

  const auto reconnect = [&] {
    current = kNone;
    try {
      session.connect();
    } catch (const std::exception& ex) {
      ctl.fail(std::string("connect: ") + ex.what());
    }
  };

  // Sessions until `end`.
  const auto free_run = [&](SteadyClock::time_point end) {
    while (SteadyClock::now() < end) {
      const std::size_t j = zipf.draw(rng);
      const bool switched = j != current;
      for (std::size_t k = 0; k < kSessionSearches && SteadyClock::now() < end; ++k) {
        if (one(j, switched && k == 0)) {
          current = j;
        } else {
          reconnect();
          break;
        }
      }
    }
  };

  reconnect();
  // Warm-up: first every capability once, each by one client (so its
  // prepared query and verdicts exist on the server before timing), then
  // free sessions.
  for (std::size_t j = client; j < fx.caps.size(); j += clients) {
    if (one(j, true)) {
      current = j;
    } else {
      reconnect();
    }
  }
  free_run(ctl.warmup_end);
  out.auth_before = session.auth_stats();
  ctl.barrier.arrive_and_wait();  // quiescent: main snapshots counters
  ++out.barriers_passed;
  ctl.barrier.arrive_and_wait();  // window times are set
  ++out.barriers_passed;
  recording = true;
  free_run(ctl.window_end);
  out.auth_after = session.auth_stats();
}

// Single-node client: one NetClient connection with a signed session.
class NetSession {
 public:
  explicit NetSession(std::uint16_t port) : port_(port) {}

  void connect() {
    client_ = std::make_unique<net::NetClient>();
    client_->connect("127.0.0.1", port_, /*timeout_ms=*/60000);
    const net::HelloAckMsg ack = client_->hello(SchemeKind::kApks);
    if (ack.status != net::WireStatus::kOk) {
      throw std::runtime_error("hello refused: " + ack.message);
    }
  }

  Outcome search(const BenchCap& cap, bool need_auth, SpanBuffer* buf,
                 std::int32_t parent, std::uint64_t req) {
    Outcome o;
    if (client_ == nullptr) throw std::runtime_error("not connected");
    if (need_auth) {
      ScopedSpan span(buf, "net.auth", req, parent);
      const auto t0 = SteadyClock::now();
      const net::AuthAckMsg ack =
          client_->auth_signed(cap.query_bytes, cap.query.issuer, cap.sig_bytes);
      o.auth_ms = ms_since(t0);
      if (ack.status != net::WireStatus::kOk) {
        o.error = "auth refused: " + ack.message;
        return o;
      }
    }
    ScopedSpan span(buf, "net.search", req, parent);
    const auto t0 = SteadyClock::now();
    net::RemoteResult r = client_->search();
    o.rtt_ms = ms_since(t0);
    span.attr("wall_us", static_cast<double>(r.wall_us));
    span.attr("scanned", static_cast<double>(r.scanned));
    o.wall_ms = static_cast<double>(r.wall_us) / 1e3;
    o.scanned = r.scanned;
    if (r.status != net::WireStatus::kOk) {
      o.error = "search status " + std::to_string(static_cast<int>(r.status)) +
                ": " + r.message;
      return o;
    }
    o.refs = std::move(r.refs);
    o.ok = true;
    return o;
  }

  [[nodiscard]] AuthCacheStats auth_stats() const { return {}; }

 private:
  std::uint16_t port_;
  std::unique_ptr<net::NetClient> client_;
};

// Cluster client: its own Coordinator (defaults: no heartbeats, no
// hedging) calling search_signed, which authenticates at the edge.
class ClusterSession {
 public:
  ClusterSession(const Fixture& fx, const cluster::ClusterMap& map)
      : fx_(&fx), map_(&map) {}

  void connect() {
    coord_ = std::make_unique<cluster::Coordinator>(fx_->backend, fx_->verifier(),
                                                    *map_);
  }

  Outcome search(const BenchCap& cap, bool /*need_auth*/, SpanBuffer* buf,
                 std::int32_t parent, std::uint64_t req) {
    Outcome o;
    ScopedSpan span(buf, "cluster.search_signed", req, parent);
    const auto t0 = SteadyClock::now();
    o.refs = coord_->search_signed(cap.query, &o.cluster);
    o.rtt_ms = ms_since(t0);
    o.scanned = o.cluster.scanned;
    span.attr("scanned", static_cast<double>(o.cluster.scanned));
    span.attr("rpcs", static_cast<double>(o.cluster.rpcs));
    if (!o.cluster.authorized) {
      o.error = "edge auth refused";
    } else if (o.cluster.partial || o.cluster.shards_failed != 0) {
      o.error = "partial cluster result";
    } else {
      o.ok = true;
    }
    return o;
  }

  [[nodiscard]] AuthCacheStats auth_stats() const {
    return coord_ != nullptr ? coord_->auth_cache_stats() : AuthCacheStats{};
  }

 private:
  const Fixture* fx_;
  const cluster::ClusterMap* map_;
  std::unique_ptr<cluster::Coordinator> coord_;
};

// The open-loop owner: upload u is due at window_start + u / rate, is
// timed from that due time, and is acked once ShardedStore::sync returns.
void run_owner(Fixture& fx, CloudServer& server, ShardedStore& store,
               LoadControl& ctl, SpanBuffer* buf,
               std::vector<UploadSample>& out) {
  ctl.barrier.arrive_and_wait();
  ctl.barrier.arrive_and_wait();
  for (std::size_t u = 0; u < fx.uploads.size(); ++u) {
    const auto due = after(ctl.window_start, static_cast<double>(u) / kIngestRate);
    if (due >= ctl.window_end) break;
    std::this_thread::sleep_until(due);
    UploadSample s;
    s.late_ms = std::max(0.0, -std::chrono::duration<double, std::milli>(due - SteadyClock::now()).count());
    SpanBuffer* traced = ctl.traced(u) ? buf : nullptr;
    ScopedSpan root(traced, "ingest.upload", u);
    ++ctl.attempted;
    try {
      ++ctl.uploads_begun;
      {
        ScopedSpan span(traced, "cloud.store", u, root.index());
        const auto t0 = SteadyClock::now();
        (void)server.store(std::move(fx.uploads[u]), fx.upload_refs[u]);
        s.store_ms = ms_since(t0);
      }
      {
        ScopedSpan span(traced, "store.sync", u, root.index());
        const auto t0 = SteadyClock::now();
        store.sync();
        s.sync_ms = ms_since(t0);
      }
      ctl.uploads_acked.store(u + 1);
      s.ok = true;
    } catch (const std::exception& ex) {
      ctl.fail(std::string("upload: ") + ex.what());
    }
    s.ack_ms = s.ok ? std::chrono::duration<double, std::milli>(SteadyClock::now() - due).count()
                    : kFailedLatency;
    out.push_back(s);
  }
}

// --- serving instances ------------------------------------------------------

struct ServerOptions {
  SearchEngine::Options engine{.threads = 2,
                               .verdict_cache_bytes = kVerdictCacheBytes};
  net::NetServerOptions net;  // defaults: 2 io loops, 2 workers, signed only
};

// Store -> CloudServer -> SearchEngine -> NetServer. Members are declared
// in dependency order so destruction stops the listener first; stop()
// tears down in the same order before the instance is replaced.
struct SingleNode {
  std::unique_ptr<ShardedStore> store;
  std::unique_ptr<CloudServer> server;
  std::unique_ptr<SearchEngine> engine;
  std::unique_ptr<net::NetServer> net;

  void stop() {
    net.reset();
    engine.reset();
    server.reset();
    store.reset();
  }
};

struct Fleet {
  std::unique_ptr<ShardedStore> store;
  std::vector<std::unique_ptr<cluster::ClusterNode>> nodes;
  cluster::ClusterMap map;

  void stop() {
    nodes.clear();
    store.reset();
  }
};

struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> open_s;
  std::vector<double> load_s;
  std::vector<double> node_start_s;
};

// The first oracle-checked answer through a fresh connection.
void first_answer_single(const Fixture& fx, std::uint16_t port) {
  NetSession s(port);
  s.connect();
  const Outcome o = s.search(fx.caps[0], true, nullptr, -1, 0);
  if (!o.ok || !matches_oracle(fx, fx.caps[0], o.refs, 0, 0)) {
    throw std::runtime_error("setup: first answer wrong: " + o.error);
  }
}

SingleNode start_single(const Fixture& fx, bool ingest, SetupTimes& times,
                        SpanBuffer* buf) {
  ScopedSpan root(buf, "setup", 0);
  const auto t0 = SteadyClock::now();
  SingleNode n;
  {
    ScopedSpan span(buf, "store.open", 0, root.index());
    n.store = std::make_unique<ShardedStore>(fx.backend, fx.store_dir, store_options());
  }
  const auto t1 = SteadyClock::now();
  {
    ScopedSpan span(buf, "cloud.load_from", 0, root.index());
    n.server = std::make_unique<CloudServer>(fx.backend, fx.verifier());
    (void)n.server->load_from(*n.store);
  }
  const auto t2 = SteadyClock::now();
  if (ingest) n.server->attach_store(n.store.get());
  const ServerOptions opts;
  {
    ScopedSpan span(buf, "net.listen", 0, root.index());
    n.engine = std::make_unique<SearchEngine>(*n.server, opts.engine);
    n.net = std::make_unique<net::NetServer>(*n.engine, opts.net);
  }
  {
    ScopedSpan span(buf, "setup.first_answer", 0, root.index());
    first_answer_single(fx, n.net->port());
  }
  const auto t3 = SteadyClock::now();
  times.total_s.push_back(s_between(t0, t3));
  times.open_s.push_back(s_between(t0, t1));
  times.load_s.push_back(s_between(t1, t2));
  return n;
}

cluster::ClusterNodeOptions node_options() {
  cluster::ClusterNodeOptions o;
  o.engine.threads = 1;
  o.engine.verdict_cache_bytes = kVerdictCacheBytes;
  o.net.allow_unchecked = true;  // the coordinator's internal hop
  return o;
}

Fleet start_fleet(const Fixture& fx, SetupTimes& times, SpanBuffer* buf) {
  ScopedSpan root(buf, "setup", 0);
  const auto t0 = SteadyClock::now();
  Fleet f;
  {
    ScopedSpan span(buf, "store.open", 0, root.index());
    f.store = std::make_unique<ShardedStore>(fx.backend, fx.store_dir, store_options());
  }
  times.open_s.push_back(s_between(t0, SteadyClock::now()));
  // Placement depends on node names only: learn it with port 0, then
  // publish the ports the nodes bound.
  std::vector<cluster::NodeInfo> infos;
  for (std::size_t i = 0; i < kClusterNodes; ++i) {
    infos.push_back({"bench-node-" + std::to_string(i), "127.0.0.1", 0});
  }
  const cluster::ClusterMap port0(infos, kShards, kReplicas);
  // The nodes start side by side, as separate machines would. Their spans
  // go to the main thread's buffer after they have all started.
  f.nodes.resize(kClusterNodes);
  std::vector<SteadyClock::time_point> node_t0(kClusterNodes);
  std::vector<SteadyClock::time_point> node_t1(kClusterNodes);
  parallel_for(kClusterNodes, kClusterNodes, [&](std::size_t i, std::size_t) {
    node_t0[i] = SteadyClock::now();
    f.nodes[i] = std::make_unique<cluster::ClusterNode>(
        fx.backend, fx.verifier(), *f.store, port0, static_cast<std::uint32_t>(i),
        node_options());
    node_t1[i] = SteadyClock::now();
  });
  for (std::size_t i = 0; i < kClusterNodes; ++i) {
    if (buf != nullptr) {
      buf->add("cluster.node_start", i, root.index(), node_t0[i], node_t1[i]);
    }
    times.node_start_s.push_back(s_between(node_t0[i], node_t1[i]));
    infos[i].port = f.nodes[i]->port();
  }
  f.map = cluster::ClusterMap(std::move(infos), kShards, kReplicas);
  {
    ScopedSpan span(buf, "setup.first_answer", 0, root.index());
    ClusterSession s(fx, f.map);
    s.connect();
    const Outcome o = s.search(fx.caps[0], true, nullptr, -1, 0);
    if (!o.ok || !matches_oracle(fx, fx.caps[0], o.refs, 0, 0)) {
      throw std::runtime_error("setup: first cluster answer wrong: " + o.error);
    }
  }
  times.total_s.push_back(s_between(t0, SteadyClock::now()));
  return f;
}

// --- counters ---------------------------------------------------------------

struct Counters {
  PairingOpCounts ops;
  EngineCounters engine;
  std::uint64_t prepared_hits = 0;
  std::uint64_t prepared_misses = 0;
  net::NetServerStats net;
};

Counters snapshot(const Fixture& fx, const SingleNode* single, const Fleet* fleet) {
  Counters c;
  c.ops = fx.pairing.op_counts();
  if (single != nullptr) {
    c.engine = single->engine->counters();
    c.prepared_hits = single->engine->cache_hits();
    c.prepared_misses = single->engine->cache_misses();
    c.net = single->net->stats();
  }
  if (fleet != nullptr) {
    for (const auto& node : fleet->nodes) {
      const net::NetServerStats s = node->server().stats();
      c.net.frames_out += s.frames_out;
      c.net.bytes_out += s.bytes_out;
      c.net.searches_overloaded += s.searches_overloaded;
      c.net.searches_deadline += s.searches_deadline;
    }
  }
  return c;
}

// --- one workload run -------------------------------------------------------

struct RunOutput {
  MetricSet end_to_end;
  MetricSet per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  std::string detail;  // one-line JSON: provenance, config, sample counts
};

// peak_rss_mb covers set-up and serving, not the fixture: the fixture's
// freed heap is returned to the system and the kernel's peak (VmHWM) is
// restarted. Left in place, what the fixture threads freed stays resident
// in amounts that vary from run to run.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  if (!f) throw std::runtime_error("cannot reset the peak RSS via /proc/self/clear_refs");
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::vector<double> collect(const std::vector<SearchSample>& v,
                            const std::function<bool(const SearchSample&)>& keep,
                            const std::function<double(const SearchSample&)>& get) {
  std::vector<double> out;
  for (const SearchSample& s : v) {
    if (keep(s)) out.push_back(get(s));
  }
  return out;
}

std::string provenance_json(const Config& cfg, const Shape& shape) {
  std::ostringstream o;
  o << "{\"git_sha\": \"" << APKS_BENCH_GIT_SHA << "\", \"build_type\": \""
    << APKS_BENCH_BUILD_TYPE << "\", \"sanitize\": \"" << APKS_BENCH_SANITIZE
    << "\", \"simd_detected\": \"" << simd_level_name(simd_level_detected())
    << "\", \"simd_effective\": \"" << simd_level_name(simd_level())
    << "\", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"smoke\": " << (cfg.check ? "true" : "false")
    << ", \"workload\": \"" << shape.name << "\", \"seed\": " << cfg.seed
    << ", \"seconds\": " << cfg.seconds << ", \"warmup_s\": " << cfg.warmup_s
    << ", \"trace\": " << (cfg.trace ? 1 : 0) << ", \"records\": " << cfg.records
    << ", \"caps\": " << cfg.caps << ", \"uploads\": " << (shape.owner ? cfg.uploads() : 0)
    << ", \"setup_reps\": " << cfg.setup_reps << ", \"clients\": " << shape.search_clients
    << ", \"tail_pct\": " << shape.tail_pct
    << ", \"server\": \""
    << (shape.cluster ? "3 ClusterNodes, 6 shards, R=2, engine threads 1, verdict cache 8 MiB"
                      : "NetServer 2 io / 2 workers, signed auth, engine threads 2, "
                        "verdict cache 8 MiB")
    << "\"}";
  return o.str();
}

RunOutput run_workload(const Config& cfg, const Shape& shape) {
  WorkDir work(cfg.work_dir / ("apks-bench-" + std::string(shape.name) + "-" +
                               std::to_string(static_cast<long>(getpid()))));
  std::unique_ptr<TraceRecorder> rec =
      cfg.trace ? std::make_unique<TraceRecorder>(kSpansPerThread) : nullptr;
  SpanBuffer* main_buf = rec != nullptr ? &rec->add_buffer() : nullptr;

  std::unique_ptr<Fixture> fx = build_fixture(cfg, shape, work.path(), rec.get());
  reset_peak_rss();

  // Set-up, repeated; the last instance serves the run.
  SetupTimes times;
  SingleNode single;
  Fleet fleet;
  for (std::size_t r = 0; r < cfg.setup_reps; ++r) {
    if (shape.cluster) {
      fleet.stop();
      fleet = start_fleet(*fx, times, main_buf);
    } else {
      single.stop();
      single = start_single(*fx, shape.owner, times, main_buf);
    }
  }
  const double bytes_per_record =
      ratio(static_cast<double>(shape.cluster ? fleet.store->bytes() : single.store->bytes()),
            static_cast<double>(cfg.records));

  // Load.
  const std::size_t clients = shape.search_clients;
  const std::size_t parties = clients + (shape.owner ? 1 : 0) + 1;
  LoadControl ctl(static_cast<std::ptrdiff_t>(parties));
  ctl.trace = cfg.trace;
  ctl.warmup_end = after(SteadyClock::now(), cfg.warmup_s);
  std::vector<ClientResult> results(clients);
  std::vector<UploadSample> uploads;
  std::vector<SpanBuffer*> client_bufs(clients, nullptr);
  SpanBuffer* owner_buf = nullptr;
  if (rec != nullptr) {
    for (auto& b : client_bufs) b = &rec->add_buffer();
    owner_buf = &rec->add_buffer();
  }

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        if (shape.cluster) {
          ClusterSession s(*fx, fleet.map);
          run_client(s, *fx, ctl, c, clients, cfg.seed, client_bufs[c], results[c]);
        } else {
          NetSession s(single.net->port());
          run_client(s, *fx, ctl, c, clients, cfg.seed, client_bufs[c], results[c]);
        }
      } catch (const std::exception& ex) {
        ctl.fail(std::string("client: ") + ex.what());
        // Arrives at the pending phase and leaves every later one.
        if (results[c].barriers_passed < 2) ctl.barrier.arrive_and_drop();
      }
    });
  }
  if (shape.owner) {
    threads.emplace_back([&] {
      run_owner(*fx, *single.server, *single.store, ctl, owner_buf, uploads);
    });
  }

  ctl.barrier.arrive_and_wait();
  const Counters before = snapshot(*fx, shape.cluster ? nullptr : &single,
                                   shape.cluster ? &fleet : nullptr);
  ctl.window_start = SteadyClock::now();
  ctl.window_end = after(ctl.window_start, cfg.seconds);
  ctl.barrier.arrive_and_wait();
  // Pairing counters at the thirds, for the early/late verdict ratios.
  std::this_thread::sleep_until(after(ctl.window_start, cfg.seconds / 3));
  const PairingOpCounts ops_third = fx->pairing.op_counts();
  std::this_thread::sleep_until(after(ctl.window_start, 2 * cfg.seconds / 3));
  const PairingOpCounts ops_two_thirds = fx->pairing.op_counts();
  for (auto& t : threads) t.join();
  const Counters end = snapshot(*fx, shape.cluster ? nullptr : &single,
                                shape.cluster ? &fleet : nullptr);

  std::vector<SearchSample> all;
  cluster::ClusterSearchStats cstats;
  AuthCacheStats auth;
  for (const ClientResult& r : results) {
    all.insert(all.end(), r.samples.begin(), r.samples.end());
    cstats.rpcs += r.cluster.rpcs;
    cstats.retries += r.cluster.retries;
    cstats.failovers += r.cluster.failovers;
    auth.hits += r.auth_after.hits - r.auth_before.hits;
    auth.misses += r.auth_after.misses - r.auth_before.misses;
  }
  const auto any = [](const SearchSample&) { return true; };
  const auto okay = [](const SearchSample& s) { return s.ok; };
  const auto latency = [](const SearchSample& s) { return s.latency_ms; };
  double last_done = 0;
  std::uint64_t scanned = 0;
  std::size_t ok_searches = 0;
  for (const SearchSample& s : all) {
    last_done = std::max(last_done, s.done_s);
    scanned += s.scanned;
    ok_searches += s.ok ? 1 : 0;
  }
  const auto searches = static_cast<double>(all.size());
  const LatencySummary lat(collect(all, any, latency));

  RunOutput out;
  // End-to-end: always computed; printed for --trace 0. The tail is one
  // percentile per workload (Shape::tail_pct), so every run of a workload
  // reports the same percentile.
  out.end_to_end.add("setup_s", median(times.total_s), "s");
  out.end_to_end.add("search_p50_ms", lat.at(50), "ms");
  out.end_to_end.add("search_tail_ms", lat.at(shape.tail_pct), "ms");
  if (!lat.supports(shape.tail_pct)) out.end_to_end.note_unsupported("search_tail_ms");
  out.end_to_end.add("search_qps", ratio(static_cast<double>(ok_searches), last_done), "1/s");
  out.end_to_end.add("peak_rss_mb", peak_rss_mib(), "MiB");

  std::vector<double> ack_ms, late_ms, store_ms, sync_ms;
  for (const UploadSample& u : uploads) {
    ack_ms.push_back(u.ack_ms);
    late_ms.push_back(u.late_ms);
    store_ms.push_back(u.store_ms);
    sync_ms.push_back(u.sync_ms);
  }
  const LatencySummary ack(ack_ms);

  if (cfg.trace) {
    MetricSet& m = out.per_layer;
    const auto traced = [](const SearchSample& s) { return s.ok && s.traced; };
    const auto untraced = [](const SearchSample& s) { return s.ok && !s.traced; };
    const double p50_on = LatencySummary(collect(all, traced, latency)).at(50);
    const double p50_off = LatencySummary(collect(all, untraced, latency)).at(50);
    const double tail = shape.tail_pct;

    // net
    // The cluster's searches have no single-node round trip or engine
    // wall time: those samples stay empty there and read 0.
    const bool single_node = !shape.cluster;
    const auto per_node = [&](const std::function<double(const SearchSample&)>& get) {
      return LatencySummary(single_node ? collect(all, okay, get) : std::vector<double>{});
    };
    const LatencySummary rtt = per_node([](const SearchSample& s) { return s.rtt_ms; });
    const LatencySummary auth_rtt(collect(
        all, [](const SearchSample& s) { return s.auth_ms >= 0; },
        [](const SearchSample& s) { return s.auth_ms; }));
    const LatencySummary overhead = per_node([](const SearchSample& s) { return s.rtt_ms - s.wall_ms; });
    const LatencySummary wall = per_node([](const SearchSample& s) { return s.wall_ms; });
    m.add_pct("net.search_rtt_p50_ms", rtt, 50);
    m.add_pct("net.search_rtt_tail_ms", rtt, tail);
    m.add_pct("net.auth_rtt_p50_ms", auth_rtt, 50);
    m.add_pct("net.auth_rtt_p90_ms", auth_rtt, 90);
    m.add_pct("net.overhead_p50_ms", overhead, 50);
    m.add_pct("net.overhead_tail_ms", overhead, tail);
    m.add("net.bytes_out_per_search",
          ratio(static_cast<double>(end.net.bytes_out - before.net.bytes_out), searches), "B");
    m.add("net.frames_out_per_search",
          ratio(static_cast<double>(end.net.frames_out - before.net.frames_out), searches),
          "count");

    // cloud
    const PairingOpCounts ops = end.ops - before.ops;
    m.add_pct("engine.wall_p50_ms", wall, 50);
    m.add_pct("engine.wall_tail_ms", wall, tail);
    // Share of scanned records the verdict cache answered: every record
    // scanned live costs exactly one final exponentiation.
    const auto verdict_ratio = [&](double lo_s, double hi_s, std::uint64_t fe) {
      std::uint64_t sc = 0;
      for (const SearchSample& s : all) {
        if (s.ok && s.done_s >= lo_s && s.done_s < hi_s) sc += s.scanned;
      }
      return sc == 0 ? 0.0 : std::max(0.0, 1.0 - static_cast<double>(fe) / static_cast<double>(sc));
    };
    m.add("engine.verdict_hit_ratio",
          verdict_ratio(0, 1e18, ops.final_exp), "ratio");
    if (shape.owner) {
      m.add("engine.verdict_hit_ratio_early",
            verdict_ratio(0, cfg.seconds / 3, (ops_third - before.ops).final_exp), "ratio");
      m.add("engine.verdict_hit_ratio_late",
            verdict_ratio(2 * cfg.seconds / 3, 1e18, (end.ops - ops_two_thirds).final_exp),
            "ratio");
    }
    const double p_hits = static_cast<double>(end.prepared_hits - before.prepared_hits);
    const double p_miss = static_cast<double>(end.prepared_misses - before.prepared_misses);
    m.add("engine.prepared_hit_ratio", ratio(p_hits, p_hits + p_miss), "ratio");
    m.add("engine.records_per_search", ratio(static_cast<double>(scanned), searches), "count");
    m.add("engine.shed",
          static_cast<double>(single_node ? end.engine.shed - before.engine.shed
                                          : end.net.searches_overloaded - before.net.searches_overloaded),
          "count");
    m.add("engine.deadline_exceeded",
          static_cast<double>(single_node ? end.engine.deadline_exceeded - before.engine.deadline_exceeded
                                          : end.net.searches_deadline - before.net.searches_deadline),
          "count");

    // pairing
    m.add("pairing.miller_per_search", ratio(static_cast<double>(ops.miller), searches), "count");
    m.add("pairing.final_exp_per_search", ratio(static_cast<double>(ops.final_exp), searches),
          "count");

    // auth + cluster edge cache
    m.add("cluster.auth_cache_hit_ratio",
          ratio(static_cast<double>(auth.hits), static_cast<double>(auth.hits + auth.misses)),
          "ratio");

    // core (fixture)
    m.add_pct("core.gen_index_ms", LatencySummary(fx->gen_index_ms), 50);
    m.add_pct("core.gen_cap_ms", LatencySummary(fx->gen_cap_ms), 50);

    // store. Set-up medians come from cfg.setup_reps set-ups, too few for
    // kMinBeyond: set-up is repeated per run, and the runs are the sample.
    const double load_s = shape.cluster ? 0 : median(times.load_s);
    m.add("store.open_s", median(times.open_s), "s");
    m.add("store.load_s", load_s, "s");
    m.add("store.load_records_per_s", ratio(static_cast<double>(cfg.records), load_s), "1/s");
    m.add("store.compact_s", fx->compact_s, "s");
    m.add("store.bytes_per_record", bytes_per_record, "B");
    if (shape.owner) {
      m.add_pct("store.append_p95_ms", LatencySummary(store_ms), 95);
      m.add_pct("store.sync_p95_ms", LatencySummary(sync_ms), 95);
      m.add_pct("ingest.ack_p50_ms", ack, 50);
      m.add_pct("ingest.ack_p95_ms", ack, 95);
      // How late the open-loop owner started its uploads.
      m.add_pct("gen.late_p95_ms", LatencySummary(late_ms), 95);
    }

    // cluster
    m.add("cluster.node_start_s", median(times.node_start_s), "s");
    m.add("cluster.rpcs_per_search", ratio(static_cast<double>(cstats.rpcs), searches), "count");
    m.add("cluster.retries_per_search", ratio(static_cast<double>(cstats.retries), searches),
          "count");
    m.add("cluster.failovers_per_search", ratio(static_cast<double>(cstats.failovers), searches),
          "count");
    m.add("cluster.scanned_per_search",
          shape.cluster ? ratio(static_cast<double>(scanned), searches) : 0, "count");

    // harness
    m.add("trace.overhead_pct", p50_off > 0 ? 100.0 * (p50_on / p50_off - 1.0) : 0, "%");

    // Replay of the in-process layer calls on a fixed request sample.
    ChaChaRng rrng = item_rng(cfg.seed, "replay", 0);
    const Zipf zipf(fx->caps.size());
    std::vector<std::size_t> sample(cfg.replay_light);
    for (auto& j : sample) j = zipf.draw(rrng);
    const CapabilityVerifier verifier = fx->verifier();
    std::vector<double> verify_ms, decode_ms, prepare_ms;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const BenchCap& cap = fx->caps[sample[i]];
      {
        ScopedSpan span(main_buf, "auth.verify", i);
        const auto t0 = SteadyClock::now();
        if (!verifier.verify(fx->backend, cap.query)) ctl.fail("replay: verify refused");
        verify_ms.push_back(ms_since(t0));
      }
      {
        ScopedSpan span(main_buf, "core.decode_query", i);
        const auto t0 = SteadyClock::now();
        (void)fx->backend.decode_query(cap.query_bytes);
        decode_ms.push_back(ms_since(t0));
      }
      {
        ScopedSpan span(main_buf, "core.prepare", i);
        const auto t0 = SteadyClock::now();
        (void)fx->backend.prepare(cap.query.query);
        prepare_ms.push_back(ms_since(t0));
      }
    }
    ctl.attempted += sample.size();
    m.add_pct("auth.verify_p50_ms", LatencySummary(verify_ms), 50);
    m.add_pct("core.decode_query_p50_ms", LatencySummary(decode_ms), 50);
    m.add_pct("core.prepare_p50_ms", LatencySummary(prepare_ms), 50);

    // In-process engine and scan kernel. The cluster has no single engine,
    // so its replay loads the whole store into one.
    std::unique_ptr<CloudServer> replay_server;
    std::unique_ptr<SearchEngine> replay_engine;
    const CloudServer* server = single.server.get();
    const SearchEngine* engine = single.engine.get();
    if (shape.cluster) {
      replay_server = std::make_unique<CloudServer>(fx->backend, fx->verifier());
      (void)replay_server->load_from(*fleet.store);
      replay_engine = std::make_unique<SearchEngine>(*replay_server, node_options().engine);
      server = replay_server.get();
      engine = replay_engine.get();
    }
    const std::size_t all_uploads = ctl.uploads_acked.load();
    const SearchEngine kernel(*server, {.threads = 1, .verdict_cache_bytes = 0});
    std::vector<double> inproc_ms;
    double kernel_records = 0;
    double kernel_s = 0;
    for (std::size_t i = 0; i < std::min(cfg.replay_scan, sample.size()); ++i) {
      const BenchCap& cap = fx->caps[sample[i]];
      ++ctl.attempted;
      {
        ScopedSpan span(main_buf, "engine.inproc", i);
        const auto t0 = SteadyClock::now();
        const auto r = engine->search_batch_signed({&cap.query, 1});
        inproc_ms.push_back(ms_since(t0));
        if (!matches_oracle(*fx, cap, r[0], all_uploads, all_uploads)) {
          ctl.fail("replay: in-process result differs from the oracle");
        }
      }
      {
        ScopedSpan span(main_buf, "pairing.scan", i);
        BatchMetrics bm;
        (void)kernel.search_batch_unchecked_any({&cap.query.query, 1}, &bm);
        kernel_records += static_cast<double>(bm.records);
        kernel_s += bm.wall_s;
      }
    }
    m.add_pct("engine.inproc_p50_ms", LatencySummary(inproc_ms), 50);
    m.add("pairing.scan_records_per_s", ratio(kernel_records, kernel_s), "1/s");

    // Direct shard RPCs: each node answers for its primary shards. The
    // slowest node's sample is reported.
    LatencySummary slowest_shard;
    if (shape.cluster) {
      for (std::uint32_t n = 0; n < fleet.nodes.size(); ++n) {
        std::vector<std::uint32_t> primaries;
        for (std::uint32_t s = 0; s < kShards; ++s) {
          if (fleet.map.primary_of(s) == n) primaries.push_back(s);
        }
        if (primaries.empty()) continue;
        net::NetClient client;
        client.connect("127.0.0.1", fleet.nodes[n]->port(), 60000);
        (void)client.hello(SchemeKind::kApks);
        std::vector<double> rpc_ms;
        for (std::size_t i = 0; i < std::min(cfg.replay_scan, sample.size()); ++i) {
          const BenchCap& cap = fx->caps[sample[i]];
          (void)client.auth_unchecked(cap.query_bytes);
          ScopedSpan span(main_buf, "cluster.shard_rpc", i);
          span.attr("node", n);
          const auto t0 = SteadyClock::now();
          const net::ShardRemoteResult r = client.shard_search(
              primaries, fleet.map.version(), fleet.map.total_shards());
          rpc_ms.push_back(ms_since(t0));
          ++ctl.attempted;
          if (r.status != net::WireStatus::kOk) ctl.fail("replay: shard rpc " + r.message);
        }
        LatencySummary node(std::move(rpc_ms));
        if (node.at(50) >= slowest_shard.at(50)) slowest_shard = std::move(node);
      }
    }
    m.add_pct("cluster.shard_rpc_p50_ms", slowest_shard, 50);
    m.add("cluster.fanout_overhead_p50_ms",
          slowest_shard.supports(50) ? lat.at(50) - slowest_shard.at(50) : 0, "ms");

    // Trace artifacts.
    const fs::path trace_path = cfg.out_dir / ("trace-" + std::string(shape.name) + ".json");
    if (!rec->write_chrome_json(trace_path.string())) {
      throw std::runtime_error("cannot write " + trace_path.string());
    }
    std::printf("trace: %zu spans (%zu dropped) -> %s\n", rec->span_count(), rec->dropped(),
                trace_path.string().c_str());
    rec->print_table(stdout);
  }

  out.attempted = ctl.attempted.load();
  out.failed = ctl.failed.load();
  out.first_error = ctl.first_error;

  const MetricSet& printed = cfg.trace ? out.per_layer : out.end_to_end;
  std::ostringstream detail;
  detail << "{\"provenance\": " << provenance_json(cfg, shape)
         << ", \"fixture\": {\"cache_hit\": " << (fx->cache_hit ? "true" : "false")
         << ", \"build_s\": " << fx->build_s << "}"
         << ", \"searches\": {\"samples\": " << lat.samples() << ", \"p50_ms\": " << lat.at(50)
         << ", \"tail_ms\": " << lat.at(shape.tail_pct)
         << ", \"max_supported_pct\": " << lat.max_supported() << "}"
         << ", \"uploads\": {\"samples\": " << ack.samples()
         << ", \"max_supported_pct\": " << ack.max_supported() << "}"
         << ", \"setup_reps\": " << times.total_s.size()
         << ", \"error_rate\": " << ratio(static_cast<double>(out.failed),
                                          static_cast<double>(out.attempted))
         << ", \"unsupported\": [";
  for (std::size_t i = 0; i < printed.unsupported().size(); ++i) {
    detail << (i == 0 ? "\"" : ", \"") << printed.unsupported()[i] << "\"";
  }
  detail << "]}";
  out.detail = detail.str();
  return out;
}

// --- check mode -------------------------------------------------------------

// The "name" strings listed under `key` in BENCHMARK.json.
std::vector<std::string> benchmark_names(const std::string& text, const std::string& key) {
  std::vector<std::string> names;
  const std::size_t k = text.find("\"" + key + "\"");
  if (k == std::string::npos) return names;
  const std::size_t open = text.find('[', k);
  const std::size_t close = text.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return names;
  const std::string section = text.substr(open, close - open);
  static const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (std::sregex_iterator it(section.begin(), section.end(), name_re), e; it != e; ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

int run_check(Config cfg, const std::string& benchmark_json) {
  cfg.records = 64;
  cfg.caps = 4;
  cfg.seconds = 1;
  cfg.warmup_s = 0.3;
  cfg.setup_reps = 1;
  cfg.cache_fixture = false;
  cfg.replay_light = 4;
  cfg.replay_scan = 2;
  cfg.trace = true;

  std::string text;
  if (!benchmark_json.empty()) {
    std::ifstream in(benchmark_json);
    if (!in) {
      std::fprintf(stderr, "check: cannot read %s\n", benchmark_json.c_str());
      return 1;
    }
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  int bad = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Shape& shape : kShapes) {
    const RunOutput out = run_workload(cfg, shape);
    std::printf("check %-8s attempted=%" PRIu64 " failed=%" PRIu64 "\n", shape.name,
                out.attempted, out.failed);
    attempted += out.attempted;
    failed += out.failed;
    if (out.failed != 0) {
      std::printf("  FAIL: %s\n", out.first_error.c_str());
      ++bad;
    }
    for (const char* section : {"end_to_end", "per_layer"}) {
      const MetricSet& set =
          std::strcmp(section, "end_to_end") == 0 ? out.end_to_end : out.per_layer;
      for (const std::string& name : benchmark_names(text, section)) {
        if (!set.has(name)) {
          std::printf("  FAIL: %s metric %s not emitted\n", section, name.c_str());
          ++bad;
        }
      }
    }
  }
  for (const std::string& w : benchmark_names(text, "workloads")) {
    if (std::none_of(std::begin(kShapes), std::end(kShapes),
                     [&](const Shape& s) { return w == s.name; })) {
      std::printf("  FAIL: workload %s unknown to apks_bench\n", w.c_str());
      ++bad;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {}}\n",
              bad == 0 ? "true" : "false", attempted, failed);
  return bad == 0 ? 0 : 1;
}

// --- main -------------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "apks_bench: %s\n"
               "usage: apks_bench --workload hot|scan|ingest|cluster --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--out-dir DIR]\n"
               "       apks_bench --check [--benchmark-json FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string workload;
  std::string benchmark_json;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        workload = value();
      } else if (a == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (a == "--trace") {
        cfg.trace = std::stoi(value()) != 0;
      } else if (a == "--work-dir") {
        cfg.work_dir = value();
      } else if (a == "--out-dir") {
        cfg.out_dir = value();
      } else if (a == "--check") {
        cfg.check = true;
      } else if (a == "--benchmark-json") {
        benchmark_json = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }

  try {
    if (cfg.check) return run_check(cfg, benchmark_json);

    const Shape* shape = nullptr;
    for (const Shape& s : kShapes) {
      if (workload == s.name) shape = &s;
    }
    if (shape == nullptr) usage("--workload must be hot, scan, ingest or cluster");
    if (!(cfg.seconds > 0)) usage("--seconds must be positive");
    if (std::strcmp(APKS_BENCH_BUILD_TYPE, "Release") != 0 ||
        std::strlen(APKS_BENCH_SANITIZE) != 0) {
      std::fprintf(stderr,
                   "apks_bench: refusing to measure a '%s' build (sanitize '%s'); "
                   "build with -DCMAKE_BUILD_TYPE=Release and no sanitizer, or "
                   "run --check\n",
                   APKS_BENCH_BUILD_TYPE, APKS_BENCH_SANITIZE);
      return 2;
    }
    fs::create_directories(cfg.out_dir);

    std::printf("# apks_bench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
                shape->name, cfg.seed, cfg.seconds, cfg.trace ? 1 : 0);
    const RunOutput out = run_workload(cfg, *shape);
    const MetricSet& metrics = cfg.trace ? out.per_layer : out.end_to_end;
    metrics.print(stdout);
    if (out.failed != 0) {
      std::printf("first failure: %s\n", out.first_error.c_str());
    }
    std::printf("%s\n", out.detail.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": %s}\n",
                out.failed == 0 ? "true" : "false", out.attempted, out.failed,
                metrics.json().c_str());
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "apks_bench: %s\n", ex.what());
    return 1;
  }
}
