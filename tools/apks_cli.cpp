// apks_cli — file-based command-line front end for the serving stack.
//
// Every command takes --scheme apks|apks+|mrqed (default apks) and runs
// through the scheme's SearchBackend, so all three constructions share the
// same ingest/serve/batch machinery:
//
//   apks_cli setup    --schema phr --dir KEYS
//   apks_cli genindex --schema phr --dir KEYS --values "61, Male, Boston, diabetes, Hospital B" --out idx.bin
//   apks_cli gencap   --schema phr --dir KEYS --query "sex = Male; illness in diabetes" --out cap.bin
//   apks_cli delegate --schema phr --cap cap.bin --query "provider = Hospital B" --out cap2.bin
//   apks_cli search   --schema phr --cap cap.bin idx1.bin idx2.bin ...
//   apks_cli batchsearch --schema phr --caps cap1.bin,cap2.bin [--threads T] idx1.bin ...
//   apks_cli ingest   --schema phr --store DB [--shards N] [--proxy-replicas R] idx1.bin idx2.bin ...
//   apks_cli serve    --schema phr --store DB --caps cap1.bin,cap2.bin [--threads T] [--deadline-ms MS] [--max-inflight N] [--verdict-cache-mb MB]
//   apks_cli serve    --schema phr --store DB --listen 127.0.0.1:7700 [--grace-ms MS] [--stats-interval-s S]
//   apks_cli rsearch  --schema phr --connect 127.0.0.1:7700 --cap cap.bin [--deadline-ms MS] [--partial-ok]
//   apks_cli cluster-serve --schema phr --store DB --nodes a=H:P,b=H:P --node-index 0 [--replicas R] [--map-version V]
//   apks_cli rsearch  --schema phr --cluster --nodes a=H:P,b=H:P --cap cap.bin --shards N
//                     [--heartbeat-ms MS] [--hedge-delay-ms MS] [--hedge-budget N]
//                     [--node-timeout-ms MS] [--deadline-ms MS] [--partial-ok]
//   apks_cli compact  --store DB
//
// `rsearch --cluster` exits 0 on a complete result, 1 on a fatal error
// (unauthorized query, no live replica for a shard without --partial-ok),
// and 2 on a partial result under --partial-ok.
//
// MRQED^D replaces --schema with --dims D --depth K; --values is a point
// ("3, 1") and --query one range per dimension ("0-3; 1" — `lo-hi`, a
// single value, or `*` for the full domain).
//
// APKS+ uses the same file formats as APKS, but `ingest` runs the backend's
// ingest stage: if KEYS/r.bin (written by `setup --scheme apks+`) is
// readable, every input traverses an in-process proxy pipeline holding
// shares of r; if KEYS/msk.bin is readable, an all-wildcard ingest canary
// is installed and owner-partial (untransformed) indexes are refused.
// With --proxy-replicas R (R > 1) the pipeline is the fault-tolerant
// replicated pool (cloud/proxy_pool.h): uploads fail over between replicas
// and park when a share has no live replica; ingest reports the
// parked/retried counts and drains the queue before exiting.
//
// `serve` degradation knobs: --deadline-ms bounds each batch's scan (the
// batch stops at a block boundary and reports DEADLINE) and --max-inflight
// sheds concurrent batches beyond the limit before any crypto runs.
// --verdict-cache-mb MB enables the per-segment verdict cache: repeated
// queries over sealed segments answer from memoized verdicts instead of
// re-running the pairing scan (stats are printed after the batch).
//
// `serve --listen HOST:PORT` runs the epoll network front end (net/server.h)
// over the loaded store instead of a one-shot batch: sessions authenticate
// with the capability file's query bytes (unchecked mode — the CLI's raw
// capability files carry no authority signature), searches stream back in
// chunks, and SIGINT/SIGTERM drains inflight batches (--grace-ms) before
// exiting 0. A stats thread prints one JSON line of engine/verdict-cache/
// network counters every --stats-interval-s seconds and on shutdown.
// `rsearch` is the matching remote client.
//
// `ingest` appends encrypted-index files into a persistent ShardedStore
// (creating it with --shards partitions on first use) stamped with the
// scheme tag; reopening a store under a different --scheme is refused.
// `serve` reopens the store — reporting crash recovery if the last writer
// died mid-append — loads it into a CloudServer and answers a query batch;
// `compact` collapses each shard's segment chain and reports the bytes
// reclaimed.
//
// Schemas: "phr" (the paper's PHR case study), "phr-time" (with the
// revocation time dimension), "nursery" (UCI Nursery, d = 2).
// Randomness comes from the OS; pass --seed LABEL for reproducible output.
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "cloud/proxy.h"
#include "cloud/proxy_pool.h"
#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "common/failpoint.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "core/apks.h"
#include "core/apks_backend.h"
#include "core/apks_plus.h"
#include "core/query_parser.h"
#include "data/nursery.h"
#include "data/phr.h"
#include "hpe/serialize.h"
#include "mrqed/mrqed_backend.h"
#include "mrqed/serialize.h"
#include "net/client.h"
#include "net/server.h"
#include "store/sharded_store.h"

namespace {

using namespace apks;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "apks_cli: %s\n", msg.c_str());
  std::exit(1);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, std::span<const std::uint8_t> data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) die("cannot write " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

Schema make_schema(const std::string& name) {
  if (name == "phr") return phr_schema({.max_or = 2});
  if (name == "phr-time") return phr_schema({.max_or = 2, .with_time = true});
  if (name == "nursery") return nursery_schema(2);
  die("unknown schema '" + name + "' (use phr, phr-time or nursery)");
}

struct Args {
  std::string command;
  std::string scheme = "apks";
  std::string schema = "phr";
  std::string dir = ".";
  std::string out;
  std::string cap;
  std::vector<std::string> caps;
  std::string query;
  std::string values;
  std::string seed;
  std::string store;
  std::size_t shards = 4;
  std::size_t threads = 1;
  std::size_t dims = 2;   // mrqed only
  std::size_t depth = 4;  // mrqed only: domain [0, 2^depth)
  std::size_t proxies = 2;  // apks+ ingest pipeline size
  std::size_t proxy_replicas = 1;  // >1: replicated fault-tolerant pool
  std::uint64_t deadline_ms = 0;   // serve: per-batch scan budget (0 = none)
  std::size_t max_inflight = 0;    // serve: admission limit (0 = unlimited)
  std::size_t verdict_cache_mb = 0;  // serve: verdict cache budget (0 = off)
  std::string listen;   // serve: HOST:PORT to run the network front end
  std::string connect;  // rsearch: HOST:PORT of a serving apks_cli
  std::uint64_t grace_ms = 2000;      // serve --listen: shutdown drain budget
  std::uint64_t stats_interval_s = 10;  // serve --listen: JSON stats cadence
  bool partial_ok = false;  // rsearch: accept prefix results on deadline
  std::string nodes;        // cluster: NAME=HOST:PORT[,NAME=HOST:PORT...]
  std::size_t replicas = 2;     // cluster: replica factor R
  std::size_t node_index = 0;   // cluster-serve: which map entry is me
  std::uint64_t map_version = 1;  // cluster: map epoch (bump on reshape)
  bool cluster = false;           // rsearch: scatter via the coordinator
  std::uint64_t hedge_delay_ms = 0;   // rsearch --cluster: 0 = no hedging
  std::size_t hedge_budget = 2;       // rsearch --cluster: extra RPCs/search
  std::uint64_t heartbeat_ms = 0;     // rsearch --cluster: 0 = no monitor
  std::uint64_t node_timeout_ms = 0;  // rsearch --cluster: per-RPC socket cap
  std::vector<std::string> positional;
};

std::size_t parse_count(const std::string& arg, const std::string& v) {
  try {
    return static_cast<std::size_t>(std::stoul(v));
  } catch (const std::exception&) {
    die(arg + " needs a number, got '" + v + "'");
  }
}

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) {
    die("usage: apks_cli <setup|genindex|gencap|delegate|search|batchsearch"
        "|ingest|serve|rsearch|cluster-serve|compact> "
        "[--scheme apks|apks+|mrqed] [options]");
  }
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--scheme") a.scheme = next();
    else if (arg == "--schema") a.schema = next();
    else if (arg == "--dir") a.dir = next();
    else if (arg == "--out") a.out = next();
    else if (arg == "--cap") a.cap = next();
    else if (arg == "--caps") {
      std::string list = next();
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t comma = list.find(',', pos);
        const std::string item = list.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (!item.empty()) a.caps.push_back(item);
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else if (arg == "--threads") {
      a.threads = parse_count(arg, next());
    } else if (arg == "--store") {
      a.store = next();
    } else if (arg == "--shards") {
      a.shards = parse_count(arg, next());
      if (a.shards == 0) die("--shards must be at least 1");
    } else if (arg == "--dims") {
      a.dims = parse_count(arg, next());
      if (a.dims == 0) die("--dims must be at least 1");
    } else if (arg == "--depth") {
      a.depth = parse_count(arg, next());
      if (a.depth == 0 || a.depth > 32) die("--depth must be in [1, 32]");
    } else if (arg == "--proxies") {
      a.proxies = parse_count(arg, next());
      if (a.proxies == 0) die("--proxies must be at least 1");
    } else if (arg == "--proxy-replicas") {
      a.proxy_replicas = parse_count(arg, next());
      if (a.proxy_replicas == 0) die("--proxy-replicas must be at least 1");
    } else if (arg == "--deadline-ms") {
      a.deadline_ms = parse_count(arg, next());
    } else if (arg == "--max-inflight") {
      a.max_inflight = parse_count(arg, next());
    } else if (arg == "--verdict-cache-mb") {
      a.verdict_cache_mb = parse_count(arg, next());
    } else if (arg == "--listen") {
      a.listen = next();
    } else if (arg == "--connect") {
      a.connect = next();
    } else if (arg == "--grace-ms") {
      a.grace_ms = parse_count(arg, next());
    } else if (arg == "--stats-interval-s") {
      a.stats_interval_s = parse_count(arg, next());
    } else if (arg == "--partial-ok") {
      a.partial_ok = true;
    } else if (arg == "--nodes") {
      a.nodes = next();
    } else if (arg == "--replicas") {
      a.replicas = parse_count(arg, next());
      if (a.replicas == 0) die("--replicas must be at least 1");
    } else if (arg == "--node-index") {
      a.node_index = parse_count(arg, next());
    } else if (arg == "--map-version") {
      a.map_version = parse_count(arg, next());
      if (a.map_version == 0) die("--map-version must be at least 1");
    } else if (arg == "--cluster") {
      a.cluster = true;
    } else if (arg == "--hedge-delay-ms") {
      a.hedge_delay_ms = parse_count(arg, next());
    } else if (arg == "--hedge-budget") {
      a.hedge_budget = parse_count(arg, next());
    } else if (arg == "--heartbeat-ms") {
      a.heartbeat_ms = parse_count(arg, next());
    } else if (arg == "--node-timeout-ms") {
      a.node_timeout_ms = parse_count(arg, next());
    }
    else if (arg == "--query") a.query = next();
    else if (arg == "--values") a.values = next();
    else if (arg == "--seed") a.seed = next();
    else if (arg.rfind("--", 0) == 0) die("unknown option " + arg);
    else a.positional.push_back(arg);
  }
  return a;
}

std::unique_ptr<Rng> make_rng(const Args& a) {
  if (!a.seed.empty()) return std::make_unique<ChaChaRng>(a.seed);
  return std::make_unique<SystemRng>();
}

// The CLI's per-scheme bundle: the scheme object plus its SearchBackend.
// The typed pointers stay alive for commands that need scheme-specific
// operations (key generation, delegation); everything downstream of the
// crypto goes through `backend`.
struct Runtime {
  SchemeKind kind = SchemeKind::kApks;
  const Pairing* e = nullptr;
  std::unique_ptr<Apks> apks;       // kApks
  std::unique_ptr<ApksPlus> plus;   // kApksPlus
  std::unique_ptr<Mrqed> mrqed;     // kMrqed
  std::unique_ptr<SearchBackend> backend;

  [[nodiscard]] const Apks& apks_scheme() const {
    if (plus != nullptr) return *plus;
    if (apks != nullptr) return *apks;
    die("this command supports only --scheme apks or apks+");
  }
};

Runtime make_runtime(const Pairing& e, const Args& a) {
  Runtime rt;
  rt.e = &e;
  rt.kind = parse_scheme_kind(a.scheme);
  switch (rt.kind) {
    case SchemeKind::kApks:
      rt.apks = std::make_unique<Apks>(e, make_schema(a.schema));
      rt.backend = std::make_unique<ApksBackend>(*rt.apks);
      break;
    case SchemeKind::kApksPlus:
      rt.plus = std::make_unique<ApksPlus>(e, make_schema(a.schema));
      rt.backend = std::make_unique<ApksPlusBackend>(*rt.plus);
      break;
    case SchemeKind::kMrqed:
      rt.mrqed = std::make_unique<Mrqed>(e, a.dims, a.depth);
      rt.backend = std::make_unique<MrqedBackend>(*rt.mrqed);
      break;
  }
  return rt;
}

// --- CLI file codecs ------------------------------------------------------
// APKS-family index/cap files stay at the HPE level (serialize_ciphertext /
// serialize_key — the formats earlier CLI versions wrote); MRQED files use
// the backend's wire codec directly.

AnyIndex load_index_file(const Runtime& rt, const std::string& path) {
  const std::vector<std::uint8_t> bytes = read_file(path);
  if (rt.kind == SchemeKind::kMrqed) return rt.backend->decode_index(bytes);
  EncryptedIndex enc;
  enc.ct = deserialize_ciphertext(*rt.e, bytes);
  return AnyIndex::own(rt.kind, std::move(enc));
}

AnyQuery load_query_file(const Runtime& rt, const std::string& path) {
  const std::vector<std::uint8_t> bytes = read_file(path);
  if (rt.kind == SchemeKind::kMrqed) return rt.backend->decode_query(bytes);
  Capability cap;
  cap.key = deserialize_key(*rt.e, bytes);
  return AnyQuery::own(rt.kind, std::move(cap));
}

// --- MRQED text formats ---------------------------------------------------

std::vector<std::uint64_t> parse_mrqed_point(const Mrqed& scheme,
                                             const std::string& text) {
  std::vector<std::uint64_t> point;
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    const std::size_t comma = text.find(',', pos);
    const std::string item = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    try {
      point.push_back(std::stoull(item));
    } catch (const std::exception&) {
      die("mrqed --values: expected a number, got '" + item + "'");
    }
    pos = comma == std::string::npos ? comma : comma + 1;
  }
  if (point.size() != scheme.dims()) {
    die("mrqed --values: expected " + std::to_string(scheme.dims()) +
        " coordinates, got " + std::to_string(point.size()));
  }
  return point;
}

std::vector<MrqedRange> parse_mrqed_query(const Mrqed& scheme,
                                          const std::string& text) {
  const std::uint64_t domain_max =
      (scheme.tree().depth() >= 64)
          ? ~0ull
          : (1ull << scheme.tree().depth()) - 1;
  std::vector<MrqedRange> ranges;
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    const std::size_t semi = text.find(';', pos);
    std::string item = text.substr(
        pos, semi == std::string::npos ? std::string::npos : semi - pos);
    // Trim surrounding spaces.
    const std::size_t b = item.find_first_not_of(" \t");
    const std::size_t f = item.find_last_not_of(" \t");
    item = b == std::string::npos ? "" : item.substr(b, f - b + 1);
    MrqedRange range;
    try {
      if (item == "*") {
        range = {0, domain_max};
      } else if (const std::size_t dash = item.find('-');
                 dash != std::string::npos) {
        range.lo = std::stoull(item.substr(0, dash));
        range.hi = std::stoull(item.substr(dash + 1));
      } else {
        range.lo = range.hi = std::stoull(item);
      }
    } catch (const std::exception&) {
      die("mrqed --query: expected `lo-hi`, a value, or `*`; got '" + item +
          "'");
    }
    if (range.lo > range.hi || range.hi > domain_max) {
      die("mrqed --query: range out of domain [0, " +
          std::to_string(domain_max) + "]");
    }
    ranges.push_back(range);
    pos = semi == std::string::npos ? semi : semi + 1;
  }
  if (ranges.size() != scheme.dims()) {
    die("mrqed --query: expected " + std::to_string(scheme.dims()) +
        " ranges, got " + std::to_string(ranges.size()));
  }
  return ranges;
}

// --- APKS+ ingest hooks ---------------------------------------------------
// Installed from whatever key material --dir holds: r.bin arms the proxy
// transformation stage, msk.bin arms the admission canary.

// The two proxy deployments `ingest` can arm: the plain chain (attached as
// the backend's synchronous ingest stage) or, with --proxy-replicas > 1,
// the replicated fault-tolerant pool (driven directly by cmd_ingest so
// uploads can park and drain instead of failing the whole run).
struct PlusIngest {
  std::unique_ptr<ProxyPipeline> chain;
  std::unique_ptr<ResilientProxyPipeline> pool;
};

void install_plus_ingest_hooks(Runtime& rt, const Args& a, Rng& rng,
                               PlusIngest& ingest) {
  if (rt.kind != SchemeKind::kApksPlus) return;
  auto& backend = static_cast<ApksPlusBackend&>(*rt.backend);
  if (std::filesystem::exists(a.dir + "/r.bin")) {
    const std::vector<std::uint8_t> r_bytes = read_file(a.dir + "/r.bin");
    ByteReader reader{std::span<const std::uint8_t>(r_bytes)};
    const Fq r = read_fq(rt.e->fq(), reader);
    if (a.proxy_replicas > 1) {
      ProxyPoolOptions opts;
      opts.replicas = a.proxy_replicas;
      ingest.pool = std::make_unique<ResilientProxyPipeline>(
          *rt.plus, rt.plus->split_secret(r, a.proxies, rng), opts);
      std::printf(
          "apks+: resilient proxy pool armed (%zu proxies x %zu replicas)\n",
          a.proxies, a.proxy_replicas);
    } else {
      ingest.chain = std::make_unique<ProxyPipeline>(
          make_proxy_pipeline(*rt.plus, r, a.proxies, rng));
      attach_ingest_pipeline(backend, *ingest.chain);
      std::printf("apks+: proxy pipeline armed (%zu proxies)\n", a.proxies);
    }
  }
  if (std::filesystem::exists(a.dir + "/msk.bin")) {
    const ApksMasterKey msk{
        deserialize_master_key(*rt.e, read_file(a.dir + "/msk.bin"))};
    const Query canary_q = make_canary_query(rt.plus->schema());
    backend.set_ingest_canary(rt.plus->gen_cap(msk, canary_q, rng));
    std::printf("apks+: ingest canary armed (partial indexes refused)\n");
  }
}

// --- commands -------------------------------------------------------------

int cmd_setup(Runtime& rt, const Args& a, Rng& rng) {
  const Pairing& e = *rt.e;
  if (rt.kind == SchemeKind::kMrqed) {
    MrqedPublicKey pk;
    MrqedMasterKey msk;
    rt.mrqed->setup(rng, pk, msk);
    write_file(a.dir + "/pk.bin", serialize_mrqed_public_key(e, pk));
    write_file(a.dir + "/msk.bin", serialize_mrqed_master_key(e, msk));
    std::printf("setup (mrqed): dims=%zu depth=%zu, wrote %s/{pk,msk}.bin\n",
                rt.mrqed->dims(), rt.mrqed->tree().depth(), a.dir.c_str());
    return 0;
  }
  if (rt.kind == SchemeKind::kApksPlus) {
    const ApksPlusSetupResult s = rt.plus->setup_plus(rng);
    write_file(a.dir + "/pk.bin", serialize_public_key(e, s.pk.hpe));
    write_file(a.dir + "/msk.bin", serialize_master_key(e, s.msk.hpe));
    ByteWriter w;
    write_fq(e.fq(), s.r, w);
    write_file(a.dir + "/r.bin", w.data());
    std::printf(
        "setup (apks+): n=%zu, wrote %s/{pk,msk,r}.bin (msk is blinded; r "
        "is the TA transformation secret)\n",
        rt.plus->n(), a.dir.c_str());
    return 0;
  }
  ApksPublicKey pk;
  ApksMasterKey msk;
  rt.apks->setup(rng, pk, msk);
  write_file(a.dir + "/pk.bin", serialize_public_key(e, pk.hpe));
  write_file(a.dir + "/msk.bin", serialize_master_key(e, msk.hpe));
  std::printf("setup: n=%zu, wrote %s/pk.bin and %s/msk.bin\n", rt.apks->n(),
              a.dir.c_str(), a.dir.c_str());
  return 0;
}

int cmd_genindex(Runtime& rt, const Args& a, Rng& rng) {
  if (a.values.empty() || a.out.empty()) die("genindex needs --values and --out");
  const Pairing& e = *rt.e;
  if (rt.kind == SchemeKind::kMrqed) {
    const MrqedPublicKey pk =
        deserialize_mrqed_public_key(e, read_file(a.dir + "/pk.bin"));
    const auto point = parse_mrqed_point(*rt.mrqed, a.values);
    const MrqedCiphertext ct = rt.mrqed->encrypt(pk, point, rng);
    const auto bytes = serialize_mrqed_ciphertext(e, ct);
    write_file(a.out, bytes);
    std::printf("encrypted point -> %s (%zu bytes)\n", a.out.c_str(),
                bytes.size());
    return 0;
  }
  const Apks& scheme = rt.apks_scheme();
  const ApksPublicKey pk{
      deserialize_public_key(e, read_file(a.dir + "/pk.bin"))};
  const PlainIndex row = parse_index(scheme.schema(), a.values);
  const EncryptedIndex enc = scheme.gen_index(pk, row, rng);
  const auto bytes = serialize_ciphertext(e, enc.ct);
  write_file(a.out, bytes);
  std::printf("encrypted index%s -> %s (%zu bytes)\n",
              rt.kind == SchemeKind::kApksPlus ? " (owner-partial)" : "",
              a.out.c_str(), bytes.size());
  return 0;
}

int cmd_gencap(Runtime& rt, const Args& a, Rng& rng) {
  if (a.query.empty() || a.out.empty()) die("gencap needs --query and --out");
  const Pairing& e = *rt.e;
  if (rt.kind == SchemeKind::kMrqed) {
    const MrqedPublicKey pk =
        deserialize_mrqed_public_key(e, read_file(a.dir + "/pk.bin"));
    const MrqedMasterKey msk =
        deserialize_mrqed_master_key(e, read_file(a.dir + "/msk.bin"));
    const auto ranges = parse_mrqed_query(*rt.mrqed, a.query);
    const MrqedKey key = rt.mrqed->gen_key(pk, msk, ranges, rng);
    const auto bytes = serialize_mrqed_key(e, key);
    write_file(a.out, bytes);
    std::printf("range key for [%s] -> %s (%zu bytes)\n", a.query.c_str(),
                a.out.c_str(), bytes.size());
    return 0;
  }
  const Apks& scheme = rt.apks_scheme();
  const ApksMasterKey msk{
      deserialize_master_key(e, read_file(a.dir + "/msk.bin"))};
  const Query q = parse_query(scheme.schema(), a.query);
  const Capability cap = scheme.gen_cap(msk, q, rng);
  write_file(a.out, serialize_key(e, cap.key));
  std::printf("capability for [%s] -> %s (%zu bytes)\n",
              format_query(scheme.schema(), q).c_str(), a.out.c_str(),
              serialize_key(e, cap.key).size());
  return 0;
}

int cmd_delegate(Runtime& rt, const Args& a, Rng& rng) {
  if (a.cap.empty() || a.query.empty() || a.out.empty()) {
    die("delegate needs --cap, --query and --out");
  }
  const Apks& scheme = rt.apks_scheme();  // delegation is APKS-family only
  const Pairing& e = *rt.e;
  Capability parent;
  parent.key = deserialize_key(e, read_file(a.cap));
  const Query q = parse_query(scheme.schema(), a.query);
  const Capability child = scheme.delegate_cap(parent, q, rng);
  write_file(a.out, serialize_key(e, child.key));
  std::printf("delegated (level %zu) with [%s] -> %s\n", child.key.level,
              format_query(scheme.schema(), q).c_str(), a.out.c_str());
  return 0;
}

int cmd_search(const Runtime& rt, const Args& a) {
  if (a.cap.empty() || a.positional.empty()) {
    die("search needs --cap and at least one index file");
  }
  const AnyQuery query = load_query_file(rt, a.cap);
  const AnyPrepared prepared = rt.backend->prepare(query);
  // Every index in one match_block call, so the records fill lane passes.
  std::vector<AnyIndex> indexes;
  indexes.reserve(a.positional.size());
  for (const auto& path : a.positional) {
    indexes.push_back(load_index_file(rt, path));
  }
  std::vector<const AnyIndex*> block;
  for (const AnyIndex& index : indexes) block.push_back(&index);
  const auto match = std::make_unique<bool[]>(block.size());
  rt.backend->match_block(prepared, block.data(), block.size(), match.get());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    if (match[i]) ++hits;
    std::printf("%s: %s\n", a.positional[i].c_str(),
                match[i] ? "MATCH" : "no match");
  }
  std::printf("%zu / %zu matched\n", hits, a.positional.size());
  return 0;
}

void print_batch(const Args& a, const SearchReply& reply) {
  const auto& results = reply.refs;
  const BatchMetrics& metrics = reply.metrics;
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("%s: %zu / %zu matched\n", a.caps[i].c_str(),
                results[i].size(), metrics.records);
    for (const auto& ref : results[i]) std::printf("  %s\n", ref.c_str());
  }
  std::printf("batch: %zu queries, %zu records, %zu threads, %.4f s\n",
              metrics.queries, metrics.records, metrics.threads,
              metrics.wall_s);
  std::printf("prepare calls: %zu, cache hits: %zu\n", metrics.prepare_calls,
              metrics.cache_hits);
  std::printf("%-24s %8s %8s %10s %10s %6s %10s\n", "query", "scanned",
              "matched", "miller", "final_exp", "cache", "wall_s");
  for (std::size_t i = 0; i < metrics.per_query.size(); ++i) {
    const ServerMetrics& m = metrics.per_query[i];
    std::printf("%-24s %8zu %8zu %10" PRIu64 " %10" PRIu64 " %6s %10.4f\n",
                a.caps[i].c_str(), m.scanned, m.matched, m.ops.miller,
                m.ops.final_exp, m.cache_hit ? "hit" : "miss", m.wall_s);
  }
}

std::vector<AnyQuery> load_query_files(const Runtime& rt, const Args& a) {
  std::vector<AnyQuery> queries;
  queries.reserve(a.caps.size());
  for (const auto& path : a.caps) queries.push_back(load_query_file(rt, path));
  return queries;
}

int cmd_batchsearch(Runtime& rt, const Args& a) {
  if (a.caps.empty() || a.positional.empty()) {
    die("batchsearch needs --caps FILE[,FILE...] and at least one index file");
  }
  // The CLI works with raw capability/key files (no authority signatures),
  // so the server's verifier is a stub and the engine serves them as
  // admitted.
  CloudServer server(*rt.backend,
                     CapabilityVerifier(*rt.e, IbsPublicParams{}));
  for (const auto& path : a.positional) {
    (void)server.store_any(load_index_file(rt, path), path);
  }
  const std::vector<AnyQuery> queries = load_query_files(rt, a);
  SearchEngine engine(server, {.threads = a.threads});
  SearchReply reply;
  engine.serve_admitted({.queries = queries}, reply);
  print_batch(a, reply);
  return 0;
}

std::unique_ptr<ShardedStore> open_store(const Runtime& rt, const Args& a) {
  if (a.store.empty()) die(a.command + " needs --store DIR");
  ShardedStoreOptions opts;
  opts.shards = static_cast<std::uint32_t>(a.shards);
  auto store = std::make_unique<ShardedStore>(*rt.backend, a.store, opts);
  const RecoveryStats rec = store->recovery();
  if (rec.torn_tail) {
    std::printf(
        "recovery: truncated a torn tail (%" PRIu64
        " bytes) left by a crashed writer\n",
        rec.torn_bytes);
  }
  std::printf("store %s [%s]: %u shards, %zu segments, %zu records, %" PRIu64
              " bytes\n",
              a.store.c_str(), std::string(scheme_name(store->scheme())).c_str(),
              store->shard_count(), store->segment_count(),
              store->record_count(), store->bytes());
  return store;
}

int cmd_ingest(Runtime& rt, const Args& a, Rng& rng) {
  if (a.positional.empty()) die("ingest needs at least one index file");
  PlusIngest hooks;  // must outlive the backend's ingest-stage hook
  install_plus_ingest_hooks(rt, a, rng, hooks);
  const auto store_ptr = open_store(rt, a);
  ShardedStore& store = *store_ptr;
  std::size_t accepted = 0;

  // Validate (canary) + append, shared by both proxy deployments.
  const auto admit = [&](const std::string& path, AnyIndex index) {
    try {
      rt.backend->validate_ingest(index);
    } catch (const std::exception& ex) {
      std::printf("  %s REFUSED: %s\n", path.c_str(), ex.what());
      return;
    }
    const std::uint64_t id = store.append_any(path, index);
    ++accepted;
    std::printf("  %s -> record %" PRIu64 "\n", path.c_str(), id);
  };

  for (const auto& path : a.positional) {
    if (hooks.pool != nullptr) {
      // Replicated pool: the upload fails over between replicas and parks
      // (instead of failing the run) when a share has no live replica.
      const std::vector<std::uint8_t> bytes = read_file(path);
      EncryptedIndex partial;
      partial.ct = deserialize_ciphertext(*rt.e, bytes);
      try {
        auto transformed = hooks.pool->process(partial, path);
        if (!transformed.has_value()) {
          std::printf("  %s PARKED (a proxy share has no live replica)\n",
                      path.c_str());
          continue;
        }
        admit(path, AnyIndex::own(rt.kind, std::move(*transformed)));
      } catch (const ProxyUnavailable& ex) {
        std::printf("  %s REFUSED: %s\n", path.c_str(), ex.what());
      }
    } else {
      admit(path, rt.backend->ingest_transform(load_index_file(rt, path)));
    }
  }

  if (hooks.pool != nullptr) {
    // Give parked uploads one recovery pass before reporting.
    const std::size_t drained = hooks.pool->drain(
        [&](const std::string& tag, EncryptedIndex transformed) {
          admit(tag, AnyIndex::own(rt.kind, std::move(transformed)));
        });
    const ProxyPoolStats stats = hooks.pool->stats();
    std::printf(
        "proxy pool: %zu transformed, %zu retried, %zu failovers, %zu "
        "parked (%zu drained, %zu still parked)\n",
        stats.transformed, stats.retries, stats.failovers, stats.parked,
        drained, hooks.pool->parked_count());
  }

  store.sync();
  std::printf("ingested %zu/%zu indexes; store now holds %zu records (%" PRIu64
              " bytes)\n",
              accepted, a.positional.size(), store.record_count(),
              store.bytes());
  return 0;
}

// --- network serving ------------------------------------------------------

std::pair<std::string, std::uint16_t> parse_hostport(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  std::string host = "127.0.0.1";
  std::string port_text = spec;
  if (colon != std::string::npos) {
    host = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
  }
  try {
    const unsigned long port = std::stoul(port_text);
    if (port > 65535) throw std::out_of_range("port");
    return {host, static_cast<std::uint16_t>(port)};
  } catch (const std::exception&) {
    die("expected HOST:PORT (or a bare PORT), got '" + spec + "'");
  }
}

volatile std::sig_atomic_t g_shutdown = 0;

void on_shutdown_signal(int) { g_shutdown = 1; }

// One line of JSON counters — engine outcomes, verdict-cache behaviour and
// (in listen mode) the network front end — printed periodically and on
// shutdown so a long-running server is observable without a debugger.
void print_stats_json(const SearchEngine& engine, const net::NetServer* srv) {
  const EngineCounters c = engine.counters();
  std::printf("{\"stats\":\"apks_serve\",\"served\":%" PRIu64
              ",\"shed\":%" PRIu64 ",\"deadline_exceeded\":%" PRIu64
              ",\"cancelled\":%" PRIu64
              ",\"prepared_cache_hits\":%zu,\"prepared_cache_misses\":%zu",
              c.served, c.shed, c.deadline_exceeded, c.cancelled,
              engine.cache_hits(), engine.cache_misses());
  if (const VerdictCache* vcache = engine.verdict_cache(); vcache != nullptr) {
    const LruStats vs = vcache->stats();
    std::printf(",\"verdict_hits\":%" PRIu64 ",\"verdict_misses\":%" PRIu64
                ",\"verdict_insertions\":%" PRIu64
                ",\"verdict_entries\":%zu,\"verdict_bytes\":%" PRIu64,
                vs.hits, vs.misses, vs.insertions, vs.entries, vs.cost);
  }
  if (srv != nullptr) {
    const net::NetServerStats ns = srv->stats();
    std::printf(",\"connections\":%zu,\"accepted\":%" PRIu64
                ",\"closed\":%" PRIu64 ",\"auth_ok\":%" PRIu64
                ",\"auth_rejected\":%" PRIu64 ",\"searches_ok\":%" PRIu64
                ",\"searches_deadline\":%" PRIu64
                ",\"searches_overloaded\":%" PRIu64
                ",\"searches_cancelled\":%" PRIu64
                ",\"searches_error\":%" PRIu64 ",\"protocol_errors\":%" PRIu64
                ",\"slow_client_closes\":%" PRIu64 ",\"frames_in\":%" PRIu64
                ",\"frames_out\":%" PRIu64 ",\"bytes_in\":%" PRIu64
                ",\"bytes_out\":%" PRIu64 ",\"inflight\":%zu",
                srv->open_connections(), ns.accepted, ns.closed, ns.auth_ok,
                ns.auth_rejected, ns.searches_ok, ns.searches_deadline,
                ns.searches_overloaded, ns.searches_cancelled,
                ns.searches_error, ns.protocol_errors, ns.slow_client_closes,
                ns.frames_in, ns.frames_out, ns.bytes_in, ns.bytes_out,
                srv->inflight_jobs());
  }
  std::printf("}\n");
  std::fflush(stdout);
}

// serve --listen: run the epoll front end until SIGINT/SIGTERM, then drain.
int serve_listen(const SearchEngine& engine, const Args& a) {
  const auto [host, port] = parse_hostport(a.listen);
  net::NetServerOptions opts;
  opts.host = host;
  opts.port = port;
  // The CLI's capability files carry no authority signature, so its remote
  // sessions authenticate in unchecked mode (same trust model as the
  // one-shot serve path).
  opts.allow_unchecked = true;
  opts.default_deadline_ms = a.deadline_ms;
  net::NetServer server(engine, opts);
  std::printf("listening on %s:%u (scheme %s, pid %ld); SIGINT/SIGTERM "
              "drains and exits\n",
              server.host().c_str(), server.port(),
              std::string(engine.server().backend().name()).c_str(),
              static_cast<long>(::getpid()));
  std::fflush(stdout);

  std::signal(SIGINT, on_shutdown_signal);
  std::signal(SIGTERM, on_shutdown_signal);

  const auto interval = std::chrono::seconds(
      a.stats_interval_s == 0 ? 10 : a.stats_interval_s);
  auto next_stats = std::chrono::steady_clock::now() + interval;
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (std::chrono::steady_clock::now() >= next_stats) {
      print_stats_json(engine, &server);
      next_stats = std::chrono::steady_clock::now() + interval;
    }
  }

  std::printf("shutdown signal received; draining (grace %" PRIu64 " ms)\n",
              a.grace_ms);
  std::fflush(stdout);
  server.stop(a.grace_ms);
  print_stats_json(engine, &server);
  return 0;
}

// --- cluster serving ------------------------------------------------------

// --nodes NAME=HOST:PORT[,NAME=HOST:PORT...] -> the shared cluster map.
// Every node and every coordinator must be launched with the same --nodes,
// --replicas, --shards and --map-version: placement is derived from those
// four inputs, so agreeing on them IS agreeing on who owns what.
cluster::ClusterMap parse_cluster_map(const Args& a,
                                      std::uint32_t total_shards) {
  if (a.nodes.empty()) {
    die(a.command + " needs --nodes NAME=HOST:PORT[,NAME=HOST:PORT...]");
  }
  std::vector<cluster::NodeInfo> nodes;
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    const std::size_t comma = a.nodes.find(',', pos);
    const std::string item = a.nodes.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? comma : comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      die("--nodes: expected NAME=HOST:PORT, got '" + item + "'");
    }
    const auto [host, port] = parse_hostport(item.substr(eq + 1));
    nodes.push_back({item.substr(0, eq), host, port});
  }
  try {
    return cluster::ClusterMap(std::move(nodes), total_shards,
                               static_cast<std::uint32_t>(a.replicas),
                               a.map_version);
  } catch (const std::exception& ex) {
    die(std::string("--nodes: ") + ex.what());
  }
}

// cluster-serve: run ONE node of the scale-out tier. The store's on-disk
// shard partition (id % --shards) is the cluster's shard space, so every
// node opens the same store directory (shared filesystem or a copy) and
// loads only the shards the map assigns to it.
int cmd_cluster_serve(const Runtime& rt, const Args& a) {
  const auto store_ptr = open_store(rt, a);
  ShardedStore& store = *store_ptr;
  const cluster::ClusterMap map = parse_cluster_map(a, store.shard_count());
  if (a.node_index >= map.nodes().size()) {
    die("--node-index " + std::to_string(a.node_index) + " out of range (" +
        std::to_string(map.nodes().size()) + " nodes)");
  }
  const std::uint32_t self = static_cast<std::uint32_t>(a.node_index);

  cluster::ClusterNodeOptions opts;
  opts.engine.threads = a.threads;
  opts.engine.deadline_ms = a.deadline_ms;
  opts.engine.max_inflight = a.max_inflight;
  // Bind where the map says coordinators will dial us, unless --listen
  // overrides (e.g. bind 0.0.0.0 while the map advertises a routable IP).
  opts.net.host = map.nodes()[self].host;
  opts.net.port = map.nodes()[self].port;
  if (!a.listen.empty()) {
    const auto [host, port] = parse_hostport(a.listen);
    opts.net.host = host;
    opts.net.port = port;
  }
  // The internal hop re-sends the coordinator-verified query unchecked;
  // cluster nodes are the trusted tier that accepts it.
  opts.net.allow_unchecked = true;

  cluster::ClusterNode node(*rt.backend,
                            CapabilityVerifier(*rt.e, IbsPublicParams{}),
                            store, map, self, std::move(opts));
  std::string shard_list;
  for (const std::uint32_t shard : node.owned_shards()) {
    shard_list += (shard_list.empty() ? "" : ",") + std::to_string(shard);
  }
  std::printf("node '%s' (%zu of %zu) listening on %s:%u; owns shards [%s] "
              "(%" PRIu64 " of %zu records), map v%" PRIu64 " R=%u; "
              "SIGINT/SIGTERM drains and exits\n",
              map.nodes()[self].name.c_str(), a.node_index + 1,
              map.nodes().size(), node.server().host().c_str(), node.port(),
              shard_list.c_str(), node.record_count(), store.record_count(),
              map.version(), map.replicas());
  std::fflush(stdout);

  std::signal(SIGINT, on_shutdown_signal);
  std::signal(SIGTERM, on_shutdown_signal);
  const auto interval = std::chrono::seconds(
      a.stats_interval_s == 0 ? 10 : a.stats_interval_s);
  auto next_stats = std::chrono::steady_clock::now() + interval;
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (std::chrono::steady_clock::now() >= next_stats) {
      const net::NetServerStats ns = node.server().stats();
      std::printf("{\"stats\":\"apks_cluster_node\",\"connections\":%zu"
                  ",\"searches_ok\":%" PRIu64 ",\"searches_error\":%" PRIu64
                  ",\"frames_in\":%" PRIu64 ",\"frames_out\":%" PRIu64 "}\n",
                  node.server().open_connections(), ns.searches_ok,
                  ns.searches_error, ns.frames_in, ns.frames_out);
      std::fflush(stdout);
      next_stats = std::chrono::steady_clock::now() + interval;
    }
  }
  std::printf("shutdown signal received; draining (grace %" PRIu64 " ms)\n",
              a.grace_ms);
  std::fflush(stdout);
  node.stop(a.grace_ms);
  return 0;
}

// rsearch --cluster: scatter one query across the node fleet and merge.
//
// Self-healing knobs: --heartbeat-ms N runs the background failure
// detector (corpses are deprioritized and breaker-gated before the first
// RPC pays for finding them); --hedge-delay-ms N arms hedged shard reads
// (a primary slower than the node's latency quantile, seeded with N ms,
// is raced against the next replica — at most --hedge-budget extras per
// search); --node-timeout-ms caps each node RPC's socket waits.
//
// Exit codes: 0 = complete result; 1 = fatal (bad usage, unauthorized
// query, or a shard with no live replica without --partial-ok — the
// typed error is printed to stderr); 2 = partial result (--partial-ok
// and at least one shard was unavailable or out of budget).
int cmd_rsearch_cluster(const Runtime& rt, const Args& a) {
  if (a.cap.empty()) die("rsearch --cluster needs --cap FILE");
  const cluster::ClusterMap map =
      parse_cluster_map(a, static_cast<std::uint32_t>(a.shards));
  const AnyQuery query = load_query_file(rt, a.cap);

  cluster::CoordinatorOptions copts;
  copts.node_timeout_ms = a.node_timeout_ms;
  copts.heartbeat_ms = a.heartbeat_ms;
  if (a.hedge_delay_ms != 0) {
    copts.hedge.enabled = true;
    copts.hedge.initial_delay_ms = a.hedge_delay_ms;
    copts.hedge.budget = a.hedge_budget;
  }
  cluster::Coordinator coord(*rt.backend,
                             CapabilityVerifier(*rt.e, IbsPublicParams{}),
                             map, std::move(copts));
  ServeControl control;
  control.deadline_ms = a.deadline_ms;
  control.partial_ok = a.partial_ok;
  cluster::ClusterSearchStats stats;
  const std::vector<std::string> refs =
      coord.search_any(query, &stats, control);
  for (const auto& ref : refs) std::printf("  %s\n", ref.c_str());
  std::printf("%zu matched, %" PRIu64 " scanned across %zu/%u shards "
              "(%zu rpcs, %zu retries, %zu failovers)\n",
              refs.size(), stats.scanned, stats.shards_ok,
              map.total_shards(), stats.rpcs, stats.retries, stats.failovers);
  if (stats.hedges != 0) {
    std::printf("hedging: %zu launched, %zu won, %zu cancelled\n",
                stats.hedges, stats.hedge_wins, stats.hedge_cancelled);
  }
  if (stats.partial) {
    std::printf("PARTIAL: %zu shard(s) unavailable%s; results cover the "
                "answering shards only\n",
                stats.shards_failed,
                stats.deadline_exceeded ? " or out of budget" : "");
  }
  return stats.partial ? 2 : 0;
}

int cmd_rsearch(const Runtime& rt, const Args& a) {
  if (a.cluster) return cmd_rsearch_cluster(rt, a);
  if (a.connect.empty() || a.cap.empty()) {
    die("rsearch needs --connect HOST:PORT and --cap FILE");
  }
  const auto [host, port] = parse_hostport(a.connect);
  const AnyQuery query = load_query_file(rt, a.cap);
  const std::vector<std::uint8_t> query_bytes = rt.backend->encode_query(query);

  net::NetClient client;
  client.connect(host, port);
  const net::HelloAckMsg hello = client.hello(rt.kind);
  if (hello.status != net::WireStatus::kOk) {
    die("server refused session: " + hello.message);
  }
  std::printf("connected to %s:%u (%s, %" PRIu64 " records)\n", host.c_str(),
              port, std::string(scheme_name(hello.scheme)).c_str(),
              hello.records);
  const net::AuthAckMsg auth = client.auth_unchecked(query_bytes);
  if (auth.status != net::WireStatus::kOk) {
    die("server rejected query: " + auth.message);
  }
  const net::RemoteResult r = client.search(a.deadline_ms, a.partial_ok);
  for (const auto& ref : r.refs) std::printf("  %s\n", ref.c_str());
  std::printf("%s: %zu matched, %" PRIu64 " of %" PRIu64
              " records scanned, %.4f s server-side\n",
              std::string(net::wire_status_name(r.status)).c_str(),
              r.refs.size(), r.scanned, hello.records,
              static_cast<double>(r.wall_us) / 1e6);
  if ((r.flags & net::kResultTruncated) != 0) {
    std::printf("TRUNCATED: results cover the scanned prefix only\n");
  }
  return r.status == net::WireStatus::kOk ? 0 : 2;
}

int cmd_serve(Runtime& rt, const Args& a) {
  if (a.caps.empty() && a.listen.empty()) {
    die("serve needs --caps FILE[,FILE...] or --listen HOST:PORT");
  }
  const auto store_ptr = open_store(rt, a);
  ShardedStore& store = *store_ptr;

  // Restart path: rebuild the in-memory server from disk, then serve the
  // query batch through the SearchEngine (raw capability/key files, so the
  // signature layer is skipped as in batchsearch).
  CloudServer server(*rt.backend,
                     CapabilityVerifier(*rt.e, IbsPublicParams{}));
  const std::size_t loaded = server.load_from(store);
  std::printf("loaded %zu records into the cloud server\n", loaded);

  SearchEngine::Options opts;
  opts.threads = a.threads;
  opts.deadline_ms = a.deadline_ms;
  opts.max_inflight = a.max_inflight;
  opts.verdict_cache_bytes =
      static_cast<std::uint64_t>(a.verdict_cache_mb) * 1024 * 1024;
  SearchEngine engine(server, opts);
  if (VerdictCache* vcache = engine.verdict_cache(); vcache != nullptr) {
    // Rotations/compactions through this store drop their retired segments'
    // verdicts immediately (hygiene; correctness holds without it because
    // segment identities are never reused).
    store.set_invalidation_hook(
        [vcache](std::span<const SegmentId> retired) {
          vcache->invalidate(retired);
        });
  }
  if (!a.listen.empty()) return serve_listen(engine, a);

  const std::vector<AnyQuery> queries = load_query_files(rt, a);
  SearchReply reply;
  // CLI: report truncation instead of throwing.
  engine.serve_admitted({.queries = queries, .control = {.partial_ok = true}},
                        reply);
  print_batch(a, reply);
  const BatchMetrics& metrics = reply.metrics;
  if (metrics.deadline_exceeded) {
    std::printf("DEADLINE: scan stopped after %" PRIu64
                " ms; results cover %zu of %zu records\n",
                a.deadline_ms,
                metrics.per_query.empty() ? std::size_t{0}
                                          : metrics.per_query[0].scanned,
                metrics.records);
  }
  const EngineCounters counters = engine.counters();
  std::printf("serving outcomes: %" PRIu64 " served, %" PRIu64
              " deadline-exceeded, %" PRIu64 " shed\n",
              counters.served, counters.deadline_exceeded, counters.shed);
  if (const VerdictCache* vcache = engine.verdict_cache();
      vcache != nullptr) {
    const LruStats vs = vcache->stats();
    std::printf("verdict cache: %" PRIu64 " hits, %" PRIu64 " misses, %" PRIu64
                " memoized (%zu entries, %" PRIu64 "/%" PRIu64 " bytes); "
                "batch resolved %zu records from cache\n",
                vs.hits, vs.misses, vs.insertions, vs.entries, vs.cost,
                vcache->byte_budget(), metrics.verdict_hits);
  }
  print_stats_json(engine, nullptr);
  return 0;
}

int cmd_compact(const Runtime& rt, const Args& a) {
  const auto store_ptr = open_store(rt, a);
  ShardedStore& store = *store_ptr;
  const std::uint64_t before = store.bytes();
  const std::size_t segments_before = store.segment_count();
  const std::uint64_t reclaimed = store.compact();
  std::printf("compacted: %zu -> %zu segments, %" PRIu64 " -> %" PRIu64
              " bytes (%" PRIu64 " reclaimed)\n",
              segments_before, store.segment_count(), before, store.bytes(),
              reclaimed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (const std::size_t armed = Failpoints::instance().configure_from_env();
        armed > 0) {
      std::fprintf(stderr, "apks_cli: %zu failpoint site(s) armed from APKS_FAILPOINTS\n",
                   armed);
    }
    const Pairing pairing(default_type_a_params());
    Runtime rt = make_runtime(pairing, args);
    const auto rng = make_rng(args);
    if (args.command == "setup") {
      return cmd_setup(rt, args, *rng);
    }
    if (args.command == "genindex") {
      return cmd_genindex(rt, args, *rng);
    }
    if (args.command == "gencap") {
      return cmd_gencap(rt, args, *rng);
    }
    if (args.command == "delegate") {
      return cmd_delegate(rt, args, *rng);
    }
    if (args.command == "search") {
      return cmd_search(rt, args);
    }
    if (args.command == "batchsearch") {
      return cmd_batchsearch(rt, args);
    }
    if (args.command == "ingest") {
      return cmd_ingest(rt, args, *rng);
    }
    if (args.command == "serve") {
      return cmd_serve(rt, args);
    }
    if (args.command == "rsearch") {
      return cmd_rsearch(rt, args);
    }
    if (args.command == "cluster-serve") {
      return cmd_cluster_serve(rt, args);
    }
    if (args.command == "compact") {
      return cmd_compact(rt, args);
    }
    die("unknown command '" + args.command + "'");
  } catch (const std::exception& ex) {
    die(ex.what());
  }
}
