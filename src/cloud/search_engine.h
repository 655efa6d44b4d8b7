// The server's search: the one scan over CloudServer's record set.
//
// The paper's search protocol is a per-capability linear scan (Sec. 5.2,
// Fig. 6); under many concurrent users the server should amortize that scan
// across queries instead of repeating it per query. SearchEngine serves a
// batch of Q queries over a SINGLE pass of the record store, and a single
// search is a batch of one:
//
//   1. claim an in-flight slot (admission control), then verify every
//      authority signature up front (unauthorized queries are never
//      scanned),
//   2. preprocess each query once (SearchBackend::prepare), consulting the
//      PreparedQueryCache, an entry-count BoundedLru keyed by the backend's
//      query digest, so repeated identical queries — the hot-key case —
//      skip preprocessing entirely (a caller that already holds the digest,
//      like a network session, passes it in and the query is not
//      re-hashed),
//   3. scan records in blocks, evaluating every query against a block
//      while it is cache-hot, with a work-stealing pool of worker threads
//      shared across all queries of the batch (the paper's remark that the
//      linear scan parallelizes across server cores). Records tagged with a
//      sealed-segment identity (CloudServer::load_from) are first resolved
//      against the per-segment verdict cache (verdict_cache.h, a
//      byte-budget BoundedLru): a memoized (digest, segment) verdict
//      answers the record with a binary search instead of a pairing
//      product, and a complete (non-partial, non-cancelled) scan memoizes
//      the verdicts it just computed. A batch
//      the verdict cache answers entirely runs on the calling thread: the
//      worker count follows the pairing work left after the probe.
//
// The engine is scheme-agnostic: it drives the server's SearchBackend, so
// APKS, APKS+ and MRQED^D batches all flow through this identical path
// (which is what makes the cross-scheme comparison honest). Typed APKS
// capabilities reach it through borrow_capabilities (auth/authority.h).
//
// Results are per query, in record order, and bit-identical to Q
// single-query batches, whatever the thread count and block size.
// ServerMetrics carries the per-query outcome (authorized, scanned,
// matched, deadline/cancel flags) plus wall time, pairing-operation counts
// (Miller loops and final exponentiations, the paper's cost unit), and
// cache behaviour.
//
// Two entry points: search_batch_signed verifies the signatures itself;
// serve_admitted is for callers that authorized out of band (NetServer
// after kAuth, cluster nodes, benches timing the scan alone).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cloud/server.h"
#include "cloud/verdict_cache.h"
#include "common/bounded_lru.h"
#include "core/capability_digest.h"

namespace apks {

// Per-query serving metrics. The authorization layer owns `authorized`;
// the preprocessing layer owns `cache_hit`/`prepare_calls`; the scan layer
// owns `scanned`/`matched`. `ops` and `wall_s` are exact for single-query
// calls; in a batch the shared scan cost is attributed evenly across the
// authorized queries (they scan identical record sets, so per-query cost is
// uniform by construction) and the scan wall time is the batch's — the
// queries finish together.
struct ServerMetrics {
  bool authorized = false;
  bool cache_hit = false;
  std::size_t scanned = 0;
  std::size_t matched = 0;
  std::size_t prepare_calls = 0;
  // Deadline/cancellation outcome: the scan stopped at a block boundary
  // before covering the store, so `scanned` < store size and the results
  // are the matches from the blocks that did run.
  bool deadline_exceeded = false;
  bool cancelled = false;
  // Records resolved from the per-segment verdict cache instead of a
  // pairing match (a subset of `scanned` — memoized records still count as
  // scanned, they were just answered without crypto).
  std::size_t verdict_hits = 0;
  double wall_s = 0.0;
  PairingOpCounts ops;
};

// Whole-batch metrics; `ops` and `wall_s` are exact totals.
struct BatchMetrics {
  std::size_t queries = 0;
  std::size_t authorized = 0;
  std::size_t prepare_calls = 0;  // cache misses that ran prepare
  std::size_t cache_hits = 0;
  std::size_t records = 0;  // store size at scan time
  std::size_t threads = 0;  // workers actually used for the scan
  bool deadline_exceeded = false;  // the batch deadline fired mid-scan
  bool cancelled = false;          // the caller's token fired mid-scan
  std::size_t verdict_hits = 0;  // records resolved from the verdict cache
  std::size_t verdict_puts = 0;  // segment verdicts memoized by this batch
  double wall_s = 0.0;
  PairingOpCounts ops;
  std::vector<ServerMetrics> per_query;  // one entry per input query
};

// Lifetime serving outcomes across every batch an engine has seen (the
// counters behind `apks_cli serve` and the fault benches).
struct EngineCounters {
  std::uint64_t served = 0;             // batches that ran to completion
  std::uint64_t shed = 0;               // rejected by admission control
  std::uint64_t deadline_exceeded = 0;  // batches stopped by their deadline
  std::uint64_t cancelled = 0;          // batches stopped by a cancel token
  // Lifetime pairing work (miller / multi_miller / final_exp) across every
  // batch this engine served — engine-invariant, so the same workload
  // reports the same counts whether the scan ran scalar or SIMD.
  PairingOpCounts ops;
};

// One search request through the admitted entry point.
struct SearchRequest {
  std::span<const AnyQuery> queries{};
  // Empty, or backend.digest(queries[i]) for every query (a network
  // session computes it once at kAuth); the engine then skips re-hashing.
  std::span<const QueryDigest> digests{};
  ServeControl control{};
  // Fill SearchReply::ids: the record id of every match, the merge key a
  // cluster coordinator needs to glue per-shard results back together.
  bool want_ids = false;
};

// Its reply: per query, the matched doc refs in record order, and their
// record ids when the request asked for them.
struct SearchReply {
  std::vector<std::vector<std::string>> refs;
  std::vector<std::vector<std::uint64_t>> ids;
  BatchMetrics metrics;
};

// Server-side query preprocessing (SearchBackend::prepare output) keyed by
// the backend's query digest, one entry per query. Entries are AnyPrepared
// handles (shared ownership), so an eviction never invalidates a prepared
// query a scan is still using.
using PreparedQueryCache =
    BoundedLru<QueryDigest, AnyPrepared, CapabilityDigestHash>;

class SearchEngine {
 public:
  struct Options {
    // Scan worker threads; 0 = hardware concurrency.
    std::size_t threads = 0;
    // Records per work unit. Each block is evaluated against every query of
    // the batch before moving on (one touch per encrypted index per batch).
    // Also the deadline/cancellation granularity: controls are polled at
    // block boundaries only.
    std::size_t block_records = 8;
    // LRU capacity of the prepared-query cache; 0 disables caching (every
    // lookup is then a counted miss). An entry is one compiled scan
    // kernel: ~450 KiB for a nursery_schema(1) capability (13 slots x 218
    // lane-domain lines; ~0.9 MiB while the scalar traces were kept too).
    std::size_t cache_capacity = 64;
    // Default per-batch deadline (0 = none); a ServeControl with a nonzero
    // deadline_ms overrides it per call.
    std::uint64_t deadline_ms = 0;
    // Load shedding: batches admitted concurrently beyond this limit are
    // rejected up front with Overloaded (0 = unlimited). Shed batches run
    // no crypto at all, signature checks included.
    std::size_t max_inflight = 0;
    // Byte budget of the per-segment verdict cache (0 disables it). Hot
    // repeated queries over a server loaded from a sealed-segment-heavy
    // store then answer with zero pairings beyond the active tail.
    std::uint64_t verdict_cache_bytes = 0;
    // Share an externally owned verdict cache instead (wins over
    // verdict_cache_bytes) — lets the cache outlive one engine, e.g.
    // across a server reload, and lets several engines pool verdicts.
    std::shared_ptr<VerdictCache> verdict_cache = nullptr;
    // Share an externally owned prepared-query cache instead (wins over
    // cache_capacity) — lets the engines of one cluster node hold a single
    // prepared copy of each capability across all their shards.
    std::shared_ptr<PreparedQueryCache> prepared_cache = nullptr;
  };

  explicit SearchEngine(const CloudServer& server)
      : SearchEngine(server, Options()) {}
  SearchEngine(const CloudServer& server, Options options)
      : server_(&server),
        options_(options),
        cache_(options.prepared_cache != nullptr
                   ? options.prepared_cache
                   : std::make_shared<PreparedQueryCache>(
                         options.cache_capacity)),
        vcache_(options.verdict_cache != nullptr
                    ? options.verdict_cache
                    : (options.verdict_cache_bytes != 0
                           ? std::make_shared<VerdictCache>(
                                 options.verdict_cache_bytes)
                           : nullptr)) {}

  // The verified entry point: checks every query's authority signature
  // over the backend's query_message, then serves the batch. One result
  // vector per query, in record order, identical to serving each query as
  // a batch of one; an unauthorized query yields an empty result with zero
  // records scanned.
  //
  // Serving limits (both entry points): a batch beyond
  // Options::max_inflight throws Overloaded before any crypto runs (this
  // one verifies only once admitted). A deadline (control's, else
  // Options::deadline_ms) or the control's cancel token stops the scan at
  // the next block boundary; the batch then throws DeadlineExceeded /
  // ServingError(kCancelled) — with metrics already filled — unless
  // control.partial_ok, in which case the partial results are returned and
  // the metrics carry the outcome flags.
  [[nodiscard]] std::vector<std::vector<std::string>> search_batch_signed(
      std::span<const SignedQuery> queries, BatchMetrics* metrics = nullptr,
      const ServeControl& control = {}) const;

  // The admitted entry point, for callers that authorized the queries out
  // of band (a network session checked the signature at kAuth; benches
  // time the scan in isolation). `authorized` stays false in the metrics:
  // the engine's authorization layer never ran. The reply, metrics
  // included, is filled before a stopped batch throws. A non-empty
  // request.digests of the wrong length throws std::invalid_argument.
  void serve_admitted(const SearchRequest& request, SearchReply& reply) const;

  // serve_admitted over bare queries, for the end-to-end benchmark harness.
  [[nodiscard]] std::vector<std::vector<std::string>>
  search_batch_unchecked_any(std::span<const AnyQuery> queries,
                             BatchMetrics* metrics = nullptr,
                             const ServeControl& control = {}) const;

  // Lifetime prepared-cache counters (across all batches served through
  // this engine's cache — every engine sharing it, when shared).
  [[nodiscard]] std::size_t cache_hits() const {
    return cache_->stats().hits;
  }
  [[nodiscard]] std::size_t cache_misses() const {
    return cache_->stats().misses;
  }
  [[nodiscard]] std::size_t cache_size() const {
    return cache_->stats().entries;
  }

  // The server this engine scans (the network front end reads its record
  // count, backend and verifier through this).
  [[nodiscard]] const CloudServer& server() const noexcept { return *server_; }

  // The per-segment verdict cache, or nullptr when disabled. Exposed so
  // callers can wire ShardedStore::set_invalidation_hook at it and read
  // its stats.
  [[nodiscard]] VerdictCache* verdict_cache() const noexcept {
    return vcache_.get();
  }

  // Lifetime serving outcomes (admission + deadline/cancel results). The
  // snapshot is taken under one lock, so concurrent observers never see a
  // torn view (e.g. `served` lagging `deadline_exceeded` mid-update).
  [[nodiscard]] EngineCounters counters() const {
    std::lock_guard lock(counters_mutex_);
    return counters_;
  }
  [[nodiscard]] std::size_t inflight() const noexcept {
    return inflight_.load(std::memory_order_relaxed);
  }

 private:
  // The one serving path. Claims an in-flight slot (or sheds), verifies
  // `signed_queries` when non-empty (they are request.queries with their
  // signatures), then prepares and scans. Fills `reply`; a stopped batch
  // does not throw here.
  void run_batch(const SearchRequest& request,
                 std::span<const SignedQuery> signed_queries,
                 SearchReply& reply) const;
  // Copies the reply's metrics to `metrics` (when non-null), then throws
  // DeadlineExceeded / ServingError(kCancelled) for a stopped batch unless
  // control.partial_ok.
  void finish(const ServeControl& control, const SearchReply& reply,
              BatchMetrics* metrics) const;

  // One counter bump per batch outcome — a mutex is cheap at that rate and
  // buys tear-free counters() snapshots (admission still uses the atomic
  // inflight_ for its check-and-claim).
  void bump_counter(std::uint64_t EngineCounters::* field) const {
    std::lock_guard lock(counters_mutex_);
    ++(counters_.*field);
  }

  const CloudServer* server_;
  Options options_;
  std::shared_ptr<PreparedQueryCache> cache_;
  mutable std::shared_ptr<VerdictCache> vcache_;
  mutable std::atomic<std::size_t> inflight_{0};
  mutable std::mutex counters_mutex_;
  mutable EngineCounters counters_;
};

}  // namespace apks
