#include "cloud/search_engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/failpoint.h"

namespace apks {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// A worker's span of unscanned blocks, packed into one atomic word so the
// owner can pop from the front and thieves can carve off the back with a
// single CAS each: high 32 bits = next block, low 32 bits = one past the
// last block.
constexpr std::uint64_t pack_range(std::uint32_t next,
                                   std::uint32_t end) noexcept {
  return (static_cast<std::uint64_t>(next) << 32) | end;
}
constexpr std::uint32_t range_next(std::uint64_t r) noexcept {
  return static_cast<std::uint32_t>(r >> 32);
}
constexpr std::uint32_t range_end(std::uint64_t r) noexcept {
  return static_cast<std::uint32_t>(r);
}
constexpr std::uint32_t range_avail(std::uint64_t r) noexcept {
  const std::uint32_t next = range_next(r);
  const std::uint32_t end = range_end(r);
  return next < end ? end - next : 0;
}

struct alignas(64) WorkerSlot {
  std::atomic<std::uint64_t> range{0};
};

// Why the scan stopped early (block-boundary cooperative checks).
enum StopReason : int { kRun = 0, kStopDeadline = 1, kStopCancelled = 2 };

// RAII in-flight slot for admission control.
struct InflightGuard {
  explicit InflightGuard(std::atomic<std::size_t>* counter)
      : counter_(counter) {}
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;
  ~InflightGuard() {
    if (counter_ != nullptr) counter_->fetch_sub(1, std::memory_order_relaxed);
  }
  std::atomic<std::size_t>* counter_;
};

}  // namespace

std::vector<std::vector<std::string>> SearchEngine::search_batch_signed(
    std::span<const SignedQuery> queries, BatchMetrics* metrics,
    const ServeControl& control) const {
  std::vector<AnyQuery> raw;
  raw.reserve(queries.size());
  for (const SignedQuery& q : queries) raw.push_back(q.query);
  SearchReply reply;
  run_batch({.queries = raw, .control = control}, queries, reply);
  finish(control, reply, metrics);
  return std::move(reply.refs);
}

void SearchEngine::serve_admitted(const SearchRequest& request,
                                  SearchReply& reply) const {
  run_batch(request, /*signed_queries=*/{}, reply);
  finish(request.control, reply, /*metrics=*/nullptr);
}

std::vector<std::vector<std::string>> SearchEngine::search_batch_unchecked_any(
    std::span<const AnyQuery> queries, BatchMetrics* metrics,
    const ServeControl& control) const {
  SearchReply reply;  // partial mode: `control` throws after the publish
  serve_admitted({queries, {}, {control.deadline_ms, control.cancel, true}},
                 reply);
  finish(control, reply, metrics);
  return std::move(reply.refs);
}

void SearchEngine::finish(const ServeControl& control, const SearchReply& reply,
                          BatchMetrics* metrics) const {
  if (metrics != nullptr) *metrics = reply.metrics;
  if (control.partial_ok) return;
  if (reply.metrics.cancelled) {
    throw ServingError(ErrorCode::kCancelled,
                       "batch cancelled at a block boundary");
  }
  if (reply.metrics.deadline_exceeded) {
    const std::uint64_t deadline_ms =
        control.deadline_ms != 0 ? control.deadline_ms : options_.deadline_ms;
    throw DeadlineExceeded("batch deadline (" + std::to_string(deadline_ms) +
                           " ms) exceeded at a block boundary");
  }
}

void SearchEngine::run_batch(const SearchRequest& request,
                             std::span<const SignedQuery> signed_queries,
                             SearchReply& reply) const {
  const std::span<const AnyQuery> queries = request.queries;
  const ServeControl& control = request.control;
  if (!request.digests.empty() && request.digests.size() != queries.size()) {
    throw std::invalid_argument("search batch: " +
                                std::to_string(request.digests.size()) +
                                " digests for " +
                                std::to_string(queries.size()) + " queries");
  }
  const SearchBackend& backend = server_->backend();
  const Pairing& pairing = backend.pairing();

  // --- Phase 0: admission. A shed batch runs no crypto at all. -----------
  const std::size_t now_inflight =
      inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  InflightGuard guard(&inflight_);
  if (options_.max_inflight != 0 && now_inflight > options_.max_inflight) {
    bump_counter(&EngineCounters::shed);
    throw Overloaded("search engine overloaded: " +
                     std::to_string(now_inflight) + " batches in flight, limit " +
                     std::to_string(options_.max_inflight));
  }

  // Authorization runs only once the batch is admitted, so a shed batch
  // has verified nothing.
  const bool checked = !signed_queries.empty();
  std::vector<char> serve(queries.size(), 1);
  for (std::size_t i = 0; i < signed_queries.size(); ++i) {
    serve[i] = server_->verifier().verify(backend, signed_queries[i]) ? 1 : 0;
  }

  const std::uint64_t deadline_ms =
      control.deadline_ms != 0 ? control.deadline_ms : options_.deadline_ms;
  const bool has_deadline = deadline_ms != 0;
  const auto batch_t0 = Clock::now();
  const Clock::time_point deadline_at =
      batch_t0 + std::chrono::milliseconds(deadline_ms);
  // Cooperative stop flag, polled at block boundaries by every worker.
  std::atomic<int> stop{kRun};
  auto should_stop = [&]() -> bool {
    if (stop.load(std::memory_order_relaxed) != kRun) return true;
    if (control.cancel != nullptr &&
        control.cancel->load(std::memory_order_relaxed)) {
      stop.store(kStopCancelled, std::memory_order_relaxed);
      return true;
    }
    if (has_deadline && Clock::now() >= deadline_at) {
      stop.store(kStopDeadline, std::memory_order_relaxed);
      return true;
    }
    return false;
  };

  BatchMetrics bm;
  bm.queries = queries.size();
  bm.per_query.resize(queries.size());
  const PairingOpCounts batch_c0 = pairing.op_counts();

  // --- Phase 1: per-query preprocessing through the LRU cache. -----------
  std::vector<AnyPrepared> prepared(queries.size());
  // Digests double as the verdict-cache key in phase 2 — computed once,
  // or not at all when the caller supplied them.
  std::vector<QueryDigest> digests(queries.size());
  std::vector<std::size_t> active;  // indices of queries that will scan
  active.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ServerMetrics& m = bm.per_query[i];
    m.authorized = checked && serve[i] != 0;
    if (serve[i] == 0) continue;  // rejected: never prepared, never scanned
    if (should_stop()) break;     // deadline blew during preprocessing
    const auto t0 = Clock::now();
    const PairingOpCounts c0 = pairing.op_counts();
    if (request.digests.empty()) {
      digests[i] = backend.digest(queries[i]);
    } else {
      digests[i] = request.digests[i];
      assert(digests[i] == backend.digest(queries[i]));
    }
    AnyPrepared entry = cache_->get(digests[i]);
    if (!entry.empty()) {
      m.cache_hit = true;
    } else {
      entry = cache_->put(digests[i], backend.prepare(queries[i]));
      m.prepare_calls = 1;
    }
    prepared[i] = std::move(entry);
    active.push_back(i);
    m.ops += pairing.op_counts() - c0;
    m.wall_s += seconds_since(t0);
  }

  // --- Phase 2: one blocked pass over the store for the whole batch. -----
  std::vector<std::vector<std::string>> results(queries.size());
  std::vector<std::vector<std::uint64_t>> match_ids(
      request.want_ids ? queries.size() : 0);
  if (!active.empty()) {
    std::shared_lock lock(server_->mutex_);
    const auto& records = server_->records_;
    const auto& segtable = server_->segment_table_;
    const std::size_t n = records.size();
    bm.records = n;
    const std::size_t block = std::max<std::size_t>(1, options_.block_records);
    const std::size_t n_blocks = (n + block - 1) / block;

    // Verdict-cache probe: one lookup per (active query, sealed segment).
    // Records of a memoized segment answer with a binary id search instead
    // of a pairing product; misses are memoized after a complete scan.
    const bool use_vcache =
        vcache_ != nullptr && vcache_->enabled() && !segtable.empty();
    std::vector<std::vector<std::shared_ptr<const VerdictCache::MatchedIds>>>
        verdicts;
    if (use_vcache) {
      verdicts.resize(active.size());
      for (std::size_t q = 0; q < active.size(); ++q) {
        verdicts[q].resize(segtable.size());
        for (std::size_t s = 0; s < segtable.size(); ++s) {
          verdicts[q][s] = vcache_->get(digests[active[q]], segtable[s]);
        }
      }
    }

    std::vector<std::vector<char>> hits(active.size(),
                                        std::vector<char>(n, 0));
    std::atomic<std::size_t> scanned_records{0};
    auto run_block = [&](std::size_t b) {
      // Chaos tests arm this site with a delay to force deadlines
      // deterministically mid-scan.
      (void)failpoint("engine.scan_block");
      const std::size_t lo = b * block;
      const std::size_t hi = std::min(n, lo + block);
      // Per query: resolve memoized records, then hand the rest to the
      // backend as ONE block so lane-parallel kernels (match_block) can run
      // the records side by side instead of one pairing product at a time.
      std::vector<const AnyIndex*> pending;
      std::vector<std::size_t> pending_r;
      pending.reserve(hi - lo);
      pending_r.reserve(hi - lo);
      const auto verdict_buf = std::make_unique<bool[]>(hi - lo);
      for (std::size_t q = 0; q < active.size(); ++q) {
        pending.clear();
        pending_r.clear();
        for (std::size_t r = lo; r < hi; ++r) {
          const auto& record = records[r];
          const std::int32_t slot = use_vcache ? record.segment : -1;
          const auto* memo =
              slot >= 0 ? verdicts[q][static_cast<std::size_t>(slot)].get()
                        : nullptr;
          if (memo != nullptr) {
            hits[q][r] = std::binary_search(memo->begin(), memo->end(),
                                            record.id)
                             ? 1
                             : 0;
          } else {
            pending.push_back(&record.index);
            pending_r.push_back(r);
          }
        }
        if (!pending.empty()) {
          backend.match_block(prepared[active[q]], pending.data(),
                              pending.size(), verdict_buf.get());
          for (std::size_t i = 0; i < pending.size(); ++i) {
            hits[q][pending_r[i]] = verdict_buf[i] ? 1 : 0;
          }
        }
      }
      scanned_records.fetch_add(hi - lo, std::memory_order_relaxed);
    };

    // The worker count follows the pairing work left after the probe: when
    // every active query has a memo for every sealed segment and no record
    // is unsealed, the scan is binary searches only and runs on the calling
    // thread — spawning workers would cost more than the scan.
    const auto unmemoized = [](const auto& per_segment) {
      return std::find(per_segment.begin(), per_segment.end(), nullptr) !=
             per_segment.end();
    };
    const auto unsealed = [](const CloudServer::Record& r) {
      return r.segment < 0;
    };
    const bool pairing_left =
        !use_vcache ||
        std::any_of(verdicts.begin(), verdicts.end(), unmemoized) ||
        std::any_of(records.begin(), records.end(), unsealed);
    std::size_t threads = 1;
    if (pairing_left) {
      threads = options_.threads != 0
                    ? options_.threads
                    : std::max<std::size_t>(
                          1, std::thread::hardware_concurrency());
      threads = std::min(threads, std::max<std::size_t>(1, n_blocks));
    }
    bm.threads = threads;

    const auto scan_t0 = Clock::now();
    const PairingOpCounts scan_c0 = pairing.op_counts();
    if (threads <= 1) {
      for (std::size_t b = 0; b < n_blocks; ++b) {
        if (should_stop()) break;
        run_block(b);
      }
    } else {
      // Contiguous initial partition; idle workers steal the back half of
      // the most loaded victim's remaining range.
      std::vector<WorkerSlot> slots(threads);
      for (std::size_t w = 0; w < threads; ++w) {
        slots[w].range.store(
            pack_range(static_cast<std::uint32_t>(n_blocks * w / threads),
                       static_cast<std::uint32_t>(n_blocks * (w + 1) /
                                                  threads)));
      }
      auto worker = [&](std::size_t self) {
        for (;;) {
          // Block boundary: the only place a worker gives up its scan.
          if (should_stop()) return;
          // Pop the front of our own range.
          std::uint64_t cur = slots[self].range.load();
          bool ran = false;
          while (range_avail(cur) != 0) {
            const std::uint64_t next_range =
                pack_range(range_next(cur) + 1, range_end(cur));
            if (slots[self].range.compare_exchange_weak(cur, next_range)) {
              run_block(range_next(cur));
              ran = true;
              break;
            }
          }
          if (ran) continue;
          // Empty: steal half of the largest remaining range.
          std::size_t victim = threads;
          std::uint32_t best = 0;
          for (std::size_t v = 0; v < threads; ++v) {
            if (v == self) continue;
            const std::uint32_t avail =
                range_avail(slots[v].range.load());
            if (avail > best) {
              best = avail;
              victim = v;
            }
          }
          if (victim == threads) return;  // no work anywhere
          std::uint64_t r = slots[victim].range.load();
          const std::uint32_t avail = range_avail(r);
          if (avail == 0) continue;  // raced with the victim; rescan
          const std::uint32_t take = (avail + 1) / 2;
          const std::uint32_t end = range_end(r);
          if (slots[victim].range.compare_exchange_strong(
                  r, pack_range(range_next(r), end - take))) {
            // Our own slot is empty, so nobody can race this store.
            slots[self].range.store(pack_range(end - take, end));
          }
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(threads);
      for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
      for (auto& t : pool) t.join();
    }
    const PairingOpCounts scan_ops = pairing.op_counts() - scan_c0;
    const double scan_wall = seconds_since(scan_t0);
    const bool complete = stop.load(std::memory_order_relaxed) == kRun;
    const std::size_t covered =
        complete ? n : scanned_records.load(std::memory_order_relaxed);

    // Memoize the verdicts this batch just computed — but only from a
    // complete pass (a partial/cancelled scan has holes in the hit
    // matrix) and only for sealed segments (the only ones with slots).
    if (use_vcache && complete) {
      for (std::size_t q = 0; q < active.size(); ++q) {
        std::vector<char> miss(segtable.size(), 0);
        bool any_miss = false;
        for (std::size_t s = 0; s < segtable.size(); ++s) {
          if (verdicts[q][s] == nullptr) {
            miss[s] = 1;
            any_miss = true;
          }
        }
        if (!any_miss) continue;
        std::vector<VerdictCache::MatchedIds> fresh(segtable.size());
        for (std::size_t r = 0; r < n; ++r) {
          const std::int32_t slot = records[r].segment;
          if (slot < 0 || miss[static_cast<std::size_t>(slot)] == 0) continue;
          if (hits[q][r] != 0) {
            // records_ is ascending by id, so each list stays sorted.
            fresh[static_cast<std::size_t>(slot)].push_back(records[r].id);
          }
        }
        for (std::size_t s = 0; s < segtable.size(); ++s) {
          if (miss[s] == 0) continue;
          // An empty list is a cached negative — just as valuable.
          vcache_->put(digests[active[q]], segtable[s], std::move(fresh[s]));
          ++bm.verdict_puts;
        }
      }
    }

    for (std::size_t q = 0; q < active.size(); ++q) {
      ServerMetrics& m = bm.per_query[active[q]];
      m.scanned = covered;
      m.ops += {scan_ops.miller / active.size(),
                scan_ops.multi_miller / active.size(),
                scan_ops.final_exp / active.size()};
      m.wall_s += scan_wall;
      if (use_vcache && complete) {
        // Which blocks of a partial scan ran is not tracked per record, so
        // verdict attribution is only exact for complete passes.
        for (std::size_t r = 0; r < n; ++r) {
          const std::int32_t slot = records[r].segment;
          if (slot >= 0 &&
              verdicts[q][static_cast<std::size_t>(slot)] != nullptr) {
            ++m.verdict_hits;
          }
        }
      }
      auto& out = results[active[q]];
      for (std::size_t r = 0; r < n; ++r) {
        if (hits[q][r] != 0) {
          ++m.matched;
          out.push_back(records[r].doc_ref);
          if (request.want_ids) {
            match_ids[active[q]].push_back(records[r].id);
          }
        }
      }
    }
  }

  for (const ServerMetrics& m : bm.per_query) {
    bm.authorized += m.authorized ? 1 : 0;
    bm.prepare_calls += m.prepare_calls;
    bm.cache_hits += m.cache_hit ? 1 : 0;
    bm.verdict_hits += m.verdict_hits;
  }
  bm.ops = pairing.op_counts() - batch_c0;
  bm.wall_s = seconds_since(batch_t0);
  {
    std::lock_guard lock(counters_mutex_);
    counters_.ops += bm.ops;
  }

  const int outcome = stop.load(std::memory_order_relaxed);
  if (outcome == kRun) {
    bump_counter(&EngineCounters::served);
  } else {
    bm.deadline_exceeded = outcome == kStopDeadline;
    bm.cancelled = outcome == kStopCancelled;
    // Every served query carries the outcome, including one stopped
    // before its prepare ran.
    for (std::size_t q = 0; q < queries.size(); ++q) {
      if (serve[q] == 0) continue;
      bm.per_query[q].deadline_exceeded = bm.deadline_exceeded;
      bm.per_query[q].cancelled = bm.cancelled;
    }
    bump_counter(outcome == kStopDeadline ? &EngineCounters::deadline_exceeded
                                          : &EngineCounters::cancelled);
  }
  reply.refs = std::move(results);
  reply.ids = std::move(match_ids);
  reply.metrics = std::move(bm);
}

}  // namespace apks
