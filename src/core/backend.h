// The scheme-agnostic serving interface: one SearchBackend per
// construction (APKS, APKS+, MRQED^D), so every layer above the crypto —
// CloudServer, SearchEngine, ShardedStore, the CLI — is written once
// against store -> prepare -> match -> stats and the paper's cross-scheme
// comparison (Fig. 8(d), Table III) runs through identical serving code.
//
// A backend bundles
//   - a scheme tag (SchemeKind) that the persistent store stamps into its
//     metadata, so a store ingested under one scheme is refused — never
//     silently mis-parsed — by another;
//   - the storage codec for its encrypted indexes and query keys;
//   - the serving primitives: digest (cache key), prepare (server-side
//     pairing preprocessing), match;
//   - ingest-stage hooks: ingest_transform (the APKS+ proxy chain rides
//     here instead of being a side door) and validate_ingest (APKS+
//     rejects owner-partial, untransformed indexes before they can reach
//     the record store);
//   - the byte string an authority's IBS signature covers for this
//     scheme's queries (query_message), so the admission check is also
//     scheme-agnostic.
//
// Indexes, queries and prepared queries cross the interface as type-erased
// handles (AnyIndex / AnyQuery / AnyPrepared) tagged with their scheme;
// every backend checks the tag before downcasting and throws
// std::invalid_argument on a mismatch — type confusion is an error, not UB.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/sha256.h"
#include "pairing/pairing.h"

namespace apks {

// --- Serving error taxonomy -------------------------------------------------
// Production failures cross layer boundaries as typed errors so callers can
// route them (retry, fail over, park, shed) instead of pattern-matching
// what() strings. Every class derives from std::runtime_error, so code
// written against the old untyped throws keeps working.

enum class ErrorCode : std::uint8_t {
  kIo = 1,            // a syscall failed (disk full, EIO, ...)
  kCorrupt,           // on-disk bytes fail validation (CRC, magic, counts)
  kUnavailable,       // a dependency (proxy replica) has no live instance
  kExhausted,         // a budget ran out (proxy rate limit)
  kOverloaded,        // admission control shed the request
  kDeadlineExceeded,  // the per-query deadline expired mid-serve
  kCancelled,         // the caller's cancellation token fired
};

[[nodiscard]] std::string_view error_code_name(ErrorCode code) noexcept;

class ServingError : public std::runtime_error {
 public:
  ServingError(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

// Store I/O and corruption (src/store). `path` names the file or directory
// the failing operation touched.
class StoreError : public ServingError {
 public:
  StoreError(ErrorCode code, const std::string& what, std::string path)
      : ServingError(code, what), path_(std::move(path)) {}
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

// Admission control rejected the request before any work ran.
class Overloaded : public ServingError {
 public:
  explicit Overloaded(const std::string& what)
      : ServingError(ErrorCode::kOverloaded, what) {}
};

// The per-query deadline expired; the scan stopped at a block boundary.
class DeadlineExceeded : public ServingError {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : ServingError(ErrorCode::kDeadlineExceeded, what) {}
};

// Per-request serving limits, honoured cooperatively at scan-block
// boundaries — a pairing evaluation is never interrupted mid-flight, so
// overshoot is bounded by one block's worth of match calls. SearchEngine
// honours them; the cluster Coordinator carries them across its scatter.
struct ServeControl {
  // Wall-clock budget for the request, from entry to results. 0 = none
  // (SearchEngine falls back to its Options::deadline_ms default).
  std::uint64_t deadline_ms = 0;
  // Cooperative cancellation token: the caller sets it, the scan notices at
  // the next boundary. May be nullptr.
  const std::atomic<bool>* cancel = nullptr;
  // When true, a deadline/cancellation returns the matches found so far
  // (metrics flag the truncation) instead of throwing DeadlineExceeded /
  // ServingError(kCancelled).
  bool partial_ok = false;
};

// No live replica could apply a proxy share (r_i). `share` is the share's
// position in the chain.
class ProxyUnavailable : public ServingError {
 public:
  ProxyUnavailable(std::size_t share, const std::string& what)
      : ServingError(ErrorCode::kUnavailable, what), share_(share) {}
  [[nodiscard]] std::size_t share() const noexcept { return share_; }

 private:
  std::size_t share_;
};

// On-disk/scheme tags. Values are persisted (STORE meta, shard manifests);
// never renumber.
enum class SchemeKind : std::uint8_t {
  kApks = 1,      // basic APKS (Section IV)
  kApksPlus = 2,  // query-privacy enhanced APKS+ (Section V)
  kMrqed = 3,     // MRQED^D baseline (Section VII comparison)
};

[[nodiscard]] std::string_view scheme_name(SchemeKind kind) noexcept;
// Parses "apks" / "apks+" / "mrqed"; throws std::invalid_argument otherwise.
[[nodiscard]] SchemeKind parse_scheme_kind(std::string_view name);

namespace detail {

// Shared type-erasure shell: a scheme tag plus a shared const payload. The
// phantom Tag keeps indexes, queries and prepared queries distinct types.
template <typename Tag>
class Erased {
 public:
  using Wire = std::shared_ptr<const std::vector<std::uint8_t>>;

  Erased() = default;

  [[nodiscard]] SchemeKind kind() const noexcept { return kind_; }
  [[nodiscard]] bool empty() const noexcept { return ptr_ == nullptr; }

  // Takes ownership of `value`.
  template <typename T>
  [[nodiscard]] static Erased own(SchemeKind kind, T value) {
    return Erased(kind,
                  std::static_pointer_cast<const void>(
                      std::make_shared<const T>(std::move(value))));
  }

  // Takes ownership of `value`, decoded from `wire`, and keeps those bytes:
  // a backend's decode_query builds these, so the payload and the bytes it
  // came from never drift apart.
  template <typename T>
  [[nodiscard]] static Erased decoded(SchemeKind kind, T value, Wire wire) {
    Erased out = own(kind, std::move(value));
    out.wire_ = std::move(wire);
    return out;
  }

  // The bytes a decoded handle came from; null for a typed value.
  [[nodiscard]] const std::vector<std::uint8_t>* wire() const noexcept {
    return wire_.get();
  }

  // Non-owning view: the caller guarantees *value outlives every use
  // (batch entry points use this to avoid copying capabilities).
  template <typename T>
  [[nodiscard]] static Erased ref(SchemeKind kind, const T* value) {
    return Erased(kind, std::shared_ptr<const void>(
                            std::shared_ptr<const void>(), value));
  }

  // Unchecked downcast — callers (the backends) verify kind() first.
  template <typename T>
  [[nodiscard]] const T& as() const {
    return *static_cast<const T*>(ptr_.get());
  }

 private:
  Erased(SchemeKind kind, std::shared_ptr<const void> ptr)
      : kind_(kind), ptr_(std::move(ptr)) {}

  SchemeKind kind_{};
  std::shared_ptr<const void> ptr_;
  Wire wire_;
};

struct IndexTag;
struct QueryTag;
struct PreparedTag;

}  // namespace detail

using AnyIndex = detail::Erased<detail::IndexTag>;     // encrypted index
using AnyQuery = detail::Erased<detail::QueryTag>;     // capability / key
using AnyPrepared = detail::Erased<detail::PreparedTag>;  // preprocessed

// Cache key for server-side preprocessing; equal iff the wire-format query
// keys are byte-identical (see core/capability_digest.h for the APKS
// instance).
using QueryDigest = Sha256::Digest;

// What every backend shares with the layers above the crypto: the pairing
// (and through it the PairingOpCounts every metrics layer snapshots — the
// paper's cost unit) plus an optional deployment RNG for ingest-stage
// hooks that need randomness. The fixed-base precomputation caches
// (BasisPrecompCache) ride the scheme key structs themselves and reach the
// backend through its wrapped scheme object.
struct SchemeContext {
  const Pairing* pairing = nullptr;
  Rng* rng = nullptr;  // may be null; only ingest-stage hooks use it

  [[nodiscard]] PairingOpCounts op_counts() const {
    return pairing->op_counts();
  }
};

class SearchBackend {
 public:
  virtual ~SearchBackend() = default;

  [[nodiscard]] virtual SchemeKind kind() const noexcept = 0;
  [[nodiscard]] std::string_view name() const noexcept {
    return scheme_name(kind());
  }
  [[nodiscard]] const SchemeContext& context() const noexcept {
    return context_;
  }
  [[nodiscard]] const Pairing& pairing() const noexcept {
    return *context_.pairing;
  }

  // --- storage codec (what ShardedStore frames carry) -------------------
  [[nodiscard]] virtual std::vector<std::uint8_t> encode_index(
      const AnyIndex& index) const = 0;
  [[nodiscard]] virtual AnyIndex decode_index(
      std::span<const std::uint8_t> data) const = 0;
  // Decodes data[0], data[1], ... in order, appending each to `out`, and
  // throws what decode_index throws for the first record that fails;
  // `out` then holds every record before it, as a record-at-a-time loop
  // (the default) leaves it. The APKS family packs the elements of all
  // the records into full lane passes and decodes them on the work pool.
  virtual void decode_index_batch(
      std::span<const std::span<const std::uint8_t>> data,
      std::vector<AnyIndex>& out) const;

  // --- query codec -----------------------------------------------------
  // decode_query is the serving decoder (NetServer decodes every kAuth
  // with it). It runs every structural check of the scheme's full decoder
  // but may decode only what prepare reads: the APKS family decodes k*_dec
  // alone and keeps the received bytes in the handle (AnyQuery::wire), so
  // digest, query_message and encode_query on it read those bytes and
  // equal the typed query's. Code that needs the whole APKS key (the CLI,
  // authority archives) calls deserialize_capability.
  [[nodiscard]] virtual std::vector<std::uint8_t> encode_query(
      const AnyQuery& query) const = 0;
  [[nodiscard]] virtual AnyQuery decode_query(
      std::span<const std::uint8_t> data) const = 0;

  // --- ingest stage -----------------------------------------------------
  // Applied by the serving layer to every index before it is stored. The
  // default is the identity; APKS+ installs the proxy transformation chain
  // here so partial indexes are rescaled in-line on their way in.
  [[nodiscard]] virtual AnyIndex ingest_transform(AnyIndex index) const {
    return index;
  }
  // Admission check after ingest_transform; throws std::invalid_argument
  // to refuse the record. APKS+ uses this to reject owner-partial
  // (untransformed) indexes — the ciphertexts a dictionary attacker can
  // forge from pk alone — before they ever reach the record store.
  virtual void validate_ingest(const AnyIndex& index) const {
    require_index(index);
  }

  // --- serving primitives ----------------------------------------------
  [[nodiscard]] virtual QueryDigest digest(const AnyQuery& query) const = 0;
  [[nodiscard]] virtual AnyPrepared prepare(const AnyQuery& query) const = 0;
  [[nodiscard]] virtual bool match(const AnyPrepared& prepared,
                                   const AnyIndex& index) const = 0;
  // Batched match over one prepared query: out[r] = match(prepared,
  // *indexes[r]). Semantically identical to the record-at-a-time loop (the
  // default); backends whose verdict is a pure per-record pairing (APKS,
  // APKS+) override it with the lane-parallel scan kernel. Backends with
  // data-dependent early exits (MRQED) keep the default.
  virtual void match_block(const AnyPrepared& prepared,
                           const AnyIndex* const* indexes, std::size_t n,
                           bool* out) const {
    for (std::size_t r = 0; r < n; ++r) {
      out[r] = match(prepared, *indexes[r]);
    }
  }

  // --- authorization ----------------------------------------------------
  // The byte string the issuing authority's IBS signature covers for this
  // scheme's queries. For the APKS family this is byte-identical to
  // capability_message (auth/authority.h): wire key bytes, then issuer.
  [[nodiscard]] virtual std::vector<std::uint8_t> query_message(
      const AnyQuery& query, const std::string& issuer) const = 0;

 protected:
  explicit SearchBackend(SchemeContext context) : context_(context) {}

  // Tag checks before downcasting; throw std::invalid_argument naming both
  // schemes ("backend 'mrqed' given an index of scheme 'apks'").
  void require_index(const AnyIndex& index) const;
  void require_query(const AnyQuery& query) const;
  void require_prepared(const AnyPrepared& prepared) const;

 private:
  SchemeContext context_;
};

}  // namespace apks
