// SearchBackend adapters for the APKS family.
//
// ApksBackend serves the basic scheme (Section IV) — its ingest hooks are
// the identity, matching the paper's model where owners upload complete
// indexes directly.
//
// ApksPlusBackend serves the query-privacy enhanced APKS+ (Section V):
//   - an optional *ingest stage* applies the proxy transformation chain to
//     every index on its way into the store (cloud/proxy.h provides the
//     ProxyPipeline adapter), so partial indexes are rescaled in-line
//     instead of through a separate side-door code path;
//   - an optional *ingest canary* — an all-wildcard capability issued on
//     the blinded basis r*B* — powers validate_ingest: its zero predicate
//     vector decrypts every honestly-transformed ciphertext, while an
//     owner-partial (untransformed) index, i.e. exactly the ciphertexts a
//     dictionary attacker can forge from pk alone, fails the decryption
//     and is refused before it can reach the record store.
#pragma once

#include <functional>

#include "core/apks_plus.h"
#include "core/backend.h"

namespace apks {

class ApksBackend : public SearchBackend {
 public:
  explicit ApksBackend(const Apks& scheme, Rng* rng = nullptr)
      : ApksBackend(SchemeKind::kApks, scheme, rng) {}

  [[nodiscard]] SchemeKind kind() const noexcept override { return kind_; }
  [[nodiscard]] const Apks& scheme() const noexcept { return *scheme_; }

  [[nodiscard]] std::vector<std::uint8_t> encode_index(
      const AnyIndex& index) const override;
  [[nodiscard]] AnyIndex decode_index(
      std::span<const std::uint8_t> data) const override;
  // One read_index walk over every record on the calling thread, which
  // also allocates the decoded indexes; ElementReader::finish then packs
  // their elements into full lane passes on the work pool. A batch with
  // any malformed record is decoded again record by record, so the records
  // returned and the error thrown are the record-at-a-time loop's.
  void decode_index_batch(std::span<const std::span<const std::uint8_t>> data,
                          std::vector<AnyIndex>& out) const override;
  [[nodiscard]] std::vector<std::uint8_t> encode_query(
      const AnyQuery& query) const override;
  [[nodiscard]] AnyQuery decode_query(
      std::span<const std::uint8_t> data) const override;

  [[nodiscard]] QueryDigest digest(const AnyQuery& query) const override;
  [[nodiscard]] AnyPrepared prepare(const AnyQuery& query) const override;
  [[nodiscard]] bool match(const AnyPrepared& prepared,
                           const AnyIndex& index) const override;
  // Routes through the prepared capability's lane-parallel scan kernel
  // (search_prepared_block); verdicts byte-identical to match per record.
  void match_block(const AnyPrepared& prepared, const AnyIndex* const* indexes,
                   std::size_t n, bool* out) const override;

  [[nodiscard]] std::vector<std::uint8_t> query_message(
      const AnyQuery& query, const std::string& issuer) const override;

 protected:
  ApksBackend(SchemeKind kind, const Apks& scheme, Rng* rng)
      : SearchBackend({&scheme.hpe().pairing(), rng}),
        kind_(kind),
        scheme_(&scheme) {}

 private:
  SchemeKind kind_;
  const Apks* scheme_;
};

class ApksPlusBackend : public ApksBackend {
 public:
  explicit ApksPlusBackend(const ApksPlus& scheme, Rng* rng = nullptr)
      : ApksBackend(SchemeKind::kApksPlus, scheme, rng) {}

  // Installs the ingest-stage transformation (normally the deployment's
  // ProxyPipeline — see attach_ingest_pipeline in cloud/proxy.h). In a
  // real deployment this hook is the owner->proxies->cloud RPC boundary;
  // in-process it makes every stored index traverse the chain.
  void set_ingest_stage(
      std::function<EncryptedIndex(const EncryptedIndex&)> stage) {
    ingest_stage_ = std::move(stage);
  }

  // Installs the admission canary: an all-wildcard capability issued on
  // the blinded basis (Apks::gen_cap under the APKS+ master key for a
  // query of QueryTerm::any() in every dimension). Preprocessed once here
  // into scalar traces: ingest checks one record at a time, and on the
  // scalar and AVX2 engines Hpe::decrypt_pre beats a lane pass of one.
  void set_ingest_canary(const Capability& canary) {
    canary_ = scheme().hpe().preprocess_key(canary.key);
  }

  [[nodiscard]] AnyIndex ingest_transform(AnyIndex index) const override;
  void validate_ingest(const AnyIndex& index) const override;

 private:
  std::function<EncryptedIndex(const EncryptedIndex&)> ingest_stage_;
  std::vector<PreprocessedPairing> canary_;
};

// The all-wildcard query whose capability serves as the APKS+ ingest
// canary (every dimension QueryTerm::any(): zero predicate vector, so the
// capability decrypts every honest ciphertext of the deployment).
[[nodiscard]] Query make_canary_query(const Schema& schema);

}  // namespace apks
