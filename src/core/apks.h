// APKS — Authorized Private Keyword Search (the paper's basic solution,
// Section IV, Fig. 5).
//
// Setup       : HPE setup over n = sum_i d_i + 1 dimensional vectors.
// GenIndex    : convert + hash + psi-encode an owner's index, HPE-encrypt a
//               public match flag under it.
// GenCap      : convert + hash + phi-encode a query, issue the HPE key.
// Search      : HPE-decrypt; match iff the flag reappears.
// DelegateCap : HPE delegation — the child capability answers Q1 AND Q2.
#pragma once

#include "core/encoding.h"
#include "hpe/hpe.h"

namespace apks {

struct ApksPublicKey {
  HpePublicKey hpe;
};

struct ApksMasterKey {
  HpeMasterKey hpe;
};

struct EncryptedIndex {
  HpeCiphertext ct;
};

struct Capability {
  HpeKey key;
  // The conjunction of queries this capability answers (level i entry is
  // the i-th delegated restriction). Kept by the issuing authority and the
  // holder for bookkeeping/eligibility checks; the cloud server only needs
  // `key.dec`.
  std::vector<Query> history;
};

// A capability with the server-side pairing preprocessing applied: the
// compiled scan kernel, whose lane-engine line tables are the only copy of
// the preprocessed traces. Records are served in SIMD blocks
// (`search_prepared_block`); one record is a block of one.
struct PreparedCapability {
  std::shared_ptr<const BlockMultiPairing> kernel;
};

class Apks {
 public:
  Apks(const Pairing& pairing, Schema schema, HpeOptions opts = {})
      : schema_(std::move(schema)),
        hpe_(pairing, schema_.vector_length(), opts),
        match_flag_(derive_match_flag(pairing)) {}

  [[nodiscard]] const Schema& schema() const noexcept { return schema_; }
  [[nodiscard]] const Hpe& hpe() const noexcept { return hpe_; }
  // n of the paper (vector length, minus nothing: includes the +1 slot).
  [[nodiscard]] std::size_t n() const noexcept {
    return schema_.vector_length();
  }

  void setup(Rng& rng, ApksPublicKey& pk, ApksMasterKey& msk) const {
    hpe_.setup(rng, pk.hpe, msk.hpe);
  }

  // Force the lazy fixed-base table builds now, so the first gen_index /
  // gen_cap doesn't pay them (no-ops unless the engine is kPrecomputed).
  void warm_precomp(const ApksPublicKey& pk) const {
    hpe_.warm_precomp(pk.hpe);
  }
  void warm_precomp(const ApksMasterKey& msk) const {
    hpe_.warm_precomp(msk.hpe);
  }

  [[nodiscard]] EncryptedIndex gen_index(const ApksPublicKey& pk,
                                         const PlainIndex& index,
                                         Rng& rng) const;

  [[nodiscard]] Capability gen_cap(const ApksMasterKey& msk,
                                   const Query& query, Rng& rng) const;

  [[nodiscard]] bool search(const Capability& cap,
                            const EncryptedIndex& index) const;

  // Server-side: preprocess once, then search many indexes cheaper.
  [[nodiscard]] PreparedCapability prepare(const Capability& cap) const;
  // search_prepared_block over one record: a full lane pass, which on the
  // scalar and AVX2 engines costs more than Hpe::preprocess_key +
  // Hpe::decrypt_pre for callers that search record by record.
  [[nodiscard]] bool search_prepared(const PreparedCapability& cap,
                                     const EncryptedIndex& index) const;
  // Block variant: out[r] = search_prepared(cap, *indexes[r]), with the
  // pairing work running lane-parallel through the capability's kernel.
  void search_prepared_block(const PreparedCapability& cap,
                             const EncryptedIndex* const* indexes,
                             std::size_t n, bool* out) const;

  [[nodiscard]] Capability delegate_cap(const Capability& parent,
                                        const Query& restriction,
                                        Rng& rng) const;

  // Paper-faithful cost variants (see Hpe::gen_key_naive): identical output
  // distribution, per-component exponentiation counts matching the paper's
  // Fig. 8(c) measurements. The default gen_cap/delegate_cap share the
  // predicate-sum across components and are ~an order of magnitude faster.
  [[nodiscard]] Capability gen_cap_naive(const ApksMasterKey& msk,
                                         const Query& query, Rng& rng) const;
  [[nodiscard]] Capability delegate_cap_naive(const Capability& parent,
                                              const Query& restriction,
                                              Rng& rng) const;

  // The public GT flag encrypted into every index; Search tests for it.
  // (Stands in for the paper's Msg||0^lambda padding check — see DESIGN.md.)
  // Derived once at construction: every scan block compares against it.
  [[nodiscard]] const GtEl& match_flag() const noexcept {
    return match_flag_;
  }

 protected:
  [[nodiscard]] std::vector<Fq> encode_index_vector(
      const PlainIndex& index) const;
  [[nodiscard]] std::vector<Fq> encode_query_vector(const Query& query,
                                                    Rng& rng) const;

  Schema schema_;
  Hpe hpe_;

 private:
  // g_T^H("apks:match-flag").
  [[nodiscard]] static GtEl derive_match_flag(const Pairing& pairing);

  GtEl match_flag_;
};

}  // namespace apks
