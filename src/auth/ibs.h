// Identity-based signatures for capability authentication (paper Sec. III:
// "a TA/LTA can issue an identity-based signature on each capability it
// generated/delegated; the server verifies it before searching").
//
// The paper cites Paterson-Schuldt; we implement the Cha-Cheon IBS — a
// pairing-based EUF-CMA scheme in the random-oracle model with the same
// interface and much smaller public parameters (see DESIGN.md
// "Substitutions"). Verification costs two pairings.
#pragma once

#include <string_view>
#include <vector>

#include "pairing/pairing.h"

namespace apks {

struct IbsPublicParams {
  AffinePoint p_pub;  // s * g
};

struct IbsSigningKey {
  std::string identity;
  AffinePoint d;  // s * H1(identity)
};

struct IbsSignature {
  AffinePoint u;  // r * H1(id)
  AffinePoint v;  // (r + h) * d
};

class Ibs {
 public:
  explicit Ibs(const Pairing& pairing) : e_(&pairing) {}

  // Master key generation: returns (params, msk).
  struct SetupResult {
    IbsPublicParams params;
    Fq msk{};
  };
  [[nodiscard]] SetupResult setup(Rng& rng) const;

  // Extracts the signing key for an identity.
  [[nodiscard]] IbsSigningKey extract(const Fq& msk,
                                      std::string_view identity) const;

  [[nodiscard]] IbsSignature sign(const IbsSigningKey& key,
                                  std::span<const std::uint8_t> message,
                                  Rng& rng) const;

  // H1(identity): the public point an identity's keys and signatures are
  // built on. A verifier that checks many signatures from one issuer
  // hashes it once (try-and-increment plus cofactor clearing) and reuses it.
  [[nodiscard]] AffinePoint identity_point(std::string_view identity) const;

  [[nodiscard]] bool verify(const IbsPublicParams& params,
                            std::string_view identity,
                            std::span<const std::uint8_t> message,
                            const IbsSignature& sig) const {
    return verify(params, identity_point(identity), message, sig);
  }
  // Same check against an already-hashed identity_point(identity).
  [[nodiscard]] bool verify(const IbsPublicParams& params,
                            const AffinePoint& qid,
                            std::span<const std::uint8_t> message,
                            const IbsSignature& sig) const;

 private:
  // h = H2(message, U) in F_q.
  [[nodiscard]] Fq challenge(std::span<const std::uint8_t> message,
                             const AffinePoint& u) const;

  const Pairing* e_;
};

}  // namespace apks
