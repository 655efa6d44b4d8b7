// Identity-based signatures for capability authentication (paper Sec. III:
// "a TA/LTA can issue an identity-based signature on each capability it
// generated/delegated; the server verifies it before searching").
//
// The paper cites Paterson-Schuldt; we implement the Cha-Cheon IBS — a
// pairing-based EUF-CMA scheme in the random-oracle model with the same
// interface and much smaller public parameters (see DESIGN.md
// "Substitutions").
//
// Verification checks e(V, g) == e(U + h*Q_id, P_pub). The type-A pairing
// is symmetric, so this is the single product
//   e(g, V) * e(P_pub, -(U + h*Q_id)) == 1
// whose first arguments are fixed: g always, P_pub per parameter set. A
// verifier prepares both Miller traces once (IbsVerifyKey) and a fixed-base
// table for h*Q_id once per issuer (IbsIdentity); each check then costs one
// two-slot multi_miller_pre, one final exponentiation and one fixed-base
// scalar multiplication. Signature points (attacker-supplied) enter only as
// second, evaluation arguments. They are checked to be finite and on the
// curve; membership in the order-q subgroup is not checked here.
#pragma once

#include <array>
#include <string_view>
#include <vector>

#include "ec/fixed_base.h"
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

// The fixed first arguments of every check under one parameter set: the
// Miller traces of g and P_pub.
struct IbsVerifyKey {
  std::array<PreprocessedPairing, 2> traces;  // {g, P_pub}
};

// An issuer's fixed-base table for h*Q_id, Q_id = H1(identity).
struct IbsIdentity {
  FixedBaseComb comb;
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
  // built on (try-and-increment plus cofactor clearing).
  [[nodiscard]] AffinePoint identity_point(std::string_view identity) const;

  // Verification state, built once and reused across many checks.
  [[nodiscard]] IbsVerifyKey prepare(const IbsPublicParams& params) const;
  [[nodiscard]] IbsIdentity prepare_identity(std::string_view identity) const;

  // One-shot check; prepares the state above on every call.
  [[nodiscard]] bool verify(const IbsPublicParams& params,
                            std::string_view identity,
                            std::span<const std::uint8_t> message,
                            const IbsSignature& sig) const {
    return verify(prepare(params), prepare_identity(identity), message, sig);
  }
  [[nodiscard]] bool verify(const IbsVerifyKey& key, const IbsIdentity& id,
                            std::span<const std::uint8_t> message,
                            const IbsSignature& sig) const;

 private:
  friend struct IbsTestPeer;  // tests drive check() with a chosen h

  // h = H2(message, U) in F_q.
  [[nodiscard]] Fq challenge(std::span<const std::uint8_t> message,
                             const AffinePoint& u) const;
  // The product check for a finite, on-curve (U, V) and its challenge h.
  [[nodiscard]] bool check(const IbsVerifyKey& key, const IbsIdentity& id,
                           const Fq& h, const IbsSignature& sig) const;

  const Pairing* e_;
};

}  // namespace apks
