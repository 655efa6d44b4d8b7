// Tests for the identity-based signature scheme used on capabilities.
#include <gtest/gtest.h>

#include "auth/ibs.h"
#include "common/hex.h"

namespace apks {

// Reaches Ibs's private challenge hash and challenge-level check.
struct IbsTestPeer {
  static Fq challenge(const Ibs& ibs, std::span<const std::uint8_t> message,
                      const AffinePoint& u) {
    return ibs.challenge(message, u);
  }
  static bool check(const Ibs& ibs, const IbsVerifyKey& key,
                    const IbsIdentity& id, const Fq& h,
                    const IbsSignature& sig) {
    return ibs.check(key, id, h, sig);
  }
};

namespace {

// The two-pairing check that Ibs::verify's product form replaced:
// e(V, g) == e(U + h*Q_id, P_pub), with the same finite/on-curve guards.
bool two_pairing_verify(const Pairing& e, const Ibs& ibs,
                        const IbsPublicParams& params,
                        std::string_view identity,
                        std::span<const std::uint8_t> message,
                        const IbsSignature& sig) {
  const Curve& curve = e.curve();
  if (sig.u.inf || sig.v.inf) return false;
  if (!curve.on_curve(sig.u) || !curve.on_curve(sig.v)) return false;
  const Fq h = IbsTestPeer::challenge(ibs, message, sig.u);
  const AffinePoint w =
      curve.add(sig.u, curve.mul_fq(ibs.identity_point(identity), h));
  return e.pair(sig.v, curve.generator()) == e.pair(w, params.p_pub);
}

class IbsTest : public ::testing::Test {
 protected:
  IbsTest() : e_(default_type_a_params()), ibs_(e_), rng_("ibs-test") {
    auto s = ibs_.setup(rng_);
    msk_ = s.msk;
    params_ = s.params;
  }

  static std::vector<std::uint8_t> bytes(std::string_view s) {
    return {s.begin(), s.end()};
  }

  Pairing e_;
  Ibs ibs_;
  ChaChaRng rng_;
  Fq msk_{};
  IbsPublicParams params_;
};

TEST_F(IbsTest, SignVerifyRoundTrip) {
  const auto key = ibs_.extract(msk_, "hospital-A");
  const auto msg = bytes("capability bytes");
  const auto sig = ibs_.sign(key, msg, rng_);
  EXPECT_TRUE(ibs_.verify(params_, "hospital-A", msg, sig));
}

TEST_F(IbsTest, WrongIdentityRejected) {
  const auto key = ibs_.extract(msk_, "hospital-A");
  const auto msg = bytes("capability bytes");
  const auto sig = ibs_.sign(key, msg, rng_);
  EXPECT_FALSE(ibs_.verify(params_, "hospital-B", msg, sig));
}

TEST_F(IbsTest, TamperedMessageRejected) {
  const auto key = ibs_.extract(msk_, "hospital-A");
  const auto sig = ibs_.sign(key, bytes("message"), rng_);
  EXPECT_FALSE(ibs_.verify(params_, "hospital-A", bytes("messagE"), sig));
}

TEST_F(IbsTest, TamperedSignatureRejected) {
  const auto key = ibs_.extract(msk_, "hospital-A");
  const auto msg = bytes("message");
  auto sig = ibs_.sign(key, msg, rng_);
  sig.v = e_.curve().add(sig.v, e_.curve().generator());
  EXPECT_FALSE(ibs_.verify(params_, "hospital-A", msg, sig));
  auto sig2 = ibs_.sign(key, msg, rng_);
  sig2.u = e_.curve().neg(sig2.u);
  EXPECT_FALSE(ibs_.verify(params_, "hospital-A", msg, sig2));
}

TEST_F(IbsTest, WrongAuthorityKeysRejected) {
  // A signature under a different master key must not verify.
  auto other = ibs_.setup(rng_);
  const auto key = ibs_.extract(other.msk, "hospital-A");
  const auto msg = bytes("message");
  const auto sig = ibs_.sign(key, msg, rng_);
  EXPECT_FALSE(ibs_.verify(params_, "hospital-A", msg, sig));
  EXPECT_TRUE(ibs_.verify(other.params, "hospital-A", msg, sig));
}

TEST_F(IbsTest, SignaturesAreRandomized) {
  const auto key = ibs_.extract(msk_, "hospital-A");
  const auto msg = bytes("message");
  const auto s1 = ibs_.sign(key, msg, rng_);
  const auto s2 = ibs_.sign(key, msg, rng_);
  EXPECT_NE(s1.u, s2.u);
  EXPECT_TRUE(ibs_.verify(params_, "hospital-A", msg, s1));
  EXPECT_TRUE(ibs_.verify(params_, "hospital-A", msg, s2));
}

TEST_F(IbsTest, InfinitySignatureRejected) {
  IbsSignature sig;
  sig.u = AffinePoint::infinity();
  sig.v = AffinePoint::infinity();
  EXPECT_FALSE(ibs_.verify(params_, "hospital-A", bytes("m"), sig));
}

// A verifier prepares its traces and each issuer's table once and verifies
// against them; that must accept and reject exactly what the one-shot
// identity-string verify does.
TEST_F(IbsTest, IdentityPointVerifyMatchesIdentityVerify) {
  const auto key = ibs_.extract(msk_, "hospital-A");
  const auto msg = bytes("capability bytes");
  const auto sig = ibs_.sign(key, msg, rng_);
  EXPECT_EQ(ibs_.extract(msk_, "hospital-A").d,
            e_.curve().mul_fq(ibs_.identity_point("hospital-A"), msk_));
  const IbsVerifyKey vkey = ibs_.prepare(params_);
  const IbsIdentity id_a = ibs_.prepare_identity("hospital-A");
  const IbsIdentity id_b = ibs_.prepare_identity("hospital-B");

  auto tampered_u = sig;
  tampered_u.u = e_.curve().neg(sig.u);
  auto tampered_v = sig;
  tampered_v.v = e_.curve().add(sig.v, e_.curve().generator());
  struct Case {
    const char* what;
    std::string_view identity;
    const IbsIdentity* id;
    std::vector<std::uint8_t> message;
    IbsSignature sig;
    bool want;
  };
  const Case cases[] = {
      {"valid", "hospital-A", &id_a, msg, sig, true},
      {"wrong identity", "hospital-B", &id_b, msg, sig, false},
      {"tampered message", "hospital-A", &id_a, bytes("capability bytez"),
       sig, false},
      {"tampered u", "hospital-A", &id_a, msg, tampered_u, false},
      {"tampered v", "hospital-A", &id_a, msg, tampered_v, false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(ibs_.verify(params_, c.identity, c.message, c.sig), c.want)
        << c.what;
    EXPECT_EQ(ibs_.verify(vkey, *c.id, c.message, c.sig), c.want) << c.what;
  }
}

// The product-form verify decides exactly as the two-pairing reference,
// over random identities and messages, valid signatures and one forgery
// per round (tampered U, V, message, issuer or parameters in turn).
TEST_F(IbsTest, ProductVerifyMatchesTwoPairingReference) {
  const Curve& curve = e_.curve();
  const IbsVerifyKey vkey = ibs_.prepare(params_);
  const auto other = ibs_.setup(rng_);
  const IbsVerifyKey other_vkey = ibs_.prepare(other.params);
  constexpr std::size_t kRounds = 64;
  for (std::size_t i = 0; i < kRounds; ++i) {
    std::vector<std::uint8_t> raw(8);
    rng_.fill(raw);
    const std::string identity = "issuer-" + hex_encode(raw);
    std::vector<std::uint8_t> msg(rng_.next_below(96));
    rng_.fill(msg);
    const auto key = ibs_.extract(msk_, identity);
    const auto sig = ibs_.sign(key, msg, rng_);
    const IbsIdentity id = ibs_.prepare_identity(identity);

    const bool valid = ibs_.verify(vkey, id, msg, sig);
    EXPECT_EQ(valid, two_pairing_verify(e_, ibs_, params_, identity, msg, sig))
        << "round " << i;
    EXPECT_TRUE(valid) << "round " << i;

    IbsSignature forged = sig;
    std::vector<std::uint8_t> fmsg = msg;
    std::string fidentity = identity;
    const IbsPublicParams* fparams = &params_;
    const IbsVerifyKey* fkey = &vkey;
    const char* what = "";
    switch (i % 5) {
      case 0:
        what = "tampered u";
        forged.u = curve.add(sig.u, curve.generator());
        break;
      case 1:
        what = "tampered v";
        forged.v = curve.add(sig.v, curve.generator());
        break;
      case 2:
        what = "tampered message";
        fmsg.push_back(static_cast<std::uint8_t>(i));
        break;
      case 3:
        what = "other issuer";
        fidentity = identity + "'";
        break;
      default:
        what = "other params";
        fparams = &other.params;
        fkey = &other_vkey;
        break;
    }
    EXPECT_FALSE(ibs_.verify(*fkey, ibs_.prepare_identity(fidentity), fmsg,
                             forged))
        << what << ", round " << i;
    EXPECT_FALSE(
        two_pairing_verify(e_, ibs_, *fparams, fidentity, fmsg, forged))
        << what << ", round " << i;
  }
}

// Degenerate points are refused by both forms: U or V at infinity, and
// U = -h*Q_id, which puts the product's second slot at infinity and
// would leave e(g, V) alone in it.
TEST_F(IbsTest, DegenerateSignaturePointsRejected) {
  const Curve& curve = e_.curve();
  const auto key = ibs_.extract(msk_, "hospital-A");
  const auto msg = bytes("message");
  const auto sig = ibs_.sign(key, msg, rng_);
  const IbsVerifyKey vkey = ibs_.prepare(params_);
  const IbsIdentity id = ibs_.prepare_identity("hospital-A");

  for (const bool u_inf : {true, false}) {
    IbsSignature bad = sig;
    (u_inf ? bad.u : bad.v) = AffinePoint::infinity();
    EXPECT_FALSE(ibs_.verify(vkey, id, msg, bad)) << "u_inf=" << u_inf;
    EXPECT_FALSE(two_pairing_verify(e_, ibs_, params_, "hospital-A", msg, bad))
        << "u_inf=" << u_inf;
  }

  // h = H2(message, U) binds U, so no real message reaches U = -h*Q_id;
  // drive the challenge-level check with a chosen h instead.
  const Fq h = e_.fq().random_nonzero(rng_);
  IbsSignature cancel = sig;
  cancel.u = curve.neg(curve.mul_fq(ibs_.identity_point("hospital-A"), h));
  ASSERT_TRUE(
      curve.add(cancel.u, curve.mul_fq(ibs_.identity_point("hospital-A"), h))
          .inf);
  EXPECT_FALSE(IbsTestPeer::check(ibs_, vkey, id, h, cancel));
  // The sanity twin: the same h with the honest U = r*Q_id, V = (r+h)*d.
  const Fq r = e_.fq().random_nonzero(rng_);
  IbsSignature honest;
  honest.u = curve.mul_fq(ibs_.identity_point("hospital-A"), r);
  honest.v = curve.mul_fq(key.d, e_.fq().add(r, h));
  EXPECT_TRUE(IbsTestPeer::check(ibs_, vkey, id, h, honest));
}

}  // namespace
}  // namespace apks
