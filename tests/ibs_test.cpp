// Tests for the identity-based signature scheme used on capabilities.
#include <gtest/gtest.h>

#include "auth/ibs.h"

namespace apks {
namespace {

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

// A verifier hashes each issuer's identity point once and verifies against
// the point; that must accept and reject exactly what the identity-string
// verify does.
TEST_F(IbsTest, IdentityPointVerifyMatchesIdentityVerify) {
  const auto key = ibs_.extract(msk_, "hospital-A");
  const auto msg = bytes("capability bytes");
  const auto sig = ibs_.sign(key, msg, rng_);
  const AffinePoint qid_a = ibs_.identity_point("hospital-A");
  const AffinePoint qid_b = ibs_.identity_point("hospital-B");
  EXPECT_EQ(ibs_.extract(msk_, "hospital-A").d,
            e_.curve().mul_fq(qid_a, msk_));

  auto tampered_u = sig;
  tampered_u.u = e_.curve().neg(sig.u);
  auto tampered_v = sig;
  tampered_v.v = e_.curve().add(sig.v, e_.curve().generator());
  struct Case {
    const char* what;
    std::string_view identity;
    const AffinePoint* qid;
    std::vector<std::uint8_t> message;
    IbsSignature sig;
    bool want;
  };
  const Case cases[] = {
      {"valid", "hospital-A", &qid_a, msg, sig, true},
      {"wrong identity", "hospital-B", &qid_b, msg, sig, false},
      {"tampered message", "hospital-A", &qid_a, bytes("capability bytez"),
       sig, false},
      {"tampered u", "hospital-A", &qid_a, msg, tampered_u, false},
      {"tampered v", "hospital-A", &qid_a, msg, tampered_v, false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(ibs_.verify(params_, c.identity, c.message, c.sig), c.want)
        << c.what;
    EXPECT_EQ(ibs_.verify(params_, *c.qid, c.message, c.sig), c.want)
        << c.what;
  }
}

}  // namespace
}  // namespace apks
