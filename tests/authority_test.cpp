// Tests for the TA/LTA authorization framework: scoped delegation,
// attribute-based eligibility, sub-LTAs and server-side verification.
#include <gtest/gtest.h>

#include "auth/authority.h"

namespace apks {
namespace {

Schema small_schema() {
  return Schema({{"illness", nullptr, 2},
                 {"sex", nullptr, 1},
                 {"provider", nullptr, 1}});
}

Query q_any(QueryTerm a = QueryTerm::any(), QueryTerm b = QueryTerm::any(),
            QueryTerm c = QueryTerm::any()) {
  return Query{{std::move(a), std::move(b), std::move(c)}};
}

class AuthorityTest : public ::testing::Test {
 protected:
  AuthorityTest()
      : e_(default_type_a_params()),
        apks_(e_, small_schema()),
        rng_("authority-test"),
        ta_(apks_, rng_) {
    // Hospital-A LTA: scope restricted to provider = Hospital A.
    lta_ = ta_.make_lta(
        "hospital-A",
        q_any(QueryTerm::any(), QueryTerm::any(),
              QueryTerm::equals("Hospital A")),
        rng_);
    // A diabetic patient of hospital A.
    UserAttributes peter;
    peter.values["illness"] = {"Diabetes"};
    peter.values["sex"] = {"Male"};
    peter.values["provider"] = {"Hospital A"};
    lta_->register_user("peter", peter);
  }

  EncryptedIndex enc(const PlainIndex& idx) {
    return apks_.gen_index(ta_.public_key(), idx, rng_);
  }

  Pairing e_;
  Apks apks_;
  ChaChaRng rng_;
  TrustedAuthority ta_;
  std::unique_ptr<LocalAuthority> lta_;
};

TEST_F(AuthorityTest, EligibilityFollowsAttributes) {
  // Peter may search for his own illness...
  EXPECT_TRUE(lta_->eligible(
      "peter", q_any(QueryTerm::equals("Diabetes"))));
  // ...but not for someone else's.
  EXPECT_FALSE(lta_->eligible("peter", q_any(QueryTerm::equals("Cancer"))));
  // Unknown users are never eligible.
  EXPECT_FALSE(lta_->eligible("mallory", q_any()));
  // Subset terms are satisfied if any held value matches.
  EXPECT_TRUE(lta_->eligible(
      "peter", q_any(QueryTerm::subset({"Cancer", "Diabetes"}))));
}

TEST_F(AuthorityTest, DelegatedCapabilityInheritsScope) {
  const auto signed_cap = lta_->delegate_for_user(
      "peter", q_any(QueryTerm::equals("Diabetes")), rng_);
  ASSERT_TRUE(signed_cap.has_value());
  // Matches a diabetic record at hospital A...
  EXPECT_TRUE(apks_.search(
      signed_cap->cap, enc({{"Diabetes", "Male", "Hospital A"}})));
  // ...but not the same record at hospital B (scope), nor flu at A (term).
  EXPECT_FALSE(apks_.search(
      signed_cap->cap, enc({{"Diabetes", "Male", "Hospital B"}})));
  EXPECT_FALSE(apks_.search(
      signed_cap->cap, enc({{"Flu", "Male", "Hospital A"}})));
}

TEST_F(AuthorityTest, IneligibleRequestDenied) {
  EXPECT_FALSE(lta_->delegate_for_user(
                       "peter", q_any(QueryTerm::equals("Cancer")), rng_)
                   .has_value());
  EXPECT_FALSE(
      lta_->delegate_for_user("nobody", q_any(), rng_).has_value());
}

TEST_F(AuthorityTest, SubLtaScopeNarrowsFurther) {
  // A ward-level sub-LTA restricted to male patients.
  auto ward = lta_->make_sub_lta(
      "hospital-A/ward-7", q_any(QueryTerm::any(), QueryTerm::equals("Male")),
      rng_);
  UserAttributes nurse;
  nurse.values["illness"] = {"Flu"};
  nurse.values["sex"] = {"Male"};
  nurse.values["provider"] = {"Hospital A"};
  ward->register_user("nurse", nurse);
  const auto cap =
      ward->delegate_for_user("nurse", q_any(QueryTerm::equals("Flu")), rng_);
  ASSERT_TRUE(cap.has_value());
  EXPECT_EQ(cap->cap.key.level, 3u);  // TA scope + ward scope + user query
  EXPECT_TRUE(apks_.search(cap->cap, enc({{"Flu", "Male", "Hospital A"}})));
  EXPECT_FALSE(apks_.search(cap->cap, enc({{"Flu", "Female", "Hospital A"}})));
  EXPECT_FALSE(apks_.search(cap->cap, enc({{"Flu", "Male", "Hospital B"}})));
}

TEST_F(AuthorityTest, ServerVerifiesSignatures) {
  CapabilityVerifier verifier(e_, ta_.ibs_params());
  verifier.register_authority("hospital-A");

  const auto good = lta_->delegate_for_user(
      "peter", q_any(QueryTerm::equals("Diabetes")), rng_);
  ASSERT_TRUE(good.has_value());
  EXPECT_TRUE(verifier.verify(*good));

  // Unregistered issuer: TA itself isn't registered here.
  const auto from_ta = ta_.issue(q_any(), rng_);
  EXPECT_FALSE(verifier.verify(from_ta));
  verifier.register_authority("TA");
  EXPECT_TRUE(verifier.verify(from_ta));

  // Tampered capability: swap in a different key.
  auto forged = *good;
  forged.cap = from_ta.cap;
  EXPECT_FALSE(verifier.verify(forged));

  // Spoofed issuer string.
  auto spoofed = *good;
  spoofed.issuer = "TA";
  EXPECT_FALSE(verifier.verify(spoofed));
}

// The verifier prepares each issuer's table once, at register_authority,
// and verifies against it: its verdicts equal Ibs::verify by identity
// string, except that an unregistered issuer is refused outright.
TEST_F(AuthorityTest, CachedIssuerPointVerifyMatchesIbsVerify) {
  CapabilityVerifier verifier(e_, ta_.ibs_params());
  verifier.register_authority("hospital-A");
  verifier.register_authority("hospital-A");  // re-registering is a no-op
  verifier.register_authority("hospital-B");
  const Ibs ibs(e_);
  const auto check = [&](const char* what, const std::string& issuer,
                         std::span<const std::uint8_t> message,
                         const IbsSignature& sig, bool want) {
    EXPECT_EQ(verifier.verify_message(message, issuer, sig), want) << what;
    EXPECT_EQ(ibs.verify(ta_.ibs_params(), issuer, message, sig), want)
        << what;
  };

  const auto good = lta_->delegate_for_user(
      "peter", q_any(QueryTerm::equals("Diabetes")), rng_);
  ASSERT_TRUE(good.has_value());
  const std::vector<std::uint8_t> msg =
      capability_message(e_, good->cap, good->issuer);
  check("valid", "hospital-A", msg, good->sig, true);
  check("wrong identity", "hospital-B", msg, good->sig, false);
  std::vector<std::uint8_t> tampered_msg = msg;
  tampered_msg.back() ^= 1;
  check("tampered message", "hospital-A", tampered_msg, good->sig, false);
  IbsSignature tampered_u = good->sig;
  tampered_u.u = e_.curve().neg(tampered_u.u);
  check("tampered u", "hospital-A", msg, tampered_u, false);
  IbsSignature tampered_v = good->sig;
  tampered_v.v = e_.curve().add(tampered_v.v, e_.curve().generator());
  check("tampered v", "hospital-A", msg, tampered_v, false);

  // A genuine signature from an issuer the verifier never registered.
  const auto from_ta = ta_.issue(q_any(), rng_);
  const std::vector<std::uint8_t> ta_msg =
      capability_message(e_, from_ta.cap, from_ta.issuer);
  EXPECT_TRUE(ibs.verify(ta_.ibs_params(), from_ta.issuer, ta_msg,
                         from_ta.sig));
  EXPECT_FALSE(verifier.verify_message(ta_msg, from_ta.issuer, from_ta.sig));
}

// Copies share the prepared traces and issuer tables but keep their own
// registration lists: a copy verifies exactly what its own registrations
// admit, whether it was taken before or after register_authority.
TEST_F(AuthorityTest, CopiedVerifierVerifiesAsOriginal) {
  const auto good = lta_->delegate_for_user(
      "peter", q_any(QueryTerm::equals("Diabetes")), rng_);
  ASSERT_TRUE(good.has_value());
  auto forged = *good;
  forged.sig.v = e_.curve().add(forged.sig.v, e_.curve().generator());

  CapabilityVerifier original(e_, ta_.ibs_params());
  const CapabilityVerifier copied_before = original;
  EXPECT_FALSE(copied_before.verify(*good));
  original.register_authority("hospital-A");
  EXPECT_TRUE(original.verify(*good));
  EXPECT_FALSE(copied_before.verify(*good));  // its own list is still empty

  CapabilityVerifier copied_after = original;
  EXPECT_TRUE(copied_after.verify(*good));
  EXPECT_FALSE(copied_after.verify(forged));
  CapabilityVerifier assigned = copied_before;
  assigned = copied_after;
  EXPECT_TRUE(assigned.verify(*good));
  EXPECT_FALSE(assigned.verify(forged));

  CapabilityVerifier registered_late = copied_before;
  registered_late.register_authority("hospital-A");
  EXPECT_TRUE(registered_late.verify(*good));
  EXPECT_FALSE(registered_late.verify(forged));
  EXPECT_FALSE(copied_before.verify(*good));
}

// Only registered issuers are served, however genuine the signature.
TEST_F(AuthorityTest, UnregisteredIssuerRefused) {
  CapabilityVerifier verifier(e_, ta_.ibs_params());
  verifier.register_authority("TA");
  const auto good = lta_->delegate_for_user(
      "peter", q_any(QueryTerm::equals("Diabetes")), rng_);
  ASSERT_TRUE(good.has_value());
  EXPECT_TRUE(Ibs(e_).verify(ta_.ibs_params(), good->issuer,
                             capability_message(e_, good->cap, good->issuer),
                             good->sig));
  EXPECT_FALSE(verifier.verify(*good));
  auto renamed = *good;
  renamed.issuer = "mallory";
  EXPECT_FALSE(verifier.verify(renamed));
  // A verifier with no registrations refuses everything.
  const CapabilityVerifier empty(e_, ta_.ibs_params());
  EXPECT_FALSE(empty.verify(ta_.issue(q_any(), rng_)));
}

TEST_F(AuthorityTest, SignedCapabilityWireRoundTrip) {
  const auto cap = lta_->delegate_for_user(
      "peter", q_any(QueryTerm::equals("Diabetes")), rng_);
  ASSERT_TRUE(cap.has_value());
  const auto wire = serialize_signed_capability(e_, *cap);
  const auto back = deserialize_signed_capability(e_, wire);
  EXPECT_EQ(back.issuer, cap->issuer);
  // The delegation history (the LTAs' audit trail) survives the wire.
  EXPECT_EQ(back.cap.history.size(), cap->cap.history.size());
  // Still verifies and still searches after the round trip.
  CapabilityVerifier verifier(e_, ta_.ibs_params());
  verifier.register_authority("hospital-A");
  EXPECT_TRUE(verifier.verify(back));
  EXPECT_TRUE(apks_.search(back.cap, enc({{"Diabetes", "Male",
                                           "Hospital A"}})));
  // Corrupting the issuer breaks verification but not parsing.
  auto wire2 = wire;
  wire2[wire2.size() - 10] ^= 1;  // inside the trailing signature point
  bool rejected = false;
  try {
    rejected = !verifier.verify(deserialize_signed_capability(e_, wire2));
  } catch (const std::invalid_argument&) {
    rejected = true;
  }
  EXPECT_TRUE(rejected);
}

TEST_F(AuthorityTest, TaDirectIssueSearches) {
  const auto cap = ta_.issue(q_any(QueryTerm::equals("Flu")), rng_);
  EXPECT_TRUE(apks_.search(cap.cap, enc({{"Flu", "Female", "Hospital C"}})));
  EXPECT_FALSE(apks_.search(cap.cap, enc({{"Cancer", "Female", "Hospital C"}})));
}

}  // namespace
}  // namespace apks
