// Whole-system integration test: APKS+ deployment with a TA, two hospital
// LTAs (one with a sub-LTA), a two-proxy pipeline, an IBS-verifying cloud
// server, query policies and time-based revocation — every module working
// together, mirroring the paper's Figs. 1, 2 and 6 at once.
#include <gtest/gtest.h>

#include "cloud/proxy.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "core/time_attr.h"
#include "data/phr.h"

namespace apks {
namespace {

class SystemIntegrationTest : public ::testing::Test {
 protected:
  SystemIntegrationTest()
      : e_(default_type_a_params()),
        scheme_(e_, phr_schema({.max_or = 2, .with_time = true})),
        rng_("integration") {}

  Query q6() const {
    Query q;
    q.terms.assign(scheme_.schema().original_dims(), QueryTerm::any());
    return q;
  }

  Pairing e_;
  ApksPlus scheme_;
  ChaChaRng rng_;
};

TEST_F(SystemIntegrationTest, FullApksPlusDeployment) {
  // --- TA bootstraps APKS+ and hands the blinded master key to the
  // authorization hierarchy; r is split across two proxies. ---------------
  const auto setup = scheme_.setup_plus(rng_);
  TrustedAuthority ta(scheme_, setup.pk, setup.msk, rng_);
  auto pipeline = make_proxy_pipeline(scheme_, setup.r, 2, rng_);

  // Hospital A's LTA with a statistical-attack policy; ward sub-LTA.
  Query scope_a = q6();
  scope_a.terms[4] = QueryTerm::equals("Hospital A");
  auto hospital_a = ta.make_lta("hospital-A", scope_a, rng_);
  QueryPolicy policy;
  policy.min_active_dims = 2;
  hospital_a->set_policy(policy);

  Query ward_scope = q6();
  ward_scope.terms[1] = QueryTerm::equals("Male");
  auto ward = hospital_a->make_sub_lta("hospital-A/ward", ward_scope, rng_);

  // Hospital B's LTA (no policy).
  Query scope_b = q6();
  scope_b.terms[4] = QueryTerm::equals("Hospital B");
  auto hospital_b = ta.make_lta("hospital-B", scope_b, rng_);

  // --- Cloud server trusts only the two hospitals' LTAs. -----------------
  CapabilityVerifier verifier(e_, ta.ibs_params());
  verifier.register_authority("hospital-A");
  verifier.register_authority("hospital-A/ward");
  verifier.register_authority("hospital-B");
  CloudServer server(scheme_, std::move(verifier));

  // --- Owners encrypt partially; every upload crosses both proxies. ------
  struct Row {
    PlainIndex idx;
    const char* ref;
  };
  const std::vector<Row> rows{
      {{{"61", "Male", "Boston", "diabetes", "Hospital A",
         time_value(2010, 2)}},
       "bob"},
      {{{"58", "Female", "Quincy", "diabetes", "Hospital A",
         time_value(2010, 3)}},
       "carol"},
      {{{"70", "Male", "Boston", "diabetes", "Hospital B",
         time_value(2010, 2)}},
       "dave"},
      {{{"65", "Male", "Cambridge", "diabetes", "Hospital A",
         time_value(2012, 1)}},
       "erin-2012"},
  };
  for (const auto& row : rows) {
    auto enc = scheme_.partial_gen_index(ta.public_key(), row.idx, rng_);
    enc = pipeline.process(enc);
    (void)server.store(std::move(enc), row.ref);
  }
  ASSERT_EQ(server.record_count(), 4u);

  // --- A doctor in hospital A's ward requests a capability. --------------
  UserAttributes doc;
  doc.values["age"] = {"40"};
  doc.values["sex"] = {"Male"};
  doc.values["region"] = {"Boston"};
  doc.values["illness"] = {"diabetes"};
  doc.values["provider"] = {"Hospital A"};
  // Authorized to search indexes created in an aligned 4-month window of
  // early 2010.
  doc.values["time"] = {time_value(2010, 1)};
  ward->register_user("doc", doc);

  Query request = q6();
  request.terms[3] = QueryTerm::equals("diabetes");
  request.terms[5] = time_period(2010, 1, 2010, 4, /*level=*/5);
  const auto cap = ward->delegate_for_user("doc", request, rng_);
  ASSERT_TRUE(cap.has_value());
  EXPECT_EQ(cap->issuer, "hospital-A/ward");
  EXPECT_EQ(cap->cap.key.level, 3u);  // TA->LTA scope, ward scope, request

  // --- Server verifies and scans (sequentially and in parallel). ---------
  const SearchEngine engine(server, {.threads = 1});
  const std::vector<SignedQuery> query =
      borrow_capabilities(server.backend(), {&*cap, 1});
  BatchMetrics bm;
  const auto docs = engine.search_batch_signed(query, &bm)[0];
  EXPECT_TRUE(bm.per_query[0].authorized);
  // bob: diabetic Male at Hospital A in window -> match.
  // carol: Female (ward scope excludes) -> no.
  // dave: Hospital B (LTA scope excludes) -> no.
  // erin-2012: outside the authorized time window (revoked) -> no.
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ(docs[0], "bob");
  EXPECT_EQ(SearchEngine(server, {.threads = 3, .block_records = 1})
                .search_batch_signed(query)[0],
            docs);

  // --- The policy refuses overly broad requests. --------------------------
  Query broad = q6();
  broad.terms[3] = QueryTerm::equals("diabetes");
  // Only one active dim in the request, but the ward+LTA scopes contribute
  // two more, so this passes...
  EXPECT_TRUE(hospital_a->eligible("doc", broad) == false);  // not ward user
  // ...while a fully unconstrained request at hospital B (no scope beyond
  // provider, policy-free) still works for its own users.
  UserAttributes nurse;
  nurse.values["provider"] = {"Hospital B"};
  hospital_b->register_user("nurse", nurse);
  const auto cap_b = hospital_b->delegate_for_user("nurse", q6(), rng_);
  ASSERT_TRUE(cap_b.has_value());
  const auto docs_b = engine.search_batch_signed(
      borrow_capabilities(server.backend(), {&*cap_b, 1}), &bm)[0];
  EXPECT_TRUE(bm.per_query[0].authorized);
  ASSERT_EQ(docs_b.size(), 1u);  // only dave is at Hospital B
  EXPECT_EQ(docs_b[0], "dave");

  // --- Dictionary attack against the live deployment fails. ---------------
  // The server forges a partial index for a guessed record and tests the
  // doctor's capability: no proxy secret, no match.
  const auto forged = scheme_.partial_gen_index(
      ta.public_key(),
      PlainIndex{{"61", "Male", "Boston", "diabetes", "Hospital A",
                  time_value(2010, 2)}},
      rng_);
  EXPECT_FALSE(scheme_.search(cap->cap, forged));

  // --- An expired user needs a fresh capability (revocation). -------------
  Query late = request;
  late.terms[5] = time_period(2012, 1, 2012, 4, 5);
  // The doc's time attribute does not include 2012: refused.
  EXPECT_FALSE(ward->delegate_for_user("doc", late, rng_).has_value());
}

}  // namespace
}  // namespace apks
