// Integration tests for the cloud server and proxy pipeline: the complete
// multi-owner / multi-user protocol of the paper's Figs. 1 and 6.
#include <gtest/gtest.h>

#include "cloud/proxy.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "data/phr.h"

namespace apks {
namespace {

Schema small_schema() {
  return Schema({{"illness", nullptr, 2},
                 {"sex", nullptr, 1},
                 {"provider", nullptr, 1}});
}

Query q3(QueryTerm a = QueryTerm::any(), QueryTerm b = QueryTerm::any(),
         QueryTerm c = QueryTerm::any()) {
  return Query{{std::move(a), std::move(b), std::move(c)}};
}

class CloudTest : public ::testing::Test {
 protected:
  CloudTest()
      : e_(default_type_a_params()),
        apks_(e_, small_schema()),
        rng_("cloud-test"),
        ta_(apks_, rng_) {
    lta_ = ta_.make_lta("hospital-A",
                        q3(QueryTerm::any(), QueryTerm::any(),
                           QueryTerm::equals("Hospital A")),
                        rng_);
    UserAttributes peter;
    peter.values["illness"] = {"Diabetes"};
    peter.values["sex"] = {"Male"};
    peter.values["provider"] = {"Hospital A"};
    lta_->register_user("peter", peter);

    CapabilityVerifier verifier(e_, ta_.ibs_params());
    verifier.register_authority("hospital-A");
    server_ = std::make_unique<CloudServer>(apks_, std::move(verifier));

    // Multiple owners upload.
    store({"Diabetes", "Male", "Hospital A"}, "doc-bob");
    store({"Diabetes", "Female", "Hospital A"}, "doc-carol");
    store({"Flu", "Male", "Hospital A"}, "doc-dave");
    store({"Diabetes", "Male", "Hospital B"}, "doc-erin");
  }

  void store(std::vector<std::string> values, std::string ref) {
    (void)server_->store(
        apks_.gen_index(ta_.public_key(), PlainIndex{std::move(values)}, rng_),
        std::move(ref));
  }

  Pairing e_;
  Apks apks_;
  ChaChaRng rng_;
  TrustedAuthority ta_;
  std::unique_ptr<LocalAuthority> lta_;
  std::unique_ptr<CloudServer> server_;
};

TEST_F(CloudTest, AuthorizedSearchReturnsMatchingDocs) {
  const auto cap = lta_->delegate_for_user(
      "peter", q3(QueryTerm::equals("Diabetes")), rng_);
  ASSERT_TRUE(cap.has_value());
  BatchMetrics bm;
  const auto docs = SearchEngine(*server_).search_batch_signed(
      borrow_capabilities(server_->backend(), {&*cap, 1}), &bm)[0];
  const ServerMetrics& stats = bm.per_query[0];
  EXPECT_TRUE(stats.authorized);
  EXPECT_EQ(stats.scanned, 4u);
  // Diabetes at Hospital A: bob and carol, not dave (flu) or erin (B).
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(stats.matched, 2u);
  EXPECT_NE(std::find(docs.begin(), docs.end(), "doc-bob"), docs.end());
  EXPECT_NE(std::find(docs.begin(), docs.end(), "doc-carol"), docs.end());
}

TEST_F(CloudTest, UnsignedOrForgedCapabilityRejected) {
  // Capability minted by an unregistered authority ("TA" not registered).
  const auto rogue = ta_.issue(q3(), rng_);
  BatchMetrics bm;
  const auto docs = SearchEngine(*server_).search_batch_signed(
      borrow_capabilities(server_->backend(), {&rogue, 1}), &bm)[0];
  const ServerMetrics& stats = bm.per_query[0];
  EXPECT_FALSE(stats.authorized);
  EXPECT_TRUE(docs.empty());
  EXPECT_EQ(stats.scanned, 0u);
}

TEST_F(CloudTest, RecordCountGrows) {
  EXPECT_EQ(server_->record_count(), 4u);
  store({"Flu", "Female", "Hospital A"}, "doc-fay");
  EXPECT_EQ(server_->record_count(), 5u);
}

class CloudPlusTest : public ::testing::Test {
 protected:
  CloudPlusTest()
      : e_(default_type_a_params()),
        apks_(e_, small_schema()),
        rng_("cloud-plus-test") {
    setup_ = apks_.setup_plus(rng_);
    pipeline_ = std::make_unique<ProxyPipeline>(
        make_proxy_pipeline(apks_, setup_.r, 2, rng_));
  }

  Pairing e_;
  ApksPlus apks_;
  ChaChaRng rng_;
  ApksPlusSetupResult setup_;
  std::unique_ptr<ProxyPipeline> pipeline_;
};

TEST_F(CloudPlusTest, PipelineProducesSearchableIndexes) {
  const auto cap = apks_.gen_cap(setup_.msk,
                                 q3(QueryTerm::equals("Diabetes")), rng_);
  auto enc = apks_.partial_gen_index(
      setup_.pk, PlainIndex{{"Diabetes", "Male", "Hospital A"}}, rng_);
  EXPECT_FALSE(apks_.search(cap, enc));
  enc = pipeline_->process(enc);
  EXPECT_TRUE(apks_.search(cap, enc));
}

TEST_F(CloudPlusTest, RateLimitStopsProbeResponse) {
  ProxyServer limited(apks_, setup_.r, /*rate_limit=*/2);
  auto enc = apks_.partial_gen_index(
      setup_.pk, PlainIndex{{"Flu", "Male", "Hospital A"}}, rng_);
  (void)limited.transform(enc);
  (void)limited.transform(enc);
  EXPECT_EQ(limited.transformed_count(), 2u);
  EXPECT_THROW((void)limited.transform(enc), std::runtime_error);
}

}  // namespace
}  // namespace apks
