// Tests for query policies (Sec. VI-B statistical-attack countermeasure and
// delegation-depth bounds) and the parallel server scan.
#include <gtest/gtest.h>

#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "serve.h"

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

TEST(QueryPolicy, ActiveDimCounting) {
  EXPECT_EQ(QueryPolicy::active_dims(q3()), 0u);
  EXPECT_EQ(QueryPolicy::active_dims(q3(QueryTerm::equals("Flu"))), 1u);
  EXPECT_EQ(QueryPolicy::active_dims(
                q3(QueryTerm::equals("Flu"), QueryTerm::equals("Male"))),
            2u);
  // Conjunction: overlapping dims counted once.
  const std::vector<Query> conj{
      q3(QueryTerm::equals("Flu")),
      q3(QueryTerm::equals("Diabetes"), QueryTerm::equals("Male"))};
  EXPECT_EQ(QueryPolicy::active_dims(conj), 2u);
}

TEST(QueryPolicy, AdmitsByMinDims) {
  QueryPolicy p;
  p.min_active_dims = 2;
  EXPECT_FALSE(p.admits({q3(QueryTerm::equals("Flu"))}));
  EXPECT_TRUE(p.admits({q3(QueryTerm::equals("Flu")),
                        q3(QueryTerm::any(), QueryTerm::equals("Male"))}));
  // Disabled policy admits anything.
  EXPECT_TRUE(QueryPolicy{}.admits({q3()}));
}

TEST(QueryPolicy, AdmitsByDepth) {
  QueryPolicy p;
  p.max_delegation_depth = 2;
  EXPECT_TRUE(p.admits({q3(), q3()}));
  EXPECT_FALSE(p.admits({q3(), q3(), q3()}));
}

class PolicyAuthorityTest : public ::testing::Test {
 protected:
  PolicyAuthorityTest()
      : e_(default_type_a_params()),
        apks_(e_, small_schema()),
        rng_("policy-test"),
        ta_(apks_, rng_) {
    lta_ = ta_.make_lta("clinic", q3(), rng_);  // unrestricted scope
    UserAttributes u;
    u.values["illness"] = {"Flu"};
    u.values["sex"] = {"Male"};
    u.values["provider"] = {"Hospital A"};
    lta_->register_user("u1", u);
  }
  Pairing e_;
  Apks apks_;
  ChaChaRng rng_;
  TrustedAuthority ta_;
  std::unique_ptr<LocalAuthority> lta_;
};

TEST_F(PolicyAuthorityTest, MinDimsRefusesBroadQueries) {
  QueryPolicy p;
  p.min_active_dims = 2;
  lta_->set_policy(p);
  // One active dimension: refused even though the user is eligible.
  EXPECT_FALSE(lta_->delegate_for_user("u1", q3(QueryTerm::equals("Flu")),
                                       rng_)
                   .has_value());
  // Two active dimensions: granted.
  EXPECT_TRUE(lta_->delegate_for_user(
                      "u1",
                      q3(QueryTerm::equals("Flu"), QueryTerm::equals("Male")),
                      rng_)
                  .has_value());
}

TEST_F(PolicyAuthorityTest, ScopeCountsTowardMinDims) {
  // An LTA whose scope already pins one dimension: a single-dim request
  // reaches the 2-dim minimum through the conjunction.
  auto scoped = ta_.make_lta(
      "hospital-A",
      q3(QueryTerm::any(), QueryTerm::any(), QueryTerm::equals("Hospital A")),
      rng_);
  UserAttributes u;
  u.values["illness"] = {"Flu"};
  u.values["sex"] = {"Male"};
  u.values["provider"] = {"Hospital A"};
  scoped->register_user("u1", u);
  QueryPolicy p;
  p.min_active_dims = 2;
  scoped->set_policy(p);
  EXPECT_TRUE(scoped->delegate_for_user("u1", q3(QueryTerm::equals("Flu")),
                                        rng_)
                  .has_value());
}

class ParallelScanTest : public ::testing::Test {
 protected:
  ParallelScanTest()
      : e_(default_type_a_params()),
        apks_(e_, small_schema()),
        rng_("parallel-test"),
        ta_(apks_, rng_) {
    CapabilityVerifier verifier(e_, ta_.ibs_params());
    server_ = std::make_unique<CloudServer>(apks_, std::move(verifier));
    const char* illnesses[] = {"Flu", "Diabetes", "Cancer"};
    for (int i = 0; i < 9; ++i) {
      PlainIndex row{{illnesses[i % 3], i % 2 == 0 ? "Male" : "Female",
                      "Hospital A"}};
      (void)server_->store(apks_.gen_index(ta_.public_key(), row, rng_),
                           "doc-" + std::to_string(i));
    }
  }
  Pairing e_;
  Apks apks_;
  ChaChaRng rng_;
  TrustedAuthority ta_;
  std::unique_ptr<CloudServer> server_;
};

TEST_F(ParallelScanTest, ParallelMatchesSequential) {
  const auto cap = ta_.issue(q3(QueryTerm::equals("Diabetes")), rng_);
  const AnyQuery one = borrow_capability(server_->backend(), cap.cap);
  const SearchReply seq =
      serve(SearchEngine(*server_, {.threads = 1}), {.queries = {&one, 1}});
  const BatchMetrics& seq_stats = seq.metrics;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const SearchReply par =
        serve(SearchEngine(*server_, {.threads = threads, .block_records = 1}),
              {.queries = {&one, 1}});
    const BatchMetrics& par_stats = par.metrics;
    EXPECT_EQ(par.refs, seq.refs) << threads;  // same order, same contents
    EXPECT_EQ(par_stats.per_query[0].scanned, seq_stats.per_query[0].scanned);
    EXPECT_EQ(par_stats.per_query[0].matched, seq_stats.per_query[0].matched);
  }
  // threads == 0 resolves to hardware concurrency.
  EXPECT_EQ(serve(SearchEngine(*server_, {.threads = 0}),
                  {.queries = {&one, 1}})
                .refs,
            seq.refs);
}

}  // namespace
}  // namespace apks
