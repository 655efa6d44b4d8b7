// Tests for the MRQED^D baseline: interval-tree combinatorics, AIBE
// correctness/anonymity behaviour, and end-to-end multi-dimensional range
// matching with the 5-pairings-per-probe cost profile.
#include <gtest/gtest.h>

#include "mrqed/mrqed.h"
#include "mrqed/serialize.h"

namespace apks {
namespace {

TEST(IntervalTree, PathShape) {
  IntervalTree t(4);
  EXPECT_EQ(t.domain_size(), 16u);
  const auto path = t.path(11);  // 1011
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path[0], (IntervalNode{0, 0}));
  EXPECT_EQ(path[1], (IntervalNode{1, 1}));
  EXPECT_EQ(path[2], (IntervalNode{2, 2}));
  EXPECT_EQ(path[3], (IntervalNode{3, 5}));
  EXPECT_EQ(path[4], (IntervalNode{4, 11}));
  EXPECT_THROW((void)t.path(16), std::invalid_argument);
}

TEST(IntervalTree, CanonicalCoverIsExactAndDisjoint) {
  IntervalTree t(5);
  ChaChaRng rng("cover");
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t a = rng.next_below(32);
    const std::uint64_t b = rng.next_below(32);
    const std::uint64_t lo = std::min(a, b), hi = std::max(a, b);
    const auto cover = t.canonical_cover(lo, hi);
    ASSERT_FALSE(cover.empty());
    ASSERT_LE(cover.size(), 2 * t.depth());
    // Exact disjoint union: count each leaf exactly once.
    std::vector<int> hits(32, 0);
    for (const auto& n : cover) {
      for (std::uint64_t v = t.node_lo(n); v <= t.node_hi(n); ++v) {
        hits[v]++;
      }
    }
    for (std::uint64_t v = 0; v < 32; ++v) {
      EXPECT_EQ(hits[v], (v >= lo && v <= hi) ? 1 : 0) << v;
    }
  }
}

TEST(IntervalTree, CoverIntersectsPathAtExactlyOneNode) {
  // The structural property MRQED matching relies on.
  IntervalTree t(5);
  ChaChaRng rng("intersect");
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t a = rng.next_below(32);
    const std::uint64_t b = rng.next_below(32);
    const std::uint64_t lo = std::min(a, b), hi = std::max(a, b);
    const std::uint64_t v = rng.next_below(32);
    const auto cover = t.canonical_cover(lo, hi);
    const auto path = t.path(v);
    int intersections = 0;
    for (const auto& cn : cover) {
      for (const auto& pn : path) {
        if (cn == pn) ++intersections;
      }
    }
    EXPECT_EQ(intersections, (v >= lo && v <= hi) ? 1 : 0);
  }
}

TEST(IntervalTree, FullDomainCoverIsRoot) {
  IntervalTree t(4);
  const auto cover = t.canonical_cover(0, 15);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], (IntervalNode{0, 0}));
}

TEST(IntervalTree, ConstructionValidation) {
  EXPECT_THROW(IntervalTree(0), std::invalid_argument);
  EXPECT_THROW(IntervalTree(63), std::invalid_argument);
  IntervalTree t(3);
  EXPECT_THROW((void)t.canonical_cover(5, 2), std::invalid_argument);
  EXPECT_THROW((void)t.canonical_cover(0, 8), std::invalid_argument);
}

class AibeTest : public ::testing::Test {
 protected:
  AibeTest() : e_(default_type_a_params()), aibe_(e_), rng_("aibe-test") {
    auto s = aibe_.setup(rng_);
    params_ = s.params;
    msk_ = s.msk;
    base_ = aibe_.make_id_base(rng_);
  }
  Pairing e_;
  Aibe aibe_;
  ChaChaRng rng_;
  AibeParams params_;
  AibeMasterKey msk_;
  AibeIdBase base_;
};

TEST_F(AibeTest, DecryptsForMatchingIdentity) {
  const GtEl m = e_.gt_random(rng_);
  const auto key = aibe_.extract(msk_, base_, "node-42", rng_);
  const auto ct = aibe_.encrypt(params_, base_, "node-42", m, rng_);
  EXPECT_EQ(aibe_.decrypt(ct, key), m);
}

TEST_F(AibeTest, WrongIdentityGivesGarbage) {
  const GtEl m = e_.gt_random(rng_);
  const auto key = aibe_.extract(msk_, base_, "node-42", rng_);
  const auto ct = aibe_.encrypt(params_, base_, "node-43", m, rng_);
  EXPECT_NE(aibe_.decrypt(ct, key), m);
}

TEST_F(AibeTest, WrongBaseGivesGarbage) {
  const GtEl m = e_.gt_random(rng_);
  const auto base2 = aibe_.make_id_base(rng_);
  const auto key = aibe_.extract(msk_, base_, "node-42", rng_);
  const auto ct = aibe_.encrypt(params_, base2, "node-42", m, rng_);
  EXPECT_NE(aibe_.decrypt(ct, key), m);
}

TEST_F(AibeTest, FreshKeysAndCiphertextsDiffer) {
  const GtEl m = e_.gt_random(rng_);
  const auto k1 = aibe_.extract(msk_, base_, "id", rng_);
  const auto k2 = aibe_.extract(msk_, base_, "id", rng_);
  EXPECT_NE(k1.d0, k2.d0);
  const auto c1 = aibe_.encrypt(params_, base_, "id", m, rng_);
  const auto c2 = aibe_.encrypt(params_, base_, "id", m, rng_);
  EXPECT_NE(c1.c0, c2.c0);
  EXPECT_EQ(aibe_.decrypt(c1, k2), m);
  EXPECT_EQ(aibe_.decrypt(c2, k1), m);
}

class MrqedTest : public ::testing::Test {
 protected:
  MrqedTest()
      : e_(default_type_a_params()), scheme_(e_, 3, 4), rng_("mrqed-test") {
    scheme_.setup(rng_, pk_, msk_);
  }
  Pairing e_;
  Mrqed scheme_;
  ChaChaRng rng_;
  MrqedPublicKey pk_;
  MrqedMasterKey msk_;
};

TEST_F(MrqedTest, PointInsideHyperRectangleMatches) {
  const auto ct = scheme_.encrypt(pk_, {3, 9, 14}, rng_);
  const auto key = scheme_.gen_key(pk_, msk_,
                                   {{2, 5}, {8, 15}, {14, 14}}, rng_);
  Mrqed::MatchStats stats;
  EXPECT_TRUE(scheme_.match(ct, key, &stats));
  EXPECT_GT(stats.pairings, 0u);
}

TEST_F(MrqedTest, AnyDimensionOutsideFails) {
  const auto ct = scheme_.encrypt(pk_, {3, 9, 14}, rng_);
  // First dimension misses.
  EXPECT_FALSE(scheme_.match(
      ct, scheme_.gen_key(pk_, msk_, {{4, 5}, {8, 15}, {14, 14}}, rng_)));
  // Last dimension misses.
  EXPECT_FALSE(scheme_.match(
      ct, scheme_.gen_key(pk_, msk_, {{2, 5}, {8, 15}, {15, 15}}, rng_)));
}

TEST_F(MrqedTest, FullDomainKeyMatchesEverything) {
  const auto key = scheme_.gen_key(
      pk_, msk_, {{0, 15}, {0, 15}, {0, 15}}, rng_);
  for (int i = 0; i < 3; ++i) {
    std::vector<std::uint64_t> point{rng_.next_below(16),
                                     rng_.next_below(16),
                                     rng_.next_below(16)};
    EXPECT_TRUE(scheme_.match(scheme_.encrypt(pk_, point, rng_), key));
  }
}

TEST_F(MrqedTest, MatchesAgreeWithPlaintextSemantics) {
  ChaChaRng wl("mrqed-workload");
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<std::uint64_t> point;
    std::vector<MrqedRange> ranges;
    bool expect = true;
    for (std::size_t d = 0; d < 3; ++d) {
      point.push_back(wl.next_below(16));
      const std::uint64_t a = wl.next_below(16);
      const std::uint64_t b = wl.next_below(16);
      MrqedRange r{std::min(a, b), std::max(a, b)};
      ranges.push_back(r);
      expect = expect && point[d] >= r.lo && point[d] <= r.hi;
    }
    const auto ct = scheme_.encrypt(pk_, point, rng_);
    const auto key = scheme_.gen_key(pk_, msk_, ranges, rng_);
    EXPECT_EQ(scheme_.match(ct, key), expect) << "trial " << trial;
  }
}

TEST_F(MrqedTest, PairingCountIsFivePerProbe) {
  // A key whose first-dimension cover has k nodes costs at most
  // 5*(k + 1) pairings in that dimension (k check probes + 1 share).
  const auto ct = scheme_.encrypt(pk_, {0, 0, 0}, rng_);
  const auto key = scheme_.gen_key(pk_, msk_,
                                   {{0, 0}, {0, 0}, {0, 0}}, rng_);
  Mrqed::MatchStats stats;
  EXPECT_TRUE(scheme_.match(ct, key, &stats));
  // Single-node covers: exactly (5 check + 5 share) * 3 dims.
  EXPECT_EQ(stats.pairings, 30u);
}

TEST_F(MrqedTest, PreparedMatchAgreesWithPlain) {
  ChaChaRng wl("mrqed-prepared");
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<std::uint64_t> point;
    std::vector<MrqedRange> ranges;
    for (std::size_t d = 0; d < 3; ++d) {
      point.push_back(wl.next_below(16));
      const std::uint64_t a = wl.next_below(16);
      const std::uint64_t b = wl.next_below(16);
      ranges.push_back({std::min(a, b), std::max(a, b)});
    }
    const auto ct = scheme_.encrypt(pk_, point, rng_);
    const auto key = scheme_.gen_key(pk_, msk_, ranges, rng_);
    const auto prepared = scheme_.prepare(key);
    Mrqed::MatchStats s1, s2;
    EXPECT_EQ(scheme_.match_prepared(ct, prepared, &s1),
              scheme_.match(ct, key, &s2));
    EXPECT_EQ(s1.pairings, s2.pairings);
  }
}

TEST_F(MrqedTest, SerializationRoundTrip) {
  const auto ct = scheme_.encrypt(pk_, {3, 9, 14}, rng_);
  const auto key =
      scheme_.gen_key(pk_, msk_, {{2, 5}, {8, 15}, {14, 14}}, rng_);

  const auto ct2 =
      deserialize_mrqed_ciphertext(e_, serialize_mrqed_ciphertext(e_, ct));
  const auto key2 = deserialize_mrqed_key(e_, serialize_mrqed_key(e_, key));
  const auto pk2 =
      deserialize_mrqed_public_key(e_, serialize_mrqed_public_key(e_, pk_));
  EXPECT_EQ(pk2.aibe.omega, pk_.aibe.omega);
  EXPECT_EQ(pk2.bases.size(), pk_.bases.size());
  // Deserialized objects still match correctly.
  EXPECT_TRUE(scheme_.match(ct2, key2));
  const auto miss =
      scheme_.gen_key(pk_, msk_, {{4, 5}, {8, 15}, {14, 14}}, rng_);
  const auto miss2 =
      deserialize_mrqed_key(e_, serialize_mrqed_key(e_, miss));
  EXPECT_FALSE(scheme_.match(ct2, miss2));
  // Truncation rejected.
  auto bytes = serialize_mrqed_key(e_, key);
  bytes.pop_back();
  EXPECT_THROW((void)deserialize_mrqed_key(e_, bytes), std::out_of_range);
}

// The codecs decode their elements in lane batches (ElementReader):
// re-encoding a decoded object gives the same bytes, and a malformed
// element still decides the error ahead of a later structural fault, as a
// one-at-a-time read would.
TEST_F(MrqedTest, SerializationIsByteIdenticalAndFirstFaultDecides) {
  const auto ct = scheme_.encrypt(pk_, {3, 9, 14}, rng_);
  const auto key =
      scheme_.gen_key(pk_, msk_, {{2, 5}, {8, 15}, {14, 14}}, rng_);
  const auto ct_bytes = serialize_mrqed_ciphertext(e_, ct);
  const auto key_bytes = serialize_mrqed_key(e_, key);
  const auto pk_bytes = serialize_mrqed_public_key(e_, pk_);
  EXPECT_EQ(serialize_mrqed_ciphertext(
                e_, deserialize_mrqed_ciphertext(e_, ct_bytes)),
            ct_bytes);
  EXPECT_EQ(serialize_mrqed_key(e_, deserialize_mrqed_key(e_, key_bytes)),
            key_bytes);
  EXPECT_EQ(serialize_mrqed_public_key(
                e_, deserialize_mrqed_public_key(e_, pk_bytes)),
            pk_bytes);

  const auto expect_error = [](auto&& decode, const char* what) {
    try {
      decode();
      ADD_FAILURE() << "accepted; want " << what;
    } catch (const std::invalid_argument& ex) {
      EXPECT_STREQ(ex.what(), what);
    }
  };
  // Ciphertext: u32 dims, u32 nodes, then per node check and share, each
  // a G_T value and five points. Element 6 is the first share's G_T value,
  // element 10 a point in the second lane chunk; a trailing byte follows.
  const std::size_t first = 8;
  for (const auto& [element, what] :
       {std::pair<std::size_t, const char*>{6, "gt_deserialize: bad tag"},
        {10, "Curve::deserialize: bad tag byte"}}) {
    auto bad = ct_bytes;
    bad[first + element * 65] = 9;
    bad.push_back(0);
    expect_error([&] { (void)deserialize_mrqed_ciphertext(e_, bad); }, what);
  }
  auto trailing = ct_bytes;
  trailing.push_back(0);
  expect_error([&] { (void)deserialize_mrqed_ciphertext(e_, trailing); },
               "mrqed ciphertext: trailing bytes");
  // Key: u32 dims, u32 nodes, then per node level u32, index u64 and ten
  // points. Point 9 of node 0 is bad; the key is then cut short.
  auto bad_key = key_bytes;
  bad_key[8 + 12 + 9 * 65] = 9;
  bad_key.pop_back();
  expect_error([&] { (void)deserialize_mrqed_key(e_, bad_key); },
               "Curve::deserialize: bad tag byte");
  // Public key: the G_T value omega comes first.
  auto bad_pk = pk_bytes;
  bad_pk[0] = 9;
  bad_pk.pop_back();
  expect_error([&] { (void)deserialize_mrqed_public_key(e_, bad_pk); },
               "gt_deserialize: bad tag");
}

TEST_F(MrqedTest, ArityValidation) {
  EXPECT_THROW((void)scheme_.encrypt(pk_, {1, 2}, rng_),
               std::invalid_argument);
  EXPECT_THROW((void)scheme_.gen_key(pk_, msk_, {{0, 1}}, rng_),
               std::invalid_argument);
  EXPECT_THROW(Mrqed(e_, 0, 4), std::invalid_argument);
}

}  // namespace
}  // namespace apks
