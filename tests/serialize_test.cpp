// Round-trip tests for HPE wire encodings, plus checks that serialized
// object sizes follow the paper's element-count formulas.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "hpe/serialize.h"
#include "scalar_decode.h"

namespace apks {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 3;
  SerializeTest()
      : e_(default_type_a_params()), hpe_(e_, kN), rng_("serialize-test") {
    hpe_.setup(rng_, pk_, msk_);
  }

  std::vector<Fq> random_vec() {
    std::vector<Fq> v(kN);
    for (auto& c : v) c = e_.fq().random(rng_);
    return v;
  }

  Pairing e_;
  Hpe hpe_;
  ChaChaRng rng_;
  HpePublicKey pk_;
  HpeMasterKey msk_;
};

TEST_F(SerializeTest, FqRoundTrip) {
  for (int i = 0; i < 20; ++i) {
    const Fq v = e_.fq().random(rng_);
    ByteWriter w;
    write_fq(e_.fq(), v, w);
    EXPECT_EQ(w.size(), 20u);  // the paper's 20-byte scalars
    const auto data = w.take();
    ByteReader r(data);
    EXPECT_EQ(read_fq(e_.fq(), r), v);
  }
}

TEST_F(SerializeTest, PointRoundTripIncludingInfinity) {
  ByteWriter w;
  write_point(e_.curve(), AffinePoint::infinity(), w);
  const auto p = e_.curve().random_point(rng_);
  write_point(e_.curve(), p, w);
  const auto data = w.take();
  ByteReader r(data);
  EXPECT_TRUE(read_point(e_.curve(), r).inf);
  EXPECT_EQ(read_point(e_.curve(), r), p);
}

TEST_F(SerializeTest, CiphertextRoundTripAndSize) {
  const auto ct = hpe_.encrypt(pk_, random_vec(), e_.gt_random(rng_), rng_);
  const auto data = serialize_ciphertext(e_, ct);
  const auto back = deserialize_ciphertext(e_, data);
  EXPECT_EQ(back.c1, ct.c1);
  EXPECT_EQ(back.c2, ct.c2);
  // Paper: 65(n0 + 1) payload bytes; we add a 4-byte length header.
  const std::size_t n0 = kN + 3;
  EXPECT_EQ(data.size(), 65 * (n0 + 1) + 4);
}

TEST_F(SerializeTest, KeyRoundTripAndLevelGrowth) {
  const auto v = random_vec();
  const auto key = hpe_.gen_key(msk_, v, rng_);
  const auto data = serialize_key(e_, key);
  const auto back = deserialize_key(e_, data);
  EXPECT_EQ(back.level, key.level);
  EXPECT_EQ(back.dec, key.dec);
  EXPECT_EQ(back.ran.size(), key.ran.size());
  EXPECT_EQ(back.del.size(), key.del.size());
  for (std::size_t i = 0; i < key.del.size(); ++i) {
    EXPECT_EQ(back.del[i], key.del[i]);
  }

  // A delegated key is strictly larger (one more randomizer).
  const auto child = hpe_.delegate(key, random_vec(), rng_);
  EXPECT_GT(serialize_key(e_, child).size(), data.size());
}

TEST_F(SerializeTest, DeserializedKeyStillDecrypts) {
  // v = (1, t, 0) ⊥ x = (-t, 1, 0).
  const Fq t = e_.fq().random(rng_);
  std::vector<Fq> v{e_.fq().one(), t, e_.fq().zero()};
  std::vector<Fq> x{e_.fq().neg(t), e_.fq().one(), e_.fq().zero()};
  const auto key = hpe_.gen_key(msk_, v, rng_);
  const GtEl msg = e_.gt_random(rng_);
  const auto ct = hpe_.encrypt(pk_, x, msg, rng_);
  const auto key2 = deserialize_key(e_, serialize_key(e_, key));
  const auto ct2 = deserialize_ciphertext(e_, serialize_ciphertext(e_, ct));
  EXPECT_EQ(hpe_.decrypt(ct2, key2), msg);
}

TEST_F(SerializeTest, PublicKeyRoundTrip) {
  const auto data = serialize_public_key(e_, pk_);
  const auto back = deserialize_public_key(e_, data);
  EXPECT_EQ(back.n, pk_.n);
  ASSERT_EQ(back.bhat.size(), pk_.bhat.size());
  for (std::size_t i = 0; i < pk_.bhat.size(); ++i) {
    EXPECT_EQ(back.bhat[i], pk_.bhat[i]);
  }
}

TEST_F(SerializeTest, MasterKeyRoundTrip) {
  const auto data = serialize_master_key(e_, msk_);
  const auto back = deserialize_master_key(e_, data);
  EXPECT_EQ(back.x, msk_.x);
  ASSERT_EQ(back.bstar.size(), msk_.bstar.size());
  for (std::size_t i = 0; i < msk_.bstar.size(); ++i) {
    EXPECT_EQ(back.bstar[i], msk_.bstar[i]);
  }
}

TEST_F(SerializeTest, TruncatedInputsRejected) {
  const auto ct = hpe_.encrypt(pk_, random_vec(), e_.gt_random(rng_), rng_);
  auto data = serialize_ciphertext(e_, ct);
  data.pop_back();
  EXPECT_THROW((void)deserialize_ciphertext(e_, data), std::out_of_range);
  data.push_back(0);
  data.push_back(0);  // trailing garbage
  EXPECT_THROW((void)deserialize_ciphertext(e_, data), std::invalid_argument);
}

// --- Lane-batched decode vs the one-at-a-time scalar reference -------------

using Wire = std::array<std::uint8_t, Curve::kCompressedSize>;

// The ways one compressed element can be malformed.
enum class Bad { kTag, kRange, kNoRoot, kInfinity, kNonUnitary };

// A batch of n compressed elements (every third a G_T value, every
// seventh point at infinity) with its decode destinations.
class DecodeBatch {
 public:
  DecodeBatch(const Pairing& e, ChaChaRng& rng, std::size_t n)
      : e_(&e), rng_(&rng), wire_(n), pts_(n), gts_(n), elems_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 3 == 2) {
        set_gt(i, e.gt_random(rng));
      } else {
        set_point(i, i % 7 == 6 ? AffinePoint::infinity()
                                : e.curve().random_point(rng));
      }
    }
  }

  void set_point(std::size_t i, const AffinePoint& p) {
    e_->curve().serialize(p, wire_[i]);
    elems_[i] = {wire_[i].data(), &pts_[i], nullptr};
  }
  void set_gt(std::size_t i, const GtEl& v) {
    e_->gt_serialize(v, wire_[i]);
    elems_[i] = {wire_[i].data(), nullptr, &gts_[i]};
  }

  // Makes element i malformed in the given way (switching its kind when
  // the malformation needs it).
  void corrupt(std::size_t i, Bad bad) {
    const FpField& fp = e_->fp();
    // A plain x whose radicand (x^3 + x, or 1 - x^2 for G_T) has no root.
    const auto rootless = [&](bool gt) {
      for (;;) {
        const Fp x = fp.random(*rng_);
        const Fp rad = gt ? fp.sub(fp.one(), fp.sqr(x))
                          : fp.add(fp.mul(fp.sqr(x), x), x);
        if (fp.legendre(rad) == -1) return fp.to_int(x);
      }
    };
    switch (bad) {
      case Bad::kTag:
        wire_[i][0] = 9;
        return;
      case Bad::kRange:
        wire_[i][0] = 2;
        std::fill(wire_[i].begin() + 1, wire_[i].end(), std::uint8_t{0xFF});
        return;
      case Bad::kNoRoot:
        set_point(i, e_->curve().generator());
        rootless(false).to_bytes(std::span<std::uint8_t, 64>(wire_[i].data() + 1, 64));
        return;
      case Bad::kInfinity:
        set_point(i, AffinePoint::infinity());
        wire_[i][40] = 1;
        return;
      case Bad::kNonUnitary:
        set_gt(i, e_->gt_generator());
        rootless(true).to_bytes(std::span<std::uint8_t, 64>(wire_[i].data() + 1, 64));
        return;
    }
  }

  [[nodiscard]] const std::vector<CompressedElement>& elems() const {
    return elems_;
  }
  [[nodiscard]] const std::vector<AffinePoint>& points() const { return pts_; }
  [[nodiscard]] const std::vector<GtEl>& gts() const { return gts_; }

 private:
  const Pairing* e_;
  ChaChaRng* rng_;
  std::vector<Wire> wire_;
  std::vector<AffinePoint> pts_;
  std::vector<GtEl> gts_;
  std::vector<CompressedElement> elems_;
};

TEST_F(SerializeTest, BatchedDecodeMatchesScalarReference) {
  const Curve& curve = e_.curve();
  for (const std::size_t n : {1u, 7u, 8u, 9u, 14u, 170u}) {
    DecodeBatch batch(e_, rng_, n);
    curve.decode_batch(batch.elems());
    for (std::size_t i = 0; i < n; ++i) {
      const CompressedElement& el = batch.elems()[i];
      if (el.point != nullptr) {
        EXPECT_EQ(batch.points()[i], scalar_decode_point(curve, el.bytes))
            << "n=" << n << " i=" << i;
      } else {
        EXPECT_EQ(batch.gts()[i], scalar_decode_gt(curve, el.bytes))
            << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST_F(SerializeTest, HostileElementGivesScalarErrorInEveryLane) {
  // Lane 0, a middle lane, lane 7, and the partial second chunk of 14.
  for (const Bad bad : {Bad::kTag, Bad::kRange, Bad::kNoRoot, Bad::kInfinity,
                        Bad::kNonUnitary}) {
    for (const std::size_t at : {0u, 4u, 7u, 12u}) {
      DecodeBatch batch(e_, rng_, 14);
      batch.corrupt(at, bad);
      const std::string want = scalar_decode_error(e_.curve(), batch.elems());
      ASSERT_FALSE(want.empty());
      EXPECT_EQ(batch_decode_error(e_.curve(), batch.elems()), want)
          << "malformation " << static_cast<int>(bad) << " at " << at;
    }
  }
}

TEST_F(SerializeTest, FirstMalformedElementInWireOrderDecides) {
  // A costly failure (no root) before a cheap one (bad tag) in one chunk,
  // the reverse, and pairs that straddle the chunk boundary.
  const struct {
    std::size_t i;
    Bad bi;
    std::size_t j;
    Bad bj;
  } cases[] = {
      {1, Bad::kNoRoot, 5, Bad::kTag},   {1, Bad::kTag, 5, Bad::kNoRoot},
      {2, Bad::kNonUnitary, 3, Bad::kInfinity},
      {6, Bad::kInfinity, 9, Bad::kRange},
      {7, Bad::kNoRoot, 8, Bad::kTag},  {3, Bad::kRange, 13, Bad::kNonUnitary},
  };
  for (const auto& c : cases) {
    DecodeBatch batch(e_, rng_, 14);
    batch.corrupt(c.i, c.bi);
    batch.corrupt(c.j, c.bj);
    DecodeBatch alone(e_, rng_, 14);
    alone.corrupt(c.i, c.bi);
    const std::string want = scalar_decode_error(e_.curve(), alone.elems());
    EXPECT_EQ(scalar_decode_error(e_.curve(), batch.elems()), want);
    EXPECT_EQ(batch_decode_error(e_.curve(), batch.elems()), want)
        << "elements " << c.i << " and " << c.j;
  }
}

TEST_F(SerializeTest, MalformedElementOutranksLaterStructuralFault) {
  const auto ct = hpe_.encrypt(pk_, random_vec(), e_.gt_random(rng_), rng_);
  auto data = serialize_ciphertext(e_, ct);
  // Point 2 of c1 gets a bad tag, and the G_T value is cut short: a
  // one-at-a-time read fails on the tag before it reaches the cut.
  data[4 + 2 * Curve::kCompressedSize] = 9;
  data.pop_back();
  try {
    (void)deserialize_ciphertext(e_, data);
    FAIL() << "malformed ciphertext accepted";
  } catch (const std::invalid_argument& ex) {
    EXPECT_STREQ(ex.what(), "Curve::deserialize: bad tag byte");
  }
  // Without the bad tag the cut decides.
  auto fixed = serialize_ciphertext(e_, ct);
  fixed.pop_back();
  EXPECT_THROW((void)deserialize_ciphertext(e_, fixed), std::out_of_range);
}

}  // namespace
}  // namespace apks
