// Multi-pairing and SIMD lane-engine tests.
//
// Two contracts are checked here:
//   1. Algebra: multi_miller (+ one final_exp) equals the product of
//      individual pairings, for raw and preprocessed inputs, including the
//      degenerate cases (N = 0/1, infinity on either side).
//   2. Bit-identity: every lane engine produces canonical residues equal —
//      limb for limb — to the scalar reference at every operation, so the
//      BlockMultiPairing scan kernel returns byte-identical GT values no
//      matter which engine serves it. SIMD engines are exercised only when
//      the running CPU supports them (simd_level_detected()).
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "math/fp_lanes.h"
#include "pairing/pairing.h"
#include "pairing/pairing_block.h"

namespace apks {
namespace {

class MultiPairingTest : public ::testing::Test {
 protected:
  MultiPairingTest() : e_(default_type_a_params()), rng_("multi-pairing") {}

  std::vector<MillerPair> random_pairs(std::size_t n) {
    std::vector<MillerPair> ps(n);
    for (auto& pr : ps) {
      pr.p = e_.curve().random_point(rng_);
      pr.q = e_.curve().random_point(rng_);
    }
    return ps;
  }

  GtEl product_of_pairs(std::span<const MillerPair> ps) {
    GtEl acc = e_.fp2().one();
    for (const MillerPair& pr : ps) {
      acc = e_.gt_mul(acc, e_.pair(pr.p, pr.q));
    }
    return acc;
  }

  Pairing e_;
  ChaChaRng rng_;
};

TEST_F(MultiPairingTest, EqualsProductOfPairings) {
  for (const std::size_t n : {2u, 5u, 13u}) {
    const auto ps = random_pairs(n);
    const GtEl multi = e_.final_exp(e_.multi_miller(ps));
    EXPECT_EQ(multi, product_of_pairs(ps));
  }
}

TEST_F(MultiPairingTest, EmptyProductIsOne) {
  EXPECT_TRUE(
      e_.gt_is_one(e_.final_exp(e_.multi_miller(std::span<const MillerPair>{}))));
}

TEST_F(MultiPairingTest, SingletonEqualsPair) {
  const auto ps = random_pairs(1);
  EXPECT_EQ(e_.final_exp(e_.multi_miller(ps)), e_.pair(ps[0].p, ps[0].q));
}

TEST_F(MultiPairingTest, InfinitySlotsContributeOne) {
  auto ps = random_pairs(4);
  ps[1].p = AffinePoint::infinity();
  ps[3].q = AffinePoint::infinity();
  EXPECT_EQ(e_.final_exp(e_.multi_miller(ps)), product_of_pairs(ps));
  // All slots degenerate -> 1.
  for (auto& pr : ps) pr.q = AffinePoint::infinity();
  EXPECT_TRUE(e_.gt_is_one(e_.final_exp(e_.multi_miller(ps))));
}

TEST_F(MultiPairingTest, PreprocessedEqualsPairWithProduct) {
  const std::size_t n = 6;
  std::vector<PreprocessedPairing> pres;
  std::vector<AffinePoint> qs(n);
  pres.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    pres.push_back(e_.preprocess(e_.curve().random_point(rng_)));
    qs[s] = e_.curve().random_point(rng_);
  }
  qs[2] = AffinePoint::infinity();  // degenerate record slot
  GtEl expect = e_.fp2().one();
  for (std::size_t s = 0; s < n; ++s) {
    expect = e_.gt_mul(expect, pres[s].pair_with(qs[s]));
  }
  EXPECT_EQ(e_.final_exp(e_.multi_miller_pre(pres, qs)), expect);
}

TEST_F(MultiPairingTest, PreprocessedInfinitySlotIsInert) {
  std::vector<PreprocessedPairing> pres;
  pres.push_back(e_.preprocess(e_.curve().random_point(rng_)));
  pres.push_back(e_.preprocess(AffinePoint::infinity()));
  const std::array<AffinePoint, 2> qs = {e_.curve().random_point(rng_),
                                         e_.curve().random_point(rng_)};
  EXPECT_EQ(e_.final_exp(e_.multi_miller_pre(pres, qs)),
            pres[0].pair_with(qs[0]));
}

TEST_F(MultiPairingTest, CountsMillerPerSlotAndOneMultiMiller) {
  const auto c0 = e_.op_counts();
  const auto ps = random_pairs(5);
  (void)e_.final_exp(e_.multi_miller(ps));
  const auto d = e_.op_counts() - c0;
  EXPECT_EQ(d.miller, 5u);
  EXPECT_EQ(d.multi_miller, 1u);
  EXPECT_EQ(d.final_exp, 1u);
}

// --- BlockMultiPairing: the lane-parallel scan kernel --------------------

class PairingBlockTest : public MultiPairingTest {
 protected:
  // dim preprocessed P-slots plus `records` random Q-vectors, evaluated
  // (a) record-at-a-time through the scalar path and (b) through a kernel.
  struct Fixture {
    std::vector<PreprocessedPairing> pres;
    std::vector<std::vector<AffinePoint>> qrows;
    std::vector<const AffinePoint*> qvecs;
  };

  Fixture make_fixture(std::size_t dim, std::size_t records) {
    Fixture f;
    f.pres.reserve(dim);
    for (std::size_t s = 0; s < dim; ++s) {
      f.pres.push_back(e_.preprocess(e_.curve().random_point(rng_)));
    }
    f.qrows.resize(records);
    for (auto& row : f.qrows) {
      row.resize(dim);
      for (auto& q : row) q = e_.curve().random_point(rng_);
    }
    for (const auto& row : f.qrows) f.qvecs.push_back(row.data());
    return f;
  }

  std::vector<GtEl> scalar_reference(const Fixture& f) {
    std::vector<GtEl> out(f.qvecs.size());
    for (std::size_t r = 0; r < f.qvecs.size(); ++r) {
      out[r] = e_.final_exp(e_.multi_miller_pre(
          f.pres, std::span<const AffinePoint>(f.qvecs[r], f.pres.size())));
    }
    return out;
  }
};

TEST_F(PairingBlockTest, KernelMatchesScalarReference) {
  auto f = make_fixture(/*dim=*/5, /*records=*/11);
  const auto expect = scalar_reference(f);
  const BlockMultiPairing kernel(e_, f.pres);
  std::vector<GtEl> out(f.qvecs.size());
  kernel.run(f.qvecs.data(), f.qvecs.size(), out.data());
  for (std::size_t r = 0; r < out.size(); ++r) {
    EXPECT_EQ(out[r], expect[r]) << "record " << r << " via "
                                 << kernel.engine_name();
  }
}

TEST_F(PairingBlockTest, ScalarAndSimdKernelsBitIdentical) {
  auto f = make_fixture(/*dim=*/4, /*records=*/9);
  const BlockMultiPairing scalar_kernel(e_, f.pres, SimdLevel::kScalar);
  std::vector<GtEl> base(f.qvecs.size());
  scalar_kernel.run(f.qvecs.data(), f.qvecs.size(), base.data());
  for (const SimdLevel lvl : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (simd_level_detected() < lvl) continue;
    const BlockMultiPairing kernel(e_, f.pres, lvl);
    if (kernel.engine_level() != lvl) continue;  // built without ISA support
    std::vector<GtEl> out(f.qvecs.size());
    kernel.run(f.qvecs.data(), f.qvecs.size(), out.data());
    for (std::size_t r = 0; r < out.size(); ++r) {
      EXPECT_EQ(out[r], base[r]) << "record " << r << " via "
                                 << kernel.engine_name();
    }
  }
}

TEST_F(PairingBlockTest, InfinityRecordsFallBackCorrectly) {
  auto f = make_fixture(/*dim=*/3, /*records=*/6);
  f.qrows[1][2] = AffinePoint::infinity();  // poisons record 1's chunk
  f.qrows[4][0] = AffinePoint::infinity();
  const auto expect = scalar_reference(f);
  const BlockMultiPairing kernel(e_, f.pres);
  std::vector<GtEl> out(f.qvecs.size());
  kernel.run(f.qvecs.data(), f.qvecs.size(), out.data());
  for (std::size_t r = 0; r < out.size(); ++r) {
    EXPECT_EQ(out[r], expect[r]) << "record " << r;
  }
}

TEST_F(PairingBlockTest, InfinityPSlotIsInert) {
  auto f = make_fixture(/*dim=*/3, /*records=*/5);
  f.pres[1] = e_.preprocess(AffinePoint::infinity());
  const auto expect = scalar_reference(f);
  const BlockMultiPairing kernel(e_, f.pres);
  std::vector<GtEl> out(f.qvecs.size());
  kernel.run(f.qvecs.data(), f.qvecs.size(), out.data());
  for (std::size_t r = 0; r < out.size(); ++r) {
    EXPECT_EQ(out[r], expect[r]) << "record " << r;
  }
}

// Poisoned records run as passes of their own and their neighbours fill
// partial passes, on every engine: poison first and last in a lane chunk,
// two poisoned records in a row, a record that is all infinity and an
// infinity Q over an infinity P.
TEST_F(PairingBlockTest, InfinityRecordsBitIdenticalOnEveryEngine) {
  auto f = make_fixture(/*dim=*/4, /*records=*/19);
  f.pres[3] = e_.preprocess(AffinePoint::infinity());
  f.qrows[0][1] = AffinePoint::infinity();
  f.qrows[7][0] = AffinePoint::infinity();
  f.qrows[8][2] = AffinePoint::infinity();
  f.qrows[8][3] = AffinePoint::infinity();
  for (auto& q : f.qrows[13]) q = AffinePoint::infinity();
  f.qrows[18][1] = AffinePoint::infinity();
  const auto expect = scalar_reference(f);
  EXPECT_TRUE(e_.gt_is_one(expect[13]));
  for (const SimdLevel lvl :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (simd_level_detected() < lvl) continue;
    const BlockMultiPairing kernel(e_, f.pres, lvl);
    if (kernel.engine_level() != lvl) continue;  // built without ISA support
    std::vector<GtEl> out(f.qvecs.size());
    const auto c0 = e_.op_counts();
    kernel.run(f.qvecs.data(), f.qvecs.size(), out.data());
    const auto d = e_.op_counts() - c0;
    EXPECT_EQ(d.miller, f.qvecs.size() * f.pres.size());
    EXPECT_EQ(d.multi_miller, f.qvecs.size());
    EXPECT_EQ(d.final_exp, f.qvecs.size());
    for (std::size_t r = 0; r < out.size(); ++r) {
      EXPECT_EQ(out[r], expect[r]) << "record " << r << " via "
                                   << kernel.engine_name();
    }
  }
}

TEST_F(PairingBlockTest, BlocksOfOneMatchScalarReference) {
  auto f = make_fixture(/*dim=*/3, /*records=*/3);
  f.qrows[2][0] = AffinePoint::infinity();
  const auto expect = scalar_reference(f);
  const BlockMultiPairing kernel(e_, f.pres);
  EXPECT_EQ(kernel.dim(), 3u);
  EXPECT_EQ(kernel.line_count(), f.pres[0].line_count());
  for (std::size_t r = 0; r < f.qvecs.size(); ++r) {
    GtEl out{};
    kernel.run(&f.qvecs[r], 1, &out);
    EXPECT_EQ(out, expect[r]) << "record " << r << " via "
                              << kernel.engine_name();
  }
}

TEST_F(PairingBlockTest, EveryPAtInfinityGivesOne) {
  auto f = make_fixture(/*dim=*/2, /*records=*/3);
  for (auto& pre : f.pres) pre = e_.preprocess(AffinePoint::infinity());
  const BlockMultiPairing kernel(e_, f.pres);
  EXPECT_EQ(kernel.dim(), 2u);
  EXPECT_EQ(kernel.line_count(), 0u);
  std::vector<GtEl> out(f.qvecs.size());
  kernel.run(f.qvecs.data(), f.qvecs.size(), out.data());
  for (const GtEl& v : out) EXPECT_TRUE(e_.gt_is_one(v));
}

TEST_F(PairingBlockTest, CountsAreEngineInvariant) {
  auto f = make_fixture(/*dim=*/4, /*records=*/10);
  const BlockMultiPairing scalar_kernel(e_, f.pres, SimdLevel::kScalar);
  auto c0 = e_.op_counts();
  std::vector<GtEl> out(f.qvecs.size());
  scalar_kernel.run(f.qvecs.data(), f.qvecs.size(), out.data());
  const auto scalar_d = e_.op_counts() - c0;
  EXPECT_EQ(scalar_d.miller, f.qvecs.size() * f.pres.size());
  EXPECT_EQ(scalar_d.multi_miller, f.qvecs.size());
  EXPECT_EQ(scalar_d.final_exp, f.qvecs.size());

  const BlockMultiPairing kernel(e_, f.pres);
  c0 = e_.op_counts();
  kernel.run(f.qvecs.data(), f.qvecs.size(), out.data());
  const auto simd_d = e_.op_counts() - c0;
  EXPECT_EQ(simd_d, scalar_d) << "via " << kernel.engine_name();
}

// --- FpLaneEngine: cross-engine bit-identity -----------------------------

class FpLanesTest : public ::testing::Test {
 protected:
  FpLanesTest()
      : field_(default_type_a_params().p), rng_("fp-lanes-test") {}

  std::vector<LaneFp> random_values(std::size_t n) {
    std::vector<LaneFp> v(n);
    for (auto& x : v) x = field_.random(rng_);
    return v;
  }

  LaneField field_;
  ChaChaRng rng_;
};

TEST_F(FpLanesTest, ScalarEngineMatchesFieldOps) {
  const auto eng = make_fp_lane_engine(field_, SimdLevel::kScalar);
  ASSERT_EQ(eng->level(), SimdLevel::kScalar);
  const std::size_t w = eng->width();
  const auto a = random_values(w);
  const auto b = random_values(w);
  FpLaneVec va, vb, vr;
  eng->load(va, a.data(), w);
  eng->load(vb, b.data(), w);
  std::vector<LaneFp> r(w);
  eng->mul(vr, va, vb);
  eng->store(r.data(), vr, w);
  for (std::size_t l = 0; l < w; ++l) EXPECT_EQ(r[l], field_.mul(a[l], b[l]));
  eng->add(vr, va, vb);
  eng->store(r.data(), vr, w);
  for (std::size_t l = 0; l < w; ++l) EXPECT_EQ(r[l], field_.add(a[l], b[l]));
  eng->sub(vr, va, vb);
  eng->store(r.data(), vr, w);
  for (std::size_t l = 0; l < w; ++l) EXPECT_EQ(r[l], field_.sub(a[l], b[l]));
}

TEST_F(FpLanesTest, SimdEnginesBitIdenticalToScalar) {
  for (const SimdLevel lvl : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (simd_level_detected() < lvl) continue;
    const auto eng = make_fp_lane_engine(field_, lvl);
    if (eng->level() != lvl) continue;  // built without ISA support
    const std::size_t w = eng->width();
    // Edge values in the first lanes, random fill behind them.
    for (int round = 0; round < 25; ++round) {
      auto a = random_values(w);
      auto b = random_values(w);
      if (round == 0 && w >= 3) {
        a[0] = field_.zero();
        b[0] = field_.zero();
        a[1] = field_.one();
        b[2] = field_.neg(field_.one());  // p - R mod p: near-modulus limbs
      }
      FpLaneVec va, vb, vr;
      eng->load(va, a.data(), w);
      eng->load(vb, b.data(), w);
      std::vector<LaneFp> r(w);
      eng->mul(vr, va, vb);
      eng->store(r.data(), vr, w);
      for (std::size_t l = 0; l < w; ++l) {
        EXPECT_EQ(r[l], field_.mul(a[l], b[l])) << eng->name() << " mul";
      }
      eng->add(vr, va, vb);
      eng->store(r.data(), vr, w);
      for (std::size_t l = 0; l < w; ++l) {
        EXPECT_EQ(r[l], field_.add(a[l], b[l])) << eng->name() << " add";
      }
      eng->sub(vr, va, vb);
      eng->store(r.data(), vr, w);
      for (std::size_t l = 0; l < w; ++l) {
        EXPECT_EQ(r[l], field_.sub(a[l], b[l])) << eng->name() << " sub";
      }
    }
  }
}

TEST_F(FpLanesTest, BatchSqrtBitIdenticalToFieldSqrtOnEveryEngine) {
  // Squares (roots exist), random values (about half non-residues), zero,
  // in batch sizes that leave partial lane chunks on both widths.
  for (const SimdLevel lvl :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (simd_level_detected() < lvl) continue;
    const auto eng = make_fp_lane_engine(field_, lvl);
    if (eng->level() != lvl) continue;
    for (const std::size_t n : {1u, 3u, 8u, 13u}) {
      auto a = random_values(n);
      for (std::size_t i = 0; i < n; i += 2) a[i] = field_.sqr(a[i]);
      a[n - 1] = field_.zero();
      std::vector<LaneFp> out(n);
      std::array<bool, 13> ok{};
      batch_sqrt(*eng, field_, a, out, {ok.data(), n});
      for (std::size_t i = 0; i < n; ++i) {
        LaneFp want;
        const bool want_ok = field_.sqrt(a[i], want);
        EXPECT_EQ(ok[i], want_ok) << eng->name() << " n=" << n << " i=" << i;
        if (want_ok) {
          EXPECT_EQ(out[i], want) << eng->name();
        }
      }
    }
  }
}

TEST_F(FpLanesTest, BroadcastMatchesLoad) {
  for (const SimdLevel lvl :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (simd_level_detected() < lvl) continue;
    const auto eng = make_fp_lane_engine(field_, lvl);
    if (eng->level() != lvl) continue;
    const std::size_t w = eng->width();
    const LaneFp v = field_.random(rng_);
    FpLaneScalar s;
    eng->to_scalar(s, v);
    FpLaneVec vb;
    eng->broadcast(vb, s);
    // A broadcast lane must store back the exact canonical value, and
    // multiply like a loaded lane.
    std::vector<LaneFp> r(w);
    eng->store(r.data(), vb, w);
    for (std::size_t l = 0; l < w; ++l) EXPECT_EQ(r[l], v) << eng->name();
    const auto m = random_values(w);
    FpLaneVec vm, vr;
    eng->load(vm, m.data(), w);
    eng->mul(vr, vb, vm);
    eng->store(r.data(), vr, w);
    for (std::size_t l = 0; l < w; ++l) {
      EXPECT_EQ(r[l], field_.mul(v, m[l])) << eng->name();
    }
  }
}

TEST_F(FpLanesTest, PartialLoadLeavesTailZero) {
  const auto eng = make_fp_lane_engine(field_);
  const std::size_t w = eng->width();
  if (w < 2) GTEST_SKIP();
  const auto a = random_values(w - 1);
  FpLaneVec va;
  eng->load(va, a.data(), w - 1);
  std::vector<LaneFp> r(w);
  eng->store(r.data(), va, w);
  for (std::size_t l = 0; l + 1 < w; ++l) EXPECT_EQ(r[l], a[l]);
  EXPECT_TRUE(r[w - 1].is_zero());
}

}  // namespace
}  // namespace apks
