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
#include <numeric>
#include <string>
#include <vector>

#include "common/hex.h"
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

// --- The Miller schedule and GT known answers ---------------------------

TEST_F(MultiPairingTest, MillerDigitsAreTheNafOfQ) {
  const std::span<const std::int8_t> naf = e_.miller_digits();
  ASSERT_FALSE(naf.empty());
  EXPECT_EQ(naf.back(), 1);
  FqInt pos, neg;
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < naf.size(); ++i) {
    ASSERT_GE(naf[i], -1);
    ASSERT_LE(naf[i], 1);
    if (naf[i] == 0) continue;
    ++nonzero;
    if (i + 1 < naf.size()) {
      EXPECT_EQ(naf[i + 1], 0) << "adjacent nonzero digits at " << i;
    }
    (naf[i] > 0 ? pos : neg).set_bit(i);
  }
  EXPECT_EQ(pos - neg, e_.curve().params().q);
  // q has 81 one-bits and 59 nonzero NAF digits over 161 positions: 160
  // doubling lines and 58 addition lines, against 239 for the binary loop.
  EXPECT_EQ(nonzero, 59u);
  EXPECT_EQ(naf.size(), 161u);
  EXPECT_EQ(e_.preprocess(e_.curve().random_point(rng_)).line_count(), 218u);
  EXPECT_EQ(e_.preprocess(AffinePoint::infinity()).line_count(), 0u);
}

std::string gt_hex(const Pairing& e, const GtEl& v) {
  std::array<std::uint8_t, Pairing::kGtCompressedSize> buf{};
  e.gt_serialize(v, buf);
  return hex_encode(buf);
}

// Values serialized by the binary (bit-by-bit) Miller loop this schedule
// replaced: the reduced pairing must not move by one byte.
constexpr const char* kEggHex =
    "036e86b514340dd57771700560b7c4533dadf0f9f03a5c5ecf6e211b9546be6eb4"
    "899a3746dcae19c6f291c25294851c7172f69983820018e70cbb0f74d5ff3050";
constexpr const char* kMulti13Hex =
    "026d27368a0bac9902ec7329ce55d4e05a67a971f2f1da7e6317139e001f04bce0"
    "32912b329b3b0b56865834c031dd2236489f88820c2cffe37ec7edecf1931a7a";

TEST_F(PairingBlockTest, GtKnownAnswersHoldOnEveryPath) {
  EXPECT_EQ(gt_hex(e_, e_.gt_generator()), kEggHex);
  const AffinePoint& g = e_.curve().generator();
  EXPECT_EQ(gt_hex(e_, e_.pair(g, g)), kEggHex);
  EXPECT_EQ(gt_hex(e_, e_.preprocess(g).pair_with(g)), kEggHex);

  ChaChaRng rng("gt-known-answer");
  std::vector<PreprocessedPairing> pres;
  std::vector<MillerPair> pairs(13);
  std::vector<AffinePoint> qs(13);
  for (std::size_t s = 0; s < 13; ++s) {
    pairs[s].p = e_.curve().random_point(rng);
    pres.push_back(e_.preprocess(pairs[s].p));
    qs[s] = pairs[s].q = e_.curve().random_point(rng);
  }
  EXPECT_EQ(gt_hex(e_, e_.final_exp(e_.multi_miller_pre(pres, qs))),
            kMulti13Hex);
  EXPECT_EQ(gt_hex(e_, e_.final_exp(e_.multi_miller(pairs))), kMulti13Hex);
  const AffinePoint* qvec = qs.data();
  for (const SimdLevel lvl :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (simd_level_detected() < lvl) continue;
    const BlockMultiPairing kernel(e_, pres, lvl);
    if (kernel.engine_level() != lvl) continue;  // built without ISA support
    GtEl out{};
    kernel.run(&qvec, 1, &out);
    EXPECT_EQ(gt_hex(e_, out), kMulti13Hex) << kernel.engine_name();
  }
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

// One miller_step input: per-lane values of f and of each slot's Q, the
// slot lines, their one-flags, the live slots and the loaded lane count.
struct StepCase {
  static constexpr std::size_t kSlots = 3;
  std::array<LaneFp, kMaxLaneWidth> fa{}, fb{};
  std::array<std::array<LaneFp, kMaxLaneWidth>, kSlots> qx{}, qy{};
  std::array<LaneFp, kSlots> la{}, lb{};
  std::array<std::uint8_t, kSlots> one{};
  std::vector<std::size_t> live;
  bool square = true;
  std::size_t lanes = kMaxLaneWidth;
};

// Runs the case on `eng` (fused when `fused`, else the base-class op
// sequence) and returns f's lanes and those of -f: fa, fb, -fa, -fb.
std::vector<LaneFp> run_step(const FpLaneEngine& eng, const StepCase& c,
                             bool fused) {
  const std::size_t n = std::min(c.lanes, eng.width());
  FpLaneVec fa, fb;
  std::array<FpLaneVec, StepCase::kSlots> qx, qy;
  std::array<LaneLine, StepCase::kSlots> lines{};
  eng.load(fa, c.fa.data(), n);
  eng.load(fb, c.fb.data(), n);
  for (std::size_t a = 0; a < StepCase::kSlots; ++a) {
    eng.load(qx[a], c.qx[a].data(), n);
    eng.load(qy[a], c.qy[a].data(), n);
    eng.to_scalar(lines[a].a, c.la[a]);
    eng.to_scalar(lines[a].b, c.lb[a]);
  }
  const MillerStepLines step{lines.data(), c.one.data()};
  if (fused) {
    eng.miller_step(fa, fb, c.square, step, qx.data(), qy.data(), c.live);
  } else {
    eng.FpLaneEngine::miller_step(fa, fb, c.square, step, qx.data(),
                                  qy.data(), c.live);
  }
  // Negation reads its input as canonical (a wider value wraps), so f's
  // negatives show a non-canonical result even though store() reduces.
  FpLaneVec zero, na, nb;
  eng.load(zero, nullptr, 0);
  eng.sub(na, zero, fa);
  eng.sub(nb, zero, fb);
  std::vector<LaneFp> out(4 * n);
  eng.store(out.data(), fa, n);
  eng.store(out.data() + n, fb, n);
  eng.store(out.data() + 2 * n, na, n);
  eng.store(out.data() + 3 * n, nb, n);
  return out;
}

// The fused Miller step of every engine against the op-by-op base-class
// sequence and against the scalar engine. Besides random values, every lane
// of fa, fb, qx, qy and the line coefficients takes 0, 1 and p - 1, both as
// Montgomery inputs and as the values that land on 1 and p - 1 in the
// AVX-512 engine's shifted domain: the extremes of its lazy bounds.
TEST_F(FpLanesTest, MillerStepBitIdenticalToBaseSequenceOnEveryEngine) {
  const LaneFp p = field_.modulus();
  LaneFp raw_one = LaneFp::zero();
  raw_one.w[0] = 1;
  const LaneFp p_minus_1 = p - raw_one;
  // w = v * 2^8 mod p in the AVX-512 domain: v = 2^-8 lands on 1.
  const LaneFp shift_one = field_.to_int(field_.inv(field_.from_u64(256)));
  const std::vector<LaneFp> extremes = {
      field_.zero(), raw_one,   field_.one(), p_minus_1, shift_one,
      p - shift_one, p - field_.one()};

  std::vector<StepCase> cases;
  const auto fill = [&](const auto& pick) {
    StepCase c;
    for (std::size_t l = 0; l < kMaxLaneWidth; ++l) {
      c.fa[l] = pick();
      c.fb[l] = pick();
      for (std::size_t a = 0; a < StepCase::kSlots; ++a) {
        c.qx[a][l] = pick();
        c.qy[a][l] = pick();
      }
    }
    for (std::size_t a = 0; a < StepCase::kSlots; ++a) {
      c.la[a] = pick();
      c.lb[a] = pick();
    }
    c.live = {0, 1, 2};
    return c;
  };
  const auto random_pick = [&] { return field_.random(rng_); };
  const auto extreme_pick = [&] {
    return extremes[rng_.next_below(extremes.size())];
  };
  // One extreme everywhere, squaring on and off.
  for (const LaneFp& x : extremes) {
    for (const bool square : {true, false}) {
      StepCase c = fill([&] { return x; });
      c.square = square;
      cases.push_back(c);
    }
  }
  // Extremes and random values mixed per lane, with one-lines, live
  // subsets (the empty set included) and partial lane passes.
  for (int round = 0; round < 120; ++round) {
    StepCase c = round % 2 == 0 ? fill(extreme_pick) : fill([&] {
      return rng_.next_below(3) == 0 ? extreme_pick() : random_pick();
    });
    c.square = rng_.next_below(2) == 0;
    for (auto& f : c.one) f = rng_.next_below(4) == 0 ? 1 : 0;
    if (round % 5 == 1) c.live = {2, 0};
    if (round % 7 == 3) c.live.clear();
    if (round % 3 == 2) c.lanes = 1 + rng_.next_below(kMaxLaneWidth - 1);
    cases.push_back(c);
  }

  const auto scalar = make_fp_lane_engine(field_, SimdLevel::kScalar);
  for (const SimdLevel lvl :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (simd_level_detected() < lvl) continue;
    const auto eng = make_fp_lane_engine(field_, lvl);
    if (eng->level() != lvl) continue;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const std::vector<LaneFp> base = run_step(*eng, cases[i], false);
      const std::vector<LaneFp> fused = run_step(*eng, cases[i], true);
      StepCase narrow = cases[i];
      narrow.lanes = std::min(narrow.lanes, eng->width());
      EXPECT_EQ(fused, base) << eng->name() << " case " << i;
      EXPECT_EQ(fused, run_step(*scalar, narrow, false))
          << eng->name() << " case " << i;
      for (const LaneFp& v : fused) {
        EXPECT_LT(v, p) << eng->name() << " case " << i << " not canonical";
      }
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
