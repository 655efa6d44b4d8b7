// Property tests for the windowed scalar-multiplication engine
// (src/ec/fixed_base.h, src/dpvs/precomp_basis.h): every engine must be
// bit-identical to the naive sum_i k_i * P_i reference — affine coordinates
// are canonical, so group equality IS byte equality — and the cached-table
// machinery must stay within its memory budget and be safe under
// concurrent lazy builds.
#include <gtest/gtest.h>

#include <thread>

#include "dpvs/precomp_basis.h"
#include "ec/fixed_base.h"
#include "hpe/hpe.h"
#include "hpe/serialize.h"

namespace apks {
namespace {

class MsmTest : public ::testing::Test {
 protected:
  MsmTest() : e_(default_type_a_params()), rng_("msm-test") {}

  [[nodiscard]] std::vector<AffinePoint> random_points(std::size_t m) {
    std::vector<AffinePoint> pts;
    pts.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      pts.push_back(e_.curve().random_point(rng_));
    }
    return pts;
  }
  [[nodiscard]] std::vector<Fq> random_scalars(std::size_t m) {
    std::vector<Fq> ks;
    ks.reserve(m);
    for (std::size_t i = 0; i < m; ++i) ks.push_back(e_.fq().random(rng_));
    return ks;
  }
  // The definitional reference: sum of independent scalar multiplications.
  [[nodiscard]] AffinePoint reference_sum(const std::vector<AffinePoint>& pts,
                                          const std::vector<Fq>& ks) {
    AffinePoint acc = AffinePoint::infinity();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      acc = e_.curve().add(acc, e_.curve().mul_fq(pts[i], ks[i]));
    }
    return acc;
  }

  Pairing e_;
  ChaChaRng rng_;
};

TEST_F(MsmTest, WindowedMsmMatchesNaiveAndReference) {
  for (const std::size_t m : {1u, 2u, 5u, 20u}) {
    const auto pts = random_points(m);
    const auto ks = random_scalars(m);
    const AffinePoint ref = reference_sum(pts, ks);
    EXPECT_EQ(e_.curve().msm(pts, ks), ref);
    EXPECT_EQ(e_.curve().msm_naive(pts, ks), ref);
  }
}

TEST_F(MsmTest, EdgeCases) {
  const Curve& curve = e_.curve();
  const FqField& fq = e_.fq();
  // Empty input.
  EXPECT_EQ(curve.msm({}, {}), AffinePoint::infinity());
  // All-zero scalars.
  const auto pts = random_points(4);
  const std::vector<Fq> zeros(4, fq.zero());
  EXPECT_EQ(curve.msm(pts, zeros), AffinePoint::infinity());
  // Point-at-infinity entries mixed in.
  std::vector<AffinePoint> with_inf = pts;
  with_inf[1] = AffinePoint::infinity();
  with_inf[3] = AffinePoint::infinity();
  const auto ks = random_scalars(4);
  EXPECT_EQ(curve.msm(with_inf, ks), reference_sum(with_inf, ks));
  // Duplicate points (k1 P + k2 P = (k1+k2) P exercises the doubling branch
  // of the shared chain).
  const std::vector<AffinePoint> dup{pts[0], pts[0], pts[0]};
  const auto dks = random_scalars(3);
  EXPECT_EQ(curve.msm(dup, dks), reference_sum(dup, dks));
  // Mismatched sizes still throw.
  EXPECT_THROW((void)curve.msm(pts, dks), std::invalid_argument);
}

TEST_F(MsmTest, ChainHandlesScalarsAboveGroupOrder) {
  const Curve& curve = e_.curve();
  const AffinePoint p = curve.random_point(rng_);
  // q, q+3, and the all-ones 192-bit value: recoding must not assume k < q.
  std::vector<FqInt> ks{curve.fq().modulus(),
                        curve.fq().modulus() + FqInt(3)};
  FqInt ones;
  for (auto& wl : ones.w) wl = ~std::uint64_t{0};
  ks.push_back(ones);
  for (const FqInt& k : ks) {
    const AffinePoint want = curve.mul(p, k);
    for (unsigned w = WindowTables::kMinWindow; w <= WindowTables::kMaxWindow;
         ++w) {
      const WindowTables tables(curve, std::span<const AffinePoint>(&p, 1), w,
                                false);
      const RecodedScalar rk = RecodedScalar::recode(k, w);
      const ChainTerm term{&tables, 0, &rk};
      EXPECT_EQ(curve.to_affine(windowed_chain(
                    curve, std::span<const ChainTerm>(&term, 1))),
                want)
          << "window " << w;
    }
  }
}

// The fixed-base comb cuts one recoding into chunks; a signed carry that
// crosses a chunk boundary, or runs past the group order, must land.
TEST_F(MsmTest, FixedBaseCombMatchesLadder) {
  const Curve& curve = e_.curve();
  const AffinePoint p = curve.random_point(rng_);
  const FixedBaseComb comb(curve, p);
  const FqInt q = curve.fq().modulus();
  FqInt ones;
  for (auto& wl : ones.w) wl = ~std::uint64_t{0};
  FqInt low160;  // 2^160 - 1: every digit carries into the next chunk
  low160.w = {~std::uint64_t{0}, ~std::uint64_t{0}, 0xffffffffu};
  std::vector<FqInt> ks{FqInt(0), FqInt(1),  q - FqInt(1), q,
                        q + FqInt(3), ones, low160};
  for (int i = 0; i < 32; ++i) ks.push_back(curve.fq().to_int(e_.fq().random(rng_)));
  for (const FqInt& k : ks) {
    EXPECT_EQ(curve.to_affine(comb.mul(curve, k)), curve.mul(p, k))
        << to_hex(k);
  }
}

TEST_F(MsmTest, LincombEnginesAgreeOnMixedTerms) {
  const Dpvs dpvs(e_, 5);
  const FqField& fq = e_.fq();
  auto random_vec = [&] {
    GVec v;
    for (std::size_t j = 0; j < 5; ++j) {
      v.push_back(e_.curve().random_point(rng_));
    }
    return v;
  };
  std::vector<GVec> rows{random_vec(), random_vec(), random_vec()};
  const auto basis =
      PrecomputedBasis::build(dpvs, rows, PrecomputedBasis::Options{});
  ASSERT_TRUE(basis->has_tables());
  const GVec loose = random_vec();

  // Basis rows (one duplicated), a loose vector, and a zero coefficient.
  const std::vector<Dpvs::LcTerm> terms{
      {fq.random(rng_), basis.get(), 0, nullptr},
      {fq.random(rng_), basis.get(), 2, nullptr},
      {fq.random(rng_), basis.get(), 2, nullptr},
      {fq.zero(), basis.get(), 1, nullptr},
      {fq.random(rng_), nullptr, 0, &loose},
  };
  const GVec naive = dpvs.lincomb_terms(terms, ScalarEngine::kNaive);
  EXPECT_EQ(dpvs.lincomb_terms(terms, ScalarEngine::kWindowed), naive);
  EXPECT_EQ(dpvs.lincomb_terms(terms, ScalarEngine::kPrecomputed), naive);
  // Empty combination.
  EXPECT_EQ(dpvs.lincomb_terms({}, ScalarEngine::kPrecomputed),
            dpvs.zero_vec());
}

TEST_F(MsmTest, PrecomputedBasisRespectsMemoryBudget) {
  const Dpvs dpvs(e_, 4);
  std::vector<GVec> rows(3);
  for (auto& r : rows) {
    for (std::size_t j = 0; j < 4; ++j) {
      r.push_back(e_.curve().random_point(rng_));
    }
  }
  const std::size_t npts = 12;
  // A budget that admits exactly w = 3.
  PrecomputedBasis::Options opts;
  opts.max_table_bytes = WindowTables::table_bytes(npts, 3);
  const auto b3 = PrecomputedBasis::build(dpvs, rows, opts);
  ASSERT_TRUE(b3->has_tables());
  EXPECT_EQ(b3->window(), 3u);
  EXPECT_LE(b3->memory_bytes(), opts.max_table_bytes);
  // A budget below the narrowest window: no tables, lincombs still correct.
  opts.max_table_bytes = 1;
  const auto b0 = PrecomputedBasis::build(dpvs, rows, opts);
  EXPECT_FALSE(b0->has_tables());
  const std::vector<Dpvs::LcTerm> terms{
      {e_.fq().random(rng_), b0.get(), 0, nullptr},
      {e_.fq().random(rng_), b0.get(), 1, nullptr},
  };
  const std::vector<Dpvs::LcTerm> with_tables{
      {terms[0].coeff, b3.get(), 0, nullptr},
      {terms[1].coeff, b3.get(), 1, nullptr},
  };
  EXPECT_EQ(dpvs.lincomb_terms(terms, ScalarEngine::kPrecomputed),
            dpvs.lincomb_terms(with_tables, ScalarEngine::kNaive));
}

TEST_F(MsmTest, CacheIsLazySharedAndMutationAware) {
  const Dpvs dpvs(e_, 3);
  std::vector<GVec> rows(2);
  for (auto& r : rows) {
    for (std::size_t j = 0; j < 3; ++j) {
      r.push_back(e_.curve().random_point(rng_));
    }
  }
  const BasisPrecompCache cache;
  // Concurrent first builds converge on one shared basis.
  std::vector<std::shared_ptr<const PrecomputedBasis>> got(8);
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < got.size(); ++i) {
      threads.emplace_back([&, i] {
        got[i] = cache.get_or_build(dpvs, rows, PrecomputedBasis::Options{});
      });
    }
    for (auto& t : threads) t.join();
  }
  for (const auto& b : got) EXPECT_EQ(b, got[0]);
  // Mutating the basis in place (as HPE+ does to B*) invalidates the cache.
  rows[0] = dpvs.scale(e_.fq().random(rng_), rows[0]);
  const auto rebuilt =
      cache.get_or_build(dpvs, rows, PrecomputedBasis::Options{});
  EXPECT_NE(rebuilt, got[0]);
  EXPECT_EQ(rebuilt->row(0)[0], rows[0][0]);
  // Copying the cache yields a cold one (fresh build, same contents).
  const BasisPrecompCache copy(cache);
  const auto from_copy =
      copy.get_or_build(dpvs, rows, PrecomputedBasis::Options{});
  EXPECT_NE(from_copy, rebuilt);
}

TEST_F(MsmTest, CofactorClearingIsCountedSeparately) {
  const Curve& curve = e_.curve();
  curve.reset_op_counts();
  (void)curve.hash_to_point("msm-test-cofactor");
  EXPECT_GE(curve.cofactor_mul_count(), 1u);
  EXPECT_EQ(curve.scalar_mul_count(), 0u);
  EXPECT_EQ(curve.op_counts().cofactor_mul, curve.cofactor_mul_count());
}

// The acceptance bar for the optimization: under the same seed, every
// engine must emit byte-identical ciphertexts and keys.
TEST_F(MsmTest, HpeOutputsBitIdenticalAcrossEngines) {
  constexpr std::size_t kN = 4;
  const GtEl msg = e_.gt_generator();
  struct Artifacts {
    std::vector<std::uint8_t> ct, key, child, key_naive, child_naive;
  };
  auto run = [&](ScalarEngine engine) {
    const Hpe hpe(e_, kN, HpeOptions{engine});
    ChaChaRng rng("msm-bit-identity");
    HpePublicKey pk;
    HpeMasterKey msk;
    hpe.setup(rng, pk, msk);
    std::vector<Fq> x, v;
    for (std::size_t i = 0; i < kN; ++i) {
      x.push_back(e_.fq().random(rng));
      v.push_back(e_.fq().random(rng));
    }
    // x.v = 0 not required: we compare bytes, not decryption results.
    Artifacts a;
    a.ct = serialize_ciphertext(e_, hpe.encrypt(pk, x, msg, rng));
    const HpeKey key = hpe.gen_key(msk, v, rng);
    a.key = serialize_key(e_, key);
    a.child = serialize_key(e_, hpe.delegate(key, v, rng));
    const HpeKey keyn = hpe.gen_key_naive(msk, v, rng);
    a.key_naive = serialize_key(e_, keyn);
    a.child_naive = serialize_key(e_, hpe.delegate_naive(keyn, v, rng));
    return a;
  };
  const Artifacts naive = run(ScalarEngine::kNaive);
  for (const ScalarEngine engine :
       {ScalarEngine::kWindowed, ScalarEngine::kPrecomputed}) {
    const Artifacts got = run(engine);
    EXPECT_EQ(got.ct, naive.ct);
    EXPECT_EQ(got.key, naive.key);
    EXPECT_EQ(got.child, naive.child);
    EXPECT_EQ(got.key_naive, naive.key_naive);
    EXPECT_EQ(got.child_naive, naive.child_naive);
  }
}

}  // namespace
}  // namespace apks
