// 8-wide AVX-512 IFMA lane engine: CIOS Montgomery multiplication over
// ten 52-bit limbs (R' = 2^520) with vpmadd52lo/hi accumulating eight
// independent products per instruction.
//
// Domain: because R' = 2^520 differs from the scalar R = 2^512, lane
// values are kept shifted by 2^8: w = v * 2^8 mod p. mont52(x, y) computes
// x*y*2^-520, so mont52(w1, w2) = (v1*v2*2^-512) * 2^8 — the lane domain
// is closed under multiplication and matches the scalar engine after the
// store-side unshift. Loads multiply by 2^528 mod p, stores by 2^512 mod p.
//
// Every operation ends with a full carry normalization and a lanewise
// conditional subtract, so lane values are always the canonical radix-52
// form of a residue < p — which is what makes store() bit-identical to the
// scalar engine at every boundary.
//
// miller_step is fused: f stays in local vectors for the whole step and no
// operation inside it reduces. R' = 2^520 > 256p, so the product of two
// values < 16p leaves CIOS below 2p; differences add a multiple of p that
// keeps them nonnegative, and f stays below 6p between folds. One
// reduction at the end of the step makes f canonical again.
#include "math/fp_lanes.h"

#if defined(__AVX512F__) && defined(__AVX512IFMA__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <cstring>

namespace apks::detail {

namespace {

constexpr int kL52 = 10;  // 52-bit limbs covering 520 >= 512 bits
constexpr std::uint64_t kMask52 = (std::uint64_t{1} << 52) - 1;

// 512-bit (8x64) canonical value -> ten 52-bit limbs.
void to_radix52(std::uint64_t out[kL52], const LaneFp& v) {
  for (int k = 0; k < kL52; ++k) {
    const int bit = 52 * k;
    const int word = bit / 64;
    const int off = bit % 64;
    std::uint64_t limb = v.w[static_cast<std::size_t>(word)] >>
                         static_cast<unsigned>(off);
    if (off > 12 && word + 1 < 8) {
      limb |= v.w[static_cast<std::size_t>(word + 1)]
              << static_cast<unsigned>(64 - off);
    }
    out[k] = limb & kMask52;
  }
}

// Ten 52-bit limbs (canonical, < 2^512) -> 8x64.
void from_radix52(LaneFp& out, const std::uint64_t in[kL52]) {
  out = LaneFp::zero();
  for (int k = 0; k < kL52; ++k) {
    const int bit = 52 * k;
    const int word = bit / 64;
    const int off = bit % 64;
    out.w[static_cast<std::size_t>(word)] |= in[k] << static_cast<unsigned>(
        off);
    if (off > 12 && word + 1 < 8) {
      out.w[static_cast<std::size_t>(word + 1)] |=
          in[k] >> static_cast<unsigned>(64 - off);
    }
  }
}

class Avx512Lanes final : public FpLaneEngine {
 public:
  explicit Avx512Lanes(const LaneField& field) {
    const LaneFp& p = field.modulus();
    to_radix52(m52_, p);
    // -p^{-1} mod 2^52: the 64-bit Montgomery constant truncated (x*p = -1
    // mod 2^64 implies the same congruence mod 2^52).
    n0inv52_ = limb::mont_n0inv(p.w[0]) & kMask52;
    // Domain-shift multipliers (plain residues, converted to radix 52).
    BigInt<2 * kLaneFpLimbs> t;
    t.set_bit(528);
    to_radix52(to_lane52_, mod(t, p));
    to_radix52(from_lane52_, field.one());  // one() is R = 2^512 mod p
    // 2p and 4p in normalized radix 52 (4p < 2^514 fits in ten limbs).
    std::uint64_t c2 = 0, c4 = 0;
    for (int k = 0; k < kL52; ++k) {
      const std::uint64_t v2 = 2 * m52_[k] + c2;
      const std::uint64_t v4 = 4 * m52_[k] + c4;
      m2_52_[k] = v2 & kMask52;
      m4_52_[k] = v4 & kMask52;
      c2 = v2 >> 52;
      c4 = v4 >> 52;
    }
    for (int k = 0; k < kL52; ++k) {
      vm_[k] = _mm512_set1_epi64(static_cast<long long>(m52_[k]));
      vto_[k] = _mm512_set1_epi64(static_cast<long long>(to_lane52_[k]));
      vfrom_[k] = _mm512_set1_epi64(static_cast<long long>(from_lane52_[k]));
    }
    vn0_ = _mm512_set1_epi64(static_cast<long long>(n0inv52_));
    vmask_ = _mm512_set1_epi64(static_cast<long long>(kMask52));
  }

  [[nodiscard]] const char* name() const noexcept override { return "avx512"; }
  [[nodiscard]] SimdLevel level() const noexcept override {
    return SimdLevel::kAvx512;
  }
  [[nodiscard]] std::size_t width() const noexcept override { return 8; }

  void load(FpLaneVec& out, const LaneFp* vals,
            std::size_t n) const override {
    // Pack lanes in the native (unshifted) radix-52 form, then one lane
    // multiplication by 2^528 mod p applies the 2^8 domain shift.
    alignas(64) std::uint64_t packed[kL52][8] = {};
    std::uint64_t limbs[kL52];
    for (std::size_t l = 0; l < n; ++l) {
      to_radix52(limbs, vals[l]);
      for (int k = 0; k < kL52; ++k) packed[k][l] = limbs[k];
    }
    __m512i a[kL52];
    for (int k = 0; k < kL52; ++k) {
      a[k] = _mm512_load_si512(packed[k]);
    }
    __m512i* o = vec(out);
    mont_mul(o, a, vto_);
  }

  void store(LaneFp* out, const FpLaneVec& in, std::size_t n) const override {
    __m512i r[kL52];
    mont_mul(r, cvec(in), vfrom_);
    alignas(64) std::uint64_t packed[kL52][8];
    for (int k = 0; k < kL52; ++k) {
      _mm512_store_si512(packed[k], r[k]);
    }
    std::uint64_t limbs[kL52];
    for (std::size_t l = 0; l < n; ++l) {
      for (int k = 0; k < kL52; ++k) limbs[k] = packed[k][l];
      from_radix52(out[l], limbs);
    }
  }

  void to_scalar(FpLaneScalar& out, const LaneFp& v) const override {
    std::uint64_t a[kL52];
    to_radix52(a, v);
    mont_mul_1(out.w, a, to_lane52_);
  }

  void broadcast(FpLaneVec& out, const FpLaneScalar& s) const override {
    __m512i* o = vec(out);
    for (int k = 0; k < kL52; ++k) {
      o[k] = _mm512_set1_epi64(static_cast<long long>(s.w[k]));
    }
  }

  void mul(FpLaneVec& r, const FpLaneVec& a,
           const FpLaneVec& b) const override {
    __m512i out[kL52];
    mont_mul(out, cvec(a), cvec(b));
    std::memcpy(r.w, out, sizeof(out));
  }

  void add(FpLaneVec& r, const FpLaneVec& a,
           const FpLaneVec& b) const override {
    const __m512i* va = cvec(a);
    const __m512i* vb = cvec(b);
    __m512i s[kL52];
    __m512i c = _mm512_setzero_si512();
    for (int k = 0; k < kL52; ++k) {
      const __m512i t = _mm512_add_epi64(_mm512_add_epi64(va[k], vb[k]), c);
      s[k] = _mm512_and_epi64(t, vmask_);
      c = _mm512_srli_epi64(t, 52);
    }
    cond_sub(s, vm_);
    std::memcpy(r.w, s, sizeof(s));
  }

  void sub(FpLaneVec& r, const FpLaneVec& a,
           const FpLaneVec& b) const override {
    const __m512i* va = cvec(a);
    const __m512i* vb = cvec(b);
    __m512i d[kL52];
    __m512i bor = _mm512_setzero_si512();
    for (int k = 0; k < kL52; ++k) {
      const __m512i t = _mm512_sub_epi64(_mm512_sub_epi64(va[k], vb[k]), bor);
      bor = _mm512_srli_epi64(t, 63);
      d[k] = _mm512_and_epi64(t, vmask_);
    }
    // Where a < b, the wrapped digits plus m give a - b + p (the final
    // carry out of limb 9 cancels the wrap).
    __m512i dm[kL52];
    __m512i c = _mm512_setzero_si512();
    for (int k = 0; k < kL52; ++k) {
      const __m512i t = _mm512_add_epi64(_mm512_add_epi64(d[k], vm_[k]), c);
      dm[k] = _mm512_and_epi64(t, vmask_);
      c = _mm512_srli_epi64(t, 52);
    }
    const __mmask8 wrapped =
        _mm512_cmpneq_epu64_mask(bor, _mm512_setzero_si512());
    __m512i out[kL52];
    for (int k = 0; k < kL52; ++k) {
      out[k] = _mm512_mask_blend_epi64(wrapped, d[k], dm[k]);
    }
    std::memcpy(r.w, out, sizeof(out));
  }

  void miller_step(FpLaneVec& fa_io, FpLaneVec& fb_io, bool square,
                   MillerStepLines step, const FpLaneVec* qx,
                   const FpLaneVec* qy,
                   std::span<const std::size_t> live) const override {
    // Value bounds in the comments. Every product has inputs < 16p, so it
    // comes out < 2p.
    __m512i fa[kL52], fb[kL52], x[kL52], y[kL52];
    __m512i t1[kL52], t2[kL52], t3[kL52], va[kL52];
    __m512i vm2[kL52], vm4[kL52];
    for (int k = 0; k < kL52; ++k) {
      vm2[k] = _mm512_set1_epi64(static_cast<long long>(m2_52_[k]));
      vm4[k] = _mm512_set1_epi64(static_cast<long long>(m4_52_[k]));
    }
    std::memcpy(fa, fa_io.w, sizeof(fa));
    std::memcpy(fb, fb_io.w, sizeof(fb));
    if (square) {                 // f canonical on entry
      add_lazy(x, fa, fb);        // < 2p
      sub_lazy(y, fa, fb, vm2);   // < 3p
      mont_lazy(t1, fa, fb);      // < 2p
      mont_lazy(fa, x, y);        // fa < 2p
      add_lazy(fb, t1, t1);       // fb < 4p
    }
    for (const std::size_t a : live) {  // fa < 4p, fb < 6p
      if (step.one[a] != 0) continue;
      const LaneLine& l = step.line[a];
      const __m512i* vqx = cvec(qx[a]);
      const __m512i* vqy = cvec(qy[a]);
      for (int k = 0; k < kL52; ++k) {
        x[k] = _mm512_set1_epi64(static_cast<long long>(l.a.w[k]));
        y[k] = _mm512_set1_epi64(static_cast<long long>(l.b.w[k]));
      }
      mont_lazy(va, x, vqx);      // < 2p
      add_lazy(va, va, y);        // line value, < 3p
      mont_lazy(t1, fa, va);      // < 2p
      mont_lazy(t2, fb, vqy);     // < 2p
      add_lazy(x, fa, fb);        // < 10p
      add_lazy(y, va, vqy);       // < 4p
      mont_lazy(t3, x, y);        // < 2p
      sub_lazy(fa, t1, t2, vm2);  // fa < 4p
      add_lazy(x, t1, t2);        // < 4p
      sub_lazy(fb, t3, x, vm4);   // fb < 6p
    }
    // < 8p -> canonical.
    for (__m512i* v : {fa, fb}) {
      cond_sub(v, vm4);
      cond_sub(v, vm2);
      cond_sub(v, vm_);
    }
    std::memcpy(fa_io.w, fa, sizeof(fa));
    std::memcpy(fb_io.w, fb, sizeof(fb));
  }

 private:
  static __m512i* vec(FpLaneVec& v) noexcept {
    return reinterpret_cast<__m512i*>(v.w);
  }
  static const __m512i* cvec(const FpLaneVec& v) noexcept {
    return reinterpret_cast<const __m512i*>(v.w);
  }

  // r = a * b * 2^-520 mod p, canonical. r may alias a or b.
  void mont_mul(__m512i r[kL52], const __m512i a[kL52],
                const __m512i b[kL52]) const {
    mont_lazy(r, a, b);
    cond_sub(r, vm_);
  }

  // r = a * b * 2^-520 + m * p for the CIOS multiple m < 2^520: congruent
  // to a * b * 2^-520 and below a * b / 2^520 + p, so below 2p when
  // a, b < 16p. Limbs normalized. r may alias a or b.
  void mont_lazy(__m512i r[kL52], const __m512i a[kL52],
                 const __m512i b[kL52]) const {
    const __m512i zero = _mm512_setzero_si512();
    __m512i t[2 * kL52 + 1];
    for (int k = 0; k < 2 * kL52 + 1; ++k) t[k] = zero;
#pragma GCC unroll 10
    for (int j = 0; j < kL52; ++j) {
      const __m512i bj = b[j];
      for (int k = 0; k < kL52; ++k) {
        t[j + k] = _mm512_madd52lo_epu64(t[j + k], a[k], bj);
        t[j + k + 1] = _mm512_madd52hi_epu64(t[j + k + 1], a[k], bj);
      }
      const __m512i q = _mm512_madd52lo_epu64(zero, t[j], vn0_);
      for (int k = 0; k < kL52; ++k) {
        t[j + k] = _mm512_madd52lo_epu64(t[j + k], vm_[k], q);
        t[j + k + 1] = _mm512_madd52hi_epu64(t[j + k + 1], vm_[k], q);
      }
      // t[j] is now 0 mod 2^52; push its high part up and slide the window.
      t[j + 1] = _mm512_add_epi64(t[j + 1], _mm512_srli_epi64(t[j], 52));
    }
    __m512i c = zero;
    for (int k = 0; k < kL52; ++k) {
      const __m512i s = _mm512_add_epi64(t[kL52 + k], c);
      r[k] = _mm512_and_epi64(s, vmask_);
      c = _mm512_srli_epi64(s, 52);
    }
  }

  // r = a + b with normalized limbs, unreduced (a + b < 2^520).
  void add_lazy(__m512i r[kL52], const __m512i a[kL52],
                const __m512i b[kL52]) const {
    __m512i c = _mm512_setzero_si512();
    for (int k = 0; k < kL52; ++k) {
      const __m512i t = _mm512_add_epi64(_mm512_add_epi64(a[k], b[k]), c);
      r[k] = _mm512_and_epi64(t, vmask_);
      c = _mm512_srli_epi64(t, 52);
    }
  }

  // r = a + kp - b for a multiple kp of p with b <= kp, normalized limbs.
  // The signed carry chain ends at zero because the result is in
  // [0, 2^520).
  void sub_lazy(__m512i r[kL52], const __m512i a[kL52],
                const __m512i b[kL52], const __m512i kp[kL52]) const {
    __m512i c = _mm512_setzero_si512();
    for (int k = 0; k < kL52; ++k) {
      const __m512i t = _mm512_add_epi64(
          _mm512_sub_epi64(_mm512_add_epi64(a[k], kp[k]), b[k]), c);
      r[k] = _mm512_and_epi64(t, vmask_);
      c = _mm512_srai_epi64(t, 52);
    }
  }

  // r <- r - m where r >= m, lanewise: a value < 2m comes out < m (with m
  // = p, canonical). Ten normalized 52-bit digits.
  void cond_sub(__m512i r[kL52], const __m512i m[kL52]) const {
    __m512i d[kL52];
    __m512i bor = _mm512_setzero_si512();
    for (int k = 0; k < kL52; ++k) {
      const __m512i t = _mm512_sub_epi64(_mm512_sub_epi64(r[k], m[k]), bor);
      bor = _mm512_srli_epi64(t, 63);
      d[k] = _mm512_and_epi64(t, vmask_);
    }
    const __mmask8 ge =
        _mm512_cmpeq_epu64_mask(bor, _mm512_setzero_si512());
    for (int k = 0; k < kL52; ++k) {
      r[k] = _mm512_mask_blend_epi64(ge, r[k], d[k]);
    }
  }

  // One-lane reference of the same radix-52 CIOS (used by to_scalar; the
  // digit sequence matches the vector path exactly).
  void mont_mul_1(std::uint64_t r[kL52], const std::uint64_t a[kL52],
                  const std::uint64_t b[kL52]) const {
    using u128 = unsigned __int128;
    std::uint64_t t[2 * kL52 + 1] = {};
    for (int j = 0; j < kL52; ++j) {
      for (int k = 0; k < kL52; ++k) {
        const u128 p = static_cast<u128>(a[k]) * b[j];
        t[j + k] += static_cast<std::uint64_t>(p) & kMask52;
        t[j + k + 1] += static_cast<std::uint64_t>(p >> 52) & kMask52;
      }
      const std::uint64_t q =
          static_cast<std::uint64_t>(
              static_cast<u128>(t[j] & kMask52) * n0inv52_) &
          kMask52;
      for (int k = 0; k < kL52; ++k) {
        const u128 p = static_cast<u128>(m52_[k]) * q;
        t[j + k] += static_cast<std::uint64_t>(p) & kMask52;
        t[j + k + 1] += static_cast<std::uint64_t>(p >> 52) & kMask52;
      }
      t[j + 1] += t[j] >> 52;
    }
    std::uint64_t c = 0;
    for (int k = 0; k < kL52; ++k) {
      const std::uint64_t s = t[kL52 + k] + c;
      r[k] = s & kMask52;
      c = s >> 52;
    }
    // Conditional subtract (value < 2p).
    std::uint64_t d[kL52];
    std::uint64_t bor = 0;
    for (int k = 0; k < kL52; ++k) {
      const std::uint64_t s = r[k] - m52_[k] - bor;
      bor = s >> 63;
      d[k] = s & kMask52;
    }
    if (bor == 0) {
      for (int k = 0; k < kL52; ++k) r[k] = d[k];
    }
  }

  std::uint64_t m52_[kL52];
  std::uint64_t to_lane52_[kL52];
  std::uint64_t from_lane52_[kL52];
  std::uint64_t n0inv52_ = 0;
  std::uint64_t m2_52_[kL52];  // 2p and 4p: miller_step's lazy offsets
  std::uint64_t m4_52_[kL52];
  __m512i vm_[kL52];
  __m512i vto_[kL52];
  __m512i vfrom_[kL52];
  __m512i vn0_;
  __m512i vmask_;
};

}  // namespace

std::unique_ptr<FpLaneEngine> make_fp_lanes_avx512(const LaneField& field) {
  return std::make_unique<Avx512Lanes>(field);
}

}  // namespace apks::detail

#else  // !(__AVX512F__ && __AVX512IFMA__ && __AVX512DQ__)

namespace apks::detail {
std::unique_ptr<FpLaneEngine> make_fp_lanes_avx512(const LaneField&) {
  return nullptr;
}
}  // namespace apks::detail

#endif
