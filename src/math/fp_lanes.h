// Lane-parallel Montgomery arithmetic for the 512-bit pairing base field.
//
// An FpLaneEngine runs W independent F_p values ("lanes") through one
// arithmetic operation at a time, SoA-style, so the pairing scan kernel can
// drive W records of a search block through the shared Miller loop with one
// instruction stream. Three engines implement the interface:
//
//   scalar  — portable reference: per-lane limb::mont_mul (W = 8)
//   avx2    — 4-wide CIOS over 32-bit limbs (vpmuludq), R = 2^512 native
//   avx512  — 8-wide CIOS over 52-bit limbs (vpmadd52lo/hi IFMA). The IFMA
//             Montgomery radix is R' = 2^520, so lane values live in a
//             shifted domain w = v * 2^8 mod p; load/store apply the shift
//             with one lane multiplication by 2^528 mod p / 2^512 mod p.
//
// Contract (what makes cross-engine bit-identity hold): every operation
// takes canonical Montgomery residues (< p) and produces canonical
// residues, so a value stored by one engine equals — limb for limb — the
// value the scalar path computes, at every engine boundary. Lazy reduction
// happens only inside miller_step, which an engine may fuse (AVX-512 keeps
// its accumulator in local vectors, values below 16p between operations);
// it canonicalizes before it returns, so its result is the residue the
// op-by-op sequence gives.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/cpu_features.h"
#include "math/prime_field.h"

namespace apks {

inline constexpr std::size_t kLaneFpLimbs = 8;  // 512-bit F_p
inline constexpr std::size_t kMaxLaneWidth = 8;  // widest engine's W
using LaneFp = BigInt<kLaneFpLimbs>;
using LaneField = PrimeField<kLaneFpLimbs>;

// Engine-opaque SoA block of W field elements. Sized for the widest layout
// (avx512: 10 radix-52 limbs x 8 lanes); narrower engines use a prefix.
struct alignas(64) FpLaneVec {
  std::uint64_t w[80];
};

// One lane's worth of an engine-domain value: a field element already
// converted to the engine's internal radix/domain, ready to broadcast into
// all lanes with bit operations only. Prepared-query line tables store
// these so the per-block splat costs no multiplications.
struct FpLaneScalar {
  std::uint64_t w[10];
};

// One Miller-step line of one slot in the engine domain: the normalized
// line A * x_Q + B + y_Q * i (the y coefficient is 1).
struct LaneLine {
  FpLaneScalar a;
  FpLaneScalar b;
};

// The lines one Miller step folds, indexed by slot: line[a], and one[a]
// nonzero when slot a's line is the factor 1 (a vertical).
struct MillerStepLines {
  const LaneLine* line;
  const std::uint8_t* one;
};

class FpLaneEngine {
 public:
  virtual ~FpLaneEngine() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
  [[nodiscard]] virtual SimdLevel level() const noexcept = 0;
  // Lanes processed per operation. Callers may load fewer; unloaded lanes
  // hold zero and stay zero.
  [[nodiscard]] virtual std::size_t width() const noexcept = 0;

  // Load n canonical Montgomery-form values into lanes 0..n-1 (n <= width);
  // remaining lanes are zeroed.
  virtual void load(FpLaneVec& out, const LaneFp* vals,
                    std::size_t n) const = 0;
  // Write lanes 0..n-1 back as canonical Montgomery-form values.
  virtual void store(LaneFp* out, const FpLaneVec& in, std::size_t n) const = 0;

  // One-time conversion of a value into the engine domain (may cost a
  // multiplication) + the per-use broadcast (bit operations only).
  virtual void to_scalar(FpLaneScalar& out, const LaneFp& v) const = 0;
  virtual void broadcast(FpLaneVec& out, const FpLaneScalar& s) const = 0;

  // Lanewise field operations; canonical in, canonical out. r may alias
  // a or b.
  virtual void mul(FpLaneVec& r, const FpLaneVec& a,
                   const FpLaneVec& b) const = 0;
  virtual void add(FpLaneVec& r, const FpLaneVec& a,
                   const FpLaneVec& b) const = 0;
  virtual void sub(FpLaneVec& r, const FpLaneVec& a,
                   const FpLaneVec& b) const = 0;

  // One step of a shared-accumulator Miller loop on f = fa + fb * i:
  // f <- f^2 when `square`, then f <- f * (A_a * qx[a] + B_a + qy[a] * i)
  // for each slot a in `live` whose line is not the factor 1, in order.
  // qx and qy are indexed by slot. f is canonical in and out. The default
  // issues the op-by-op sequence below (lane_fp2_sqr, lane_fp2_mul); an
  // engine may fuse it, reducing lazily inside, as long as the result is
  // the same residue.
  virtual void miller_step(FpLaneVec& fa, FpLaneVec& fb, bool square,
                           MillerStepLines step, const FpLaneVec* qx,
                           const FpLaneVec* qy,
                           std::span<const std::size_t> live) const;
};

// Lane F_p^2 arithmetic on (a + b i), the exact operation sequence of the
// scalar Fp2 class: Karatsuba multiplication, and squaring as
// (a+b)(a-b) + 2ab i. Results may alias inputs; t is scratch.
void lane_fp2_mul(const FpLaneEngine& eng, FpLaneVec& ra, FpLaneVec& rb,
                  const FpLaneVec& xa, const FpLaneVec& xb,
                  const FpLaneVec& ya, const FpLaneVec& yb, FpLaneVec t[4]);
void lane_fp2_sqr(const FpLaneEngine& eng, FpLaneVec& ra, FpLaneVec& rb,
                  const FpLaneVec& xa, const FpLaneVec& xb, FpLaneVec t[2]);

// Engine for `level`, falling back to the best one the build and CPU
// support. Never returns null.
[[nodiscard]] std::unique_ptr<FpLaneEngine> make_fp_lane_engine(
    const LaneField& field, SimdLevel level);
// Engine for the process-wide simd_level() (CPU detection + env override).
[[nodiscard]] std::unique_ptr<FpLaneEngine> make_fp_lane_engine(
    const LaneField& field);

// Square roots for p = 3 (mod 4): out[i] = a[i]^((p+1)/4), and ok[i] says
// whether out[i]^2 == a[i] (false: a[i] is a non-residue and out[i] is
// unspecified). The exponent is the same for every element, so W values
// share one lane exponentiation — the fixed 4-bit window of MontCtx::pow —
// with no lane divergence. The scalar engine falls back to
// PrimeField::sqrt per value. Roots are bit-identical on every engine:
// a^((p+1)/4) is one residue and every engine emits canonical residues.
// a, out and ok have equal sizes.
void batch_sqrt(const FpLaneEngine& eng, const LaneField& field,
                std::span<const LaneFp> a, std::span<LaneFp> out,
                std::span<bool> ok);

namespace detail {
// Per-arch factories; return null when the binary was built without the
// instruction-set support (the dispatcher then falls back).
[[nodiscard]] std::unique_ptr<FpLaneEngine> make_fp_lanes_avx2(
    const LaneField& field);
[[nodiscard]] std::unique_ptr<FpLaneEngine> make_fp_lanes_avx512(
    const LaneField& field);
}  // namespace detail

}  // namespace apks
