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
// residues. There is no lazy reduction across the engine boundary, so a
// value stored by one engine equals — limb for limb — the value the scalar
// path computes, at every step, not just at the end.
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
};

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
