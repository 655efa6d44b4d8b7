// Arithmetic on the type-A curve E : y^2 = x^3 + x over F_p.
//
// Affine points carry Montgomery-form coordinates; Jacobian points are used
// internally for inversion-free scalar multiplication. Scalars are plain
// (non-Montgomery) integers below q.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "ec/params.h"
#include "math/fp_lanes.h"

namespace apks {

struct AffinePoint {
  Fp x{};
  Fp y{};
  bool inf = true;

  [[nodiscard]] static AffinePoint infinity() { return {}; }
  friend bool operator==(const AffinePoint&, const AffinePoint&) = default;
};

struct JacPoint {
  Fp X{};
  Fp Y{};
  Fp Z{};  // Z == 0 encodes the point at infinity

  [[nodiscard]] bool is_infinity() const noexcept { return Z.is_zero(); }
};

// One 65-byte compressed element queued for Curve::decode_batch: a curve
// point (tag 0 for infinity, else 2/3 + x; the root is y) or a G_T value
// (tag 2/3 + a; the root is the unitary b). Exactly one of `point` and
// `gt` names the destination.
struct CompressedElement {
  const std::uint8_t* bytes = nullptr;  // Curve::kCompressedSize bytes
  AffinePoint* point = nullptr;
  Fp2El* gt = nullptr;
};

// Operation counters for cost-model verification: the paper states its
// complexity results in "exponentiations" (scalar multiplications) and
// pairings; counting them exactly checks those formulas independent of
// timing noise (see bench/cost_model_check and tests/cost_model_test).
struct OpCounts {
  std::uint64_t scalar_mul = 0;  // variable-base scalar multiplications
  std::uint64_t base_mul = 0;    // fixed-base (generator) multiplications
  // Of the scalar_mul above, how many were served from cached per-point
  // window tables (PrecomputedBasis). Always <= scalar_mul: the paper-facing
  // exponentiation count is engine-independent; this tracks how much of it
  // the fixed-base tables absorbed.
  std::uint64_t precomp_base_mul = 0;
  std::uint64_t cofactor_mul = 0;  // cofactor clearings (hash/sample to G)
  std::uint64_t miller = 0;      // Miller loops (pairings before final exp)
  std::uint64_t final_exp = 0;
};

class Curve {
 public:
  explicit Curve(const TypeAParams& params);

  [[nodiscard]] const TypeAParams& params() const noexcept { return params_; }
  [[nodiscard]] const FpField& fp() const noexcept { return fp_; }
  [[nodiscard]] const FqField& fq() const noexcept { return fq_; }
  [[nodiscard]] const AffinePoint& generator() const noexcept { return gen_; }

  [[nodiscard]] bool on_curve(const AffinePoint& pt) const;

  [[nodiscard]] AffinePoint neg(const AffinePoint& pt) const;
  [[nodiscard]] AffinePoint add(const AffinePoint& a,
                                const AffinePoint& b) const;
  [[nodiscard]] AffinePoint dbl(const AffinePoint& a) const;

  // Scalar multiplication k * pt; k is a plain integer (any value; reduced
  // semantics follow group order).
  [[nodiscard]] AffinePoint mul(const AffinePoint& pt, const FqInt& k) const;
  // Scalar given as a Montgomery-form F_q element.
  [[nodiscard]] AffinePoint mul_fq(const AffinePoint& pt, const Fq& k) const;
  // Jacobian result (no normalization) — callers producing many points
  // combine this with batch_normalize to share one inversion.
  [[nodiscard]] JacPoint mul_jac(const AffinePoint& pt, const FqInt& k) const;

  // Multi-scalar multiplication sum_i k_i * pts_i (scalars are
  // Montgomery-form F_q elements). Runs the windowed shared-chain engine
  // (src/ec/fixed_base.h) with ephemeral per-call tables.
  [[nodiscard]] AffinePoint msm(const std::vector<AffinePoint>& pts,
                                const std::vector<Fq>& ks) const;
  // Reference interleaved double-and-add MSM (the pre-engine
  // implementation); same group result and the same op-count accounting.
  [[nodiscard]] AffinePoint msm_naive(const std::vector<AffinePoint>& pts,
                                      const std::vector<Fq>& ks) const;

  // Jacobian internals (exposed for the pairing's Miller loop).
  [[nodiscard]] JacPoint to_jac(const AffinePoint& pt) const;
  [[nodiscard]] AffinePoint to_affine(const JacPoint& pt) const;
  [[nodiscard]] JacPoint jac_dbl(const JacPoint& pt) const;
  [[nodiscard]] JacPoint jac_add_mixed(const JacPoint& a,
                                       const AffinePoint& b) const;
  [[nodiscard]] JacPoint jac_add(const JacPoint& a, const JacPoint& b) const;

  // Converts many Jacobian points with a single field inversion
  // (Montgomery's trick) — used to normalize precomputation tables.
  [[nodiscard]] std::vector<AffinePoint> batch_normalize(
      const std::vector<JacPoint>& pts) const;

  // Fixed-base multiplication k * generator via an 8-bit comb table built
  // lazily on first use (~30x faster than the generic ladder; dominates
  // Setup and basis generation, which exponentiate the generator n0^2
  // times).
  [[nodiscard]] AffinePoint mul_base(const FqInt& k) const;
  [[nodiscard]] AffinePoint mul_base_fq(const Fq& k) const {
    return mul_base(fq_.to_int(k));
  }
  // Jacobian result (no affine conversion) — callers producing many points
  // combine this with batch_normalize to share one inversion.
  [[nodiscard]] JacPoint mul_base_jac(const FqInt& k) const;

  // Exponentiation counters (relaxed atomics; negligible overhead).
  void reset_op_counts() const noexcept {
    scalar_mul_count_.store(0, std::memory_order_relaxed);
    base_mul_count_.store(0, std::memory_order_relaxed);
    precomp_base_mul_count_.store(0, std::memory_order_relaxed);
    cofactor_mul_count_.store(0, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t scalar_mul_count() const noexcept {
    return scalar_mul_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t base_mul_count() const noexcept {
    return base_mul_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t precomp_base_mul_count() const noexcept {
    return precomp_base_mul_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cofactor_mul_count() const noexcept {
    return cofactor_mul_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] OpCounts op_counts() const noexcept {
    return {scalar_mul_count(), base_mul_count(), precomp_base_mul_count(),
            cofactor_mul_count(), 0, 0};
  }
  // Accounting hooks for the engine layers (Dpvs::lincomb_terms attributes
  // each lincomb term here; the engine itself never counts).
  void note_scalar_muls(std::uint64_t k) const noexcept {
    scalar_mul_count_.fetch_add(k, std::memory_order_relaxed);
  }
  void note_precomp_base_muls(std::uint64_t k) const noexcept {
    precomp_base_mul_count_.fetch_add(k, std::memory_order_relaxed);
  }

  // Uniformly random point of order q (random x with cofactor clearing).
  [[nodiscard]] AffinePoint random_point(Rng& rng) const;

  // Deterministic hash onto the order-q subgroup (try-and-increment +
  // cofactor clearing). Never returns infinity.
  [[nodiscard]] AffinePoint hash_to_point(std::string_view msg) const;

  // 65-byte compressed encoding: tag byte (0 infinity, 2 even-y, 3 odd-y)
  // followed by the 64-byte big-endian x coordinate. Infinity has exactly
  // one encoding, all zero bytes. deserialize is decode_batch with n = 1.
  static constexpr std::size_t kCompressedSize = 65;
  void serialize(const AffinePoint& pt,
                 std::span<std::uint8_t, kCompressedSize> out) const;
  [[nodiscard]] AffinePoint deserialize(
      std::span<const std::uint8_t, kCompressedSize> in) const;

  // Decodes compressed points and G_T values together: the square roots
  // of up to kMaxLaneWidth elements share one lane exponentiation
  // (batch_sqrt on the process's lane engine). Outputs are bit-identical
  // to decoding one element at a time. Throws std::invalid_argument with
  // the message a lone decode gives for the first malformed element in
  // order; destinations are then unspecified.
  void decode_batch(std::span<const CompressedElement> elems) const;

 private:
  [[nodiscard]] Fp rhs(const Fp& x) const;  // x^3 + x
  // h * pt via a signed fixed-window ladder over the wide cofactor; counted
  // by cofactor_mul_count_ (separate from the paper's exponentiation unit).
  [[nodiscard]] AffinePoint clear_cofactor(const AffinePoint& pt) const;
  void build_base_table() const;

  TypeAParams params_;
  FpField fp_;
  FqField fq_;
  AffinePoint gen_;
  std::unique_ptr<FpLaneEngine> lanes_;  // runs decode_batch's roots

  // Lazily built generator comb: base_table_[w][b-1] = (b * 2^{8w}) * g for
  // b in 1..255, w in 0..19 (160-bit scalars).
  static constexpr std::size_t kCombWindows = 20;
  mutable std::once_flag base_table_once_;
  mutable std::vector<std::vector<AffinePoint>> base_table_;

  mutable std::atomic<std::uint64_t> scalar_mul_count_{0};
  mutable std::atomic<std::uint64_t> base_mul_count_{0};
  mutable std::atomic<std::uint64_t> precomp_base_mul_count_{0};
  mutable std::atomic<std::uint64_t> cofactor_mul_count_{0};
};

}  // namespace apks
