#include "math/fp_lanes.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

namespace apks {

namespace {

// Reference engine: 8 lanes, lane-major layout (lane l at w[8l..8l+8)),
// each operation a per-lane call into the scalar field. This is the
// bit-identity anchor the SIMD engines are tested against.
class ScalarLanes final : public FpLaneEngine {
 public:
  explicit ScalarLanes(const LaneField& field) : fp_(&field) {}

  [[nodiscard]] const char* name() const noexcept override { return "scalar"; }
  [[nodiscard]] SimdLevel level() const noexcept override {
    return SimdLevel::kScalar;
  }
  [[nodiscard]] std::size_t width() const noexcept override { return 8; }

  void load(FpLaneVec& out, const LaneFp* vals,
            std::size_t n) const override {
    std::memset(out.w, 0, sizeof(out.w));
    for (std::size_t l = 0; l < n; ++l) {
      std::memcpy(out.w + 8 * l, vals[l].w.data(), sizeof(LaneFp));
    }
  }

  void store(LaneFp* out, const FpLaneVec& in, std::size_t n) const override {
    for (std::size_t l = 0; l < n; ++l) {
      std::memcpy(out[l].w.data(), in.w + 8 * l, sizeof(LaneFp));
    }
  }

  void to_scalar(FpLaneScalar& out, const LaneFp& v) const override {
    std::memset(out.w, 0, sizeof(out.w));
    std::memcpy(out.w, v.w.data(), sizeof(LaneFp));
  }

  void broadcast(FpLaneVec& out, const FpLaneScalar& s) const override {
    for (std::size_t l = 0; l < 8; ++l) {
      std::memcpy(out.w + 8 * l, s.w, sizeof(LaneFp));
    }
  }

  void mul(FpLaneVec& r, const FpLaneVec& a,
           const FpLaneVec& b) const override {
    for (std::size_t l = 0; l < 8; ++l) {
      LaneFp x, y;
      std::memcpy(x.w.data(), a.w + 8 * l, sizeof(LaneFp));
      std::memcpy(y.w.data(), b.w + 8 * l, sizeof(LaneFp));
      const LaneFp z = fp_->mul(x, y);
      std::memcpy(r.w + 8 * l, z.w.data(), sizeof(LaneFp));
    }
  }

  void add(FpLaneVec& r, const FpLaneVec& a,
           const FpLaneVec& b) const override {
    for (std::size_t l = 0; l < 8; ++l) {
      LaneFp x, y;
      std::memcpy(x.w.data(), a.w + 8 * l, sizeof(LaneFp));
      std::memcpy(y.w.data(), b.w + 8 * l, sizeof(LaneFp));
      const LaneFp z = fp_->add(x, y);
      std::memcpy(r.w + 8 * l, z.w.data(), sizeof(LaneFp));
    }
  }

  void sub(FpLaneVec& r, const FpLaneVec& a,
           const FpLaneVec& b) const override {
    for (std::size_t l = 0; l < 8; ++l) {
      LaneFp x, y;
      std::memcpy(x.w.data(), a.w + 8 * l, sizeof(LaneFp));
      std::memcpy(y.w.data(), b.w + 8 * l, sizeof(LaneFp));
      const LaneFp z = fp_->sub(x, y);
      std::memcpy(r.w + 8 * l, z.w.data(), sizeof(LaneFp));
    }
  }

 private:
  const LaneField* fp_;
};

}  // namespace

void lane_fp2_mul(const FpLaneEngine& eng, FpLaneVec& ra, FpLaneVec& rb,
                  const FpLaneVec& xa, const FpLaneVec& xb,
                  const FpLaneVec& ya, const FpLaneVec& yb, FpLaneVec t[4]) {
  eng.mul(t[0], xa, ya);  // ac
  eng.mul(t[1], xb, yb);  // bd
  eng.add(t[2], xa, xb);
  eng.add(t[3], ya, yb);
  eng.mul(t[2], t[2], t[3]);  // cross
  eng.add(t[3], t[0], t[1]);  // ac + bd
  eng.sub(ra, t[0], t[1]);
  eng.sub(rb, t[2], t[3]);
}

void lane_fp2_sqr(const FpLaneEngine& eng, FpLaneVec& ra, FpLaneVec& rb,
                  const FpLaneVec& xa, const FpLaneVec& xb, FpLaneVec t[2]) {
  eng.add(t[0], xa, xb);
  eng.sub(t[1], xa, xb);
  eng.mul(t[0], t[0], t[1]);  // (a+b)(a-b)
  eng.mul(t[1], xa, xb);      // ab
  ra = t[0];
  eng.add(rb, t[1], t[1]);
}

void FpLaneEngine::miller_step(FpLaneVec& fa, FpLaneVec& fb, bool square,
                               MillerStepLines step, const FpLaneVec* qx,
                               const FpLaneVec* qy,
                               std::span<const std::size_t> live) const {
  FpLaneVec t[4], s, va;
  if (square) lane_fp2_sqr(*this, fa, fb, fa, fb, t);
  for (const std::size_t a : live) {
    if (step.one[a] != 0) continue;
    // line value at phi(Q): (A * x_Q + B) + y_Q * i, one lane mul
    broadcast(s, step.line[a].a);
    mul(va, s, qx[a]);
    broadcast(s, step.line[a].b);
    add(va, va, s);
    lane_fp2_mul(*this, fa, fb, fa, fb, va, qy[a], t);
  }
}

void batch_sqrt(const FpLaneEngine& eng, const LaneField& field,
                std::span<const LaneFp> a, std::span<LaneFp> out,
                std::span<bool> ok) {
  assert(out.size() == a.size() && ok.size() == a.size());
  if (eng.level() == SimdLevel::kScalar) {
    for (std::size_t i = 0; i < a.size(); ++i) ok[i] = field.sqrt(a[i], out[i]);
    return;
  }
  const LaneFp& e = field.sqrt_exponent();
  const std::size_t bits = e.bit_length();
  const std::size_t w = eng.width();
  for (std::size_t i0 = 0; i0 < a.size(); i0 += w) {
    const std::size_t n = std::min(w, a.size() - i0);
    // pow[k - 1] = a^k for k in 1..15; acc walks the exponent's nibbles
    // from the top exactly as MontCtx::pow does.
    FpLaneVec pow[15]{};
    eng.load(pow[0], a.data() + i0, n);
    for (std::size_t k = 1; k < 15; ++k) eng.mul(pow[k], pow[k - 1], pow[0]);
    FpLaneVec acc{};
    bool started = false;
    for (std::size_t i = (bits + 3) / 4; i-- > 0;) {
      std::size_t nib = 0;
      for (std::size_t j = 0; j < 4; ++j) {
        const std::size_t b = 4 * i + (3 - j);
        nib = (nib << 1) | ((b < 64 * kLaneFpLimbs && e.bit(b)) ? 1u : 0u);
      }
      if (started) {
        for (int s = 0; s < 4; ++s) eng.mul(acc, acc, acc);
        if (nib != 0) eng.mul(acc, acc, pow[nib - 1]);
      } else if (nib != 0) {
        acc = pow[nib - 1];
        started = true;
      }
    }
    FpLaneVec sq{};
    eng.mul(sq, acc, acc);
    std::array<LaneFp, kMaxLaneWidth> back{};
    eng.store(out.data() + i0, acc, n);
    eng.store(back.data(), sq, n);
    for (std::size_t l = 0; l < n; ++l) ok[i0 + l] = back[l] == a[i0 + l];
  }
}

std::unique_ptr<FpLaneEngine> make_fp_lane_engine(const LaneField& field,
                                                  SimdLevel level) {
  if (level >= SimdLevel::kAvx512) {
    if (auto e = detail::make_fp_lanes_avx512(field)) return e;
  }
  if (level >= SimdLevel::kAvx2) {
    if (auto e = detail::make_fp_lanes_avx2(field)) return e;
  }
  return std::make_unique<ScalarLanes>(field);
}

std::unique_ptr<FpLaneEngine> make_fp_lane_engine(const LaneField& field) {
  return make_fp_lane_engine(field, simd_level());
}

}  // namespace apks
