#include "ec/fixed_base.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "math/fp_lanes.h"

namespace apks {

namespace {

// Lane-parallel build of the multiple chains {1P, 2P, ..., half*P} for one
// chunk of points. Every chain advances by the same step — the mixed
// addition (m-1)P + P — so W chains run in SoA lanes through a single
// instruction stream. The formulas replicate Curve::jac_add_mixed op for op
// (canonical residues at every step), so the Jacobian representatives, and
// hence the batch-normalized affine entries, are bit-identical to the
// scalar build.
//
// Returns false when a lane hits an exceptional case — an infinity input,
// or H == 0 (a == ±b, only reachable for low-order points) — detected as
// Z3 = Z*H == 0; the caller rebuilds the chunk with the scalar path.
bool build_chunk_lanes(const FpLaneEngine& eng, const Curve& curve,
                       const AffinePoint* pts, std::size_t n,
                       std::size_t half, JacPoint* out) {
  for (std::size_t l = 0; l < n; ++l) {
    if (pts[l].inf) return false;
  }
  std::array<LaneFp, 8> buf{};
  FpLaneVec px, py, x, y, z;
  for (std::size_t l = 0; l < n; ++l) buf[l] = pts[l].x;
  eng.load(px, buf.data(), n);
  for (std::size_t l = 0; l < n; ++l) buf[l] = pts[l].y;
  eng.load(py, buf.data(), n);
  for (std::size_t l = 0; l < n; ++l) {
    out[l * half] = curve.to_jac(pts[l]);
  }
  x = px;
  y = py;
  for (std::size_t l = 0; l < n; ++l) buf[l] = curve.fp().one();
  eng.load(z, buf.data(), n);
  FpLaneVec z2, u, s, h, r, h2, h3, xh2, x3, y3, z3, t;
  for (std::size_t m = 2; m <= half; ++m) {
    eng.mul(z2, z, z);    // Z^2
    eng.mul(u, px, z2);   // x_b * Z^2
    eng.mul(s, z2, z);    // Z^3
    eng.mul(s, py, s);    // y_b * Z^3
    eng.sub(h, u, x);     // H = U - X
    eng.sub(r, s, y);     // R = S - Y
    eng.mul(h2, h, h);
    eng.mul(h3, h2, h);
    eng.mul(xh2, x, h2);
    eng.mul(x3, r, r);
    eng.sub(x3, x3, h3);
    eng.add(t, xh2, xh2);
    eng.sub(x3, x3, t);   // X3 = R^2 - H^3 - 2*X*H^2
    eng.sub(t, xh2, x3);
    eng.mul(t, r, t);     // R * (X*H^2 - X3)
    eng.mul(y3, y, h3);
    eng.sub(y3, t, y3);   // Y3 = R*(X*H^2 - X3) - Y*H^3
    eng.mul(z3, z, h);    // Z3 = Z * H
    eng.store(buf.data(), z3, n);
    for (std::size_t l = 0; l < n; ++l) {
      // Z nonzero inductively, so Z3 == 0 <=> H == 0: doubling/cancel case.
      if (buf[l].is_zero()) return false;
      out[l * half + (m - 1)].Z = buf[l];
    }
    eng.store(buf.data(), x3, n);
    for (std::size_t l = 0; l < n; ++l) out[l * half + (m - 1)].X = buf[l];
    eng.store(buf.data(), y3, n);
    for (std::size_t l = 0; l < n; ++l) out[l * half + (m - 1)].Y = buf[l];
    x = x3;
    y = y3;
    z = z3;
  }
  return true;
}

}  // namespace

WindowTables::WindowTables(const Curve& curve,
                           std::span<const AffinePoint> pts, unsigned wbits,
                           bool precomputed)
    : wbits_(wbits),
      half_(std::size_t{1} << (wbits - 1)),
      precomputed_(precomputed) {
  if (wbits < kMinWindow || wbits > kMaxWindow) {
    throw std::invalid_argument("WindowTables: window width out of range");
  }
  // Row i holds {P_i, 2P_i, ..., half * P_i}: one mixed addition per entry
  // (even multiples reuse the running sum), one batch inversion overall.
  std::vector<JacPoint> jac(pts.size() * half_);
  const auto scalar_chain = [&](std::size_t i) {
    const AffinePoint& p = pts[i];
    JacPoint acc = curve.to_jac(p);
    jac[i * half_] = acc;
    for (std::size_t m = 2; m <= half_; ++m) {
      acc = curve.jac_add_mixed(acc, p);
      jac[i * half_ + (m - 1)] = acc;
    }
  };
  bool built = false;
  if (pts.size() >= 2 && simd_level() != SimdLevel::kScalar) {
    // Lane-parallel build: chains for W points advance side by side. Output
    // is bit-identical to the scalar chains (see build_chunk_lanes), so the
    // choice of engine never changes a table entry.
    const auto eng = make_fp_lane_engine(curve.fp());
    if (eng->level() != SimdLevel::kScalar) {
      const std::size_t w = eng->width();
      for (std::size_t i0 = 0; i0 < pts.size(); i0 += w) {
        const std::size_t cn = std::min(w, pts.size() - i0);
        if (!build_chunk_lanes(*eng, curve, pts.data() + i0, cn, half_,
                               jac.data() + i0 * half_)) {
          for (std::size_t l = 0; l < cn; ++l) scalar_chain(i0 + l);
        }
      }
      built = true;
    }
  }
  if (!built) {
    for (std::size_t i = 0; i < pts.size(); ++i) scalar_chain(i);
  }
  entries_ = curve.batch_normalize(jac);
}

JacPoint windowed_chain(const Curve& curve,
                        std::span<const ChainTerm> terms) {
  std::ptrdiff_t start = -1;
  for (const ChainTerm& t : terms) {
    if (t.k->top_pos > start) start = t.k->top_pos;
  }
  JacPoint acc = curve.to_jac(AffinePoint::infinity());
  for (std::ptrdiff_t pos = start; pos >= 0; --pos) {
    if (!acc.is_infinity()) acc = curve.jac_dbl(acc);
    for (const ChainTerm& t : terms) {
      const auto w = static_cast<std::ptrdiff_t>(t.k->wbits);
      if (pos % w != 0) continue;
      const std::size_t j = static_cast<std::size_t>(pos / w);
      if (j >= t.k->digits.size()) continue;
      const std::int32_t d = t.k->digits[j];
      if (d == 0) continue;
      const auto m = static_cast<std::uint32_t>(d > 0 ? d : -d);
      const AffinePoint& e = t.tables->entry(t.index, m);
      acc = curve.jac_add_mixed(acc, d > 0 ? e : curve.neg(e));
    }
  }
  return acc;
}

namespace {

// {P, 2^c P, 2^{2c} P, ...} with c = FixedBaseComb::kChunkBits: enough
// chunks to cover the group order, normalized with one inversion.
std::vector<AffinePoint> comb_spread(const Curve& curve, const AffinePoint& p) {
  const std::size_t chunks =
      (curve.params().q.bit_length() + FixedBaseComb::kChunkBits - 1) /
      FixedBaseComb::kChunkBits;
  std::vector<JacPoint> jac(chunks);
  jac[0] = curve.to_jac(p);
  for (std::size_t j = 1; j < chunks; ++j) {
    jac[j] = jac[j - 1];
    for (unsigned b = 0; b < FixedBaseComb::kChunkBits; ++b) {
      jac[j] = curve.jac_dbl(jac[j]);
    }
  }
  return curve.batch_normalize(jac);
}

}  // namespace

FixedBaseComb::FixedBaseComb(const Curve& curve, const AffinePoint& p)
    : tables_(curve, comb_spread(curve, p), kWindow, /*precomputed=*/true) {}

JacPoint FixedBaseComb::mul(const Curve& curve, const FqInt& k) const {
  // One recoding of the whole scalar keeps the signed carries exact across
  // chunk boundaries; the last chunk also takes the digits above the group
  // order, so every k recodes exactly. The recoding covers all 64 * kFqLimbs
  // bits, so it always has a digit for each chunk.
  const std::vector<std::int32_t> digits = signed_window_digits(k, kWindow);
  const std::size_t chunks = tables_.points();
  std::vector<RecodedScalar> parts;
  parts.reserve(chunks);
  std::vector<ChainTerm> terms(chunks);
  for (std::size_t j = 0; j < chunks; ++j) {
    const auto first =
        digits.begin() + static_cast<std::ptrdiff_t>(j * kChunkDigits);
    const auto last = j + 1 < chunks ? first + kChunkDigits : digits.end();
    parts.push_back(RecodedScalar::from_digits(
        std::vector<std::int32_t>(first, last), kWindow));
    terms[j] = {&tables_, j, &parts[j]};
  }
  return windowed_chain(curve, terms);
}

}  // namespace apks
