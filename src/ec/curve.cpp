#include "ec/curve.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "common/sha256.h"
#include "ec/fixed_base.h"

namespace apks {

Curve::Curve(const TypeAParams& params)
    : params_(params),
      fp_(params.p),
      fq_(params.q),
      lanes_(make_fp_lane_engine(fp_)) {
  gen_.x = fp_.from_int(params.gx);
  gen_.y = fp_.from_int(params.gy);
  gen_.inf = false;
  if (!on_curve(gen_)) {
    throw std::invalid_argument("Curve: generator not on curve");
  }
}

Fp Curve::rhs(const Fp& x) const {
  // x^3 + x (curve coefficient a = 1, b = 0).
  return fp_.add(fp_.mul(fp_.sqr(x), x), x);
}

bool Curve::on_curve(const AffinePoint& pt) const {
  if (pt.inf) return true;
  return fp_.sqr(pt.y) == rhs(pt.x);
}

AffinePoint Curve::neg(const AffinePoint& pt) const {
  if (pt.inf) return pt;
  return {pt.x, fp_.neg(pt.y), false};
}

JacPoint Curve::to_jac(const AffinePoint& pt) const {
  if (pt.inf) return {fp_.one(), fp_.one(), fp_.zero()};
  return {pt.x, pt.y, fp_.one()};
}

AffinePoint Curve::to_affine(const JacPoint& pt) const {
  if (pt.is_infinity()) return AffinePoint::infinity();
  const Fp zinv = fp_.inv(pt.Z);
  const Fp zinv2 = fp_.sqr(zinv);
  return {fp_.mul(pt.X, zinv2), fp_.mul(pt.Y, fp_.mul(zinv2, zinv)), false};
}

JacPoint Curve::jac_dbl(const JacPoint& pt) const {
  if (pt.is_infinity() || pt.Y.is_zero()) {
    return {fp_.one(), fp_.one(), fp_.zero()};
  }
  const Fp Y2 = fp_.sqr(pt.Y);
  const Fp S = fp_.dbl(fp_.dbl(fp_.mul(pt.X, Y2)));          // 4XY^2
  const Fp Z2 = fp_.sqr(pt.Z);
  const Fp M = fp_.add(fp_.add(fp_.dbl(fp_.sqr(pt.X)), fp_.sqr(pt.X)),
                       fp_.sqr(Z2));                          // 3X^2 + Z^4
  const Fp X3 = fp_.sub(fp_.sqr(M), fp_.dbl(S));
  const Fp Y4_8 = fp_.dbl(fp_.dbl(fp_.dbl(fp_.sqr(Y2))));    // 8Y^4
  const Fp Y3 = fp_.sub(fp_.mul(M, fp_.sub(S, X3)), Y4_8);
  const Fp Z3 = fp_.dbl(fp_.mul(pt.Y, pt.Z));
  return {X3, Y3, Z3};
}

JacPoint Curve::jac_add_mixed(const JacPoint& a, const AffinePoint& b) const {
  if (b.inf) return a;
  if (a.is_infinity()) return {b.x, b.y, fp_.one()};
  const Fp Z2 = fp_.sqr(a.Z);
  const Fp U = fp_.mul(b.x, Z2);                 // x_b * Z^2
  const Fp S = fp_.mul(b.y, fp_.mul(Z2, a.Z));   // y_b * Z^3
  const Fp H = fp_.sub(U, a.X);
  const Fp R = fp_.sub(S, a.Y);
  if (H.is_zero()) {
    if (R.is_zero()) return jac_dbl(a);            // a == b
    return {fp_.one(), fp_.one(), fp_.zero()};     // a == -b
  }
  const Fp H2 = fp_.sqr(H);
  const Fp H3 = fp_.mul(H2, H);
  const Fp XH2 = fp_.mul(a.X, H2);
  const Fp X3 = fp_.sub(fp_.sub(fp_.sqr(R), H3), fp_.dbl(XH2));
  const Fp Y3 = fp_.sub(fp_.mul(R, fp_.sub(XH2, X3)), fp_.mul(a.Y, H3));
  const Fp Z3 = fp_.mul(a.Z, H);
  return {X3, Y3, Z3};
}

JacPoint Curve::jac_add(const JacPoint& a, const JacPoint& b) const {
  if (a.is_infinity()) return b;
  if (b.is_infinity()) return a;
  const Fp Z1Z1 = fp_.sqr(a.Z);
  const Fp Z2Z2 = fp_.sqr(b.Z);
  const Fp U1 = fp_.mul(a.X, Z2Z2);
  const Fp U2 = fp_.mul(b.X, Z1Z1);
  const Fp S1 = fp_.mul(a.Y, fp_.mul(Z2Z2, b.Z));
  const Fp S2 = fp_.mul(b.Y, fp_.mul(Z1Z1, a.Z));
  const Fp H = fp_.sub(U2, U1);
  const Fp R = fp_.sub(S2, S1);
  if (H.is_zero()) {
    if (R.is_zero()) return jac_dbl(a);
    return {fp_.one(), fp_.one(), fp_.zero()};
  }
  const Fp H2 = fp_.sqr(H);
  const Fp H3 = fp_.mul(H2, H);
  const Fp U1H2 = fp_.mul(U1, H2);
  const Fp X3 = fp_.sub(fp_.sub(fp_.sqr(R), H3), fp_.dbl(U1H2));
  const Fp Y3 = fp_.sub(fp_.mul(R, fp_.sub(U1H2, X3)), fp_.mul(S1, H3));
  const Fp Z3 = fp_.mul(fp_.mul(a.Z, b.Z), H);
  return {X3, Y3, Z3};
}

std::vector<AffinePoint> Curve::batch_normalize(
    const std::vector<JacPoint>& pts) const {
  // Collect nonzero Zs, invert them all with one field inversion.
  std::vector<Fp> zs;
  zs.reserve(pts.size());
  for (const auto& pt : pts) {
    if (!pt.is_infinity()) zs.push_back(pt.Z);
  }
  fp_.batch_inv(zs);
  std::vector<AffinePoint> out(pts.size());
  std::size_t zi = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].is_infinity()) {
      out[i] = AffinePoint::infinity();
      continue;
    }
    const Fp zinv = zs[zi++];
    const Fp zinv2 = fp_.sqr(zinv);
    out[i] = {fp_.mul(pts[i].X, zinv2),
              fp_.mul(pts[i].Y, fp_.mul(zinv2, zinv)), false};
  }
  return out;
}

void Curve::build_base_table() const {
  // Row w holds b * (2^{8w} g) for b = 1..255, all rows built in Jacobian
  // coordinates and normalized with one shared inversion.
  std::vector<JacPoint> flat;
  flat.reserve(kCombWindows * 255);
  JacPoint window_base = to_jac(gen_);
  for (std::size_t w = 0; w < kCombWindows; ++w) {
    JacPoint acc{fp_.one(), fp_.one(), fp_.zero()};
    for (std::size_t b = 1; b <= 255; ++b) {
      acc = jac_add(acc, window_base);
      flat.push_back(acc);
    }
    for (int i = 0; i < 8; ++i) window_base = jac_dbl(window_base);
  }
  const auto affine = batch_normalize(flat);
  base_table_.assign(kCombWindows, {});
  for (std::size_t w = 0; w < kCombWindows; ++w) {
    base_table_[w].assign(affine.begin() + static_cast<std::ptrdiff_t>(255 * w),
                          affine.begin() + static_cast<std::ptrdiff_t>(255 * (w + 1)));
  }
}

JacPoint Curve::mul_base_jac(const FqInt& k) const {
  base_mul_count_.fetch_add(1, std::memory_order_relaxed);
  std::call_once(base_table_once_, [this] { build_base_table(); });
  // Scalars are < q < 2^160: exactly kCombWindows bytes.
  assert(k.bit_length() <= 8 * kCombWindows);
  JacPoint acc{fp_.one(), fp_.one(), fp_.zero()};
  for (std::size_t w = 0; w < kCombWindows; ++w) {
    const std::size_t byte = (k.w[w / 8] >> (8 * (w % 8))) & 0xFF;
    if (byte != 0) {
      acc = jac_add_mixed(acc, base_table_[w][byte - 1]);
    }
  }
  return acc;
}

AffinePoint Curve::mul_base(const FqInt& k) const {
  if (k.is_zero()) return AffinePoint::infinity();
  return to_affine(mul_base_jac(k));
}

AffinePoint Curve::add(const AffinePoint& a, const AffinePoint& b) const {
  if (a.inf) return b;
  if (b.inf) return a;
  return to_affine(jac_add_mixed(to_jac(a), b));
}

AffinePoint Curve::dbl(const AffinePoint& a) const {
  return to_affine(jac_dbl(to_jac(a)));
}

JacPoint Curve::mul_jac(const AffinePoint& pt, const FqInt& k) const {
  scalar_mul_count_.fetch_add(1, std::memory_order_relaxed);
  JacPoint acc{fp_.one(), fp_.one(), fp_.zero()};
  if (pt.inf || k.is_zero()) return acc;
  const std::size_t bits = k.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    acc = jac_dbl(acc);
    if (k.bit(i)) acc = jac_add_mixed(acc, pt);
  }
  return acc;
}

AffinePoint Curve::mul(const AffinePoint& pt, const FqInt& k) const {
  return to_affine(mul_jac(pt, k));
}

AffinePoint Curve::mul_fq(const AffinePoint& pt, const Fq& k) const {
  return mul(pt, fq_.to_int(k));
}

AffinePoint Curve::msm(const std::vector<AffinePoint>& pts,
                       const std::vector<Fq>& ks) const {
  if (pts.size() != ks.size()) {
    throw std::invalid_argument("Curve::msm: size mismatch");
  }
  // Counts as one exponentiation per term (the paper's accounting unit)
  // regardless of the engine that serves it.
  scalar_mul_count_.fetch_add(pts.size(), std::memory_order_relaxed);
  if (pts.empty()) return AffinePoint::infinity();
  // Ephemeral signed-window tables: narrow width since the build cost is
  // paid by this single chain.
  constexpr unsigned kWindow = 4;
  const WindowTables tables(*this, pts, kWindow, /*precomputed=*/false);
  std::vector<RecodedScalar> recoded;
  recoded.reserve(ks.size());
  for (const auto& k : ks) {
    recoded.push_back(RecodedScalar::recode(fq_.to_int(k), kWindow));
  }
  std::vector<ChainTerm> terms(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    terms[i] = {&tables, i, &recoded[i]};
  }
  return to_affine(windowed_chain(*this, terms));
}

AffinePoint Curve::msm_naive(const std::vector<AffinePoint>& pts,
                             const std::vector<Fq>& ks) const {
  if (pts.size() != ks.size()) {
    throw std::invalid_argument("Curve::msm_naive: size mismatch");
  }
  // Interleaved double-and-add: one shared doubling chain.
  scalar_mul_count_.fetch_add(pts.size(), std::memory_order_relaxed);
  std::vector<FqInt> scalars;
  scalars.reserve(ks.size());
  std::size_t max_bits = 0;
  for (const auto& k : ks) {
    scalars.push_back(fq_.to_int(k));
    max_bits = std::max(max_bits, scalars.back().bit_length());
  }
  JacPoint acc{fp_.one(), fp_.one(), fp_.zero()};
  for (std::size_t i = max_bits; i-- > 0;) {
    acc = jac_dbl(acc);
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (!pts[j].inf && scalars[j].bit(i)) {
        acc = jac_add_mixed(acc, pts[j]);
      }
    }
  }
  return to_affine(acc);
}

AffinePoint Curve::clear_cofactor(const AffinePoint& pt) const {
  cofactor_mul_count_.fetch_add(1, std::memory_order_relaxed);
  // h * pt with a signed fixed window over the wide cofactor: ~|h|/w mixed
  // additions instead of |h|/2 for plain double-and-add.
  constexpr unsigned kWindow = 5;
  const WindowTables tables(*this, std::span<const AffinePoint>(&pt, 1),
                            kWindow, /*precomputed=*/false);
  const RecodedScalar k = RecodedScalar::recode(params_.h, kWindow);
  const ChainTerm term{&tables, 0, &k};
  return to_affine(windowed_chain(*this, std::span<const ChainTerm>(&term, 1)));
}

AffinePoint Curve::random_point(Rng& rng) const {
  for (;;) {
    const Fp x = fp_.random(rng);
    Fp y;
    if (!fp_.sqrt(rhs(x), y)) continue;
    if (y.is_zero()) continue;
    // Randomize the sign of y.
    if ((rng.next_u64() & 1) != 0) y = fp_.neg(y);
    // Clear the cofactor to land in the order-q subgroup.
    const AffinePoint out = clear_cofactor({x, y, false});
    if (!out.inf) return out;
  }
}

AffinePoint Curve::hash_to_point(std::string_view msg) const {
  for (std::uint32_t ctr = 0;; ++ctr) {
    Sha256 h;
    h.update("apks-hash-to-point");
    h.update(msg);
    std::uint8_t cb[4];
    for (int i = 0; i < 4; ++i) {
      cb[i] = static_cast<std::uint8_t>(ctr >> (8 * i));
    }
    h.update(std::span<const std::uint8_t>(cb, 4));
    const auto d1 = h.finish();
    Sha256 h2;
    h2.update("apks-hash-to-point-2");
    h2.update(std::span<const std::uint8_t>(d1.data(), d1.size()));
    const auto d2 = h2.finish();
    std::array<std::uint8_t, 64> wide{};
    std::copy(d1.begin(), d1.end(), wide.begin());
    std::copy(d2.begin(), d2.end(), wide.begin() + 32);
    const Fp x = fp_.from_bytes_mod(wide);
    Fp y;
    if (!fp_.sqrt(rhs(x), y)) continue;
    if (y.is_zero()) continue;
    if ((d2[31] & 1) != 0) y = fp_.neg(y);
    const AffinePoint out = clear_cofactor({x, y, false});
    if (!out.inf) return out;
  }
}

void Curve::serialize(const AffinePoint& pt,
                      std::span<std::uint8_t, kCompressedSize> out) const {
  if (pt.inf) {
    std::fill(out.begin(), out.end(), std::uint8_t{0});
    return;
  }
  const FpInt y_plain = fp_.to_int(pt.y);
  out[0] = static_cast<std::uint8_t>(2 + (y_plain.w[0] & 1));
  const FpInt x_plain = fp_.to_int(pt.x);
  x_plain.to_bytes(std::span<std::uint8_t, 64>(out.data() + 1, 64));
}

AffinePoint Curve::deserialize(
    std::span<const std::uint8_t, kCompressedSize> in) const {
  AffinePoint out;
  const CompressedElement el{in.data(), &out, nullptr};
  decode_batch({&el, 1});
  return out;
}

void Curve::decode_batch(std::span<const CompressedElement> elems) const {
  for (std::size_t i0 = 0; i0 < elems.size(); i0 += kMaxLaneWidth) {
    const std::size_t n = std::min(kMaxLaneWidth, elems.size() - i0);
    const CompressedElement* chunk = elems.data() + i0;
    // Parse every element of the chunk and gather the radicands of those
    // that need a root; error[l] holds lane l's failure, if any.
    std::array<const char*, kMaxLaneWidth> error{};
    std::array<Fp, kMaxLaneWidth> first{};
    std::array<Fp, kMaxLaneWidth> radicand{};
    std::array<std::size_t, kMaxLaneWidth> lane{};
    std::size_t k = 0;
    for (std::size_t l = 0; l < n; ++l) {
      const CompressedElement& el = chunk[l];
      const bool is_point = el.point != nullptr;
      const std::uint8_t tag = el.bytes[0];
      const std::span<const std::uint8_t> body(el.bytes + 1, 64);
      if (is_point && tag == 0) {
        if (std::any_of(body.begin(), body.end(),
                        [](std::uint8_t b) { return b != 0; })) {
          error[l] = "Curve::deserialize: non-canonical infinity";
        }
        continue;
      }
      if (tag != 2 && tag != 3) {
        error[l] = is_point ? "Curve::deserialize: bad tag byte"
                            : "gt_deserialize: bad tag";
        continue;
      }
      const FpInt plain = FpInt::from_bytes(body);
      if (plain >= fp_.modulus()) {
        error[l] = is_point ? "Curve::deserialize: x out of range"
                            : "gt_deserialize: value out of range";
        continue;
      }
      first[l] = fp_.from_int(plain);
      // Points: y^2 = x^3 + x. G_T is unitary: a^2 + b^2 = 1.
      radicand[k] = is_point ? rhs(first[l])
                             : fp_.sub(fp_.one(), fp_.sqr(first[l]));
      lane[k++] = l;
    }
    std::array<Fp, kMaxLaneWidth> root{};
    std::array<bool, kMaxLaneWidth> ok{};
    batch_sqrt(*lanes_, fp_, {radicand.data(), k}, {root.data(), k},
               {ok.data(), k});
    for (std::size_t j = 0; j < k; ++j) {
      if (ok[j]) continue;
      error[lane[j]] = chunk[lane[j]].point != nullptr
                           ? "Curve::deserialize: x not on curve"
                           : "gt_deserialize: not a unitary element";
    }
    for (std::size_t l = 0; l < n; ++l) {
      if (error[l] != nullptr) throw std::invalid_argument(error[l]);
    }
    for (std::size_t l = 0; l < n; ++l) {
      if (chunk[l].point != nullptr && chunk[l].bytes[0] == 0) {
        *chunk[l].point = AffinePoint::infinity();
      }
    }
    for (std::size_t j = 0; j < k; ++j) {
      const CompressedElement& el = chunk[lane[j]];
      // The tag picks the root by the parity of its plain representative.
      Fp r = root[j];
      const std::uint64_t want_odd = el.bytes[0] == 3 ? 1 : 0;
      if ((fp_.to_int(r).w[0] & 1) != want_odd) r = fp_.neg(r);
      if (el.point != nullptr) {
        *el.point = {first[lane[j]], r, false};
      } else {
        *el.gt = {first[lane[j]], r};
      }
    }
  }
}

}  // namespace apks
