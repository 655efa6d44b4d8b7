#include "pairing/pairing.h"

#include <cassert>
#include <stdexcept>

namespace apks {

namespace {

// Signed 4-bit recoding: e = sum_i d_i * 16^i with d_i in [-8, 8].
// Negative digits let the unitary exponentiation use conjugation instead of
// a second half of the multiplication table.
std::vector<std::int8_t> recode_signed4(const FpInt& e) {
  std::vector<std::int8_t> digits;
  const std::size_t nibs = (e.bit_length() + 3) / 4;
  digits.reserve(nibs + 1);
  unsigned carry = 0;
  for (std::size_t i = 0; i < nibs; ++i) {
    unsigned bits = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      if (e.bit(4 * i + j)) bits |= 1u << j;
    }
    const unsigned nib = bits + carry;  // can reach 16 (digit 0, carry out)
    if (nib > 8) {
      digits.push_back(static_cast<std::int8_t>(static_cast<int>(nib) - 16));
      carry = 1;
    } else {
      digits.push_back(static_cast<std::int8_t>(nib));
      carry = 0;
    }
  }
  if (carry != 0) digits.push_back(1);
  return digits;
}

// Non-adjacent form: e = sum_i d_i * 2^i with d_i in {-1, 0, 1}, no two
// adjacent digits nonzero. A run of ones 0111 becomes 100(-1).
std::vector<std::int8_t> recode_naf(const FqInt& e) {
  const std::size_t bits = e.bit_length();
  const auto bit = [&](std::size_t i) { return i < bits && e.bit(i); };
  std::vector<std::int8_t> digits;
  digits.reserve(bits + 1);
  unsigned carry = 0;
  for (std::size_t i = 0; i < bits || carry != 0; ++i) {
    const unsigned c = (bit(i) ? 1u : 0u) + carry;  // 0, 1 or 2
    if (c == 1) {
      // e mod 4 = 3 (a run of ones continues) -> -1 and carry; else +1.
      const bool run = bit(i + 1);
      digits.push_back(static_cast<std::int8_t>(run ? -1 : 1));
      carry = run ? 1 : 0;
    } else {
      digits.push_back(0);
      carry = c / 2;
    }
  }
  return digits;
}

}  // namespace

Pairing::Pairing(const TypeAParams& params)
    : curve_(params),
      fp2_(curve_.fp()),
      h_digits_(recode_signed4(params.h)),
      miller_digits_(recode_naf(params.q)) {
  gt_gen_ = pair(curve_.generator(), curve_.generator());
  if (fp2_.is_one(gt_gen_)) {
    throw std::logic_error("Pairing: degenerate generator pairing");
  }
}

JacPoint Pairing::dbl_step(const JacPoint& t, LineCoeffs& line) const {
  const FpField& fp = curve_.fp();
  if (t.is_infinity()) {
    line.one = true;
    return t;
  }
  const Fp Y2 = fp.sqr(t.Y);
  const Fp Z2 = fp.sqr(t.Z);
  const Fp X2 = fp.sqr(t.X);
  const Fp M = fp.add(fp.add(fp.dbl(X2), X2), fp.sqr(Z2));  // 3X^2 + Z^4
  const Fp S = fp.dbl(fp.dbl(fp.mul(t.X, Y2)));             // 4XY^2
  const Fp X3 = fp.sub(fp.sqr(M), fp.dbl(S));
  const Fp Y3 = fp.sub(fp.mul(M, fp.sub(S, X3)),
                       fp.dbl(fp.dbl(fp.dbl(fp.sqr(Y2)))));  // -8Y^4
  const Fp Z3 = fp.dbl(fp.mul(t.Y, t.Z));
  // Tangent at T, scaled by Z3*Z2 (subfield factor, killed by final exp):
  //   l = (M*Z2) * x + (M*X - 2Y^2) + (Z3*Z2) * y
  // evaluated at phi(Q) = (-x_Q, i y_Q) as (A x_Q + B) + (C y_Q) i.
  line.A = fp.mul(M, Z2);
  line.B = fp.sub(fp.mul(M, t.X), fp.dbl(Y2));
  line.C = fp.mul(Z3, Z2);
  line.one = false;
  return {X3, Y3, Z3};
}

JacPoint Pairing::add_step(const JacPoint& t, const AffinePoint& p,
                           LineCoeffs& line) const {
  const FpField& fp = curve_.fp();
  if (t.is_infinity()) {
    // Vertical line through P; contributes a subfield factor only.
    line.one = true;
    return {p.x, p.y, fp.one()};
  }
  const Fp Z2 = fp.sqr(t.Z);
  const Fp U = fp.mul(p.x, Z2);
  const Fp S = fp.mul(p.y, fp.mul(Z2, t.Z));
  const Fp H = fp.sub(U, t.X);
  const Fp R = fp.sub(S, t.Y);
  if (H.is_zero()) {
    if (R.is_zero()) {
      // T == P: fall back to the tangent line.
      return dbl_step(t, line);
    }
    // T == -P: the chord is vertical; T + P = infinity.
    line.one = true;
    return {fp.one(), fp.one(), fp.zero()};
  }
  const Fp H2 = fp.sqr(H);
  const Fp H3 = fp.mul(H2, H);
  const Fp XH2 = fp.mul(t.X, H2);
  const Fp X3 = fp.sub(fp.sub(fp.sqr(R), H3), fp.dbl(XH2));
  const Fp Y3 = fp.sub(fp.mul(R, fp.sub(XH2, X3)), fp.mul(t.Y, H3));
  const Fp Z3 = fp.mul(t.Z, H);
  // Chord through T and P, scaled by Z3:
  //   l = R * x + (R*x_P - Z3*y_P) ... evaluated at phi(Q):
  //   (R x_Q + R x_P - Z3 y_P) + (Z3 y_Q) i.
  line.A = R;
  line.B = fp.sub(fp.mul(R, p.x), fp.mul(Z3, p.y));
  line.C = Z3;
  line.one = false;
  return {X3, Y3, Z3};
}

Fp2El Pairing::eval_line(const LineCoeffs& line, const AffinePoint& q) const {
  const FpField& fp = curve_.fp();
  return {fp.add(fp.mul(line.A, q.x), line.B), fp.mul(line.C, q.y)};
}

GtEl Pairing::final_exp(const Fp2El& f) const {
  final_exp_count_.fetch_add(1, std::memory_order_relaxed);
  // z^{p-1} = conj(z) * z^{-1} = conj(z)^2 * norm(z)^{-1}: one base-field
  // inversion instead of a generic Fp2 inversion (which hides the same
  // norm-inverse plus two more multiplications).
  const FpField& fp = curve_.fp();
  const Fp n_inv = fp.inv(fp2_.norm(f));
  const Fp2El c2 = fp2_.sqr(fp2_.conj(f));
  const Fp2El unitary = {fp.mul(c2.a, n_inv), fp.mul(c2.b, n_inv)};
  return pow_unitary(unitary);
}

GtEl Pairing::pow_unitary(const Fp2El& u) const {
  // u^h with h's fixed signed 4-bit recoding; u^{-k} = conj(u)^k since u is
  // unitary. Table holds u^1..u^8.
  Fp2El table[9];
  table[1] = u;
  for (std::size_t k = 2; k <= 8; ++k) table[k] = fp2_.mul(table[k - 1], u);
  Fp2El acc = fp2_.one();
  bool started = false;
  for (std::size_t i = h_digits_.size(); i-- > 0;) {
    if (started) acc = fp2_.sqr(fp2_.sqr(fp2_.sqr(fp2_.sqr(acc))));
    const int d = h_digits_[i];
    if (d == 0) continue;
    const Fp2El& t = table[static_cast<std::size_t>(d > 0 ? d : -d)];
    const Fp2El term = d > 0 ? t : fp2_.conj(t);
    acc = started ? fp2_.mul(acc, term) : term;
    started = true;
  }
  return acc;
}

GtEl Pairing::pair(const AffinePoint& p, const AffinePoint& q) const {
  return final_exp(miller(p, q));
}

Fp2El Pairing::miller(const AffinePoint& p, const AffinePoint& q) const {
  miller_count_.fetch_add(1, std::memory_order_relaxed);
  if (p.inf || q.inf) return fp2_.one();
  Fp2El f = fp2_.one();
  JacPoint t = curve_.to_jac(p);
  const AffinePoint np = curve_.neg(p);
  const std::span<const std::int8_t> naf = miller_digits_;
  LineCoeffs line;
  for (std::size_t i = naf.size() - 1; i-- > 0;) {
    f = fp2_.sqr(f);
    t = dbl_step(t, line);
    if (!line.one) f = fp2_.mul(f, eval_line(line, q));
    if (naf[i] != 0) {
      t = add_step(t, naf[i] > 0 ? p : np, line);
      if (!line.one) f = fp2_.mul(f, eval_line(line, q));
    }
  }
  return f;
}

Fp2El Pairing::multi_miller(std::span<const MillerPair> pairs) const {
  miller_count_.fetch_add(pairs.size(), std::memory_order_relaxed);
  multi_miller_count_.fetch_add(1, std::memory_order_relaxed);
  // Active slots: infinity on either side contributes the factor 1.
  std::vector<std::size_t> act;
  std::vector<JacPoint> t;
  std::vector<AffinePoint> np;
  act.reserve(pairs.size());
  t.reserve(pairs.size());
  np.reserve(pairs.size());
  for (std::size_t s = 0; s < pairs.size(); ++s) {
    if (!pairs[s].p.inf && !pairs[s].q.inf) {
      act.push_back(s);
      t.push_back(curve_.to_jac(pairs[s].p));
      np.push_back(curve_.neg(pairs[s].p));
    }
  }
  Fp2El f = fp2_.one();
  if (act.empty()) return f;
  const std::span<const std::int8_t> naf = miller_digits_;
  LineCoeffs line;
  for (std::size_t i = naf.size() - 1; i-- > 0;) {
    f = fp2_.sqr(f);  // one shared squaring per digit, whatever the slots
    for (std::size_t j = 0; j < act.size(); ++j) {
      const MillerPair& mp = pairs[act[j]];
      t[j] = dbl_step(t[j], line);
      if (!line.one) f = fp2_.mul(f, eval_line(line, mp.q));
      if (naf[i] != 0) {
        t[j] = add_step(t[j], naf[i] > 0 ? mp.p : np[j], line);
        if (!line.one) f = fp2_.mul(f, eval_line(line, mp.q));
      }
    }
  }
  return f;
}

Fp2El Pairing::multi_miller_pre(std::span<const PreprocessedPairing> pres,
                                std::span<const AffinePoint> qs) const {
  assert(pres.size() == qs.size());
  miller_count_.fetch_add(pres.size(), std::memory_order_relaxed);
  multi_miller_count_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::size_t> act;
  act.reserve(pres.size());
  for (std::size_t s = 0; s < pres.size(); ++s) {
    if (pres[s].line_count() > 0 && !qs[s].inf) act.push_back(s);
  }
  Fp2El f = fp2_.one();
  if (act.empty()) return f;
  const FpField& fp = curve_.fp();
  const std::span<const std::int8_t> naf = miller_digits_;
  // Every non-empty trace has the same step structure (it depends only on
  // the digits of q), so one index walks all of them.
  const auto fold = [&](std::size_t idx) {
    for (const std::size_t s : act) {
      const NormLine& l = pres[s].lines()[idx];
      if (!l.one) {
        f = fp2_.mul(f, {fp.add(fp.mul(l.A, qs[s].x), l.B), qs[s].y});
      }
    }
  };
  std::size_t idx = 0;
  for (std::size_t i = naf.size() - 1; i-- > 0;) {
    f = fp2_.sqr(f);
    fold(idx++);
    if (naf[i] != 0) fold(idx++);
  }
  return f;
}

PreprocessedPairing Pairing::preprocess(const AffinePoint& p) const {
  std::vector<NormLine> lines;
  if (p.inf) {
    return PreprocessedPairing(*this, std::move(lines));
  }
  const std::span<const std::int8_t> naf = miller_digits_;
  std::vector<LineCoeffs> raw;
  raw.reserve(2 * naf.size());
  JacPoint t = curve_.to_jac(p);
  const AffinePoint np = curve_.neg(p);
  LineCoeffs line;
  for (std::size_t i = naf.size() - 1; i-- > 0;) {
    t = dbl_step(t, line);
    raw.push_back(line);
    if (naf[i] != 0) {
      t = add_step(t, naf[i] > 0 ? p : np, line);
      raw.push_back(line);
    }
  }
  // Normalize by C^{-1} (one batch inversion for the whole trace). The
  // scaling is an F_p factor per folded line, killed by final_exp, and it
  // turns each eval into a single multiplication.
  const FpField& fp = curve_.fp();
  std::vector<Fp> cs;
  cs.reserve(raw.size());
  for (const LineCoeffs& l : raw) {
    if (!l.one) cs.push_back(l.C);
  }
  fp.batch_inv(cs);
  lines.reserve(raw.size());
  std::size_t ci = 0;
  for (const LineCoeffs& l : raw) {
    NormLine n;
    n.one = l.one;
    if (!l.one) {
      const Fp& cinv = cs[ci++];
      n.A = fp.mul(l.A, cinv);
      n.B = fp.mul(l.B, cinv);
    }
    lines.push_back(n);
  }
  return PreprocessedPairing(*this, std::move(lines));
}

GtEl PreprocessedPairing::pair_with(const AffinePoint& q) const {
  return parent_->final_exp(miller_with(q));
}

Fp2El PreprocessedPairing::miller_with(const AffinePoint& q) const {
  parent_->miller_count_.fetch_add(1, std::memory_order_relaxed);
  const Fp2& fp2 = parent_->fp2_;
  if (lines_.empty() || q.inf) return fp2.one();
  const FpField& fp = parent_->curve_.fp();
  const std::span<const std::int8_t> naf = parent_->miller_digits_;
  Fp2El f = fp2.one();
  const auto fold = [&](const NormLine& l) {
    if (!l.one) f = fp2.mul(f, {fp.add(fp.mul(l.A, q.x), l.B), q.y});
  };
  std::size_t idx = 0;
  for (std::size_t i = naf.size() - 1; i-- > 0;) {
    f = fp2.sqr(f);
    fold(lines_[idx++]);
    if (naf[i] != 0) fold(lines_[idx++]);
  }
  return f;
}

void Pairing::gt_serialize(const GtEl& a,
                           std::span<std::uint8_t, kGtCompressedSize> out) const {
  const FpField& fp = curve_.fp();
  const FpInt b_plain = fp.to_int(a.b);
  out[0] = static_cast<std::uint8_t>(2 + (b_plain.w[0] & 1));
  fp.to_int(a.a).to_bytes(std::span<std::uint8_t, 64>(out.data() + 1, 64));
}

GtEl Pairing::gt_deserialize(
    std::span<const std::uint8_t, kGtCompressedSize> in) const {
  GtEl out;
  const CompressedElement el{in.data(), nullptr, &out};
  curve_.decode_batch({&el, 1});
  return out;
}

}  // namespace apks
