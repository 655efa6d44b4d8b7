#include "pairing/pairing_block.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace apks {

BlockMultiPairing::BlockMultiPairing(const Pairing& pairing,
                                     std::span<const PreprocessedPairing> pres,
                                     SimdLevel level)
    : e_(&pairing),
      dim_(pres.size()),
      engine_(make_fp_lane_engine(pairing.fp(), level)) {
  for (std::size_t s = 0; s < pres.size(); ++s) {
    const std::size_t c = pres[s].line_count();
    if (c == 0) continue;  // P at infinity: slot contributes 1
    if (steps_ == 0) {
      steps_ = c;
    } else if (steps_ != c) {
      // Cannot happen for traces of one Pairing (the structure depends only
      // on the group order), but fail loudly rather than walk out of bounds.
      throw std::logic_error("BlockMultiPairing: mismatched trace lengths");
    }
    active_.push_back(s);
  }
  lines_.resize(steps_ * active_.size());
  for (std::size_t a = 0; a < active_.size(); ++a) {
    const std::span<const NormLine> trace = pres[active_[a]].lines();
    for (std::size_t idx = 0; idx < steps_; ++idx) {
      LaneLine& ll = lines_[idx * active_.size() + a];
      ll.one = trace[idx].one;
      if (!ll.one) {
        engine_->to_scalar(ll.a, trace[idx].A);
        engine_->to_scalar(ll.b, trace[idx].B);
      }
    }
  }
  engine_->to_scalar(one_s_, e_->fp().one());
  engine_->to_scalar(zero_s_, e_->fp().zero());
}

BlockMultiPairing::BlockMultiPairing(const Pairing& pairing,
                                     std::span<const PreprocessedPairing> pres)
    : BlockMultiPairing(pairing, pres, simd_level()) {}

void BlockMultiPairing::run(const AffinePoint* const* qvecs, std::size_t n,
                            GtEl* out) const {
  const std::size_t w = engine_->width();
  std::vector<std::size_t> every(active_.size());
  std::iota(every.begin(), every.end(), std::size_t{0});
  const auto finite = [&](std::size_t r) {
    return std::none_of(active_.begin(), active_.end(),
                        [&](std::size_t s) { return qvecs[r][s].inf; });
  };
  std::vector<std::size_t> own;
  for (std::size_t r = 0; r < n;) {
    std::size_t end = r;
    while (end < n && end - r < w && finite(end)) ++end;
    if (end > r) {
      run_lanes(qvecs + r, end - r, out + r, every);
      r = end;
      continue;
    }
    // A record point at infinity contributes the factor 1, as in
    // multi_miller_pre: the record takes a pass of its own that folds only
    // its finite slots.
    own.clear();
    for (std::size_t a = 0; a < active_.size(); ++a) {
      if (!qvecs[r][active_[a]].inf) own.push_back(a);
    }
    run_lanes(qvecs + r, 1, out + r, own);
    ++r;
  }
}

void BlockMultiPairing::run_lanes(const AffinePoint* const* qvecs,
                                  std::size_t n, GtEl* out,
                                  std::span<const std::size_t> live) const {
  const FpLaneEngine& eng = *engine_;
  const std::size_t w = eng.width();
  const std::size_t na = active_.size();
  assert(n >= 1 && n <= w);

  // Gather the record points SoA-style; tail lanes replicate the last
  // record so every lane carries valid (nonzero) field values throughout.
  std::vector<LaneFp> tx(w), ty(w);
  std::vector<FpLaneVec> qx(na), qy(na);
  for (const std::size_t a : live) {
    const std::size_t s = active_[a];
    for (std::size_t l = 0; l < w; ++l) {
      const AffinePoint& pt = qvecs[std::min(l, n - 1)][s];
      tx[l] = pt.x;
      ty[l] = pt.y;
    }
    eng.load(qx[a], tx.data(), w);
    eng.load(qy[a], ty.data(), w);
  }

  FpLaneVec t1, t2, t3, t4, t5, zero_v;
  eng.broadcast(zero_v, zero_s_);

  // Lane Fp2 primitives (Karatsuba mul, squaring as (a+b)(a-b) / 2ab) —
  // the exact operation sequence of the scalar Fp2 class, lane-parallel.
  const auto f2_mul = [&](FpLaneVec& ra, FpLaneVec& rb, const FpLaneVec& xa,
                          const FpLaneVec& xb, const FpLaneVec& ya,
                          const FpLaneVec& yb) {
    eng.mul(t1, xa, ya);  // ac
    eng.mul(t2, xb, yb);  // bd
    eng.add(t3, xa, xb);
    eng.add(t4, ya, yb);
    eng.mul(t3, t3, t4);  // cross
    eng.add(t4, t1, t2);  // ac + bd
    eng.sub(ra, t1, t2);
    eng.sub(rb, t3, t4);
  };
  const auto f2_sqr = [&](FpLaneVec& ra, FpLaneVec& rb, const FpLaneVec& xa,
                          const FpLaneVec& xb) {
    eng.add(t1, xa, xb);
    eng.sub(t2, xa, xb);
    eng.mul(t1, t1, t2);  // (a+b)(a-b)
    eng.mul(t2, xa, xb);  // ab
    ra = t1;
    eng.add(rb, t2, t2);
  };

  // Shared-accumulator Miller loop over the precompiled line tables.
  FpLaneVec fa, fb, va;
  eng.broadcast(fa, one_s_);
  fb = zero_v;
  const auto fold = [&](std::size_t a, const LaneLine& l) {
    // line value at phi(Q): (A * x_Q + B) + y_Q * i, one lane mul
    eng.broadcast(t5, l.a);
    eng.mul(va, t5, qx[a]);
    eng.broadcast(t5, l.b);
    eng.add(va, va, t5);
    f2_mul(fa, fb, fa, fb, va, qy[a]);
  };
  const FqInt& order = e_->curve().params().q;
  const std::size_t bits = order.bit_length();
  const auto fold_step = [&](std::size_t idx) {
    const LaneLine* step = lines_.data() + idx * na;
    for (const std::size_t a : live) {
      if (!step[a].one) fold(a, step[a]);
    }
  };
  std::size_t idx = 0;
  for (std::size_t i = bits - 1; i-- > 0;) {
    f2_sqr(fa, fb, fa, fb);
    fold_step(idx++);
    if (order.bit(i)) fold_step(idx++);
  }

  // Blocked final exponentiation. z^{p-1} = conj(z)^2 * norm(z)^{-1}; the
  // W norm inversions collapse into one batch_inv.
  eng.mul(t1, fa, fa);
  eng.mul(t2, fb, fb);
  eng.add(t1, t1, t2);
  std::vector<LaneFp> norms(w);
  eng.store(norms.data(), t1, w);
  e_->fp().batch_inv(norms);
  FpLaneVec ninv;
  eng.load(ninv, norms.data(), w);
  eng.sub(fb, zero_v, fb);  // conj
  f2_sqr(fa, fb, fa, fb);
  eng.mul(fa, fa, ninv);
  eng.mul(fb, fb, ninv);

  // u^h via the pairing's fixed signed 4-bit digit schedule; u is unitary,
  // so negative digits multiply by the conjugate.
  FpLaneVec ta[9], tb[9];
  ta[1] = fa;
  tb[1] = fb;
  for (std::size_t k = 2; k <= 8; ++k) {
    f2_mul(ta[k], tb[k], ta[k - 1], tb[k - 1], fa, fb);
  }
  const std::span<const std::int8_t> hd = e_->h_digits();
  std::size_t top = hd.size();
  while (top > 0 && hd[top - 1] == 0) --top;
  FpLaneVec ua, ub;
  bool started = false;
  for (std::size_t i = top; i-- > 0;) {
    if (started) {
      f2_sqr(ua, ub, ua, ub);
      f2_sqr(ua, ub, ua, ub);
      f2_sqr(ua, ub, ua, ub);
      f2_sqr(ua, ub, ua, ub);
    }
    const int d = hd[i];
    if (d == 0) continue;
    const std::size_t k = static_cast<std::size_t>(d > 0 ? d : -d);
    if (d > 0) {
      if (started) {
        f2_mul(ua, ub, ua, ub, ta[k], tb[k]);
      } else {
        ua = ta[k];
        ub = tb[k];
      }
    } else {
      eng.sub(t5, zero_v, tb[k]);  // conj(table[k])
      if (started) {
        FpLaneVec ca = ta[k];
        FpLaneVec cb = t5;
        f2_mul(ua, ub, ua, ub, ca, cb);
      } else {
        ua = ta[k];
        ub = t5;
      }
    }
    started = true;
  }
  if (!started) {
    eng.broadcast(ua, one_s_);
    ub = zero_v;
  }

  std::vector<LaneFp> ra(w), rb(w);
  eng.store(ra.data(), ua, w);
  eng.store(rb.data(), ub, w);
  for (std::size_t r = 0; r < n; ++r) out[r] = GtEl{ra[r], rb[r]};

  // Engine-invariant cost attribution: dim miller probes + one multi_miller
  // + one final_exp per record, exactly as the scalar path counts.
  e_->note_block_ops(n * dim_, n, n);
}

}  // namespace apks
