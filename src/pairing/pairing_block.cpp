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
  one_.resize(lines_.size());
  for (std::size_t a = 0; a < active_.size(); ++a) {
    const std::span<const NormLine> trace = pres[active_[a]].lines();
    for (std::size_t idx = 0; idx < steps_; ++idx) {
      const std::size_t i = idx * active_.size() + a;
      one_[i] = trace[idx].one ? 1 : 0;
      if (!trace[idx].one) {
        engine_->to_scalar(lines_[i].a, trace[idx].A);
        engine_->to_scalar(lines_[i].b, trace[idx].B);
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

  FpLaneVec t[4], zero_v;
  eng.broadcast(zero_v, zero_s_);

  // Shared-accumulator Miller loop over the precompiled line tables: one
  // engine step per line, squaring f before each doubling line.
  FpLaneVec fa, fb;
  eng.broadcast(fa, one_s_);
  fb = zero_v;
  const std::span<const std::int8_t> naf = e_->miller_digits();
  std::size_t idx = 0;
  const auto step = [&](bool square) {
    const MillerStepLines lines{lines_.data() + idx * na,
                                one_.data() + idx * na};
    eng.miller_step(fa, fb, square, lines, qx.data(), qy.data(), live);
    ++idx;
  };
  for (std::size_t i = naf.size() - 1; i-- > 0;) {
    step(true);
    if (naf[i] != 0) step(false);
  }

  // Blocked final exponentiation. z^{p-1} = conj(z)^2 * norm(z)^{-1}; the
  // W norm inversions collapse into one batch_inv.
  eng.mul(t[0], fa, fa);
  eng.mul(t[1], fb, fb);
  eng.add(t[0], t[0], t[1]);
  std::vector<LaneFp> norms(w);
  eng.store(norms.data(), t[0], w);
  e_->fp().batch_inv(norms);
  FpLaneVec ninv;
  eng.load(ninv, norms.data(), w);
  eng.sub(fb, zero_v, fb);  // conj
  lane_fp2_sqr(eng, fa, fb, fa, fb, t);
  eng.mul(fa, fa, ninv);
  eng.mul(fb, fb, ninv);

  // u^h via the pairing's fixed signed 4-bit digit schedule; u is unitary,
  // so negative digits multiply by the conjugate.
  FpLaneVec ta[9], tb[9];
  ta[1] = fa;
  tb[1] = fb;
  for (std::size_t k = 2; k <= 8; ++k) {
    lane_fp2_mul(eng, ta[k], tb[k], ta[k - 1], tb[k - 1], fa, fb, t);
  }
  const std::span<const std::int8_t> hd = e_->h_digits();
  std::size_t top = hd.size();
  while (top > 0 && hd[top - 1] == 0) --top;
  FpLaneVec ua, ub;
  bool started = false;
  for (std::size_t i = top; i-- > 0;) {
    if (started) {
      for (int s = 0; s < 4; ++s) lane_fp2_sqr(eng, ua, ub, ua, ub, t);
    }
    const int d = hd[i];
    if (d == 0) continue;
    const std::size_t k = static_cast<std::size_t>(d > 0 ? d : -d);
    FpLaneVec cb;
    if (d < 0) eng.sub(cb, zero_v, tb[k]);  // conj(table[k])
    const FpLaneVec& yb = d > 0 ? tb[k] : cb;
    if (started) {
      lane_fp2_mul(eng, ua, ub, ua, ub, ta[k], yb, t);
    } else {
      ua = ta[k];
      ub = yb;
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
