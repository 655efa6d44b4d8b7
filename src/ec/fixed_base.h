// Windowed scalar-multiplication engine: signed fixed-window tables plus a
// shared-doubling-chain (Straus) evaluator.
//
// A scalar is recoded into signed base-2^w digits d_j in [-2^{w-1}, 2^{w-1}];
// for each point P a table of {1P, 2P, ..., 2^{w-1} P} in affine coordinates
// serves both signs (negation is free on the curve). A multi-term linear
// combination sum_i k_i P_i then runs ONE Jacobian doubling chain over the
// bit positions, adding table entries as each term's window boundary passes —
// the classic Straus trick, generalized to terms with heterogeneous window
// widths so that cached wide tables (fixed bases) and cheap narrow tables
// (ephemeral bases) mix freely in one chain.
//
// Tables are built in Jacobian coordinates and normalized with a single
// shared inversion (Curve::batch_normalize). Callers own all cost
// accounting: windowed_chain itself never touches the Curve op counters.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ec/curve.h"

namespace apks {

// Signed base-2^w digits of k, least significant first:
//   k == sum_j out[j] * 2^{j*wbits},  out[j] in [-2^{w-1}, 2^{w-1}].
// The digit count covers the full limb width plus one carry digit, so any
// k (including k >= q) recodes exactly.
template <std::size_t L>
[[nodiscard]] std::vector<std::int32_t> signed_window_digits(
    const BigInt<L>& k, unsigned wbits) {
  const std::size_t total_bits = 64 * L;
  const std::size_t nd = total_bits / wbits + 2;  // +1 round-up, +1 carry
  std::vector<std::int32_t> out(nd, 0);
  const std::uint32_t base = 1u << wbits;
  const std::uint32_t half = base >> 1;
  std::uint32_t carry = 0;
  for (std::size_t j = 0; j < nd; ++j) {
    const std::size_t pos = j * wbits;
    std::uint32_t val = carry;
    if (pos < total_bits) {
      const std::size_t limb = pos / 64;
      const std::size_t off = pos % 64;
      std::uint64_t chunk = k.w[limb] >> off;
      if (off + wbits > 64 && limb + 1 < L) {
        chunk |= k.w[limb + 1] << (64 - off);
      }
      val += static_cast<std::uint32_t>(chunk & (base - 1));
    }
    // val <= (base-1) + 1; fold the top half into a borrow from the next
    // digit so every digit fits the signed table range.
    if (val >= half) {
      out[j] = static_cast<std::int32_t>(val) - static_cast<std::int32_t>(base);
      carry = 1;
    } else {
      out[j] = static_cast<std::int32_t>(val);
      carry = 0;
    }
    // val == base leaves digit 0 with carry 1 (the chunk's own carry).
  }
  return out;
}

// A scalar recoded for a specific window width. Recode once per (scalar,
// width) pair and reuse across every coordinate chain of a lincomb.
struct RecodedScalar {
  unsigned wbits = 0;
  std::vector<std::int32_t> digits;
  // Bit position of the most significant nonzero digit; -1 when k == 0.
  std::ptrdiff_t top_pos = -1;

  template <std::size_t L>
  [[nodiscard]] static RecodedScalar recode(const BigInt<L>& k,
                                            unsigned wbits) {
    return from_digits(signed_window_digits(k, wbits), wbits);
  }

  // Wraps digits that are already recoded at width `wbits`.
  [[nodiscard]] static RecodedScalar from_digits(
      std::vector<std::int32_t> digits, unsigned wbits) {
    RecodedScalar r;
    r.wbits = wbits;
    r.digits = std::move(digits);
    for (std::size_t j = r.digits.size(); j-- > 0;) {
      if (r.digits[j] != 0) {
        r.top_pos = static_cast<std::ptrdiff_t>(j * wbits);
        break;
      }
    }
    return r;
  }
};

// Affine multiples {1P, 2P, ..., 2^{w-1} P} for each point of a basis,
// built with one shared batch normalization.
class WindowTables {
 public:
  static constexpr unsigned kMinWindow = 2;
  static constexpr unsigned kMaxWindow = 8;

  // `precomputed` marks tables cached across calls (fixed bases); callers
  // use it to attribute work to the precomp_base_mul counter.
  WindowTables(const Curve& curve, std::span<const AffinePoint> pts,
               unsigned wbits, bool precomputed);

  [[nodiscard]] unsigned wbits() const noexcept { return wbits_; }
  [[nodiscard]] std::size_t points() const noexcept {
    return half_ == 0 ? 0 : entries_.size() / half_;
  }
  [[nodiscard]] bool precomputed() const noexcept { return precomputed_; }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return entries_.size() * sizeof(AffinePoint);
  }
  // Table footprint of `npts` points at width `wbits`, in bytes.
  [[nodiscard]] static std::size_t table_bytes(std::size_t npts,
                                               unsigned wbits) noexcept {
    return npts * (std::size_t{1} << (wbits - 1)) * sizeof(AffinePoint);
  }

  // m * P_i for m in [1, 2^{w-1}].
  [[nodiscard]] const AffinePoint& entry(std::size_t i,
                                         std::uint32_t m) const noexcept {
    return entries_[i * half_ + (m - 1)];
  }

 private:
  unsigned wbits_ = 0;
  std::size_t half_ = 0;  // entries per point == 2^{w-1}
  bool precomputed_ = false;
  std::vector<AffinePoint> entries_;
};

// One term of a shared-chain evaluation: digits of k against the table row
// of point `index`. Terms in a chain may use different window widths.
struct ChainTerm {
  const WindowTables* tables = nullptr;
  std::size_t index = 0;
  const RecodedScalar* k = nullptr;
};

// sum_i k_i * P_i over one shared doubling chain, in Jacobian coordinates
// (no normalization — callers batch-normalize whole lincombs). Does not
// touch the op counters.
[[nodiscard]] JacPoint windowed_chain(const Curve& curve,
                                      std::span<const ChainTerm> terms);

// k * P for one fixed point P, with a doubling chain one chunk long. The
// signed digits of k are cut into chunks of kChunkDigits digits; chunk j
// is a term against the spread point 2^{j * kChunkBits} P, so one
// windowed_chain over all chunks runs ~kChunkBits doublings instead of one
// per scalar bit. The tables (one row per chunk) are built once per base.
class FixedBaseComb {
 public:
  static constexpr unsigned kWindow = 5;
  static constexpr unsigned kChunkDigits = 4;
  static constexpr unsigned kChunkBits = kWindow * kChunkDigits;

  FixedBaseComb(const Curve& curve, const AffinePoint& p);

  // k * P for any k, in Jacobian coordinates. Does not touch the op
  // counters.
  [[nodiscard]] JacPoint mul(const Curve& curve, const FqInt& k) const;

 private:
  WindowTables tables_;
};

}  // namespace apks
