// Prime field arithmetic on top of Montgomery contexts.
//
// Elements are BigInt<L> values in Montgomery form; the PrimeField object
// owns the modulus context and provides all operations. Callers never mix
// elements from different field instances.
#pragma once

#include <cassert>
#include <stdexcept>
#include <vector>

#include "common/bigint.h"
#include "common/montgomery.h"
#include "common/rng.h"

namespace apks {

template <std::size_t L>
class PrimeField {
 public:
  using El = BigInt<L>;

  explicit PrimeField(const El& p) : mont_(p) {
    if (!p.is_odd() || p < El{3}) {
      throw std::invalid_argument("PrimeField: modulus must be an odd prime");
    }
    legendre_exp_ = (p - El{1}).shr(1);          // (p-1)/2
    sqrt_exp_ = legendre_exp_.shr(1) + El{1};    // (p+1)/4 when p = 3 (mod 4)
  }

  [[nodiscard]] const El& modulus() const noexcept { return mont_.modulus(); }
  [[nodiscard]] El zero() const noexcept { return El::zero(); }
  [[nodiscard]] const El& one() const noexcept { return mont_.r(); }

  [[nodiscard]] El add(const El& a, const El& b) const noexcept {
    return mont_.add(a, b);
  }
  [[nodiscard]] El sub(const El& a, const El& b) const noexcept {
    return mont_.sub(a, b);
  }
  [[nodiscard]] El neg(const El& a) const noexcept { return mont_.neg(a); }
  [[nodiscard]] El mul(const El& a, const El& b) const noexcept {
    return mont_.mul(a, b);
  }
  [[nodiscard]] El sqr(const El& a) const noexcept { return mont_.sqr(a); }

  [[nodiscard]] El dbl(const El& a) const noexcept { return add(a, a); }

  // a^e with a in the field; e is a plain (non-Montgomery) integer.
  template <std::size_t EL>
  [[nodiscard]] El pow(const El& a, const BigInt<EL>& e) const noexcept {
    return mont_.pow(a, e);
  }

  // Multiplicative inverse; requires a != 0 (checked). Binary-EGCD based;
  // inv_fermat stays available on MontCtx for cross-checking.
  [[nodiscard]] El inv(const El& a) const {
    if (a.is_zero()) throw std::domain_error("PrimeField::inv of zero");
    return mont_.inv_binary(a);
  }

  // Montgomery's batch-inversion trick: inverts every element in place at
  // the cost of one field inversion plus 3(n-1) multiplications. All
  // elements must be nonzero (checked).
  void batch_inv(std::vector<El>& elems) const {
    if (elems.empty()) return;
    std::vector<El> prefix(elems.size());
    El acc = one();
    for (std::size_t i = 0; i < elems.size(); ++i) {
      if (elems[i].is_zero()) {
        throw std::domain_error("PrimeField::batch_inv of zero");
      }
      prefix[i] = acc;
      acc = mul(acc, elems[i]);
    }
    El inv_acc = inv(acc);
    for (std::size_t i = elems.size(); i-- > 0;) {
      const El this_inv = mul(inv_acc, prefix[i]);
      inv_acc = mul(inv_acc, elems[i]);
      elems[i] = this_inv;
    }
  }

  [[nodiscard]] El from_u64(std::uint64_t v) const noexcept {
    return mont_.to_mont(El{v});
  }
  [[nodiscard]] El from_int(const El& v) const noexcept {
    assert(v < modulus());
    return mont_.to_mont(v);
  }
  [[nodiscard]] El to_int(const El& a) const noexcept {
    return mont_.from_mont(a);
  }

  // Interprets big-endian bytes as an integer and reduces mod p.
  // Accepts up to 2*L*8 bytes.
  [[nodiscard]] El from_bytes_mod(std::span<const std::uint8_t> bytes) const {
    const auto wide = BigInt<2 * L>::from_bytes(bytes);
    return mont_.to_mont(mod(wide, modulus()));
  }

  // Uniform random field element in [0, p).
  [[nodiscard]] El random(Rng& rng) const {
    const std::size_t bits = modulus().bit_length();
    const std::size_t bytes = (bits + 7) / 8;
    std::array<std::uint8_t, 8 * L> buf{};
    for (;;) {
      rng.fill(std::span<std::uint8_t>(buf.data(), bytes));
      // Mask the excess top bits so rejection is fast.
      if (bits % 8 != 0) {
        buf[0] = static_cast<std::uint8_t>(
            buf[0] & ((1u << (bits % 8)) - 1u));
      }
      auto v = El::from_bytes(std::span<const std::uint8_t>(buf.data(), bytes));
      if (v < modulus()) return mont_.to_mont(v);
    }
  }

  // Uniform random nonzero element.
  [[nodiscard]] El random_nonzero(Rng& rng) const {
    for (;;) {
      auto v = random(rng);
      if (!v.is_zero()) return v;
    }
  }

  // Legendre symbol: +1 (QR), -1 (non-residue), 0 (zero). The exponent
  // (p-1)/2 is fixed per field and cached at construction.
  [[nodiscard]] int legendre(const El& a) const {
    if (a.is_zero()) return 0;
    const El r = pow(a, legendre_exp_);
    if (r == one()) return 1;
    return -1;
  }

  // The square-root exponent (p+1)/4, as a plain integer.
  [[nodiscard]] const El& sqrt_exponent() const noexcept { return sqrt_exp_; }

  // Square root for p = 3 (mod 4): a^((p+1)/4), cached exponent. Returns
  // false if `a` is a non-residue.
  [[nodiscard]] bool sqrt(const El& a, El& out) const {
    assert(modulus().w[0] % 4 == 3);
    if (a.is_zero()) {
      out = zero();
      return true;
    }
    const El r = pow(a, sqrt_exp_);
    if (sqr(r) != a) return false;
    out = r;
    return true;
  }

 private:
  MontCtx<L> mont_;
  El legendre_exp_{};  // (p-1)/2
  El sqrt_exp_{};      // (p+1)/4 = (p-1)/4 + 1 for p = 3 (mod 4)
};

// Miller-Rabin primality test with `rounds` random bases.
template <std::size_t L>
[[nodiscard]] bool is_probable_prime(const BigInt<L>& n, Rng& rng,
                                     int rounds = 40) {
  if (n < BigInt<L>{2}) return false;
  for (const std::uint64_t sp : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull,
                                 19ull, 23ull, 29ull, 31ull, 37ull}) {
    const BigInt<L> spb{sp};
    if (n == spb) return true;
    BigInt<L> q, r;
    divrem(n, spb, q, r);
    if (r.is_zero()) return false;
  }
  // n - 1 = d * 2^s
  const BigInt<L> nm1 = n - BigInt<L>{1};
  BigInt<L> d = nm1;
  unsigned s = 0;
  while (!d.is_odd()) {
    d = d.shr(1);
    ++s;
  }
  MontCtx<L> mont(n);
  const BigInt<L> one_m = mont.r();
  const BigInt<L> nm1_m = mont.to_mont(nm1);
  const std::size_t bits = n.bit_length();
  const std::size_t bytes = (bits + 7) / 8;
  std::array<std::uint8_t, 8 * L> buf{};
  for (int round = 0; round < rounds; ++round) {
    BigInt<L> a;
    do {
      rng.fill(std::span<std::uint8_t>(buf.data(), bytes));
      if (bits % 8 != 0) {
        buf[0] = static_cast<std::uint8_t>(buf[0] & ((1u << (bits % 8)) - 1u));
      }
      a = BigInt<L>::from_bytes(
          std::span<const std::uint8_t>(buf.data(), bytes));
    } while (a < BigInt<L>{2} || a >= nm1);
    BigInt<L> x = mont.pow(mont.to_mont(a), d);
    if (x == one_m || x == nm1_m) continue;
    bool composite = true;
    for (unsigned i = 1; i < s; ++i) {
      x = mont.sqr(x);
      if (x == nm1_m) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

}  // namespace apks
