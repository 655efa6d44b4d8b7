// One-element-at-a-time reference decoders for compressed points and G_T
// values: one PrimeField::sqrt per element, the same checks in the same
// order and the same messages as Curve::decode_batch. The decode tests use
// them as the oracle for the lane-batched path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "ec/curve.h"

namespace apks {

inline AffinePoint scalar_decode_point(const Curve& curve,
                                       const std::uint8_t* in) {
  const FpField& fp = curve.fp();
  if (in[0] == 0) {
    if (std::any_of(in + 1, in + Curve::kCompressedSize,
                    [](std::uint8_t b) { return b != 0; })) {
      throw std::invalid_argument("Curve::deserialize: non-canonical infinity");
    }
    return AffinePoint::infinity();
  }
  if (in[0] != 2 && in[0] != 3) {
    throw std::invalid_argument("Curve::deserialize: bad tag byte");
  }
  const FpInt x_plain =
      FpInt::from_bytes(std::span<const std::uint8_t>(in + 1, 64));
  if (x_plain >= fp.modulus()) {
    throw std::invalid_argument("Curve::deserialize: x out of range");
  }
  const Fp x = fp.from_int(x_plain);
  Fp y;
  if (!fp.sqrt(fp.add(fp.mul(fp.sqr(x), x), x), y)) {
    throw std::invalid_argument("Curve::deserialize: x not on curve");
  }
  const std::uint64_t want_odd = in[0] == 3 ? 1 : 0;
  if ((fp.to_int(y).w[0] & 1) != want_odd) y = fp.neg(y);
  return {x, y, false};
}

inline Fp2El scalar_decode_gt(const Curve& curve, const std::uint8_t* in) {
  const FpField& fp = curve.fp();
  if (in[0] != 2 && in[0] != 3) {
    throw std::invalid_argument("gt_deserialize: bad tag");
  }
  const FpInt a_plain =
      FpInt::from_bytes(std::span<const std::uint8_t>(in + 1, 64));
  if (a_plain >= fp.modulus()) {
    throw std::invalid_argument("gt_deserialize: value out of range");
  }
  const Fp a = fp.from_int(a_plain);
  Fp b;
  if (!fp.sqrt(fp.sub(fp.one(), fp.sqr(a)), b)) {
    throw std::invalid_argument("gt_deserialize: not a unitary element");
  }
  const std::uint64_t want_odd = in[0] == 3 ? 1 : 0;
  if ((fp.to_int(b).w[0] & 1) != want_odd) b = fp.neg(b);
  return {a, b};
}

// "<exception type>: <what()>" of the first element that fails a decode,
// or "" when every element decodes.
inline std::string describe_error(const std::exception& ex) {
  return std::string(typeid(ex).name()) + ": " + ex.what();
}

inline std::string scalar_decode_error(
    const Curve& curve, const std::vector<CompressedElement>& elems) {
  try {
    for (const CompressedElement& el : elems) {
      if (el.point != nullptr) {
        (void)scalar_decode_point(curve, el.bytes);
      } else {
        (void)scalar_decode_gt(curve, el.bytes);
      }
    }
  } catch (const std::exception& ex) {
    return describe_error(ex);
  }
  return "";
}

inline std::string batch_decode_error(
    const Curve& curve, const std::vector<CompressedElement>& elems) {
  try {
    curve.decode_batch(elems);
  } catch (const std::exception& ex) {
    return describe_error(ex);
  }
  return "";
}

}  // namespace apks
