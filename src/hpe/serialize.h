// Wire encodings for HPE objects.
//
// Group elements use the 65-byte compressed form and F_q scalars 20 bytes,
// matching the size accounting of the paper's Section VII (PK =
// 65[n0(n0-1)+3] B, ciphertext = 65(n0+1) B, etc. — our layouts add small
// explicit headers on top of the element payloads).
#pragma once

#include <vector>

#include "common/bytes.h"
#include "hpe/hpe.h"

namespace apks {

void write_fq(const FqField& fq, const Fq& v, ByteWriter& w);
[[nodiscard]] Fq read_fq(const FqField& fq, ByteReader& r);

void write_point(const Curve& curve, const AffinePoint& pt, ByteWriter& w);
[[nodiscard]] AffinePoint read_point(const Curve& curve, ByteReader& r);

void write_gt(const Pairing& e, const GtEl& v, ByteWriter& w);

void write_gvec(const Curve& curve, const GVec& v, ByteWriter& w);

// Reads the compressed elements of one or more objects off ByteReaders and
// decodes them at finish() (Curve::decode_batch): every element shares a
// lane square-root pass with its neighbours, across object boundaries,
// instead of paying one scalar root each, and large queues run in slices
// on the work pool. A destination must stay put until finish().
class ElementReader {
 public:
  explicit ElementReader(const Curve& curve) : curve_(&curve) {}

  void point(ByteReader& r, AffinePoint& out);
  void gt(ByteReader& r, GtEl& out);
  // u32 count, then that many points; resizes `out`.
  void gvec(ByteReader& r, GVec& out);
  // The same layout as gvec, checked the same way, but the points are
  // only stepped over: nothing is queued or decoded.
  void skip_gvec(ByteReader& r);

  // Decodes what is queued and throws the first malformed element's error
  // in queue order.
  void finish();

 private:
  // Reads a gvec's u32 point count and checks it against the bytes left.
  static std::uint32_t gvec_count(ByteReader& r);

  const Curve* curve_;
  std::vector<CompressedElement> queued_;
};

// Runs walk(reader), which reads one whole object, then decodes its
// elements. If walk throws, the elements it queued are decoded first, so
// a malformed element before the structural fault decides the error, as
// in a one-element-at-a-time read.
template <class Walk>
void read_elements(const Curve& curve, Walk&& walk) {
  ElementReader in(curve);
  try {
    walk(in);
  } catch (...) {
    in.finish();
    throw;
  }
  in.finish();
}

[[nodiscard]] std::vector<std::uint8_t> serialize_ciphertext(
    const Pairing& e, const HpeCiphertext& ct);
[[nodiscard]] HpeCiphertext deserialize_ciphertext(
    const Pairing& e, std::span<const std::uint8_t> data);
// The walk deserialize_ciphertext runs: parses one ciphertext encoding and
// queues its elements on `in`. Walks of several objects on one reader
// share lane passes; `data` and `ct` must stay put until `in` finishes.
void read_ciphertext(ElementReader& in, std::span<const std::uint8_t> data,
                     HpeCiphertext& ct);

// What deserialize_key decodes. Both parse and check the whole key layout
// (level, every vector count and length, trailing bytes); kDecOnly then
// decodes k*_dec alone and leaves ran and del empty. Search pairs only
// k*_dec, so a server skips the square roots of the n+level+1 vectors
// that exist for DelegateCap.
enum class KeyParts : std::uint8_t { kAll, kDecOnly };

[[nodiscard]] std::vector<std::uint8_t> serialize_key(const Pairing& e,
                                                      const HpeKey& key);
[[nodiscard]] HpeKey deserialize_key(const Pairing& e,
                                     std::span<const std::uint8_t> data,
                                     KeyParts parts = KeyParts::kAll);

[[nodiscard]] std::vector<std::uint8_t> serialize_public_key(
    const Pairing& e, const HpePublicKey& pk);
[[nodiscard]] HpePublicKey deserialize_public_key(
    const Pairing& e, std::span<const std::uint8_t> data);

[[nodiscard]] std::vector<std::uint8_t> serialize_master_key(
    const Pairing& e, const HpeMasterKey& msk);
[[nodiscard]] HpeMasterKey deserialize_master_key(
    const Pairing& e, std::span<const std::uint8_t> data);

}  // namespace apks
