#include "hpe/serialize.h"

#include <algorithm>
#include <array>
#include <exception>
#include <stdexcept>

#include "common/work_pool.h"

namespace apks {

void write_fq(const FqField& fq, const Fq& v, ByteWriter& w) {
  std::array<std::uint8_t, 24> buf{};
  fq.to_int(v).to_bytes(buf);
  // The top 4 bytes of the 3-limb representation are always zero for a
  // 160-bit modulus; ship the 20 significant bytes, as the paper assumes.
  w.raw(std::span<const std::uint8_t>(buf.data() + 4, 20));
}

Fq read_fq(const FqField& fq, ByteReader& r) {
  const auto bytes = r.raw(20);
  const FqInt v = FqInt::from_bytes(bytes);
  if (v >= fq.modulus()) {
    throw std::invalid_argument("read_fq: scalar out of range");
  }
  return fq.from_int(v);
}

void write_point(const Curve& curve, const AffinePoint& pt, ByteWriter& w) {
  std::array<std::uint8_t, Curve::kCompressedSize> buf{};
  curve.serialize(pt, buf);
  w.raw(buf);
}

AffinePoint read_point(const Curve& curve, ByteReader& r) {
  AffinePoint pt;
  read_elements(curve, [&](ElementReader& in) { in.point(r, pt); });
  return pt;
}

void write_gt(const Pairing& e, const GtEl& v, ByteWriter& w) {
  std::array<std::uint8_t, Pairing::kGtCompressedSize> buf{};
  e.gt_serialize(v, buf);
  w.raw(buf);
}

void write_gvec(const Curve& curve, const GVec& v, ByteWriter& w) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& pt : v) write_point(curve, pt, w);
}

void ElementReader::point(ByteReader& r, AffinePoint& out) {
  queued_.push_back({r.raw(Curve::kCompressedSize).data(), &out, nullptr});
}

void ElementReader::gt(ByteReader& r, GtEl& out) {
  queued_.push_back({r.raw(Pairing::kGtCompressedSize).data(), nullptr, &out});
}

std::uint32_t ElementReader::gvec_count(ByteReader& r) {
  const std::uint32_t n = r.u32();
  // Validate the claimed count against the bytes actually present before
  // reserving (hostile length prefixes must not drive allocations).
  if (n > r.remaining() / Curve::kCompressedSize) {
    throw std::invalid_argument("read_gvec: length field exceeds payload");
  }
  return n;
}

void ElementReader::gvec(ByteReader& r, GVec& out) {
  out.resize(gvec_count(r));
  for (AffinePoint& pt : out) point(r, pt);
}

void ElementReader::skip_gvec(ByteReader& r) {
  (void)r.raw(gvec_count(r) * Curve::kCompressedSize);
}

void ElementReader::finish() {
  // 16 full lane passes per task: one key or signature decodes on the
  // calling thread, a restore's thousands of elements on every core.
  constexpr std::size_t kSlice = 16 * kMaxLaneWidth;
  const std::vector<CompressedElement> queued = std::move(queued_);
  queued_.clear();
  const std::span<const CompressedElement> all(queued);
  std::vector<std::exception_ptr> errors((all.size() + kSlice - 1) / kSlice);
  parallel_run(errors.size(), [&](std::size_t s) {
    try {
      curve_->decode_batch(
          all.subspan(s * kSlice, std::min(kSlice, all.size() - s * kSlice)));
    } catch (...) {
      errors[s] = std::current_exception();
    }
  });
  // Slices are in queue order, so the first error is the earliest one.
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

std::vector<std::uint8_t> serialize_ciphertext(const Pairing& e,
                                               const HpeCiphertext& ct) {
  ByteWriter w;
  write_gvec(e.curve(), ct.c1, w);
  write_gt(e, ct.c2, w);
  return w.take();
}

HpeCiphertext deserialize_ciphertext(const Pairing& e,
                                     std::span<const std::uint8_t> data) {
  HpeCiphertext ct;
  read_elements(e.curve(),
                [&](ElementReader& in) { read_ciphertext(in, data, ct); });
  return ct;
}

void read_ciphertext(ElementReader& in, std::span<const std::uint8_t> data,
                     HpeCiphertext& ct) {
  ByteReader r(data);
  in.gvec(r, ct.c1);
  in.gt(r, ct.c2);
  if (!r.done()) throw std::invalid_argument("ciphertext: trailing bytes");
}

std::vector<std::uint8_t> serialize_key(const Pairing& e, const HpeKey& key) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(key.level));
  write_gvec(e.curve(), key.dec, w);
  w.u32(static_cast<std::uint32_t>(key.ran.size()));
  for (const auto& v : key.ran) write_gvec(e.curve(), v, w);
  w.u32(static_cast<std::uint32_t>(key.del.size()));
  for (const auto& v : key.del) write_gvec(e.curve(), v, w);
  return w.take();
}

HpeKey deserialize_key(const Pairing& e, std::span<const std::uint8_t> data,
                       KeyParts parts) {
  ByteReader r(data);
  HpeKey key;
  read_elements(e.curve(), [&](ElementReader& in) {
    // The vectors only DelegateCap uses: decoded into `out`, or, for
    // kDecOnly, stepped over after the same checks.
    const auto tail = [&](std::vector<GVec>& out, std::uint32_t count) {
      if (parts == KeyParts::kDecOnly) {
        for (std::uint32_t i = 0; i < count; ++i) in.skip_gvec(r);
        return;
      }
      out.resize(count);
      for (GVec& v : out) in.gvec(r, v);
    };
    key.level = r.u32();
    // Every honest key carries level+1 randomizer vectors, each at least
    // one point: a level field the payload cannot possibly back is corrupt
    // (and would otherwise only surface as an out-of-range index much
    // later, at delegation time).
    if (key.level >= r.remaining() / Curve::kCompressedSize) {
      throw std::invalid_argument("key: level field exceeds payload");
    }
    in.gvec(r, key.dec);
    const std::uint32_t nran = r.u32();
    if (nran > r.remaining() / Curve::kCompressedSize) {
      throw std::invalid_argument("key: randomizer count exceeds payload");
    }
    tail(key.ran, nran);
    if (nran != key.level + 1) {
      // Invariant of every issued key (gen_key and delegate both maintain
      // it); enforcing it here turns a delayed delegation failure into a
      // clean parse error.
      throw std::invalid_argument("key: randomizer count != level + 1");
    }
    const std::uint32_t ndel = r.u32();
    if (ndel > r.remaining() / Curve::kCompressedSize) {
      throw std::invalid_argument("key: delegation count exceeds payload");
    }
    tail(key.del, ndel);
    if (!r.done()) throw std::invalid_argument("key: trailing bytes");
  });
  return key;
}

std::vector<std::uint8_t> serialize_public_key(const Pairing& e,
                                               const HpePublicKey& pk) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(pk.n));
  w.u32(static_cast<std::uint32_t>(pk.bhat.size()));
  for (const auto& v : pk.bhat) write_gvec(e.curve(), v, w);
  return w.take();
}

HpePublicKey deserialize_public_key(const Pairing& e,
                                    std::span<const std::uint8_t> data) {
  ByteReader r(data);
  HpePublicKey pk;
  read_elements(e.curve(), [&](ElementReader& in) {
    pk.n = r.u32();
    const std::uint32_t rows = r.u32();
    if (rows > r.remaining() / Curve::kCompressedSize) {
      throw std::invalid_argument("public key: row count exceeds payload");
    }
    pk.bhat.resize(rows);
    for (GVec& v : pk.bhat) in.gvec(r, v);
    if (!r.done()) throw std::invalid_argument("public key: trailing bytes");
  });
  return pk;
}

std::vector<std::uint8_t> serialize_master_key(const Pairing& e,
                                               const HpeMasterKey& msk) {
  ByteWriter w;
  const FqField& fq = e.fq();
  w.u32(static_cast<std::uint32_t>(msk.x.rows()));
  for (std::size_t i = 0; i < msk.x.rows(); ++i) {
    for (std::size_t j = 0; j < msk.x.cols(); ++j) {
      write_fq(fq, msk.x.at(i, j), w);
    }
  }
  w.u32(static_cast<std::uint32_t>(msk.bstar.size()));
  for (const auto& v : msk.bstar) write_gvec(e.curve(), v, w);
  return w.take();
}

HpeMasterKey deserialize_master_key(const Pairing& e,
                                    std::span<const std::uint8_t> data) {
  ByteReader r(data);
  HpeMasterKey msk;
  const std::uint32_t n = r.u32();
  if (n > 4096 || static_cast<std::uint64_t>(n) * n * 20 > r.remaining()) {
    throw std::invalid_argument("master key: matrix size exceeds payload");
  }
  msk.x = MatrixFq(n, n, e.fq());
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      msk.x.at(i, j) = read_fq(e.fq(), r);
    }
  }
  read_elements(e.curve(), [&](ElementReader& in) {
    const std::uint32_t rows = r.u32();
    if (rows > r.remaining() / Curve::kCompressedSize) {
      throw std::invalid_argument("master key: row count exceeds payload");
    }
    msk.bstar.resize(rows);
    for (GVec& v : msk.bstar) in.gvec(r, v);
    if (!r.done()) throw std::invalid_argument("master key: trailing bytes");
  });
  return msk;
}

}  // namespace apks
