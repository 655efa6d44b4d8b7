#include "core/serialize_apks.h"

#include <stdexcept>

namespace apks {
namespace {

// Smallest possible encodings, used to bound hostile count fields.
constexpr std::size_t kMinTermBytes = 1 + 4 + 8 + 8 + 4;  // empty kAny term
constexpr std::size_t kMinQueryBytes = 4;                 // zero terms

}  // namespace

void write_query(const Query& q, ByteWriter& w) {
  w.u32(static_cast<std::uint32_t>(q.terms.size()));
  for (const QueryTerm& t : q.terms) {
    w.u8(static_cast<std::uint8_t>(t.kind));
    w.u32(static_cast<std::uint32_t>(t.values.size()));
    for (const std::string& v : t.values) w.str(v);
    w.u64(t.lo);
    w.u64(t.hi);
    w.u32(static_cast<std::uint32_t>(t.level));
  }
}

Query read_query(ByteReader& r) {
  Query q;
  const std::uint32_t nterms = r.u32();
  if (nterms > r.remaining() / kMinTermBytes) {
    throw std::invalid_argument("query: term count exceeds payload");
  }
  q.terms.reserve(nterms);
  for (std::uint32_t i = 0; i < nterms; ++i) {
    QueryTerm t;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(QueryTerm::Kind::kSemantic)) {
      throw std::invalid_argument("query term: unknown kind");
    }
    t.kind = static_cast<QueryTerm::Kind>(kind);
    const std::uint32_t nvalues = r.u32();
    if (nvalues > r.remaining() / 4) {
      throw std::invalid_argument("query term: value count exceeds payload");
    }
    t.values.reserve(nvalues);
    for (std::uint32_t j = 0; j < nvalues; ++j) t.values.push_back(r.str());
    t.lo = r.u64();
    t.hi = r.u64();
    t.level = r.u32();
    q.terms.push_back(std::move(t));
  }
  return q;
}

std::vector<std::uint8_t> serialize_index(const Pairing& e,
                                          const EncryptedIndex& index) {
  ByteWriter w;
  w.u8(kIndexCodecVersion);
  w.raw(serialize_ciphertext(e, index.ct));
  return w.take();
}

EncryptedIndex deserialize_index(const Pairing& e,
                                 std::span<const std::uint8_t> data) {
  EncryptedIndex index;
  read_elements(e.curve(),
                [&](ElementReader& in) { read_index(in, data, index); });
  return index;
}

void read_index(ElementReader& in, std::span<const std::uint8_t> data,
                EncryptedIndex& index) {
  if (data.empty()) {
    throw std::invalid_argument("index: empty buffer");
  }
  if (data[0] != kIndexCodecVersion) {
    throw std::invalid_argument("index: unsupported codec version");
  }
  read_ciphertext(in, data.subspan(1), index.ct);
}

std::vector<std::uint8_t> serialize_capability(const Pairing& e,
                                               const Capability& cap) {
  ByteWriter w;
  w.u8(kCapabilityCodecVersion);
  w.bytes(serialize_key(e, cap.key));
  w.u32(static_cast<std::uint32_t>(cap.history.size()));
  for (const Query& q : cap.history) write_query(q, w);
  return w.take();
}

Capability deserialize_capability(const Pairing& e,
                                  std::span<const std::uint8_t> data,
                                  KeyParts parts) {
  ByteReader r(data);
  if (r.u8() != kCapabilityCodecVersion) {
    throw std::invalid_argument("capability: unsupported codec version");
  }
  Capability cap;
  cap.key = deserialize_key(e, r.bytes(), parts);
  const std::uint32_t nqueries = r.u32();
  if (nqueries > r.remaining() / kMinQueryBytes) {
    throw std::invalid_argument("capability: history count exceeds payload");
  }
  cap.history.reserve(nqueries);
  for (std::uint32_t i = 0; i < nqueries; ++i) {
    cap.history.push_back(read_query(r));
  }
  if (!r.done()) {
    throw std::invalid_argument("capability: trailing bytes");
  }
  return cap;
}

std::span<const std::uint8_t> capability_key_bytes(
    std::span<const std::uint8_t> data) {
  ByteReader r(data);
  (void)r.u8();  // codec version
  return r.bytes();
}

}  // namespace apks
