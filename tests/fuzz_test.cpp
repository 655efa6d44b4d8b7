// Deterministic fuzz tests: parsers and deserializers fed random and
// mutated inputs must either succeed or throw a std:: exception — never
// crash, hang, or return corrupt objects that later misbehave.
#include <gtest/gtest.h>

#include <optional>

#include "common/hex.h"
#include "core/apks_backend.h"
#include "core/query_parser.h"
#include "core/serialize_apks.h"
#include "data/phr.h"
#include "hpe/serialize.h"
#include "mrqed/serialize.h"

namespace apks {
namespace {

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.next_below(max_len + 1));
  rng.fill(out);
  return out;
}

template <typename Fn>
void expect_no_crash(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    // Any std::exception is acceptable; crashes/UB are what we're hunting.
  }
}

TEST(Fuzz, HexDecoderOnRandomStrings) {
  ChaChaRng rng("fuzz-hex");
  for (int i = 0; i < 300; ++i) {
    std::string s;
    const std::size_t len = rng.next_below(40);
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(32 + rng.next_below(95)));
    }
    expect_no_crash([&] { (void)hex_decode(s); });
  }
}

TEST(Fuzz, QueryParserOnRandomStrings) {
  const Schema schema = phr_schema({.max_or = 2});
  ChaChaRng rng("fuzz-query");
  const std::string alphabet = "abcxyzAGE age sex=*;:@-,0123456789 in under";
  for (int i = 0; i < 500; ++i) {
    std::string s;
    const std::size_t len = rng.next_below(60);
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(alphabet[rng.next_below(alphabet.size())]);
    }
    expect_no_crash([&] { (void)parse_query(schema, s); });
    expect_no_crash([&] { (void)parse_index(schema, s); });
  }
}

TEST(Fuzz, ByteReaderOnRandomBuffers) {
  ChaChaRng rng("fuzz-reader");
  for (int i = 0; i < 300; ++i) {
    const auto data = random_bytes(rng, 64);
    expect_no_crash([&] {
      ByteReader r(data);
      while (!r.done()) {
        switch (rng.next_below(4)) {
          case 0:
            (void)r.u8();
            break;
          case 1:
            (void)r.u32();
            break;
          case 2:
            (void)r.u64();
            break;
          default:
            (void)r.bytes();
            break;
        }
      }
    });
  }
}

class DeserializerFuzz : public ::testing::Test {
 protected:
  DeserializerFuzz() : e_(default_type_a_params()), rng_("fuzz-deser") {}
  Pairing e_;
  ChaChaRng rng_;
};

TEST_F(DeserializerFuzz, RandomBuffersRejected) {
  for (int i = 0; i < 60; ++i) {
    const auto data = random_bytes(rng_, 400);
    expect_no_crash([&] { (void)deserialize_ciphertext(e_, data); });
    expect_no_crash([&] { (void)deserialize_key(e_, data); });
    expect_no_crash([&] { (void)deserialize_public_key(e_, data); });
    expect_no_crash([&] { (void)deserialize_master_key(e_, data); });
    expect_no_crash([&] { (void)deserialize_mrqed_key(e_, data); });
    expect_no_crash([&] { (void)deserialize_mrqed_ciphertext(e_, data); });
    expect_no_crash([&] { (void)deserialize_index(e_, data); });
    expect_no_crash([&] { (void)deserialize_capability(e_, data); });
  }
}

// Bit-flip and truncation sweeps over the APKS-level codecs
// (serialize_index / serialize_capability): every mutation must either be
// rejected with a std:: exception or yield an object that is still safely
// usable — never crash or corrupt memory.
class ApksCodecFuzz : public DeserializerFuzz {
 protected:
  ApksCodecFuzz()
      : scheme_(e_, Schema({{"a", nullptr, 2}, {"b", nullptr, 1}})) {
    scheme_.setup(rng_, pk_, msk_);
  }
  Apks scheme_;
  ApksPublicKey pk_;
  ApksMasterKey msk_;
};

TEST_F(ApksCodecFuzz, IndexBitFlipAndTruncationSweep) {
  const EncryptedIndex enc =
      scheme_.gen_index(pk_, PlainIndex{{"u", "v"}}, rng_);
  const Capability cap = scheme_.gen_cap(
      msk_, Query{{QueryTerm::equals("u"), QueryTerm::any()}}, rng_);
  const auto good = serialize_index(e_, enc);
  // Truncation sweep: every prefix length.
  for (std::size_t len = 0; len < good.size(); ++len) {
    expect_no_crash([&] {
      (void)deserialize_index(
          e_, std::span<const std::uint8_t>(good.data(), len));
    });
  }
  // Bit-flip sweep: every byte gets one deterministic single-bit flip,
  // plus random multi-byte mutations.
  for (std::size_t pos = 0; pos < good.size(); ++pos) {
    auto bad = good;
    bad[pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
    expect_no_crash([&] {
      const EncryptedIndex parsed = deserialize_index(e_, bad);
      (void)scheme_.search(cap, parsed);
    });
  }
  for (int i = 0; i < 60; ++i) {
    auto bad = good;
    const std::size_t mutations = 1 + rng_.next_below(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      bad[rng_.next_below(bad.size())] ^=
          static_cast<std::uint8_t>(1 + rng_.next_below(255));
    }
    expect_no_crash([&] {
      const EncryptedIndex parsed = deserialize_index(e_, bad);
      (void)scheme_.search(cap, parsed);
    });
  }
}

TEST_F(ApksCodecFuzz, CapabilityBitFlipAndTruncationSweep) {
  Capability cap = scheme_.gen_cap(
      msk_, Query{{QueryTerm::subset({"u", "w"}), QueryTerm::any()}}, rng_);
  cap = scheme_.delegate_cap(
      cap, Query{{QueryTerm::any(), QueryTerm::equals("v")}}, rng_);
  const EncryptedIndex enc =
      scheme_.gen_index(pk_, PlainIndex{{"u", "v"}}, rng_);
  const auto good = serialize_capability(e_, cap);
  for (std::size_t len = 0; len < good.size(); ++len) {
    expect_no_crash([&] {
      (void)deserialize_capability(
          e_, std::span<const std::uint8_t>(good.data(), len));
    });
  }
  // The full sweep would be slow (each surviving parse may run a search);
  // stride through the buffer instead, hitting every region.
  for (std::size_t pos = 0; pos < good.size(); pos += 7) {
    auto bad = good;
    bad[pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
    expect_no_crash([&] {
      const Capability parsed = deserialize_capability(e_, bad);
      (void)scheme_.search(parsed, enc);
    });
  }
}

// The serving decoder (ApksBackend::decode_query: k*_dec only, the rest
// checked for layout and kept as bytes) against the full
// deserialize_capability over the capability sweep's mutations and
// hand-made structural faults. Both must reject every structural fault;
// when both accept they must agree on dec, level and history; and the
// serving decoder may accept a corrupt point only inside ran or del,
// which it never decodes.
TEST_F(ApksCodecFuzz, ServingDecoderAgreesWithFullDecoder) {
  const ApksBackend backend(scheme_);
  Capability cap = scheme_.gen_cap(
      msk_, Query{{QueryTerm::subset({"u", "w"}), QueryTerm::any()}}, rng_);
  cap = scheme_.delegate_cap(
      cap, Query{{QueryTerm::any(), QueryTerm::equals("v")}}, rng_);
  const auto good = serialize_capability(e_, cap);

  // Layout: version u8, key length u32, then the key: level u32, dec,
  // ran count, ran vectors, del count, del vectors (each vector a u32
  // count and its points). Mark the bytes of ran and del points.
  constexpr std::size_t kPt = Curve::kCompressedSize;
  std::vector<char> tail_point(good.size(), 0);
  std::size_t pos = 1 + 4 + 4 + 4 + cap.key.dec.size() * kPt;
  for (const std::vector<GVec>* vecs : {&cap.key.ran, &cap.key.del}) {
    pos += 4;
    for (const GVec& v : *vecs) {
      pos += 4;
      std::fill(tail_point.begin() + static_cast<std::ptrdiff_t>(pos),
                tail_point.begin() +
                    static_cast<std::ptrdiff_t>(pos + v.size() * kPt),
                1);
      pos += v.size() * kPt;
    }
  }
  const std::size_t key_end = 1 + 4 + serialize_key(e_, cap.key).size();
  ASSERT_EQ(pos, key_end);

  const auto gvec_bytes = [&](const GVec& v) {
    ByteWriter w;
    write_gvec(e_.curve(), v, w);
    return w.take();
  };
  const auto history_bytes = [](const Capability& c) {
    ByteWriter w;
    for (const Query& q : c.history) write_query(q, w);
    return w.take();
  };
  // `tail_mutated`: the only change is inside a ran or del point.
  const auto check = [&](std::span<const std::uint8_t> data,
                         bool tail_mutated) {
    std::optional<Capability> full;
    try {
      full = deserialize_capability(e_, data);
    } catch (const std::exception&) {
    }
    std::optional<AnyQuery> served;
    try {
      served = backend.decode_query(data);
    } catch (const std::exception&) {
    }
    if (!full.has_value()) {
      if (!tail_mutated) {
        EXPECT_FALSE(served.has_value());
      }
      return;
    }
    ASSERT_TRUE(served.has_value());
    const Capability& got = served->as<Capability>();
    EXPECT_EQ(got.key.level, full->key.level);
    EXPECT_EQ(gvec_bytes(got.key.dec), gvec_bytes(full->key.dec));
    EXPECT_EQ(history_bytes(got), history_bytes(*full));
  };

  check(good, false);
  for (std::size_t len = 0; len < good.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    check(std::span<const std::uint8_t>(good.data(), len), false);
  }
  for (std::size_t at = 0; at < good.size(); at += 7) {
    SCOPED_TRACE("bit flip at " + std::to_string(at));
    auto bad = good;
    bad[at] ^= static_cast<std::uint8_t>(1u << (at % 8));
    check(bad, tail_point[at] != 0);
  }

  // Structural faults: both decoders must refuse each one.
  const auto set_u32 = [](std::vector<std::uint8_t>& b, std::size_t at,
                          std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      b[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  const std::size_t ran_count_at = 1 + 4 + 4 + 4 + cap.key.dec.size() * kPt;
  const std::size_t del_count_at =
      ran_count_at + 4 + cap.key.ran.size() * (4 + cap.key.ran[0].size() * kPt);
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> faults;
  auto add = [&](std::string name) -> std::vector<std::uint8_t>& {
    faults.emplace_back(std::move(name), good);
    return faults.back().second;
  };
  add("bad version")[0] = kCapabilityCodecVersion + 1;
  add("trailing byte").push_back(0);
  {
    // A byte appended inside the key, with the key length grown to match.
    auto& b = add("key trailing byte");
    b.insert(b.begin() + static_cast<std::ptrdiff_t>(key_end), 0);
    set_u32(b, 1, static_cast<std::uint32_t>(key_end - 5 + 1));
  }
  set_u32(add("level + 1"), 5, static_cast<std::uint32_t>(cap.key.level + 1));
  set_u32(add("ran count bomb"), ran_count_at, 0xFFFFFFFFu);
  set_u32(add("ran count - 1"), ran_count_at,
          static_cast<std::uint32_t>(cap.key.ran.size() - 1));
  set_u32(add("ran vector + 1"), ran_count_at + 4,
          static_cast<std::uint32_t>(cap.key.ran[0].size() + 1));
  set_u32(add("del count bomb"), del_count_at, 0xFFFFFFFFu);
  set_u32(add("del vector + 1"), del_count_at + 4,
          static_cast<std::uint32_t>(cap.key.del[0].size() + 1));
  set_u32(add("history count bomb"), key_end, 0xFFFFFFFFu);
  {
    // The last del vector loses its last point, the key length shrinks
    // to match: the vector's count now exceeds its payload.
    auto& b = add("del vector truncated");
    b.erase(b.begin() + static_cast<std::ptrdiff_t>(key_end - kPt),
            b.begin() + static_cast<std::ptrdiff_t>(key_end));
    set_u32(b, 1, static_cast<std::uint32_t>(key_end - 5 - kPt));
  }
  for (const auto& [name, bytes] : faults) {
    SCOPED_TRACE(name);
    EXPECT_THROW((void)deserialize_capability(e_, bytes), std::exception);
    EXPECT_THROW((void)backend.decode_query(bytes), std::exception);
  }
}

TEST_F(DeserializerFuzz, MutatedValidCiphertexts) {
  const Hpe hpe(e_, 2);
  HpePublicKey pk;
  HpeMasterKey msk;
  hpe.setup(rng_, pk, msk);
  std::vector<Fq> x{e_.fq().random(rng_), e_.fq().random(rng_)};
  const auto ct = hpe.encrypt(pk, x, e_.gt_random(rng_), rng_);
  const auto good = serialize_ciphertext(e_, ct);
  for (int i = 0; i < 120; ++i) {
    auto bad = good;
    // 1-3 random byte mutations, occasionally a truncation or extension.
    const std::size_t mutations = 1 + rng_.next_below(3);
    for (std::size_t m = 0; m < mutations; ++m) {
      bad[rng_.next_below(bad.size())] ^=
          static_cast<std::uint8_t>(1 + rng_.next_below(255));
    }
    if (rng_.next_below(4) == 0 && bad.size() > 8) {
      bad.resize(bad.size() - 1 - rng_.next_below(8));
    } else if (rng_.next_below(7) == 0) {
      bad.push_back(0);
    }
    expect_no_crash([&] {
      // If deserialization accepts the mutation (e.g. a y-sign flip that
      // still decompresses), the object must still be safely usable.
      const auto parsed = deserialize_ciphertext(e_, bad);
      const auto key = hpe.gen_key(msk, x, rng_);
      (void)hpe.decrypt(parsed, key);
    });
  }
}

TEST_F(DeserializerFuzz, LengthFieldBombs) {
  // Hostile length prefixes must be rejected, not allocated.
  ByteWriter w;
  w.u32(0xFFFFFFFFu);  // ciphertext vector claims 4 billion points
  const auto data = w.take();
  EXPECT_THROW((void)deserialize_ciphertext(e_, data), std::exception);
  EXPECT_THROW((void)deserialize_key(e_, data), std::exception);
}

}  // namespace
}  // namespace apks
