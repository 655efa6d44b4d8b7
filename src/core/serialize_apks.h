// Versioned wire formats for APKS-level objects, layered on the HPE
// encodings of src/hpe/serialize.h.
//
// The HPE codecs cover the raw cryptographic objects (ciphertexts, keys);
// these add the scheme-level wrappers the storage engine and the authority
// protocol ship around: an owner's EncryptedIndex (what the cloud persists
// in src/store/ segment files) and a Capability including its query
// history (what an issuing authority archives — the cloud-transit form
// with the IBS signature is serialize_signed_capability in
// auth/authority.h). Every format opens with a one-byte codec version so
// on-disk stores survive future layout changes.
//
// All deserializers validate counts against the bytes actually present
// (hostile length fields must not drive allocations) and throw
// std::invalid_argument / std::out_of_range on malformed input — never UB.
#pragma once

#include "core/apks.h"
#include "hpe/serialize.h"

namespace apks {

inline constexpr std::uint8_t kIndexCodecVersion = 1;
inline constexpr std::uint8_t kCapabilityCodecVersion = 1;

[[nodiscard]] std::vector<std::uint8_t> serialize_index(
    const Pairing& e, const EncryptedIndex& index);
[[nodiscard]] EncryptedIndex deserialize_index(
    const Pairing& e, std::span<const std::uint8_t> data);
// The walk deserialize_index runs: checks the codec head and queues the
// ciphertext's elements on `in` (see read_ciphertext). One reader walked
// over many indexes packs their elements into full lane passes.
void read_index(ElementReader& in, std::span<const std::uint8_t> data,
                EncryptedIndex& index);

// Capability with its full delegation history (one Query per level).
// `parts` is passed to deserialize_key: KeyParts::kDecOnly is the serving
// decoder (ApksBackend::decode_query), with every layout check of the full
// decode, the history included, but key.ran and key.del left empty.
[[nodiscard]] std::vector<std::uint8_t> serialize_capability(
    const Pairing& e, const Capability& cap);
[[nodiscard]] Capability deserialize_capability(
    const Pairing& e, std::span<const std::uint8_t> data,
    KeyParts parts = KeyParts::kAll);

// The serialize_key bytes inside a capability encoding: what
// capability_digest hashes and capability_message signs. `data` must be
// an encoding deserialize_capability accepted.
[[nodiscard]] std::span<const std::uint8_t> capability_key_bytes(
    std::span<const std::uint8_t> data);

// Query/term codecs (shared by serialize_capability; exposed for tests and
// for authorities that archive query audit logs).
void write_query(const Query& q, ByteWriter& w);
[[nodiscard]] Query read_query(ByteReader& r);

}  // namespace apks
