#include "core/apks_backend.h"

#include <stdexcept>

#include "core/capability_digest.h"
#include "core/serialize_apks.h"
#include "hpe/serialize.h"

namespace apks {

std::vector<std::uint8_t> ApksBackend::encode_index(
    const AnyIndex& index) const {
  require_index(index);
  return serialize_index(pairing(), index.as<EncryptedIndex>());
}

AnyIndex ApksBackend::decode_index(std::span<const std::uint8_t> data) const {
  return AnyIndex::own(kind(), deserialize_index(pairing(), data));
}

void ApksBackend::decode_index_batch(
    std::span<const std::span<const std::uint8_t>> data,
    std::vector<AnyIndex>& out) const {
  std::vector<EncryptedIndex> typed(data.size());
  try {
    read_elements(pairing().curve(), [&](ElementReader& in) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        read_index(in, data[i], typed[i]);
      }
    });
  } catch (...) {
    // Some record is malformed: decode record by record, so the records
    // returned and the error thrown are decode_index's.
    SearchBackend::decode_index_batch(data, out);
    return;
  }
  out.reserve(out.size() + typed.size());
  for (EncryptedIndex& index : typed) {
    out.push_back(AnyIndex::own(kind(), std::move(index)));
  }
}

std::vector<std::uint8_t> ApksBackend::encode_query(
    const AnyQuery& query) const {
  require_query(query);
  if (const std::vector<std::uint8_t>* wire = query.wire()) return *wire;
  return serialize_capability(pairing(), query.as<Capability>());
}

AnyQuery ApksBackend::decode_query(std::span<const std::uint8_t> data) const {
  // Search pairs only k*_dec: ran and del are checked for layout, kept as
  // bytes (the signature covers them verbatim) and never decoded.
  Capability cap =
      deserialize_capability(pairing(), data, KeyParts::kDecOnly);
  return AnyQuery::decoded(
      kind(), std::move(cap),
      std::make_shared<const std::vector<std::uint8_t>>(data.begin(),
                                                        data.end()));
}

QueryDigest ApksBackend::digest(const AnyQuery& query) const {
  require_query(query);
  // capability_digest hashes these very bytes; a decoded handle has them.
  if (const std::vector<std::uint8_t>* wire = query.wire()) {
    return Sha256::hash(capability_key_bytes(*wire));
  }
  return capability_digest(pairing(), query.as<Capability>());
}

AnyPrepared ApksBackend::prepare(const AnyQuery& query) const {
  require_query(query);
  return AnyPrepared::own(kind(), scheme_->prepare(query.as<Capability>()));
}

bool ApksBackend::match(const AnyPrepared& prepared,
                        const AnyIndex& index) const {
  require_prepared(prepared);
  require_index(index);
  return scheme_->search_prepared(prepared.as<PreparedCapability>(),
                                  index.as<EncryptedIndex>());
}

void ApksBackend::match_block(const AnyPrepared& prepared,
                              const AnyIndex* const* indexes, std::size_t n,
                              bool* out) const {
  require_prepared(prepared);
  std::vector<const EncryptedIndex*> typed(n);
  for (std::size_t r = 0; r < n; ++r) {
    require_index(*indexes[r]);
    typed[r] = &indexes[r]->as<EncryptedIndex>();
  }
  scheme_->search_prepared_block(prepared.as<PreparedCapability>(),
                                 typed.data(), n, out);
}

std::vector<std::uint8_t> ApksBackend::query_message(
    const AnyQuery& query, const std::string& issuer) const {
  require_query(query);
  // Byte-identical to capability_message (auth/authority.h) so signatures
  // issued through the typed authority API verify through this path too.
  ByteWriter w;
  if (const std::vector<std::uint8_t>* wire = query.wire()) {
    w.bytes(capability_key_bytes(*wire));
  } else {
    w.bytes(serialize_key(pairing(), query.as<Capability>().key));
  }
  w.str(issuer);
  return w.take();
}

AnyIndex ApksPlusBackend::ingest_transform(AnyIndex index) const {
  require_index(index);
  if (!ingest_stage_) return index;
  return AnyIndex::own(kind(), ingest_stage_(index.as<EncryptedIndex>()));
}

void ApksPlusBackend::validate_ingest(const AnyIndex& index) const {
  require_index(index);
  if (canary_.empty()) return;
  if (scheme().hpe().decrypt_pre(index.as<EncryptedIndex>().ct, canary_) !=
      scheme().match_flag()) {
    throw std::invalid_argument(
        "apks+: rejecting partial (untransformed) index at ingest — the "
        "ciphertext does not decrypt under the blinded basis, which is the "
        "signature of an owner upload that skipped the proxy chain (or of "
        "a dictionary-attack forgery from pk alone)");
  }
}

Query make_canary_query(const Schema& schema) {
  Query q;
  q.terms.assign(schema.original_dims(), QueryTerm::any());
  return q;
}

}  // namespace apks
