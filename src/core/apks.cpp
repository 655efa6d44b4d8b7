#include "core/apks.h"

namespace apks {

std::vector<Fq> Apks::encode_index_vector(const PlainIndex& index) const {
  const FqField& fq = hpe_.pairing().fq();
  const ConvertedIndex converted = schema_.convert_index(index);
  return psi_encode(fq, schema_, hash_index(fq, schema_, converted));
}

std::vector<Fq> Apks::encode_query_vector(const Query& query,
                                          Rng& rng) const {
  const FqField& fq = hpe_.pairing().fq();
  const ConvertedQuery converted = schema_.convert_query(query);
  return phi_encode(fq, schema_, hash_query(fq, schema_, converted), rng);
}

GtEl Apks::derive_match_flag(const Pairing& pairing) {
  return pairing.gt_pow(pairing.gt_generator(),
                        hash_to_fq(pairing.fq(), "apks:match-flag"));
}

EncryptedIndex Apks::gen_index(const ApksPublicKey& pk,
                               const PlainIndex& index, Rng& rng) const {
  return {hpe_.encrypt(pk.hpe, encode_index_vector(index), match_flag(), rng)};
}

Capability Apks::gen_cap(const ApksMasterKey& msk, const Query& query,
                         Rng& rng) const {
  Capability cap;
  cap.key = hpe_.gen_key(msk.hpe, encode_query_vector(query, rng), rng);
  cap.history.push_back(query);
  return cap;
}

bool Apks::search(const Capability& cap, const EncryptedIndex& index) const {
  return hpe_.decrypt(index.ct, cap.key) == match_flag();
}

PreparedCapability Apks::prepare(const Capability& cap) const {
  // The kernel keeps only its lane tables; the scalar traces die here.
  const std::vector<PreprocessedPairing> traces = hpe_.preprocess_key(cap.key);
  return {std::make_shared<BlockMultiPairing>(hpe_.pairing(), traces)};
}

bool Apks::search_prepared(const PreparedCapability& cap,
                           const EncryptedIndex& index) const {
  const EncryptedIndex* const one = &index;
  bool out = false;
  search_prepared_block(cap, &one, 1, &out);
  return out;
}

void Apks::search_prepared_block(const PreparedCapability& cap,
                                 const EncryptedIndex* const* indexes,
                                 std::size_t n, bool* out) const {
  const GtEl& flag = match_flag();
  std::vector<const HpeCiphertext*> cts(n);
  for (std::size_t r = 0; r < n; ++r) cts[r] = &indexes[r]->ct;
  std::vector<GtEl> dec(n);
  hpe_.decrypt_pre_block(*cap.kernel, cts.data(), n, dec.data());
  for (std::size_t r = 0; r < n; ++r) out[r] = dec[r] == flag;
}

Capability Apks::delegate_cap(const Capability& parent,
                              const Query& restriction, Rng& rng) const {
  Capability child;
  child.key =
      hpe_.delegate(parent.key, encode_query_vector(restriction, rng), rng);
  child.history = parent.history;
  child.history.push_back(restriction);
  return child;
}

Capability Apks::gen_cap_naive(const ApksMasterKey& msk, const Query& query,
                               Rng& rng) const {
  Capability cap;
  cap.key = hpe_.gen_key_naive(msk.hpe, encode_query_vector(query, rng), rng);
  cap.history.push_back(query);
  return cap;
}

Capability Apks::delegate_cap_naive(const Capability& parent,
                                    const Query& restriction, Rng& rng) const {
  Capability child;
  child.key = hpe_.delegate_naive(parent.key,
                                  encode_query_vector(restriction, rng), rng);
  child.history = parent.history;
  child.history.push_back(restriction);
  return child;
}

}  // namespace apks
