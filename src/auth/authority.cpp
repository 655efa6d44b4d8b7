#include "auth/authority.h"

#include "core/serialize_apks.h"

namespace apks {

std::vector<std::uint8_t> capability_message(const Pairing& pairing,
                                             const Capability& cap,
                                             const std::string& issuer) {
  ByteWriter w;
  w.bytes(serialize_key(pairing, cap.key));
  w.str(issuer);
  return w.take();
}

std::vector<std::uint8_t> serialize_signed_capability(
    const Pairing& pairing, const SignedCapability& cap) {
  ByteWriter w;
  // Layered on the APKS capability codec so the delegation history (the
  // LTAs' audit trail) survives the wire; the signature still covers
  // capability_message (key + issuer) only, as issued.
  w.bytes(serialize_capability(pairing, cap.cap));
  w.str(cap.issuer);
  write_point(pairing.curve(), cap.sig.u, w);
  write_point(pairing.curve(), cap.sig.v, w);
  return w.take();
}

SignedCapability deserialize_signed_capability(
    const Pairing& pairing, std::span<const std::uint8_t> data) {
  ByteReader r(data);
  SignedCapability cap;
  cap.cap = deserialize_capability(pairing, r.bytes());
  cap.issuer = r.str();
  read_elements(pairing.curve(), [&](ElementReader& in) {
    in.point(r, cap.sig.u);
    in.point(r, cap.sig.v);
    if (!r.done()) {
      throw std::invalid_argument("signed capability: trailing bytes");
    }
  });
  return cap;
}

TrustedAuthority::TrustedAuthority(const Apks& scheme, Rng& rng)
    : scheme_(&scheme), ibs_(scheme.hpe().pairing()) {
  scheme_->setup(rng, pk_, msk_);
  auto s = ibs_.setup(rng);
  ibs_msk_ = s.msk;
  ibs_params_ = s.params;
  ta_sig_key_ = ibs_.extract(ibs_msk_, "TA");
}

TrustedAuthority::TrustedAuthority(const Apks& scheme, ApksPublicKey pk,
                                   ApksMasterKey msk, Rng& rng)
    : scheme_(&scheme),
      pk_(std::move(pk)),
      msk_(std::move(msk)),
      ibs_(scheme.hpe().pairing()) {
  auto s = ibs_.setup(rng);
  ibs_msk_ = s.msk;
  ibs_params_ = s.params;
  ta_sig_key_ = ibs_.extract(ibs_msk_, "TA");
}

SignedCapability TrustedAuthority::sign_capability(Capability cap,
                                                   const IbsSigningKey& key,
                                                   Rng& rng) const {
  SignedCapability out;
  out.issuer = key.identity;
  const auto msg =
      capability_message(scheme_->hpe().pairing(), cap, out.issuer);
  out.sig = ibs_.sign(key, msg, rng);
  out.cap = std::move(cap);
  return out;
}

SignedCapability TrustedAuthority::issue(const Query& query, Rng& rng) {
  return sign_capability(scheme_->gen_cap(msk_, query, rng), ta_sig_key_, rng);
}

SignedQuery TrustedAuthority::issue_query(const SearchBackend& backend,
                                          AnyQuery query, Rng& rng) const {
  SignedQuery out;
  out.issuer = ta_sig_key_.identity;
  const auto msg = backend.query_message(query, out.issuer);
  out.sig = ibs_.sign(ta_sig_key_, msg, rng);
  out.query = std::move(query);
  return out;
}

std::unique_ptr<LocalAuthority> TrustedAuthority::make_lta(
    const std::string& name, const Query& basic_scope, Rng& rng) {
  Capability root = scheme_->gen_cap(msk_, basic_scope, rng);
  IbsSigningKey key = ibs_.extract(ibs_msk_, name);
  return std::unique_ptr<LocalAuthority>(
      new LocalAuthority(*this, name, std::move(root), std::move(key)));
}

void LocalAuthority::register_user(const std::string& user_id,
                                   UserAttributes attrs) {
  users_[user_id] = std::move(attrs);
}

bool LocalAuthority::eligible(const std::string& user_id,
                              const Query& query) const {
  const auto it = users_.find(user_id);
  if (it == users_.end()) return false;
  const Schema& schema = ta_->scheme().schema();
  if (query.terms.size() != schema.original_dims()) return false;
  for (std::size_t dim = 0; dim < query.terms.size(); ++dim) {
    const QueryTerm& term = query.terms[dim];
    if (term.kind == QueryTerm::Kind::kAny) continue;
    const auto attr = it->second.values.find(schema.dim(dim).name);
    if (attr == it->second.values.end()) return false;
    bool ok = false;
    for (const auto& value : attr->second) {
      if (schema.term_matches(dim, value, term)) {
        ok = true;
        break;
      }
    }
    if (!ok) return false;
  }
  return true;
}

std::optional<SignedCapability> LocalAuthority::delegate_for_user(
    const std::string& user_id, const Query& query, Rng& rng) const {
  if (!eligible(user_id, query)) return std::nullopt;
  // Policy check over the cumulative conjunction the capability will hold.
  std::vector<Query> conjunction = root_.history;
  conjunction.push_back(query);
  if (!policy_.admits(conjunction)) return std::nullopt;
  Capability delegated = ta_->scheme().delegate_cap(root_, query, rng);
  return ta_->sign_capability(std::move(delegated), sig_key_, rng);
}

std::unique_ptr<LocalAuthority> LocalAuthority::make_sub_lta(
    const std::string& name, const Query& restriction, Rng& rng) const {
  Capability sub_root = ta_->scheme().delegate_cap(root_, restriction, rng);
  IbsSigningKey key = ta_->ibs_.extract(ta_->ibs_msk_, name);
  return std::unique_ptr<LocalAuthority>(
      new LocalAuthority(*ta_, name, std::move(sub_root), std::move(key)));
}

bool CapabilityVerifier::verify(const SignedCapability& cap) const {
  const auto msg = capability_message(*pairing_, cap.cap, cap.issuer);
  return verify_message(msg, cap.issuer, cap.sig);
}

bool CapabilityVerifier::verify(const SearchBackend& backend,
                                const SignedQuery& q) const {
  return verify_message(backend.query_message(q.query, q.issuer), q.issuer,
                        q.sig);
}

bool CapabilityVerifier::verify_message(std::span<const std::uint8_t> message,
                                        const std::string& issuer,
                                        const IbsSignature& sig) const {
  const auto it = registered_.find(issuer);
  if (it == registered_.end()) return false;
  return ibs_.verify(*key_, *it->second, message, sig);
}

}  // namespace apks
