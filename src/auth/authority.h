// The fine-grained search-authorization framework of Section III.
//
// A root trusted authority (TA) runs APKS Setup and IBS setup, then issues
// basic capabilities to second-level local trusted authorities (LTAs) and
// can go offline. Each LTA governs a local domain of users (and possibly
// sub-LTAs): it keeps an attribute database, checks that a requested query
// only touches attribute values the user possesses or is eligible for, and
// answers with a *delegated* capability — always at least as restrictive as
// the LTA's own. Every issued capability carries an identity-based
// signature; the cloud server verifies it against the registered authority
// list before serving a search.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "auth/ibs.h"
#include "auth/policy.h"
#include "core/apks.h"
#include "core/backend.h"
#include "hpe/serialize.h"

namespace apks {

// A capability as transmitted to the cloud server.
struct SignedCapability {
  Capability cap;
  std::string issuer;  // authority identity the server checks registration of
  IbsSignature sig;    // over serialize_key(cap.key) || issuer
};

// The scheme-agnostic counterpart: any backend's query (APKS capability,
// MRQED range key, ...) plus the issuing authority's signature over that
// backend's query_message. For the APKS family query_message is
// byte-identical to capability_message, so a SignedCapability re-wrapped as
// a SignedQuery verifies against the same signature bytes.
struct SignedQuery {
  AnyQuery query;
  std::string issuer;
  IbsSignature sig;  // over backend.query_message(query, issuer)
};

// Attribute values a user possesses, per original schema dimension name.
// A user may hold several values in one dimension (e.g. two illnesses).
struct UserAttributes {
  std::map<std::string, std::vector<std::string>> values;
};

class LocalAuthority;

class TrustedAuthority {
 public:
  // Runs APKS Setup and IBS setup. The scheme object must outlive the TA.
  TrustedAuthority(const Apks& scheme, Rng& rng);

  // For APKS+ deployments: adopt an externally produced (blinded) master
  // key instead of running plain Setup.
  TrustedAuthority(const Apks& scheme, ApksPublicKey pk, ApksMasterKey msk,
                   Rng& rng);

  [[nodiscard]] const ApksPublicKey& public_key() const noexcept {
    return pk_;
  }
  [[nodiscard]] const IbsPublicParams& ibs_params() const noexcept {
    return ibs_params_;
  }

  // Creates a second-level LTA whose every capability is confined to
  // `basic_scope` (the paper's example: provider = "hospital A").
  [[nodiscard]] std::unique_ptr<LocalAuthority> make_lta(
      const std::string& name, const Query& basic_scope, Rng& rng);

  // Direct issuance by the TA itself (used rarely; the TA is semi-offline).
  [[nodiscard]] SignedCapability issue(const Query& query, Rng& rng);

  // Scheme-agnostic issuance: signs `backend.query_message(query, "TA")`
  // with the TA's IBS key. Used for non-APKS backends (MRQED^D range keys)
  // where gen_cap/delegate do not apply; the APKS family keeps the richer
  // typed path above.
  [[nodiscard]] SignedQuery issue_query(const SearchBackend& backend,
                                        AnyQuery query, Rng& rng) const;

  [[nodiscard]] const Apks& scheme() const noexcept { return *scheme_; }

 private:
  friend class LocalAuthority;
  [[nodiscard]] SignedCapability sign_capability(Capability cap,
                                                 const IbsSigningKey& key,
                                                 Rng& rng) const;

  const Apks* scheme_;
  ApksPublicKey pk_;
  ApksMasterKey msk_;
  Ibs ibs_;
  Fq ibs_msk_{};
  IbsPublicParams ibs_params_;
  IbsSigningKey ta_sig_key_;
};

class LocalAuthority {
 public:
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  // The query scope this authority's capabilities are confined to.
  [[nodiscard]] const std::vector<Query>& scope() const noexcept {
    return root_.history;
  }

  void register_user(const std::string& user_id, UserAttributes attrs);

  // Installs the statistical-attack countermeasure of Section VI-B (and
  // optional delegation-depth bound); enforced on every delegation.
  void set_policy(QueryPolicy policy) { policy_ = policy; }
  [[nodiscard]] const QueryPolicy& policy() const noexcept { return policy_; }

  // Section III eligibility: every non-don't-care term of `query` must be
  // satisfied by at least one attribute value the user holds in that
  // dimension.
  [[nodiscard]] bool eligible(const std::string& user_id,
                              const Query& query) const;

  // Checks eligibility, then returns a capability for (scope AND query),
  // signed by this authority. Returns std::nullopt if the user is not
  // registered or not eligible.
  [[nodiscard]] std::optional<SignedCapability> delegate_for_user(
      const std::string& user_id, const Query& query, Rng& rng) const;

  // Creates a sub-LTA whose scope is this LTA's scope AND `restriction`
  // (the paper's multi-level authority tree).
  [[nodiscard]] std::unique_ptr<LocalAuthority> make_sub_lta(
      const std::string& name, const Query& restriction, Rng& rng) const;

 private:
  friend class TrustedAuthority;
  LocalAuthority(const TrustedAuthority& ta, std::string name,
                 Capability root, IbsSigningKey sig_key)
      : ta_(&ta),
        name_(std::move(name)),
        root_(std::move(root)),
        sig_key_(std::move(sig_key)) {}

  const TrustedAuthority* ta_;
  std::string name_;
  Capability root_;  // this authority's own (restricted) capability
  IbsSigningKey sig_key_;
  std::map<std::string, UserAttributes> users_;
  QueryPolicy policy_;
};

// Server-side admission check: verifies the capability signature against a
// registered-authority list. The prepared verification state (the g and
// P_pub traces, one fixed-base table per issuer) is immutable and shared,
// so copies of a verifier never rebuild it; each copy keeps its own
// registration list.
class CapabilityVerifier {
 public:
  CapabilityVerifier(const Pairing& pairing, const IbsPublicParams& params)
      : ibs_(pairing),
        key_(std::make_shared<const IbsVerifyKey>(ibs_.prepare(params))),
        pairing_(&pairing) {}

  // Builds the issuer's fixed-base table once, here, so verify pays only
  // the table lookups and one multi-pairing.
  void register_authority(const std::string& name) {
    if (!registered_.contains(name)) {
      registered_.emplace(
          name, std::make_shared<const IbsIdentity>(ibs_.prepare_identity(name)));
    }
  }

  [[nodiscard]] bool verify(const SignedCapability& cap) const;

  // Scheme-agnostic admission check: the signature must cover
  // backend.query_message(q.query, q.issuer). For APKS-family backends this
  // accepts exactly the signatures `verify(SignedCapability)` accepts.
  [[nodiscard]] bool verify(const SearchBackend& backend,
                            const SignedQuery& q) const;

  // Shared core of both verify overloads: registered-issuer check plus IBS
  // verification over an already-built message.
  [[nodiscard]] bool verify_message(std::span<const std::uint8_t> message,
                                    const std::string& issuer,
                                    const IbsSignature& sig) const;

 private:
  Ibs ibs_;
  std::shared_ptr<const IbsVerifyKey> key_;
  const Pairing* pairing_;
  std::map<std::string, std::shared_ptr<const IbsIdentity>> registered_;
};

// The byte string the IBS covers: the HPE key plus the issuer name.
[[nodiscard]] std::vector<std::uint8_t> capability_message(
    const Pairing& pairing, const Capability& cap, const std::string& issuer);

// Wire format for capabilities in transit to the cloud server (key +
// issuer + signature; the query history stays with the issuing authority).
[[nodiscard]] std::vector<std::uint8_t> serialize_signed_capability(
    const Pairing& pairing, const SignedCapability& cap);
[[nodiscard]] SignedCapability deserialize_signed_capability(
    const Pairing& pairing, std::span<const std::uint8_t> data);

}  // namespace apks
