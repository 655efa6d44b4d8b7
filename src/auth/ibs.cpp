#include "auth/ibs.h"

#include "common/sha256.h"

namespace apks {

Ibs::SetupResult Ibs::setup(Rng& rng) const {
  SetupResult out;
  out.msk = e_->fq().random_nonzero(rng);
  out.params.p_pub = e_->curve().mul_base_fq(out.msk);
  return out;
}

AffinePoint Ibs::identity_point(std::string_view identity) const {
  return e_->curve().hash_to_point(std::string("ibs:id:") +
                                   std::string(identity));
}

IbsSigningKey Ibs::extract(const Fq& msk, std::string_view identity) const {
  IbsSigningKey key;
  key.identity = std::string(identity);
  key.d = e_->curve().mul_fq(identity_point(identity), msk);
  return key;
}

Fq Ibs::challenge(std::span<const std::uint8_t> message,
                  const AffinePoint& u) const {
  Sha256 h;
  h.update("ibs:challenge");
  std::array<std::uint8_t, Curve::kCompressedSize> ubuf{};
  e_->curve().serialize(u, ubuf);
  h.update(std::span<const std::uint8_t>(ubuf.data(), ubuf.size()));
  h.update(message);
  const auto digest = h.finish();
  return e_->fq().from_bytes_mod(digest);
}

IbsSignature Ibs::sign(const IbsSigningKey& key,
                       std::span<const std::uint8_t> message,
                       Rng& rng) const {
  const Curve& curve = e_->curve();
  const FqField& fq = e_->fq();
  const AffinePoint qid = identity_point(key.identity);
  const Fq r = fq.random_nonzero(rng);
  IbsSignature sig;
  sig.u = curve.mul_fq(qid, r);
  const Fq h = challenge(message, sig.u);
  sig.v = curve.mul_fq(key.d, fq.add(r, h));
  return sig;
}

IbsVerifyKey Ibs::prepare(const IbsPublicParams& params) const {
  return {{e_->preprocess(e_->curve().generator()),
           e_->preprocess(params.p_pub)}};
}

IbsIdentity Ibs::prepare_identity(std::string_view identity) const {
  return {FixedBaseComb(e_->curve(), identity_point(identity))};
}

bool Ibs::verify(const IbsVerifyKey& key, const IbsIdentity& id,
                 std::span<const std::uint8_t> message,
                 const IbsSignature& sig) const {
  const Curve& curve = e_->curve();
  if (sig.u.inf || sig.v.inf) return false;
  if (!curve.on_curve(sig.u) || !curve.on_curve(sig.v)) return false;
  return check(key, id, challenge(message, sig.u), sig);
}

bool Ibs::check(const IbsVerifyKey& key, const IbsIdentity& id, const Fq& h,
                const IbsSignature& sig) const {
  const Curve& curve = e_->curve();
  // h*Q_id is one exponentiation, served from the issuer's table.
  curve.note_scalar_muls(1);
  curve.note_precomp_base_muls(1);
  const AffinePoint w = curve.to_affine(
      curve.jac_add_mixed(id.comb.mul(curve, e_->fq().to_int(h)), sig.u));
  // U == -h*Q_id would leave e(g, V) alone in the product.
  if (w.inf) return false;
  // e(V, g) == e(U + h*Q_id, P_pub)  <=>  e(g, V) * e(P_pub, -w) == 1.
  const std::array<AffinePoint, 2> qs{sig.v, curve.neg(w)};
  return e_->gt_is_one(e_->final_exp(e_->multi_miller_pre(key.traces, qs)));
}

}  // namespace apks
