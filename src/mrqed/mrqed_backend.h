// SearchBackend adapter for the MRQED^D baseline, so the Section VII
// comparison scheme is served through the exact batch/parallel/metrics
// path as APKS — honest apples-to-apples numbers instead of standalone
// bench loops.
//
// Indexes are MrqedCiphertext (one AIBE check+share pair per path node per
// dimension), queries are MrqedKey (AIBE keys over the canonical cover of
// each range), prepared queries are Mrqed::PreparedKey (the same pairing
// preprocessing the paper applies to both schemes when comparing search).
#pragma once

#include "core/backend.h"
#include "mrqed/mrqed.h"

namespace apks {

class MrqedBackend : public SearchBackend {
 public:
  explicit MrqedBackend(const Mrqed& scheme, Rng* rng = nullptr)
      : SearchBackend({&scheme.pairing(), rng}), scheme_(&scheme) {}

  [[nodiscard]] SchemeKind kind() const noexcept override {
    return SchemeKind::kMrqed;
  }
  [[nodiscard]] const Mrqed& scheme() const noexcept { return *scheme_; }

  [[nodiscard]] std::vector<std::uint8_t> encode_index(
      const AnyIndex& index) const override;
  [[nodiscard]] AnyIndex decode_index(
      std::span<const std::uint8_t> data) const override;
  [[nodiscard]] std::vector<std::uint8_t> encode_query(
      const AnyQuery& query) const override;
  [[nodiscard]] AnyQuery decode_query(
      std::span<const std::uint8_t> data) const override;

  [[nodiscard]] QueryDigest digest(const AnyQuery& query) const override;
  [[nodiscard]] AnyPrepared prepare(const AnyQuery& query) const override;
  [[nodiscard]] bool match(const AnyPrepared& prepared,
                           const AnyIndex& index) const override;

  [[nodiscard]] std::vector<std::uint8_t> query_message(
      const AnyQuery& query, const std::string& issuer) const override;

 private:
  const Mrqed* scheme_;
};

}  // namespace apks
