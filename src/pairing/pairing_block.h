// Lane-parallel multi-pairing scan kernel.
//
// A BlockMultiPairing is the server-side compiled form of a prepared
// capability and its only form: the batch-normalized Miller line tables of
// its fixed first arguments, converted once into the lane engine's
// internal domain (FpLaneScalar), plus the engine itself. The scalar
// traces it is built from are not kept. `run` drives a block of records —
// each an (n+3)-point ciphertext vector — through one shared Miller loop
// with every F_p operation executed across all lanes (records) at once
// (one FpLaneEngine::miller_step per line of the digit schedule), then
// finishes with a blocked final exponentiation whose norm inversions share
// a single batch_inv.
//
// Output contract: canonical Montgomery residues are unique, so the GT
// value per record is byte-identical to the scalar path
// final_exp(multi_miller_pre(...)) on every engine, records holding a
// point at infinity included.
//
// Counters stay engine-invariant: each record costs dim() `miller` probes,
// one `multi_miller`, one `final_exp`, exactly as the scalar path counts.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "math/fp_lanes.h"
#include "pairing/pairing.h"

namespace apks {

class BlockMultiPairing {
 public:
  // Compiles the preprocessed slots (slot i pairs with point i of each
  // record vector); the traces are only read. `level` pins the lane
  // engine; the default follows the process-wide simd_level().
  BlockMultiPairing(const Pairing& pairing,
                    std::span<const PreprocessedPairing> pres,
                    SimdLevel level);
  BlockMultiPairing(const Pairing& pairing,
                    std::span<const PreprocessedPairing> pres);

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  // Miller lines per non-empty slot (0 when every fixed point is at
  // infinity); the kernel holds one LaneLine and one flag byte per line and
  // such slot.
  [[nodiscard]] std::size_t line_count() const noexcept { return steps_; }
  [[nodiscard]] const Pairing& pairing() const noexcept { return *e_; }
  [[nodiscard]] const char* engine_name() const noexcept {
    return engine_->name();
  }
  [[nodiscard]] SimdLevel engine_level() const noexcept {
    return engine_->level();
  }
  // Records per lane pass (callers may batch in any block size; `run`
  // chunks internally).
  [[nodiscard]] std::size_t lane_width() const noexcept {
    return engine_->width();
  }

  // out[r] = final_exp(prod_i miller(P_i, qvecs[r][i])) for r in [0, n).
  // qvecs[r] must point at dim() affine points. Thread-safe (all state is
  // read-only; scratch is per-call).
  void run(const AffinePoint* const* qvecs, std::size_t n, GtEl* out) const;

 private:
  // One lane pass over n <= lane_width() records, folding only the slots
  // listed in `live` (indices into active_).
  void run_lanes(const AffinePoint* const* qvecs, std::size_t n, GtEl* out,
                 std::span<const std::size_t> live) const;

  const Pairing* e_;
  std::size_t dim_ = 0;
  std::size_t steps_ = 0;
  std::unique_ptr<FpLaneEngine> engine_;
  // Slots with a non-empty trace (the others contribute the factor 1).
  std::vector<std::size_t> active_;
  // steps_ x active_.size() lane-domain lines, step-major: the lines one
  // Miller step folds sit side by side. one_[i] flags lines_[i] as the
  // factor 1.
  std::vector<LaneLine> lines_;
  std::vector<std::uint8_t> one_;
  FpLaneScalar one_s_{};   // engine-domain 1 (Montgomery R)
  FpLaneScalar zero_s_{};  // engine-domain 0
};

}  // namespace apks
