// Pairing-kernel microbenchmarks: the per-operation costs behind the
// search hot path (Miller loop, final exponentiation, multi-pairing of a
// full capability's 13 slots), the capability admission check
// (CapabilityVerifier::verify: one two-slot preprocessed multi-pairing)
// the throughput of the lane-parallel BlockMultiPairing scan kernel on
// every engine the build and CPU support, and the heap a prepared
// capability holds (counted by tests/heap_count.h's operator new).
//
// The numbers quantify the two tentpole levers independently:
//   - algorithmic: multi_miller of N slots shares one accumulator squaring
//     chain and one final exponentiation, so it beats N independent pair()
//     calls well before any SIMD is involved;
//   - SIMD: the scan kernel drives W records through the shared Miller
//     loop with lane-parallel Montgomery arithmetic; scalar vs avx2 vs
//     avx512 rows isolate the vector speedup at identical outputs.
#include "auth/authority.h"
#include "bench/bench_util.h"
#include "data/nursery.h"
#include "math/fp_lanes.h"
#include "pairing/pairing_block.h"
#include "tests/heap_count.h"

using namespace apks;
using namespace apks::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv, "BENCH_pairing.json");
  const std::size_t kDim = 13;  // APKS capability slots on the bench schema
  const std::size_t kRecords = args.smoke ? 16 : 64;
  const double budget_ms = args.smoke ? 80 : 300;
  const int max_iters = args.smoke ? 4 : 8;

  const Pairing e(default_type_a_params());
  ChaChaRng rng("bench-pairing");
  const Curve& curve = e.curve();

  print_header("Pairing kernel microbenchmarks",
               "search probes are pairing products; per-record cost is one "
               "multi-pairing of n+3 slots, served scalar or SIMD with "
               "byte-identical GT output");

  JsonReport report("bench_pairing", args);
  report.set_meta("dim", kDim);
  report.set_meta("records", kRecords);
  report.set_meta("simd_detected", simd_level_name(simd_level_detected()));

  const AffinePoint p = curve.random_point(rng);
  const AffinePoint q = curve.random_point(rng);
  const Fp2El mf = e.miller(p, q);

  const auto per_op = [&](const char* op, const std::function<void()>& fn) {
    const double s = time_op_median(fn, budget_ms, max_iters);
    std::printf("%-18s %9.3f ms  (%8.1f ops/s)\n", op, s * 1e3, 1.0 / s);
    report.add_row({{"op", op}, {"seconds", s}, {"ops_per_s", 1.0 / s}});
    return s;
  };

  per_op("pair", [&] { (void)e.pair(p, q); });
  per_op("miller", [&] { (void)e.miller(p, q); });
  per_op("final_exp", [&] { (void)e.final_exp(mf); });

  std::vector<MillerPair> pairs(kDim);
  std::vector<PreprocessedPairing> pres;
  std::vector<AffinePoint> qs(kDim);
  pres.reserve(kDim);
  for (std::size_t s = 0; s < kDim; ++s) {
    pairs[s].p = curve.random_point(rng);
    pairs[s].q = curve.random_point(rng);
    pres.push_back(e.preprocess(pairs[s].p));
    qs[s] = pairs[s].q;
  }
  per_op("multi_miller_13", [&] { (void)e.final_exp(e.multi_miller(pairs)); });
  per_op("multi_miller_pre_13",
         [&] { (void)e.final_exp(e.multi_miller_pre(pres, qs)); });

  // --- Capability admission: the production IBS check --------------------
  // A TA-issued capability on a small schema, checked by the verifier a
  // server runs per kAuth. Own rng, so the rows below see the same inputs.
  {
    ChaChaRng ibs_rng("bench-pairing-ibs");
    const Apks scheme(e, Schema({{"illness", nullptr, 2},
                                 {"sex", nullptr, 1},
                                 {"provider", nullptr, 1}}));
    TrustedAuthority ta(scheme, ibs_rng);
    CapabilityVerifier verifier(e, ta.ibs_params());
    verifier.register_authority("TA");
    Query any;
    any.terms.assign(scheme.schema().original_dims(), QueryTerm::any());
    const SignedCapability cap = ta.issue(any, ibs_rng);
    if (!verifier.verify(cap)) {
      std::fprintf(stderr, "ibs_verify: a genuine capability was refused\n");
      return 1;
    }
    per_op("ibs_verify", [&] { (void)verifier.verify(cap); });
  }

  // --- Heap held by one prepared capability -------------------------------
  // A nursery_schema(1) capability (n+3 = 13 slots), prepared once to warm
  // up, then counted: the bytes Apks::prepare leaves live.
  {
    ChaChaRng cap_rng("bench-pairing-prepared");
    const Apks scheme(e, nursery_schema(1));
    ApksPublicKey pk;
    ApksMasterKey msk;
    scheme.setup(cap_rng, pk, msk);
    Query any;
    any.terms.assign(scheme.schema().original_dims(), QueryTerm::any());
    const Capability cap = scheme.gen_cap(msk, any, cap_rng);
    (void)scheme.prepare(cap);
    const std::int64_t before = heap_count::live_bytes();
    const PreparedCapability prepared = scheme.prepare(cap);
    const std::int64_t bytes = heap_count::live_bytes() - before;
    std::printf("prepared_bytes     %9.1f KiB  (%zu slots x %zu lines)\n",
                static_cast<double>(bytes) / 1024.0, prepared.kernel->dim(),
                prepared.kernel->line_count());
    report.add_row({{"op", "prepared_bytes"},
                    {"dim", prepared.kernel->dim()},
                    {"lines", prepared.kernel->line_count()},
                    {"bytes", static_cast<double>(bytes)}});
  }

  // --- BlockMultiPairing scan-kernel throughput per engine ----------------
  std::vector<std::vector<AffinePoint>> qrows(kRecords);
  std::vector<const AffinePoint*> qvecs;
  for (auto& row : qrows) {
    row.resize(kDim);
    for (auto& pt : row) pt = curve.random_point(rng);
    qvecs.push_back(row.data());
  }
  std::vector<GtEl> out(kRecords);
  for (const SimdLevel lvl :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (simd_level_detected() < lvl) continue;
    const BlockMultiPairing kernel(e, pres, lvl);
    if (kernel.engine_level() != lvl) continue;  // built without ISA support
    const double s = time_op_median(
        [&] { kernel.run(qvecs.data(), qvecs.size(), out.data()); },
        budget_ms, max_iters);
    const double rec_s = static_cast<double>(kRecords) / s;
    std::printf("kernel[%-7s]    %9.3f ms/block  (%8.1f records/s, %zu lanes)\n",
                kernel.engine_name(), s * 1e3, rec_s, kernel.lane_width());
    report.add_row({{"op", "kernel_scan"},
                    {"engine", kernel.engine_name()},
                    {"lanes", kernel.lane_width()},
                    {"records", kRecords},
                    {"seconds", s},
                    {"records_per_s", rec_s},
                    {"millers_per_s", rec_s * static_cast<double>(kDim)}});
  }

  if (args.json) {
    if (!report.write(args.json_path)) return 1;
  }
  return 0;
}
