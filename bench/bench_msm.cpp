// Scalar-multiplication engine comparison (naive vs windowed vs
// precomputed) at three levels:
//   1. raw MSM: Curve::msm_naive vs the windowed shared-chain Curve::msm
//   2. DPVS lincomb: Dpvs::lincomb_terms under each ScalarEngine, with and
//      without cached fixed-base tables
//   3. APKS ops at the Nursery config: gen_index / gen_cap_naive per engine
// Always writes BENCH_msm.json (override with --json=path) so the perf
// trajectory of the engine is machine-readable across PRs. --smoke shrinks
// everything to a CI-sized pass.
#include "bench/bench_util.h"
#include "dpvs/precomp_basis.h"

using namespace apks;
using namespace apks::bench;

namespace {

constexpr ScalarEngine kEngines[] = {ScalarEngine::kNaive,
                                     ScalarEngine::kWindowed,
                                     ScalarEngine::kPrecomputed};

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv, "BENCH_msm.json");
  const Pairing pairing(default_type_a_params());
  const Curve& curve = pairing.curve();
  const FqField& fq = pairing.fq();
  ChaChaRng rng("bench-msm");
  JsonReport report("bench_msm", args);

  print_header("Scalar-multiplication engine: naive vs windowed vs precomp",
               "not in the paper; measures the PR's MSM layer. The paper's "
               "exponentiation *counts* are engine-invariant (see "
               "cost_model_check); only wall-clock moves");

  const double budget = args.smoke ? 80 : 800;
  const int iters = args.smoke ? 2 : 8;

  // --- 1. raw MSM ---------------------------------------------------------
  std::printf("\nraw MSM over m random points (seconds per call)\n");
  std::printf("%6s %12s %12s %9s\n", "m", "naive_s", "windowed_s", "speedup");
  const std::vector<std::size_t> sizes =
      args.smoke ? std::vector<std::size_t>{4, 12}
                 : std::vector<std::size_t>{4, 12, 28, 76};
  for (const std::size_t m : sizes) {
    std::vector<AffinePoint> pts;
    std::vector<Fq> ks;
    for (std::size_t i = 0; i < m; ++i) {
      pts.push_back(curve.random_point(rng));
      ks.push_back(fq.random(rng));
    }
    const double naive_s =
        time_op([&] { (void)curve.msm_naive(pts, ks); }, budget, iters);
    const double win_s =
        time_op([&] { (void)curve.msm(pts, ks); }, budget, iters);
    std::printf("%6zu %12.6f %12.6f %8.2fx\n", m, naive_s, win_s,
                naive_s / win_s);
    report.add_row({{"section", "msm"},
                    {"m", m},
                    {"naive_s", naive_s},
                    {"windowed_s", win_s}});
  }

  // --- 2. DPVS lincomb (the encrypt-shaped workload) ----------------------
  // dim = n+3 coordinates, dim-1 terms: exactly one ciphertext's lincomb.
  const std::size_t n = args.smoke ? 10 : 73;
  const std::size_t dim = n + 3;
  const Dpvs dpvs(pairing, dim);
  std::vector<GVec> rows(dim - 1);
  for (auto& r : rows) {
    r.reserve(dim);
    for (std::size_t j = 0; j < dim; ++j) r.push_back(curve.random_point(rng));
  }
  const auto basis = PrecomputedBasis::build(dpvs, rows,
                                             PrecomputedBasis::Options{});
  std::vector<Dpvs::LcTerm> terms;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    terms.push_back({fq.random(rng), basis.get(), i, nullptr});
  }
  std::printf("\nDPVS lincomb, dim=%zu (n=%zu), %zu terms (seconds per call)\n",
              dim, n, terms.size());
  std::printf("%14s %12s %9s\n", "engine", "seconds", "speedup");
  double lincomb_naive_s = 0;
  for (const ScalarEngine engine : kEngines) {
    const double s = time_op(
        [&] { (void)dpvs.lincomb_terms(terms, engine); }, budget,
        args.smoke ? 2 : 4);
    if (engine == ScalarEngine::kNaive) lincomb_naive_s = s;
    std::printf("%14s %12.4f %8.2fx\n", engine_name(engine), s,
                lincomb_naive_s / s);
    report.add_row({{"section", "lincomb"},
                    {"n", n},
                    {"engine", engine_name(engine)},
                    {"seconds", s}});
  }

  // --- 3. APKS operations at the Nursery config ---------------------------
  const std::size_t k = args.smoke ? 1 : 8;
  std::printf("\nAPKS ops, Nursery expanded k=%zu (n=%zu), seconds per call\n",
              k, 9 * k + 1);
  std::printf("%14s %12s %12s\n", "engine", "GenIndex_s", "GenCap_s");
  const auto all_rows = nursery_rows();
  for (const ScalarEngine engine : kEngines) {
    const Apks scheme(pairing, nursery_expanded_schema(k, 1),
                      HpeOptions{engine});
    ChaChaRng op_rng("bench-msm-ops");
    ApksPublicKey pk;
    ApksMasterKey msk;
    scheme.setup(op_rng, pk, msk);
    scheme.warm_precomp(pk);
    scheme.warm_precomp(msk);
    std::size_t row = 0;
    const double enc_s = time_op(
        [&] {
          (void)scheme.gen_index(
              pk, expand_nursery_row(all_rows[(row += 97) % all_rows.size()], k),
              op_rng);
        },
        args.smoke ? 1 : 1000, args.smoke ? 1 : 3);
    Query q;
    q.terms.assign(scheme.schema().original_dims(), QueryTerm::any());
    q.terms[0] = QueryTerm::equals("usual");
    const double cap_s = time_op(
        [&] { (void)scheme.gen_cap_naive(msk, q, op_rng); },
        args.smoke ? 1 : 1000, args.smoke ? 1 : 2);
    std::printf("%14s %12.3f %12.3f\n", engine_name(engine), enc_s, cap_s);
    report.add_row({{"section", "apks"},
                    {"k", k},
                    {"n", 9 * k + 1},
                    {"engine", engine_name(engine)},
                    {"gen_index_s", enc_s},
                    {"gen_cap_naive_s", cap_s}});
  }
  std::printf("expectation: windowed beats naive on every row; precomputed "
              "beats windowed wherever cached tables serve the terms.\n");

  // This binary always emits its JSON artifact — the whole point is a
  // machine-readable perf trajectory across PRs.
  return report.write(args.json_path) ? 0 : 1;
}
