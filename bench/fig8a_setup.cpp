// Fig. 8(a): system setup time against n, APKS vs MRQED^D.
//
// Paper: APKS setup is O(n0^2) exponentiations (~40 s at n=46 on its 2011
// hardware); MRQED setup is O(n) (~4.6 s at n=46). Expected shape: APKS
// grows quadratically and is one-plus orders of magnitude slower than
// MRQED at n=46. Setup is generator exponentiations (base_mul) only, so the
// scalar-multiplication engine does not move this figure — see bench_msm
// and fig8b/fig8c for the engine comparison.
#include "bench/bench_util.h"
#include "mrqed/mrqed.h"

using namespace apks;
using namespace apks::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv, "BENCH_fig8a.json");
  const Pairing pairing(default_type_a_params());
  ChaChaRng rng("fig8a");
  JsonReport report("fig8a_setup", args);

  print_header("Fig. 8(a): Setup time vs n",
               "APKS ~40s at n=46 (O(n^2) exps); MRQED ~4.6s (O(n) exps); "
               "APKS/MRQED ~ 8.7x at n=46");
  std::printf("%6s %6s %14s %15s %12s\n", "n", "k", "APKS_setup_s",
              "MRQED_setup_s", "APKS/MRQED");

  const std::size_t max_k = args.smoke ? 2 : 5;
  std::size_t k = 0;
  for (const std::size_t n : paper_n_values(max_k)) {
    ++k;
    const Apks scheme(pairing, nursery_expanded_schema(k, 1));
    const double apks_s = time_op(
        [&] {
          ApksPublicKey pk;
          ApksMasterKey msk;
          scheme.setup(rng, pk, msk);
        },
        args.smoke ? 1 : 2000, args.smoke ? 1 : 3);

    // MRQED sized to the same comparison parameter: 9 dimensions, k+1 path
    // nodes per dimension (9(k+1) = n + 8 total node ids ~ n).
    const Mrqed mrqed(pairing, 9, k);
    const double mrqed_s = time_op(
        [&] {
          MrqedPublicKey pk;
          MrqedMasterKey msk;
          mrqed.setup(rng, pk, msk);
        },
        args.smoke ? 1 : 1000, args.smoke ? 1 : 5);

    std::printf("%6zu %6zu %14.3f %15.3f %12.1f\n", n, k, apks_s, mrqed_s,
                apks_s / mrqed_s);
    report.add_row({{"n", n},
                    {"k", k},
                    {"apks_setup_s", apks_s},
                    {"mrqed_setup_s", mrqed_s}});
  }
  std::printf("expectation: APKS column grows ~quadratically in n, MRQED "
              "~linearly; APKS slower throughout.\n");

  if (args.json && !report.write(args.json_path)) return 1;
  return 0;
}
