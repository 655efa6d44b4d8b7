// Fig. 8(b): per-index encrypted index generation time against n.
//
// Paper: two sweeps confirming the time depends only on n = m'*d —
// (i) m' = 9 fixed, d = 1..5; (ii) d = 1 fixed, fields duplicated so
// m' = 9..45 — both O(n0^2), ~15 s at n=46 on the paper's hardware.
// MRQED encryption is O(n) (~2.3 s at n=46 there).
//
// Engine headline (this repo): the same GenIndex at the Nursery config
// n = 73 (k = 8) under each scalar-multiplication engine. Outputs are
// bit-identical under a shared seed (checked below); only wall-clock moves.
#include "bench/bench_util.h"
#include "hpe/serialize.h"
#include "mrqed/mrqed.h"

using namespace apks;
using namespace apks::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv, "BENCH_fig8b.json");
  const Pairing pairing(default_type_a_params());
  ChaChaRng rng("fig8b");
  const auto rows = nursery_rows();
  JsonReport report("fig8b_encrypt", args);

  print_header("Fig. 8(b): Encrypted index generation time vs n",
               "APKS ~15s at n=46, O(n^2), same time for equal n=m'*d; "
               "MRQED ~2.3s at n=46, O(n)");

  const std::size_t max_d = args.smoke ? 2 : 5;
  const double budget = args.smoke ? 1 : 1500;
  const int iters = args.smoke ? 1 : 5;

  std::printf("\nsweep (i): m'=9 fixed, d = 1..%zu (n = 9d+1)\n", max_d);
  std::printf("%6s %6s %16s\n", "n", "d", "APKS_encrypt_s");
  for (std::size_t d = 1; d <= max_d; ++d) {
    const Apks scheme(pairing, nursery_schema(d));
    ApksPublicKey pk;
    ApksMasterKey msk;
    scheme.setup(rng, pk, msk);
    scheme.warm_precomp(pk);
    std::size_t row = 0;
    const double s = time_op(
        [&] {
          (void)scheme.gen_index(pk, rows[(row += 97) % rows.size()], rng);
        },
        budget, iters);
    std::printf("%6zu %6zu %16.3f\n", scheme.n(), d, s);
    report.add_row({{"section", "sweep_d"},
                    {"n", scheme.n()},
                    {"d", d},
                    {"apks_encrypt_s", s}});
  }

  std::printf("\nsweep (ii): d=1 fixed, duplicated fields m' = 9k (n = 9k+1)\n");
  std::printf("%6s %6s %16s %15s\n", "n", "k", "APKS_encrypt_s",
              "MRQED_encrypt_s");
  std::size_t k = 0;
  for (const std::size_t n : paper_n_values(max_d)) {
    ++k;
    const Apks scheme(pairing, nursery_expanded_schema(k, 1));
    ApksPublicKey pk;
    ApksMasterKey msk;
    scheme.setup(rng, pk, msk);
    scheme.warm_precomp(pk);
    std::size_t row = 0;
    const double s = time_op(
        [&] {
          (void)scheme.gen_index(
              pk, expand_nursery_row(rows[(row += 97) % rows.size()], k),
              rng);
        },
        budget, iters);

    const Mrqed mrqed(pairing, 9, k);
    MrqedPublicKey mpk;
    MrqedMasterKey mmsk;
    mrqed.setup(rng, mpk, mmsk);
    const double ms_ = time_op(
        [&] {
          std::vector<std::uint64_t> point(9);
          for (auto& v : point) v = rng.next_below(std::uint64_t{1} << k);
          (void)mrqed.encrypt(mpk, point, rng);
        },
        args.smoke ? 1 : 1000, iters);
    std::printf("%6zu %6zu %16.3f %15.3f\n", n, k, s, ms_);
    report.add_row({{"section", "sweep_k"},
                    {"n", n},
                    {"k", k},
                    {"apks_encrypt_s", s},
                    {"mrqed_encrypt_s", ms_}});
  }
  std::printf(
      "expectation: sweeps (i) and (ii) agree at equal n (encryption cost "
      "is a function of n only); APKS quadratic, MRQED linear and faster.\n");

  // --- engine headline: GenIndex at the Nursery config --------------------
  const std::size_t hk = args.smoke ? 1 : 8;
  const std::size_t hn = 9 * hk + 1;
  std::printf("\nengine headline: GenIndex at k=%zu (n=%zu)\n", hk, hn);
  std::printf("%14s %16s %9s\n", "engine", "APKS_encrypt_s", "speedup");
  double naive_s = 0;
  for (const ScalarEngine engine :
       {ScalarEngine::kNaive, ScalarEngine::kWindowed,
        ScalarEngine::kPrecomputed}) {
    const Apks scheme(pairing, nursery_expanded_schema(hk, 1),
                      HpeOptions{engine});
    ChaChaRng hrng("fig8b-headline");
    ApksPublicKey pk;
    ApksMasterKey msk;
    scheme.setup(hrng, pk, msk);
    scheme.warm_precomp(pk);
    std::size_t row = 0;
    const double s = time_op(
        [&] {
          (void)scheme.gen_index(
              pk, expand_nursery_row(rows[(row += 97) % rows.size()], hk),
              hrng);
        },
        args.smoke ? 1 : 2000, args.smoke ? 1 : 3);
    if (engine == ScalarEngine::kNaive) naive_s = s;
    std::printf("%14s %16.3f %8.2fx\n", engine_name(engine), s, naive_s / s);
    report.add_row({{"section", "engine_headline"},
                    {"k", hk},
                    {"n", hn},
                    {"engine", engine_name(engine)},
                    {"apks_encrypt_s", s},
                    {"speedup_vs_naive", naive_s / s}});
  }

  // --- bit-identity: same seed => same ciphertext bytes, every engine -----
  {
    std::vector<std::vector<std::uint8_t>> cts;
    for (const ScalarEngine engine :
         {ScalarEngine::kNaive, ScalarEngine::kWindowed,
          ScalarEngine::kPrecomputed}) {
      const Apks scheme(pairing, nursery_expanded_schema(1, 1),
                        HpeOptions{engine});
      ChaChaRng brng("fig8b-bit-identity");
      ApksPublicKey pk;
      ApksMasterKey msk;
      scheme.setup(brng, pk, msk);
      const auto enc =
          scheme.gen_index(pk, expand_nursery_row(rows[0], 1), brng);
      cts.push_back(serialize_ciphertext(pairing, enc.ct));
    }
    const bool identical = cts[1] == cts[0] && cts[2] == cts[0];
    std::printf("bit-identity across engines (k=1, seeded): %s\n",
                identical ? "yes" : "NO — ENGINE BUG");
    report.set_meta("bit_identical", identical ? 1 : 0);
    if (!identical) return 1;
  }

  if (args.json && !report.write(args.json_path)) return 1;
  return 0;
}
