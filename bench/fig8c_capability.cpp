// Fig. 8(c): capability generation and first-level delegation time vs n.
//
// Paper, set 1 (worst case): no hierarchy (k=1), the query constrains all
// m' dimensions with d random keywords each, so the predicate vector has no
// zero entries. Set 2 (realistic): d=1, expansion factor k = 1..8, at most
// 9 constrained fields — the "don't care" zeros make both operations grow
// visibly slower with n. Delegation is cheaper than direct generation
// (~35 s at n=46 on the paper's hardware). Both are O(n0^2); MRQED key
// generation is O(n) (~2.3 s at n=46 there).
//
// Engine headline (this repo): GenCap/Delegate at the Nursery config n = 73
// (k = 8) under each scalar-multiplication engine; same outputs (seeded),
// only wall-clock moves.
#include "bench/bench_util.h"
#include "mrqed/mrqed.h"

using namespace apks;
using namespace apks::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv, "BENCH_fig8c.json");
  const Pairing pairing(default_type_a_params());
  ChaChaRng rng("fig8c");
  JsonReport report("fig8c_capability", args);

  print_header(
      "Fig. 8(c): Capability generation & delegation vs n",
      "both O(n^2); set 2 grows slower than set 1 (don't-care zeros); "
      "delegation ~35s at n=46 on paper hardware, cheaper than GenCap; "
      "MRQED GenKey O(n) ~2.3s");

  const std::size_t max_d = args.smoke ? 2 : 5;
  const double budget = args.smoke ? 1 : 1500;
  const int iters = args.smoke ? 1 : 5;

  std::printf("\nset 1 (worst case): m'=9, d=1..%zu, all dims constrained\n",
              max_d);
  std::printf("%6s %6s %12s %14s\n", "n", "d", "GenCap_s", "Delegate_s");
  for (std::size_t d = 1; d <= max_d; ++d) {
    const Apks scheme(pairing, nursery_schema(d));
    ApksPublicKey pk;
    ApksMasterKey msk;
    scheme.setup(rng, pk, msk);
    scheme.warm_precomp(msk);
    Capability cap;
    const double gen_s = time_op(
        [&] { cap = scheme.gen_cap_naive(msk, nursery_worst_case_query(d, rng), rng); },
        budget, iters);
    const double del_s = time_op(
        [&] {
          (void)scheme.delegate_cap_naive(
              cap, nursery_worst_case_query(d, rng), rng);
        },
        budget, iters);
    std::printf("%6zu %6zu %12.3f %14.3f\n", scheme.n(), d, gen_s, del_s);
    report.add_row({{"section", "set1"},
                    {"n", scheme.n()},
                    {"d", d},
                    {"gen_cap_s", gen_s},
                    {"delegate_s", del_s}});
  }

  std::printf("\nset 2 (realistic): d=1, expansion k=1..%zu, <=9 active fields\n",
              max_d);
  std::printf("%6s %6s %12s %14s %14s\n", "n", "k", "GenCap_s", "Delegate_s",
              "MRQED_GenKey_s");
  std::size_t k = 0;
  for (const std::size_t n : paper_n_values(max_d)) {
    ++k;
    const Apks scheme(pairing, nursery_expanded_schema(k, 1));
    ApksPublicKey pk;
    ApksMasterKey msk;
    scheme.setup(rng, pk, msk);
    scheme.warm_precomp(msk);
    Capability cap;
    const double gen_s = time_op(
        [&] {
          cap = scheme.gen_cap_naive(
              msk, nursery_expanded_realistic_query(k, 1, rng), rng);
        },
        budget, iters);
    const double del_s = time_op(
        [&] {
          (void)scheme.delegate_cap_naive(
              cap, nursery_expanded_realistic_query(k, 1, rng), rng);
        },
        budget, iters);

    const Mrqed mrqed(pairing, 9, k);
    MrqedPublicKey mpk;
    MrqedMasterKey mmsk;
    mrqed.setup(rng, mpk, mmsk);
    const double mrqed_s = time_op(
        [&] {
          std::vector<MrqedRange> ranges(9);
          const std::uint64_t domain = std::uint64_t{1} << k;
          for (auto& r : ranges) {
            const std::uint64_t a = rng.next_below(domain);
            const std::uint64_t b = rng.next_below(domain);
            r = {std::min(a, b), std::max(a, b)};
          }
          (void)mrqed.gen_key(mpk, mmsk, ranges, rng);
        },
        args.smoke ? 1 : 1000, iters);
    std::printf("%6zu %6zu %12.3f %14.3f %14.3f\n", n, k, gen_s, del_s,
                mrqed_s);
    report.add_row({{"section", "set2"},
                    {"n", n},
                    {"k", k},
                    {"gen_cap_s", gen_s},
                    {"delegate_s", del_s},
                    {"mrqed_gen_key_s", mrqed_s}});
  }
  std::printf(
      "expectation: set 2 grows slower than set 1 at equal n; delegation <= "
      "generation; MRQED fastest (linear).\n");

  // --- engine headline: GenCap/Delegate at the Nursery config -------------
  const std::size_t hk = args.smoke ? 1 : 8;
  const std::size_t hn = 9 * hk + 1;
  std::printf("\nengine headline: GenCap/Delegate (naive variants) at k=%zu "
              "(n=%zu)\n", hk, hn);
  std::printf("%14s %12s %14s %9s\n", "engine", "GenCap_s", "Delegate_s",
              "speedup");
  double naive_gen = 0;
  for (const ScalarEngine engine :
       {ScalarEngine::kNaive, ScalarEngine::kWindowed,
        ScalarEngine::kPrecomputed}) {
    const Apks scheme(pairing, nursery_expanded_schema(hk, 1),
                      HpeOptions{engine});
    ChaChaRng hrng("fig8c-headline");
    ApksPublicKey pk;
    ApksMasterKey msk;
    scheme.setup(hrng, pk, msk);
    scheme.warm_precomp(msk);
    Capability cap;
    const double gen_s = time_op(
        [&] {
          cap = scheme.gen_cap_naive(
              msk, nursery_expanded_realistic_query(hk, 1, hrng), hrng);
        },
        args.smoke ? 1 : 2000, args.smoke ? 1 : 2);
    const double del_s = time_op(
        [&] {
          (void)scheme.delegate_cap_naive(
              cap, nursery_expanded_realistic_query(hk, 1, hrng), hrng);
        },
        args.smoke ? 1 : 2000, args.smoke ? 1 : 2);
    if (engine == ScalarEngine::kNaive) naive_gen = gen_s;
    std::printf("%14s %12.3f %14.3f %8.2fx\n", engine_name(engine), gen_s,
                del_s, naive_gen / gen_s);
    report.add_row({{"section", "engine_headline"},
                    {"k", hk},
                    {"n", hn},
                    {"engine", engine_name(engine)},
                    {"gen_cap_s", gen_s},
                    {"delegate_s", del_s},
                    {"speedup_vs_naive", naive_gen / gen_s}});
  }

  if (args.json && !report.write(args.json_path)) return 1;
  return 0;
}
