// Fig. 8(d): per-index search time against n.
//
// Paper: search is n+3 pairings — linear in n and far cheaper than
// encryption; pairing preprocessing roughly halves it (5.5 ms -> 2.5 ms
// per pairing there). MRQED per-index search is ~5n pairings, about 5x
// APKS. Expected shape: all series linear; preprocessed ~2x under plain;
// MRQED ~5x over APKS.
#include "bench/bench_util.h"
#include "mrqed/mrqed.h"

using namespace apks;
using namespace apks::bench;

int main() {
  const Pairing pairing(default_type_a_params());
  ChaChaRng rng("fig8d");
  const auto rows = nursery_rows();

  print_header("Fig. 8(d): Per-index search time vs n",
               "APKS = n+3 pairings (linear); preprocessing ~2x faster; "
               "MRQED = 5n pairings ~ 5x APKS");
  std::printf("%6s %6s %12s %12s %12s %14s\n", "n", "k", "plain_s",
              "preproc_s", "MRQED_s", "MRQED/APKSpre");

  std::size_t k = 0;
  for (const std::size_t n : paper_n_values(5)) {
    ++k;
    const Apks scheme(pairing, nursery_expanded_schema(k, 1));
    ApksPublicKey pk;
    ApksMasterKey msk;
    scheme.setup(rng, pk, msk);
    // Mixed workload: a capability over one attribute; some indexes match.
    Query q;
    q.terms.assign(scheme.schema().original_dims(), QueryTerm::any());
    q.terms[0] = QueryTerm::equals("usual");
    const Capability cap = scheme.gen_cap(msk, q, rng);
    std::vector<EncryptedIndex> indexes;
    for (std::size_t i = 0; i < 4; ++i) {
      indexes.push_back(scheme.gen_index(
          pk, expand_nursery_row(rows[1711 * i % rows.size()], k), rng));
    }
    std::size_t at = 0;
    const double plain_s = time_op(
        [&] { (void)scheme.search(cap, indexes[++at % indexes.size()]); },
        800, 16);
    // Preprocessed: one record through the scalar preprocessed decryption,
    // the paper's per-index "with preprocessing" cost.
    const std::vector<PreprocessedPairing> prepared =
        scheme.hpe().preprocess_key(cap.key);
    const double pre_s = time_op(
        [&] {
          (void)(scheme.hpe().decrypt_pre(indexes[++at % indexes.size()].ct,
                                          prepared) == scheme.match_flag());
        },
        800, 16);

    // MRQED at its deterministic worst case (the regime behind the paper's
    // 5n-pairings estimate): per-dimension range [1, domain-1], whose
    // canonical cover is maximal, and the point at the rightmost leaf so
    // every cover node is probed before the match.
    const Mrqed mrqed(pairing, 9, std::max<std::size_t>(k, 1));
    MrqedPublicKey mpk;
    MrqedMasterKey mmsk;
    mrqed.setup(rng, mpk, mmsk);
    const std::uint64_t domain = std::uint64_t{1} << std::max<std::size_t>(k, 1);
    const std::vector<std::uint64_t> point(9, domain - 1);
    const auto mct = mrqed.encrypt(mpk, point, rng);
    const std::vector<MrqedRange> ranges(9, {1, domain - 1});
    const auto mkey = mrqed.gen_key(mpk, mmsk, ranges, rng);
    const auto mprepared = mrqed.prepare(mkey);
    Mrqed::MatchStats stats;
    const double mrqed_s = time_op(
        [&] { (void)mrqed.match_prepared(mct, mprepared, &stats); }, 800, 16);

    std::printf("%6zu %6zu %12.4f %12.4f %12.4f(%3zup) %8.1f\n", n, k,
                plain_s, pre_s, mrqed_s, stats.pairings, mrqed_s / pre_s);
  }
  std::printf("expectation: linear growth in n for all series; preprocessed "
              "~2x faster than plain; MRQED several times slower.\n");
  return 0;
}
