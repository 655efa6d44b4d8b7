// Table III: projected total search time over the 12,960-row Nursery
// dataset for n = 10..73, with pairing preprocessing.
//
// The paper *projects* the total by multiplying the measured per-index
// search time by 12,960 (and we do the same — the whole point of the table
// is that a full scan is heavy but tolerable for delay-tolerant
// applications). Paper row: 424 714 1016 1330 1625 1911 2194 2498 seconds.
#include "bench/bench_util.h"

using namespace apks;
using namespace apks::bench;

int main() {
  const Pairing pairing(default_type_a_params());
  ChaChaRng rng("table3");
  const auto rows = nursery_rows();
  constexpr std::size_t kDatasetSize = 12960;

  print_header(
      "Table III: Projected total search time, Nursery dataset (12,960 rows)",
      "paper (s): n=10:424 19:714 28:1016 37:1330 46:1625 55:1911 64:2194 "
      "73:2498 — linear in n, with preprocessing");
  std::printf("%6s %6s %16s %14s %12s\n", "n", "k", "per_index_ms",
              "projected_s", "paper_s");
  const double paper[] = {424, 714, 1016, 1330, 1625, 1911, 2194, 2498};

  std::size_t k = 0;
  for (const std::size_t n : paper_n_values(8)) {
    ++k;
    const Apks scheme(pairing, nursery_expanded_schema(k, 1));
    ApksPublicKey pk;
    ApksMasterKey msk;
    scheme.setup(rng, pk, msk);
    Query q;
    q.terms.assign(scheme.schema().original_dims(), QueryTerm::any());
    q.terms[0] = QueryTerm::equals("usual");
    // The paper's "with preprocessing" cost: one record through the
    // scalar preprocessed decryption (the serving scan runs lane blocks).
    const std::vector<PreprocessedPairing> cap =
        scheme.hpe().preprocess_key(scheme.gen_cap(msk, q, rng).key);
    std::vector<EncryptedIndex> sample;
    for (std::size_t i = 0; i < 3; ++i) {
      sample.push_back(scheme.gen_index(
          pk, expand_nursery_row(rows[4321 * i % rows.size()], k), rng));
    }
    std::size_t at = 0;
    const double per_index_s = time_op_median(
        [&] {
          (void)(scheme.hpe().decrypt_pre(sample[++at % sample.size()].ct,
                                          cap) == scheme.match_flag());
        },
        400, 12, 3);
    std::printf("%6zu %6zu %16.2f %14.0f %12.0f\n", n, k,
                per_index_s * 1e3, per_index_s * kDatasetSize, paper[k - 1]);
  }
  std::printf("expectation: projected_s grows linearly in n, same shape as "
              "the paper column (absolute scale differs with hardware).\n");
  return 0;
}
