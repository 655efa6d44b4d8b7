// Batched multi-query serving: SearchEngine vs Q independent searches.
//
// The paper's server cost is per query: Q capabilities over N records cost
// Q preprocessings and Q*N index evaluations. The batch engine amortizes —
// signatures verified up front, preprocessing deduplicated through the
// LRU capability cache (a batch of Q identical hot-key capabilities runs
// ONE Apks::prepare instead of Q), and the whole batch shares a single
// blocked pass over the store. Expected shape: identical matches in
// identical order; prepare calls drop Q-fold on the hot-key batch; Miller /
// final-exp counts per query match the sequential path (the scan itself is
// not skippable — searchable encryption forces the linear scan).
#include <cinttypes>

#include "bench/bench_util.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"

using namespace apks;
using namespace apks::bench;

namespace {

Schema small_schema() {
  return Schema({{"illness", nullptr, 2},
                 {"sex", nullptr, 1},
                 {"provider", nullptr, 1}});
}

Query q3(QueryTerm a, QueryTerm b = QueryTerm::any(),
         QueryTerm c = QueryTerm::any()) {
  return Query{{std::move(a), std::move(b), std::move(c)}};
}

}  // namespace

int main() {
  const Pairing pairing(default_type_a_params());
  ChaChaRng rng("bench-batch-search");
  const Apks scheme(pairing, small_schema());
  TrustedAuthority ta(scheme, rng);
  auto lta = ta.make_lta("hospital-A", q3(QueryTerm::any()), rng);
  UserAttributes user;
  user.values["illness"] = {"Diabetes", "Flu"};
  user.values["sex"] = {"Male"};
  user.values["provider"] = {"Hospital A"};
  lta->register_user("u", user);

  CapabilityVerifier verifier(pairing, ta.ibs_params());
  verifier.register_authority("hospital-A");
  CloudServer server(scheme, std::move(verifier));
  const char* illnesses[] = {"Diabetes", "Flu", "Cancer"};
  const std::size_t kRecords = 12;
  for (std::size_t i = 0; i < kRecords; ++i) {
    PlainIndex row{{illnesses[i % 3], i % 2 == 0 ? "Male" : "Female",
                    i % 4 == 0 ? "Hospital B" : "Hospital A"}};
    (void)server.store(scheme.gen_index(ta.public_key(), row, rng),
                       "doc-" + std::to_string(i));
  }

  print_header("Batch search: Q signed capabilities, one pass over N records",
               "batch == Q sequential searches (same matches, same order); "
               "hot-key batch needs 1 prepare instead of Q");

  const std::size_t kQ = 6;
  const SignedCapability hot =
      *lta->delegate_for_user("u", q3(QueryTerm::equals("Diabetes")), rng);
  std::vector<SignedCapability> mixed;
  mixed.push_back(hot);
  mixed.push_back(
      *lta->delegate_for_user("u", q3(QueryTerm::equals("Flu")), rng));
  mixed.push_back(*lta->delegate_for_user(
      "u", q3(QueryTerm::any(), QueryTerm::equals("Male")), rng));
  mixed.push_back(hot);  // repeats: the hot-key case
  mixed.push_back(hot);
  mixed.push_back(*lta->delegate_for_user("u", q3(QueryTerm::any()), rng));

  for (const bool hot_only : {true, false}) {
    const std::vector<SignedCapability> batch =
        hot_only ? std::vector<SignedCapability>(kQ, hot) : mixed;
    const char* label = hot_only ? "hot-key (Q identical)" : "mixed";
    const std::vector<SignedQuery> queries =
        borrow_capabilities(server.backend(), batch);

    // Baseline: Q independent verified single-query searches on one worker
    // with no prepared cache (Q prepares by design).
    const SearchEngine single(server, {.threads = 1, .cache_capacity = 0});
    const PairingOpCounts seq_c0 = pairing.op_counts();
    std::vector<std::vector<std::string>> seq;
    for (const SignedQuery& q : queries) {
      seq.push_back(single.search_batch_signed({&q, 1})[0]);
    }
    const PairingOpCounts seq_ops = pairing.op_counts() - seq_c0;
    const double seq_s = time_op(
        [&] {
          for (const SignedQuery& q : queries) {
            (void)single.search_batch_signed({&q, 1});
          }
        },
        300, 4);

    // Engine: the first batch runs with a cold cache (its metrics hold the
    // prepare-call count the acceptance criterion is about); the timed
    // repeats then show the warm hot-key steady state.
    SearchEngine engine(server, {.threads = 2, .block_records = 4});
    BatchMetrics cold;
    const auto results = engine.search_batch_signed(queries, &cold);
    BatchMetrics warm;
    const double batch_s = time_op(
        [&] { (void)engine.search_batch_signed(queries, &warm); }, 300, 4);

    if (results != seq) {
      std::printf("FAIL: batch results differ from sequential searches\n");
      return 1;
    }
    std::printf("\n[%s] Q=%zu N=%zu\n", label, batch.size(),
                server.record_count());
    std::printf("  sequential: %8.4f s/batch  (prepare calls: %zu)\n", seq_s,
                batch.size());
    std::printf("  engine:     %8.4f s/batch  (cold prepare calls: %zu, "
                "cold cache hits: %zu, warm prepare calls: %zu, threads: "
                "%zu)\n",
                batch_s, cold.prepare_calls, cold.cache_hits,
                warm.prepare_calls, cold.threads);
    std::printf("  prepare amortization: %.1fx fewer prepares than "
                "sequential\n",
                static_cast<double>(batch.size()) /
                    static_cast<double>(
                        std::max<std::size_t>(1, cold.prepare_calls)));
    std::printf("  %-8s %6s %8s %8s %10s %10s %6s\n", "query", "auth",
                "scanned", "matched", "miller", "final_exp", "cache");
    for (std::size_t i = 0; i < cold.per_query.size(); ++i) {
      const ServerMetrics& m = cold.per_query[i];
      std::printf("  q%-7zu %6s %8zu %8zu %10" PRIu64 " %10" PRIu64 " %6s\n",
                  i, m.authorized ? "yes" : "no", m.scanned, m.matched,
                  m.ops.miller, m.ops.final_exp, m.cache_hit ? "hit" : "miss");
    }
    std::printf("  batch pairing ops: %" PRIu64 " miller / %" PRIu64
                " final_exp (sequential baseline: %" PRIu64 " / %" PRIu64
                ")\n",
                cold.ops.miller, cold.ops.final_exp, seq_ops.miller,
                seq_ops.final_exp);
  }
  std::printf("\nexpectation: identical matches and order; hot-key batch "
              "reports Q-fold fewer prepare calls; per-query scan cost "
              "(miller/final_exp) roughly equal across authorized queries.\n");
  return 0;
}
