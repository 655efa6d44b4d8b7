// Authorization-layer overhead (Section III machinery):
//  - IBS signing and verification cost per capability (server admission);
//  - how delegation depth affects capability size — and, crucially, that it
//    does NOT affect per-index search time (search pairs only the dec
//    component, whose dimension is fixed at n0 regardless of level).
#include "bench/bench_util.h"
#include "cloud/server.h"

using namespace apks;
using namespace apks::bench;

int main() {
  const Pairing pairing(default_type_a_params());
  ChaChaRng rng("auth-overhead");
  const Apks scheme(pairing, nursery_schema(1));  // n = 10

  print_header("Ablation: authorization overhead & delegation depth",
               "IBS admission is a constant one final exponentiation per "
               "query (a 2-slot preprocessed multi-pairing); search cost is "
               "level-independent (n+3 pairings pair only k_dec)");

  TrustedAuthority ta(scheme, rng);
  Query all_any;
  all_any.terms.assign(scheme.schema().original_dims(), QueryTerm::any());
  auto lta = ta.make_lta("lta-0", all_any, rng);

  // --- IBS costs. ----------------------------------------------------------
  CapabilityVerifier verifier(pairing, ta.ibs_params());
  verifier.register_authority("TA");
  SignedCapability cap = ta.issue(all_any, rng);
  const double sign_s = time_op([&] { cap = ta.issue(all_any, rng); }, 600, 8);
  const double verify_s = time_op([&] { (void)verifier.verify(cap); }, 400, 16);
  std::printf("\ncapability issue (GenCap + IBS sign): %.3f s\n", sign_s);
  std::printf("server-side IBS verification:          %.4f s  (amortized "
              "over a whole scan)\n",
              verify_s);

  // --- Delegation depth vs size and search time. ---------------------------
  std::printf("\n%7s %16s %16s %14s\n", "level", "capability_KB",
              "search_ms/idx", "matches");
  const auto enc = scheme.gen_index(
      ta.public_key(), nursery_rows()[0], rng);
  Capability chain = ta.issue(all_any, rng).cap;
  for (std::size_t level = 1; level <= 4; ++level) {
    const double kb =
        static_cast<double>(serialize_key(pairing, chain.key).size()) / 1024.0;
    const PreparedCapability prepared = scheme.prepare(chain);
    bool matched = false;
    const double search_s = time_op(
        [&] { matched = scheme.search_prepared(prepared, enc); }, 400, 16);
    std::printf("%7zu %16.1f %16.2f %14s\n", level, kb, search_s * 1e3,
                matched ? "yes" : "yes (all-any)");
    if (level < 4) {
      chain = scheme.delegate_cap(chain, all_any, rng);
    }
  }
  std::printf("expectation: capability size grows ~linearly with level (one "
              "extra randomizer per delegation); search time stays flat.\n");
  return 0;
}
