// Authorization-layer overhead (Section III machinery):
//  - IBS signing and verification cost per capability (server admission);
//  - how delegation depth affects capability size — and, crucially, that it
//    does NOT affect per-index search time (search pairs only the dec
//    component, whose dimension is fixed at n0 regardless of level);
//  - the server's capability decode: the full deserialize_capability
//    decodes every k* vector, the serving decode_query only k*_dec.
// Exits 1 if a served (decode_query) handle digests differently from the
// typed capability it was encoded from.
#include "bench/bench_util.h"
#include "cloud/server.h"
#include "core/apks_backend.h"
#include "core/serialize_apks.h"

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

  // --- Delegation depth vs size, decode and search time. -------------------
  const ApksBackend backend(scheme);
  bool digests_match = true;
  std::printf("\n%7s %14s %14s %15s %14s %9s\n", "level", "capability_KB",
              "full_decode_ms", "served_decode_ms", "search_ms/idx",
              "matches");
  const auto enc = scheme.gen_index(
      ta.public_key(), nursery_rows()[0], rng);
  Capability chain = ta.issue(all_any, rng).cap;
  for (std::size_t level = 1; level <= 4; ++level) {
    const std::vector<std::uint8_t> wire = serialize_capability(pairing, chain);
    const double kb =
        static_cast<double>(serialize_key(pairing, chain.key).size()) / 1024.0;
    const double full_s = time_op(
        [&] { (void)deserialize_capability(pairing, wire); }, 300, 16);
    const double served_s =
        time_op([&] { (void)backend.decode_query(wire); }, 300, 16);
    const AnyQuery typed = AnyQuery::ref(SchemeKind::kApks, &chain);
    if (backend.digest(backend.decode_query(wire)) != backend.digest(typed)) {
      std::fprintf(stderr, "level %zu: served digest != typed digest\n",
                   level);
      digests_match = false;
    }
    // Per-index search through the scalar preprocessed decryption.
    const std::vector<PreprocessedPairing> prepared =
        scheme.hpe().preprocess_key(chain.key);
    bool matched = false;
    const double search_s = time_op(
        [&] {
          matched =
              scheme.hpe().decrypt_pre(enc.ct, prepared) == scheme.match_flag();
        },
        400, 16);
    std::printf("%7zu %14.1f %14.2f %15.2f %14.2f %9s\n", level, kb,
                full_s * 1e3, served_s * 1e3, search_s * 1e3,
                matched ? "yes" : "yes (all-any)");
    if (level < 4) {
      chain = scheme.delegate_cap(chain, all_any, rng);
    }
  }
  std::printf("expectation: capability size grows ~linearly with level (one "
              "extra randomizer per delegation); search time stays flat.\n");
  std::printf("expectation: the served decode (k*_dec only, n+3 points) "
              "stays flat as the level grows, while the full decode grows "
              "with ran (level+1 vectors).\n");
  return digests_match ? 0 : 1;
}
