// Full multi-owner PHR deployment (the paper's Fig. 1 / Section III):
// a TA bootstraps the system, hospital LTAs authorize their members based
// on attributes, owners upload encrypted indexes to the cloud server, and
// the server verifies capability signatures before searching.
//
// Build & run:  ./build/examples/phr_search
#include <cstdio>

#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "data/phr.h"

using namespace apks;

int main() {
  const Pairing pairing(default_type_a_params());
  const Apks scheme(pairing, phr_schema({.max_or = 2}));
  ChaChaRng rng("phr-search");

  // --- Authority hierarchy -------------------------------------------------
  TrustedAuthority ta(scheme, rng);
  // Hospital A's LTA: every capability it hands out is confined to its own
  // patients (provider = "Hospital A") — the paper's running example.
  auto hospital_a = ta.make_lta(
      "hospital-A",
      Query{{QueryTerm::any(), QueryTerm::any(), QueryTerm::any(),
             QueryTerm::any(), QueryTerm::equals("Hospital A")}},
      rng);

  // Dr. Peter treats chronic illnesses at hospital A.
  UserAttributes peter;
  peter.values["age"] = {"45"};
  peter.values["sex"] = {"Male"};
  peter.values["region"] = {"Boston"};
  peter.values["illness"] = {"diabetes", "hypertension"};
  peter.values["provider"] = {"Hospital A"};
  hospital_a->register_user("dr-peter", peter);

  // --- Cloud server with signature admission -------------------------------
  CapabilityVerifier verifier(pairing, ta.ibs_params());
  verifier.register_authority("hospital-A");
  CloudServer server(scheme, verifier);

  // --- Owners contribute encrypted PHR indexes -----------------------------
  const std::vector<std::pair<PlainIndex, std::string>> corpus{
      {{{"61", "Male", "Boston", "diabetes", "Hospital A"}}, "phr-bob"},
      {{{"58", "Female", "Quincy", "diabetes", "Hospital A"}}, "phr-carol"},
      {{{"25", "Female", "Worcester", "flu", "Hospital A"}}, "phr-alice"},
      {{{"70", "Male", "Boston", "diabetes", "Hospital B"}}, "phr-dave"},
      {{{"66", "Male", "Cambridge", "hypertension", "Hospital A"}},
       "phr-erin"},
  };
  for (const auto& [row, ref] : corpus) {
    (void)server.store(scheme.gen_index(ta.public_key(), row, rng), ref);
  }
  std::printf("cloud stores %zu encrypted indexes from multiple owners\n",
              server.record_count());

  // --- Dr. Peter requests a capability -------------------------------------
  // "elderly patients with one of my illnesses": (34<=age<=100) AND
  // illness in {diabetes, hypertension}. The LTA checks his attributes,
  // delegates from its scoped capability and signs the result.
  const Query request{{QueryTerm::range(34, 100, 2), QueryTerm::any(),
                       QueryTerm::any(),
                       QueryTerm::subset({"diabetes", "hypertension"}),
                       QueryTerm::any()}};
  const auto cap = hospital_a->delegate_for_user("dr-peter", request, rng);
  if (!cap.has_value()) {
    std::printf("authorization denied!\n");
    return 1;
  }
  std::printf("capability issued by %s (level %zu)\n", cap->issuer.c_str(),
              cap->cap.key.level);

  const SearchEngine engine(server);
  ServerMetrics stats;
  const auto docs = engine.search(*cap, &stats);
  std::printf("server scanned %zu records, %zu matched:\n", stats.scanned,
              stats.matched);
  for (const auto& d : docs) std::printf("  %s\n", d.c_str());
  // Expected: bob, carol, erin — dave is at hospital B (outside the LTA
  // scope), alice is young with flu.

  // --- An ineligible request is refused at the LTA -------------------------
  const Query nosy{{QueryTerm::any(), QueryTerm::any(), QueryTerm::any(),
                    QueryTerm::equals("leukemia"), QueryTerm::any()}};
  std::printf("request for untreated illness authorized? %s (expect no)\n",
              hospital_a->delegate_for_user("dr-peter", nosy, rng).has_value()
                  ? "yes"
                  : "no");

  // --- A forged capability is refused at the server ------------------------
  auto forged = *cap;
  forged.issuer = "hospital-Z";
  ServerMetrics forged_stats;
  (void)engine.search(forged, &forged_stats);
  std::printf("forged capability authorized? %s (expect no)\n",
              forged_stats.authorized ? "yes" : "no");
  return 0;
}
