// Patient matching in a health social network (the paper's Section I
// motivation): a patient may only search for patients with *her own*
// symptoms, and her capability expires — demonstrating attribute-based
// authorization and time-based revocation together.
//
// Build & run:  ./build/examples/patient_matching
#include <cstdio>

#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "core/time_attr.h"
#include "data/phr.h"

using namespace apks;

int main() {
  const Pairing pairing(default_type_a_params());
  // PHR schema with the revocation time dimension appended.
  const PhrSchemaOptions opts{.max_or = 2, .with_time = true};
  const Apks scheme(pairing, phr_schema(opts));
  ChaChaRng rng("patient-matching");

  TrustedAuthority ta(scheme, rng);
  auto network = ta.make_lta(
      "health-net",
      Query{{QueryTerm::any(), QueryTerm::any(), QueryTerm::any(),
             QueryTerm::any(), QueryTerm::any(), QueryTerm::any()}},
      rng);

  // Ann is a diabetic patient; she may match against diabetes only.
  UserAttributes ann;
  ann.values["illness"] = {"diabetes"};
  ann.values["sex"] = {"Female"};
  ann.values["age"] = {"54"};
  ann.values["region"] = {"Worcester"};
  ann.values["provider"] = {"Hospital A"};
  ann.values["time"] = {time_value(2010, 1), time_value(2010, 2),
                        time_value(2010, 3), time_value(2010, 4)};
  network->register_user("ann", ann);

  CapabilityVerifier verifier(pairing, ta.ibs_params());
  verifier.register_authority("health-net");
  CloudServer server(scheme, verifier);

  // Other patients' profiles, indexed with their creation month.
  struct Profile {
    PlainIndex row;
    const char* ref;
  };
  const std::vector<Profile> profiles{
      {{{"57", "Male", "Boston", "diabetes", "Hospital B",
         time_value(2010, 2)}},
       "patient-1 (diabetic, Feb 2010)"},
      {{{"49", "Female", "Quincy", "diabetes", "Hospital A",
         time_value(2010, 3)}},
       "patient-2 (diabetic, Mar 2010)"},
      {{{"61", "Male", "Holyoke", "asthma", "Hospital C",
         time_value(2010, 2)}},
       "patient-3 (asthma, Feb 2010)"},
      {{{"44", "Female", "Boston", "diabetes", "Hospital B",
         time_value(2011, 6)}},
       "patient-4 (diabetic, Jun 2011 — after expiry)"},
  };
  for (const auto& p : profiles) {
    (void)server.store(scheme.gen_index(ta.public_key(), p.row, rng), p.ref);
  }

  // Ann's matching capability: illness = diabetes, restricted to indexes
  // created in the 4-month window Jan-Apr 2010 (one level-5 simple range of
  // the quaternary time tree).
  const Query request{{QueryTerm::any(), QueryTerm::any(), QueryTerm::any(),
                       QueryTerm::equals("diabetes"), QueryTerm::any(),
                       time_period(2010, 1, 2010, 4, /*level=*/5)}};
  const auto cap = network->delegate_for_user("ann", request, rng);
  if (!cap.has_value()) {
    std::printf("authorization failed\n");
    return 1;
  }
  std::printf("ann's matching capability issued (level %zu)\n",
              cap->cap.key.level);

  const auto matches = SearchEngine(server).search(*cap);
  std::printf("matches (%zu):\n", matches.size());
  for (const auto& m : matches) std::printf("  %s\n", m.c_str());
  // Expected: patient-1 and patient-2. Patient-3 has a different illness;
  // patient-4's index postdates Ann's authorized window, so her (expired)
  // capability cannot see it — revocation by time attribute.

  // Ann cannot get a capability for asthma patients: not her illness.
  const Query not_hers{{QueryTerm::any(), QueryTerm::any(), QueryTerm::any(),
                        QueryTerm::equals("asthma"), QueryTerm::any(),
                        time_period(2010, 1, 2010, 4, 5)}};
  std::printf("asthma capability granted? %s (expect no)\n",
              network->delegate_for_user("ann", not_hers, rng).has_value()
                  ? "yes"
                  : "no");
  return 0;
}
