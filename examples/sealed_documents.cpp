// Searchable indexes + sealed documents: the complete data path.
//
// The paper separates concerns: APKS makes the *index* searchable, while
// the documents themselves are "protected using separate, existing data
// encryption schemes". This example shows both layers together — search
// finds doc_refs over encrypted indexes; the AEAD document store releases
// the actual record only to someone holding the owner's document key.
//
// Build & run:  ./build/examples/sealed_documents
#include <cstdio>

#include "cloud/docstore.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "core/query_parser.h"
#include "data/phr.h"

using namespace apks;

int main() {
  const Pairing pairing(default_type_a_params());
  const Apks scheme(pairing, phr_schema({.max_or = 2}));
  ChaChaRng rng("sealed-documents");

  TrustedAuthority ta(scheme, rng);
  CapabilityVerifier verifier(pairing, ta.ibs_params());
  verifier.register_authority("TA");
  CloudServer server(scheme, verifier);
  DocumentStore docs;  // hosted by the same (honest-but-curious) cloud

  // --- Owners upload an encrypted index + a sealed document each. --------
  struct Patient {
    const char* ref;
    const char* index_row;
    const char* record;
  };
  const std::vector<Patient> patients{
      {"phr-bob", "61, Male, Boston, diabetes, Hospital A",
       "Bob: HbA1c 8.1%, metformin 500mg"},
      {"phr-carol", "58, Female, Quincy, diabetes, Hospital A",
       "Carol: HbA1c 7.2%, diet-controlled"},
      {"phr-alice", "25, Female, Worcester, flu, Hospital A",
       "Alice: rest and fluids"},
  };
  std::map<std::string, DocumentKey> owner_keys;  // each owner keeps theirs
  for (const auto& p : patients) {
    const PlainIndex row = parse_index(scheme.schema(), p.index_row);
    (void)server.store(scheme.gen_index(ta.public_key(), row, rng), p.ref);
    owner_keys[p.ref] = DocumentKey::random(rng);
    docs.put(p.ref, owner_keys[p.ref], p.record, rng);
  }
  std::printf("cloud: %zu encrypted indexes, %zu sealed documents\n",
              server.record_count(), docs.size());

  // --- A researcher searches with a textual query. ------------------------
  const Query q = parse_query(scheme.schema(),
                              "age : 34-100 @ 2; illness = diabetes");
  const auto cap = ta.issue(q, rng);
  const auto refs = SearchEngine(server).search_batch_signed(
      borrow_capabilities(server.backend(), {&cap, 1}))[0];
  std::printf("search [%s] -> %zu refs\n",
              format_query(scheme.schema(), q).c_str(), refs.size());

  // --- The cloud cannot open what it stores... ----------------------------
  const auto snooped = docs.get_text(refs.front(), DocumentKey{});
  std::printf("cloud reading blob with a zero key: %s\n",
              snooped.has_value() ? "LEAKED!" : "rejected (AEAD)");

  // --- ...but authorized users, given the owners' keys, can. --------------
  for (const auto& ref : refs) {
    const auto text = docs.get_text(ref, owner_keys.at(ref));
    std::printf("  %s -> %s\n", ref.c_str(),
                text.has_value() ? text->c_str() : "<failed>");
  }
  return 0;
}
