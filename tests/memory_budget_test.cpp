// Heap budget of a prepared capability.
//
// Engines cache prepared capabilities (64 per engine, one cache per
// cluster node), so their size is most of a server's memory. A prepared
// capability is its compiled lane kernel and nothing else: one LaneLine
// and one flag byte per Miller line of each of the n+3 slots. A second
// copy of the line tables (the scalar traces the kernel is compiled from)
// would double the figure and fail this test.
#include <gtest/gtest.h>

#include "core/apks.h"
#include "data/nursery.h"
#include "heap_count.h"

namespace apks {
namespace {

// Engine object, slot index list and shared_ptr control block.
constexpr std::int64_t kFixedSlack = 4096;

TEST(MemoryBudgetTest, PreparedCapabilityHoldsOnlyTheLaneTables) {
  const Pairing pairing(default_type_a_params());
  ChaChaRng rng("memory-budget");
  const Apks scheme(pairing, nursery_schema(1));
  ApksPublicKey pk;
  ApksMasterKey msk;
  scheme.setup(rng, pk, msk);
  Query q;
  q.terms.assign(scheme.schema().original_dims(), QueryTerm::any());
  q.terms[0] = QueryTerm::equals("usual");
  const Capability cap = scheme.gen_cap(msk, q, rng);

  // A first prepare builds whatever is built once per process.
  (void)scheme.prepare(cap);

  const std::int64_t before = heap_count::live_bytes();
  const PreparedCapability prepared = scheme.prepare(cap);
  const std::int64_t held = heap_count::live_bytes() - before;

  // The worst case: no slot of k*_dec is the point at infinity, so all
  // n+3 slots carry a full line table.
  const BlockMultiPairing& kernel = *prepared.kernel;
  const std::vector<PreprocessedPairing> traces =
      scheme.hpe().preprocess_key(cap.key);
  ASSERT_EQ(kernel.dim(), scheme.n() + 3);
  for (const PreprocessedPairing& trace : traces) {
    ASSERT_EQ(trace.line_count(), kernel.line_count());
  }
  const auto tables = static_cast<std::int64_t>(
      kernel.dim() * kernel.line_count() * (sizeof(LaneLine) + 1));
  // 13 slots x 218 lines (the NAF schedule of q) x (160 B of LaneLine + a
  // one-flag byte).
  EXPECT_EQ(kernel.line_count(), 218u);
  EXPECT_EQ(tables, 13 * 218 * (160 + 1));
  // The lower bound shows the counter sees the tables at all.
  EXPECT_GE(held, tables);
  EXPECT_LE(held, tables + kFixedSlack)
      << "a prepared capability holds " << held << " B; its lane tables are "
      << tables << " B";
}

}  // namespace
}  // namespace apks
