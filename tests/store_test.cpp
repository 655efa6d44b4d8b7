// Storage engine tests: segment framing + CRC, IndexStore manifest /
// rotation / compaction, ShardedStore round trips, the APKS-level codecs,
// CloudServer persistence integration, and DocumentStore persistence +
// thread safety. Crash-recovery scenarios live in store_recovery_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "cloud/docstore.h"
#include "cloud/search_engine.h"
#include "cloud/server.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "core/serialize_apks.h"
#include "store/index_store.h"
#include "store/sharded_store.h"
#include "serve.h"
#include "test_dir.h"

namespace apks {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

// Fresh scratch directory per test, removed on teardown.
class StoreDirTest : public ::testing::Test {
 protected:
  TestDir dir_{"store"};
};

TEST(Crc32Test, KnownAnswersAndChaining) {
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytes_of("")), 0u);
  // Chaining via seed equals one-shot over the concatenation.
  const auto all = bytes_of("hello, segment world");
  const std::span<const std::uint8_t> s(all);
  EXPECT_EQ(crc32(s.subspan(6), crc32(s.subspan(0, 6))), crc32(all));
}

TEST_F(StoreDirTest, SegmentRoundTripAndTornTail) {
  const fs::path seg = dir_.path() / "seg.apks";
  {
    SegmentWriter w(seg, /*shard_id=*/7, /*seq=*/3);
    w.append(bytes_of("alpha"));
    w.append(bytes_of(""));  // empty payloads are legal frames
    w.append(bytes_of("gamma"));
    w.sync();
  }
  std::vector<std::string> seen;
  SegmentScanResult scan =
      scan_segment(seg, [&](std::span<const std::uint8_t> p) {
        seen.emplace_back(p.begin(), p.end());
      });
  EXPECT_EQ(scan.info.shard_id, 7u);
  EXPECT_EQ(scan.info.seq, 3u);
  EXPECT_EQ(scan.records, 3u);
  EXPECT_FALSE(scan.torn_tail());
  EXPECT_EQ(seen, (std::vector<std::string>{"alpha", "", "gamma"}));

  // A torn tail (partial frame) is detected, not replayed...
  {
    std::FILE* f = std::fopen(seg.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::uint8_t torn[5] = {9, 0, 0, 0, 42};  // len=9, no payload
    std::fwrite(torn, 1, sizeof(torn), f);
    std::fclose(f);
  }
  scan = scan_segment(seg);
  EXPECT_EQ(scan.records, 3u);
  EXPECT_TRUE(scan.torn_tail());

  // ...and open_for_append truncates it and resumes cleanly.
  SegmentScanResult recovered;
  {
    SegmentWriter w = SegmentWriter::open_for_append(seg, &recovered);
    EXPECT_TRUE(recovered.torn_tail());
    w.append(bytes_of("delta"));
    w.sync();
  }
  scan = scan_segment(seg);
  EXPECT_EQ(scan.records, 4u);
  EXPECT_FALSE(scan.torn_tail());
}

TEST_F(StoreDirTest, SegmentCorruptFrameStopsScan) {
  const fs::path seg = dir_.path() / "seg.apks";
  std::uint64_t first_two_end = 0;
  {
    SegmentWriter w(seg, 0, 1);
    w.append(bytes_of("one"));
    w.append(bytes_of("two"));
    first_two_end = w.bytes();
    w.append(bytes_of("three"));
    w.sync();
  }
  // Flip a payload byte of the last frame: CRC must catch it.
  {
    std::FILE* f = std::fopen(seg.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(first_two_end + kFrameHeaderSize + 1),
               SEEK_SET);
    std::fputc('X', f);
    std::fclose(f);
  }
  const SegmentScanResult scan = scan_segment(seg);
  EXPECT_EQ(scan.records, 2u);
  EXPECT_TRUE(scan.torn_tail());
  EXPECT_EQ(scan.valid_bytes, first_two_end);
}

TEST_F(StoreDirTest, SegmentRejectsBadHeaderAndHugeLength) {
  const fs::path bad = dir_.path() / "bad.apks";
  {
    std::FILE* f = std::fopen(bad.c_str(), "wb");
    std::fputs("not a segment at all", f);
    std::fclose(f);
  }
  EXPECT_THROW((void)scan_segment(bad), std::runtime_error);

  // A frame whose length field exceeds the cap is a torn tail, not an
  // allocation request.
  const fs::path seg = dir_.path() / "seg.apks";
  {
    SegmentWriter w(seg, 0, 1);
    w.append(bytes_of("ok"));
    w.sync();
  }
  {
    std::FILE* f = std::fopen(seg.c_str(), "ab");
    const std::uint8_t bomb[8] = {0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0};
    std::fwrite(bomb, 1, sizeof(bomb), f);
    std::fclose(f);
  }
  const SegmentScanResult scan = scan_segment(seg);
  EXPECT_EQ(scan.records, 1u);
  EXPECT_TRUE(scan.torn_tail());
}

TEST_F(StoreDirTest, IndexStoreRotationAndReopen) {
  IndexStoreOptions opts;
  opts.segment_max_bytes = 128;  // force rotation every few records
  std::vector<std::string> written;
  {
    IndexStore store(dir_.path(), /*shard_id=*/2, opts);
    for (int i = 0; i < 40; ++i) {
      written.push_back("record-" + std::to_string(i));
      store.put(bytes_of(written.back()));
    }
    store.sync();
    EXPECT_GT(store.segment_count(), 3u);
    EXPECT_EQ(store.record_count(), 40u);
  }
  // Reopen: manifest + chain replay everything in order.
  IndexStore reopened(dir_.path(), 2, opts);
  EXPECT_EQ(reopened.record_count(), 40u);
  EXPECT_FALSE(reopened.recovery().torn_tail);
  std::vector<std::string> replayed;
  reopened.for_each(
      [&](std::span<const std::uint8_t> p, const SegmentId&, bool) {
        replayed.emplace_back(p.begin(), p.end());
      });
  EXPECT_EQ(replayed, written);

  // Shard id mismatch is refused (a store directory is not relabelable).
  EXPECT_THROW(IndexStore(dir_.path(), 3, opts), std::runtime_error);
}

TEST_F(StoreDirTest, IndexStoreCompactCollapsesChain) {
  IndexStoreOptions opts;
  opts.segment_max_bytes = 96;
  IndexStore store(dir_.path(), 0, opts);
  std::vector<std::string> written;
  for (int i = 0; i < 25; ++i) {
    written.push_back("payload-" + std::to_string(i));
    store.put(bytes_of(written.back()));
  }
  store.sync();
  const std::size_t segments_before = store.segment_count();
  ASSERT_GT(segments_before, 2u);

  // Compaction must not lose or reorder records; afterwards the chain is
  // one sealed segment + one empty active.
  (void)store.compact();
  EXPECT_EQ(store.segment_count(), 2u);
  EXPECT_EQ(store.record_count(), 25u);
  std::vector<std::string> replayed;
  store.for_each(
      [&](std::span<const std::uint8_t> p, const SegmentId&, bool) {
        replayed.emplace_back(p.begin(), p.end());
      });
  EXPECT_EQ(replayed, written);

  // Old segment files are gone; a reopen agrees with the live object.
  std::size_t seg_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_.path())) {
    if (entry.path().extension() == ".apks") ++seg_files;
  }
  EXPECT_EQ(seg_files, 2u);
  IndexStore reopened(dir_.path(), 0, opts);
  EXPECT_EQ(reopened.record_count(), 25u);
}

class ApksCodecTest : public ::testing::Test {
 protected:
  ApksCodecTest()
      : e_(default_type_a_params()),
        scheme_(e_, Schema({{"a", nullptr, 1}, {"b", nullptr, 2}})),
        rng_("store-codec") {
    scheme_.setup(rng_, pk_, msk_);
  }

  Pairing e_;
  Apks scheme_;
  ChaChaRng rng_;
  ApksPublicKey pk_;
  ApksMasterKey msk_;
};

TEST_F(ApksCodecTest, IndexRoundTripPreservesSearchResult) {
  const EncryptedIndex enc =
      scheme_.gen_index(pk_, PlainIndex{{"x", "y"}}, rng_);
  const auto data = serialize_index(e_, enc);
  EXPECT_EQ(data, serialize_index(e_, deserialize_index(e_, data)));

  const Capability cap = scheme_.gen_cap(
      msk_, Query{{QueryTerm::equals("x"), QueryTerm::equals("y")}}, rng_);
  EXPECT_TRUE(scheme_.search(cap, deserialize_index(e_, data)));
}

TEST_F(ApksCodecTest, CapabilityRoundTripKeepsHistory) {
  const Query q{{QueryTerm::equals("x"), QueryTerm::any()}};
  Capability cap = scheme_.gen_cap(msk_, q, rng_);
  cap = scheme_.delegate_cap(
      cap, Query{{QueryTerm::any(), QueryTerm::subset({"y", "z"})}}, rng_);
  const auto data = serialize_capability(e_, cap);
  const Capability back = deserialize_capability(e_, data);
  EXPECT_EQ(data, serialize_capability(e_, back));
  ASSERT_EQ(back.history.size(), 2u);
  EXPECT_EQ(back.history[0].terms[0].kind, QueryTerm::Kind::kEquality);
  EXPECT_EQ(back.history[0].terms[0].values,
            std::vector<std::string>{"x"});
  EXPECT_EQ(back.history[1].terms[1].kind, QueryTerm::Kind::kSubset);
  EXPECT_EQ(back.history[1].terms[1].values,
            (std::vector<std::string>{"y", "z"}));
  // The round-tripped key still searches.
  const EncryptedIndex enc =
      scheme_.gen_index(pk_, PlainIndex{{"x", "y"}}, rng_);
  EXPECT_TRUE(scheme_.search(back, enc));
}

TEST_F(ApksCodecTest, CodecsRejectGarbage) {
  EXPECT_THROW((void)deserialize_index(e_, {}), std::invalid_argument);
  const auto bad_version = bytes_of("\x7fgarbage");
  EXPECT_THROW((void)deserialize_index(e_, bad_version),
               std::invalid_argument);
  EXPECT_THROW((void)deserialize_capability(e_, bad_version),
               std::invalid_argument);
  // Hostile term count in a query must not allocate.
  ByteWriter w;
  w.u8(kCapabilityCodecVersion);
  const Capability cap = scheme_.gen_cap(
      msk_, Query{{QueryTerm::any(), QueryTerm::any()}}, rng_);
  w.bytes(serialize_key(e_, cap.key));
  w.u32(0xFFFFFFFFu);
  EXPECT_THROW((void)deserialize_capability(e_, w.data()),
               std::invalid_argument);
}

class ShardedStoreTest : public StoreDirTest {
 protected:
  ShardedStoreTest()
      : e_(default_type_a_params()),
        scheme_(e_, Schema({{"a", nullptr, 1}, {"b", nullptr, 1}})),
        backend_(scheme_),
        rng_("sharded-store") {
    scheme_.setup(rng_, pk_, msk_);
  }

  [[nodiscard]] ShardedStoreOptions small_segments() const {
    ShardedStoreOptions opts;
    opts.shards = 3;
    opts.segment.segment_max_bytes = 4096;
    return opts;
  }

  Pairing e_;
  Apks scheme_;
  ApksBackend backend_;
  ChaChaRng rng_;
  ApksPublicKey pk_;
  ApksMasterKey msk_;
};

TEST_F(ShardedStoreTest, AppendReloadPreservesOrderAndBytes) {
  std::vector<std::vector<std::uint8_t>> original;
  {
    ShardedStore store(backend_, dir_.path(), small_segments());
    for (int i = 0; i < 10; ++i) {
      const EncryptedIndex enc = scheme_.gen_index(
          pk_, PlainIndex{{i % 2 == 0 ? "x" : "q", "y"}}, rng_);
      original.push_back(serialize_index(e_, enc));
      EXPECT_EQ(store.append("doc-" + std::to_string(i), enc),
                static_cast<std::uint64_t>(i + 1));
    }
    store.sync();
    EXPECT_EQ(store.record_count(), 10u);
    EXPECT_EQ(store.shard_count(), 3u);
  }
  // Reopen (options ask for 5 shards — the on-disk 3 must win).
  ShardedStoreOptions reopen_opts = small_segments();
  reopen_opts.shards = 5;
  ShardedStore store(backend_, dir_.path(), reopen_opts);
  EXPECT_EQ(store.shard_count(), 3u);
  EXPECT_EQ(store.next_id(), 11u);
  const std::vector<StoredIndexRecord> records = store.load_all();
  ASSERT_EQ(records.size(), 10u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].id, i + 1);
    EXPECT_EQ(records[i].doc_ref, "doc-" + std::to_string(i));
    // Byte-identical index round trip through disk.
    EXPECT_EQ(serialize_index(e_, records[i].index), original[i]);
  }
}

TEST_F(ShardedStoreTest, ServerRestartIsByteIdentical) {
  // Populate a server with write-through persistence...
  auto verifier = [&] {
    return CapabilityVerifier(e_, IbsPublicParams{});
  };
  CloudServer original(scheme_, verifier());
  {
    ShardedStore store(backend_, dir_.path(), small_segments());
    original.attach_store(&store);
    for (int i = 0; i < 8; ++i) {
      (void)original.store(
          scheme_.gen_index(pk_, PlainIndex{{i < 5 ? "x" : "n", "y"}}, rng_),
          "doc-" + std::to_string(i));
    }
    store.sync();
    original.attach_store(nullptr);
  }  // "crash": the store object goes away, only the files remain

  // ...restart from disk and compare against the never-restarted server.
  ShardedStore reopened(backend_, dir_.path(), small_segments());
  CloudServer restarted(scheme_, verifier());
  EXPECT_EQ(restarted.load_from(reopened), 8u);
  EXPECT_EQ(restarted.record_count(), original.record_count());

  const Capability cap = scheme_.gen_cap(
      msk_, Query{{QueryTerm::equals("x"), QueryTerm::any()}}, rng_);
  const AnyQuery query = borrow_capability(backend_, cap);
  const SearchReply a = serve(SearchEngine(original), {.queries = {&query, 1}});
  const SearchReply b =
      serve(SearchEngine(restarted), {.queries = {&query, 1}});
  const BatchMetrics& stats_a = a.metrics;
  const BatchMetrics& stats_b = b.metrics;
  EXPECT_EQ(a.refs, b.refs);
  EXPECT_EQ(stats_a.per_query[0].scanned, stats_b.per_query[0].scanned);
  EXPECT_EQ(stats_a.per_query[0].matched, stats_b.per_query[0].matched);

  // New uploads on the restarted server continue the id sequence.
  ShardedStore store2(backend_, dir_.path(), small_segments());
  restarted.attach_store(&store2);
  const std::uint64_t id = restarted.store(
      scheme_.gen_index(pk_, PlainIndex{{"x", "y"}}, rng_), "doc-8");
  EXPECT_EQ(id, 9u);
}

TEST_F(ShardedStoreTest, CompactPreservesRecordsAcrossShards) {
  ShardedStore store(backend_, dir_.path(), small_segments());
  const EncryptedIndex enc =
      scheme_.gen_index(pk_, PlainIndex{{"x", "y"}}, rng_);
  for (int i = 0; i < 9; ++i) {
    (void)store.append("doc-" + std::to_string(i), enc);
  }
  store.sync();
  const auto before = store.load_all();
  (void)store.compact();
  const auto after = store.load_all();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].id, before[i].id);
    EXPECT_EQ(after[i].doc_ref, before[i].doc_ref);
  }
  // And the compacted store reopens.
  ShardedStore reopened(backend_, dir_.path(), small_segments());
  EXPECT_EQ(reopened.record_count(), 9u);
}

// Each way a STORE file can be wrong is refused with StoreError(kCorrupt)
// naming the file, and the refused open leaves the file as it found it.
// Layout: [magic 8] [u32 version] [u32 shards] [u8 scheme] [u64 uid]
// [u32 crc32 of everything before].
TEST_F(ShardedStoreTest, StoreMetaRefusalsAreTyped) {
  { ShardedStore store(backend_, dir_.path(), small_segments()); }
  const fs::path meta = dir_.path() / "STORE";
  const auto read = [&] {
    std::ifstream in(meta, std::ios::binary);
    return std::vector<std::uint8_t>{std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>()};
  };
  const auto write = [&](const std::vector<std::uint8_t>& data) {
    std::ofstream out(meta, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  };
  const std::vector<std::uint8_t> good = read();
  ASSERT_EQ(good.size(), 29u);
  const std::vector<std::uint8_t> body(good.begin(), good.end() - 4);
  // Appends a valid CRC, so only the field under test is wrong.
  const auto sealed = [](std::vector<std::uint8_t> b) {
    ByteWriter w;
    w.raw(b);
    w.u32(crc32(b));
    return w.take();
  };

  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> cases;
  std::vector<std::uint8_t> b = body;
  b[0] ^= 0xFF;
  cases.emplace_back("not a store", sealed(b));
  std::vector<std::uint8_t> bad_crc = good;
  bad_crc.back() ^= 0x01;
  cases.emplace_back("checksum mismatch", bad_crc);
  b = body;
  b[8] = 4;  // u32 version, little-endian
  cases.emplace_back("unsupported store version 4", sealed(b));
  b = body;
  b.push_back(0);
  cases.emplace_back("trailing bytes", sealed(b));
  b = body;
  std::fill(b.begin() + 12, b.begin() + 16, 0);  // u32 shard count = 0
  cases.emplace_back("implausible shard count", sealed(b));

  for (const auto& [why, bytes] : cases) {
    write(bytes);
    try {
      ShardedStore store(backend_, dir_.path(), small_segments());
      ADD_FAILURE() << why << ": accepted";
    } catch (const StoreError& ex) {
      EXPECT_EQ(ex.code(), ErrorCode::kCorrupt) << why;
      EXPECT_EQ(fs::path(ex.path()), meta) << why;
      EXPECT_NE(std::string(ex.what()).find(why), std::string::npos)
          << ex.what();
    }
    EXPECT_EQ(read(), bytes) << why;
  }
  write(good);
  ShardedStore store(backend_, dir_.path(), small_segments());
  EXPECT_EQ(store.shard_count(), 3u);
}

// A frame whose CRC verifies but whose record head does not parse is no
// torn tail: reopening refuses it with StoreError(kCorrupt) naming the
// shard directory that holds it.
TEST_F(ShardedStoreTest, UnparseableRecordHeadIsTypedCorrupt) {
  { ShardedStore store(backend_, dir_.path(), small_segments()); }
  const fs::path shard = dir_.path() / "shard-001";
  {
    SegmentWriter w =
        SegmentWriter::open_for_append(shard / "seg-00000001.apks", nullptr);
    const std::uint8_t truncated_id[4] = {1, 0, 0, 0};  // u64 id cut short
    w.append(truncated_id);
    w.close();
  }
  try {
    ShardedStore store(backend_, dir_.path(), small_segments());
    ADD_FAILURE() << "unparseable record head accepted";
  } catch (const StoreError& ex) {
    EXPECT_EQ(ex.code(), ErrorCode::kCorrupt);
    EXPECT_EQ(fs::path(ex.path()), shard);
    EXPECT_NE(std::string(ex.what()).find("store record corrupt"),
              std::string::npos)
        << ex.what();
  }
}

class DocStoreTest : public StoreDirTest {};

TEST_F(DocStoreTest, PersistReloadRoundTrip) {
  ChaChaRng rng("docstore-persist");
  const DocumentKey key = DocumentKey::random(rng);
  DocumentStore docs;
  docs.put("doc-a", key, std::string_view("hello world"), rng);
  docs.put("doc-b", key, std::string_view("second document"), rng);
  docs.persist(dir_.path() / "docs.apks");

  DocumentStore reloaded;
  EXPECT_EQ(reloaded.load(dir_.path() / "docs.apks"), 2u);
  EXPECT_EQ(reloaded.get_text("doc-a", key), "hello world");
  EXPECT_EQ(reloaded.get_text("doc-b", key), "second document");
  // Sealed blobs survive the disk trip bit-exactly: tampering detection
  // still works on the reloaded copy.
  auto* blob = reloaded.find("doc-b");
  ASSERT_NE(blob, nullptr);
  blob->sealed[0] ^= 1;
  EXPECT_FALSE(reloaded.get_text("doc-b", key).has_value());
}

TEST_F(DocStoreTest, ConcurrentPutAndGet) {
  ChaChaRng seed_rng("docstore-threads");
  const DocumentKey key = DocumentKey::random(seed_rng);
  DocumentStore docs;
  constexpr int kWriters = 4;
  constexpr int kDocsPerWriter = 25;
  std::vector<std::thread> pool;
  for (int w = 0; w < kWriters; ++w) {
    pool.emplace_back([&, w] {
      ChaChaRng rng("writer-" + std::to_string(w));
      for (int i = 0; i < kDocsPerWriter; ++i) {
        const std::string ref =
            "doc-" + std::to_string(w) + "-" + std::to_string(i);
        docs.put(ref, key, std::string_view("content of " + ref), rng);
        // Read-back through the shared-lock path while others write.
        EXPECT_EQ(docs.get_text(ref, key), "content of " + ref);
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(docs.size(),
            static_cast<std::size_t>(kWriters * kDocsPerWriter));
}

}  // namespace
}  // namespace apks
