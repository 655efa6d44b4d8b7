// Failpoint framework tests: triggers (every/after/probability/limit), the
// env-spec grammar, thread safety, the disarmed fast path, and the fs shim
// integration (injected EIO and short writes leaving real torn bytes).
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/failpoint.h"
#include "core/backend.h"
#include "store/fs.h"
#include "store/segment.h"
#include "test_dir.h"

namespace apks {
namespace {

namespace fs = std::filesystem;

// Every test starts and ends with a disarmed registry: failpoints are
// process-global, so leaks would bleed into unrelated tests.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::instance().clear_all(); }
  void TearDown() override { Failpoints::instance().clear_all(); }
};

FailpointPolicy throw_policy() {
  FailpointPolicy p;
  p.action = FailAction::kThrow;
  return p;
}

TEST_F(FailpointTest, DisarmedSitesNeverFire) {
  EXPECT_FALSE(Failpoints::active());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(failpoint("test.nowhere").fired());
  }
  // The disarmed fast path does not even count evaluations (no lock, no
  // registry touch).
  EXPECT_EQ(Failpoints::instance().evaluations("test.nowhere"), 0u);
}

TEST_F(FailpointTest, ArmAndClear) {
  Failpoints::instance().set("test.a", throw_policy());
  EXPECT_TRUE(Failpoints::active());
  EXPECT_THROW((void)failpoint("test.a"), FailpointError);
  EXPECT_FALSE(failpoint("test.other").fired());  // other sites unaffected
  Failpoints::instance().clear("test.a");
  EXPECT_FALSE(Failpoints::active());
  EXPECT_NO_THROW((void)failpoint("test.a"));
}

TEST_F(FailpointTest, ThrowCarriesSiteName) {
  Failpoints::instance().set("test.site.name", throw_policy());
  try {
    (void)failpoint("test.site.name");
    FAIL() << "failpoint did not fire";
  } catch (const FailpointError& e) {
    EXPECT_EQ(e.site(), "test.site.name");
  }
}

TEST_F(FailpointTest, EveryNth) {
  FailpointPolicy p;
  p.action = FailAction::kError;
  p.error_code = EIO;
  p.every = 3;
  Failpoints::instance().set("test.every", p);
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(failpoint("test.every").fired());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
  EXPECT_EQ(Failpoints::instance().evaluations("test.every"), 9u);
  EXPECT_EQ(Failpoints::instance().fires("test.every"), 3u);
}

TEST_F(FailpointTest, AfterNSkipsWarmup) {
  FailpointPolicy p;
  p.action = FailAction::kError;
  p.after = 4;
  Failpoints::instance().set("test.after", p);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(failpoint("test.after").fired()) << "warmup evaluation " << i;
  }
  EXPECT_TRUE(failpoint("test.after").fired());
  EXPECT_TRUE(failpoint("test.after").fired());
}

TEST_F(FailpointTest, LimitDisarmsAfterMaxHits) {
  FailpointPolicy p;
  p.action = FailAction::kError;
  p.max_hits = 2;
  Failpoints::instance().set("test.limit", p);
  EXPECT_TRUE(failpoint("test.limit").fired());
  EXPECT_TRUE(failpoint("test.limit").fired());
  EXPECT_FALSE(failpoint("test.limit").fired());
  EXPECT_FALSE(failpoint("test.limit").fired());
  EXPECT_EQ(Failpoints::instance().fires("test.limit"), 2u);
}

TEST_F(FailpointTest, ProbabilityIsSeededAndDeterministic) {
  auto schedule = [](std::uint64_t seed) {
    Failpoints::instance().clear_all();
    FailpointPolicy p;
    p.action = FailAction::kError;
    p.probability = 0.5;
    p.seed = seed;
    Failpoints::instance().set("test.prob", p);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(failpoint("test.prob").fired());
    return fired;
  };
  const auto a = schedule(7);
  const auto b = schedule(7);
  const auto c = schedule(8);
  EXPECT_EQ(a, b) << "same seed must replay the same schedule";
  EXPECT_NE(a, c) << "different seeds should diverge";
  // Sanity: p=0.5 over 64 draws fires somewhere strictly between the
  // extremes.
  const auto hits = std::count(a.begin(), a.end(), true);
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, 64);
}

TEST_F(FailpointTest, ReArmingResetsTriggerState) {
  FailpointPolicy p;
  p.action = FailAction::kError;
  p.after = 1;
  Failpoints::instance().set("test.rearm", p);
  EXPECT_FALSE(failpoint("test.rearm").fired());
  EXPECT_TRUE(failpoint("test.rearm").fired());
  Failpoints::instance().set("test.rearm", p);  // reset: warmup starts over
  EXPECT_FALSE(failpoint("test.rearm").fired());
  EXPECT_TRUE(failpoint("test.rearm").fired());
}

TEST_F(FailpointTest, ConfigureSpecGrammar) {
  const std::size_t armed = Failpoints::instance().configure(
      "fs.write=short:12;every:2,fs.fsync=error:28;after:1;limit:3,"
      "proxy.s0.r0=throw;p:0.25;seed:42,engine.scan_block=delay:5");
  EXPECT_EQ(armed, 4u);
  // fs.write: second evaluation fires a 12-byte short write.
  EXPECT_FALSE(failpoint("fs.write").fired());
  const FailpointFire fire = failpoint("fs.write");
  EXPECT_EQ(fire.action, FailAction::kShortWrite);
  EXPECT_EQ(fire.short_bytes, 12u);
  // fs.fsync: errno 28 (ENOSPC) after one warmup evaluation.
  EXPECT_FALSE(failpoint("fs.fsync").fired());
  const FailpointFire fsync_fire = failpoint("fs.fsync");
  EXPECT_EQ(fsync_fire.action, FailAction::kError);
  EXPECT_EQ(fsync_fire.error_code, 28);
}

TEST_F(FailpointTest, ConfigureRejectsMalformedSpecs) {
  auto& fp = Failpoints::instance();
  EXPECT_THROW((void)fp.configure("=throw"), std::invalid_argument);
  EXPECT_THROW((void)fp.configure("site"), std::invalid_argument);
  EXPECT_THROW((void)fp.configure("site=explode"), std::invalid_argument);
  EXPECT_THROW((void)fp.configure("site=throw;p:1.5"), std::invalid_argument);
  EXPECT_THROW((void)fp.configure("site=throw;every:x"),
               std::invalid_argument);
  EXPECT_THROW((void)fp.configure("site=throw;bogus:1"),
               std::invalid_argument);
  EXPECT_FALSE(Failpoints::active()) << "failed configure must not arm sites";
}

TEST_F(FailpointTest, StatsEnumerateArmedSites) {
  Failpoints::instance().set("test.s1", throw_policy());
  FailpointPolicy off;
  off.action = FailAction::kError;
  Failpoints::instance().set("test.s2", off);
  EXPECT_THROW((void)failpoint("test.s1"), FailpointError);
  (void)failpoint("test.s2");
  const auto stats = Failpoints::instance().stats();
  ASSERT_EQ(stats.size(), 2u);
  for (const auto& s : stats) {
    EXPECT_EQ(s.evaluations, 1u) << s.site;
    EXPECT_EQ(s.fires, 1u) << s.site;
  }
}

TEST_F(FailpointTest, ConcurrentEvaluationIsThreadSafe) {
  FailpointPolicy p;
  p.action = FailAction::kError;
  p.every = 2;
  Failpoints::instance().set("test.mt", p);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::atomic<std::uint64_t> fired{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (failpoint("test.mt").fired()) {
          fired.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(Failpoints::instance().evaluations("test.mt"),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(fired.load(), static_cast<std::uint64_t>(kThreads * kPerThread / 2));
}

// --- fs shim integration ----------------------------------------------------

class FailpointFsTest : public FailpointTest {
 protected:
  TestDir dir_{"failpoint"};
};

TEST_F(FailpointFsTest, InjectedWriteErrorSetsErrno) {
  FailpointPolicy p;
  p.action = FailAction::kError;
  p.error_code = ENOSPC;
  Failpoints::instance().set(storefs::kSiteWrite, p);
  std::FILE* f = storefs::open(dir_.path() / "f", "wb");
  ASSERT_NE(f, nullptr);
  const char data[4] = {'a', 'b', 'c', 'd'};
  errno = 0;
  EXPECT_FALSE(storefs::write(f, data, sizeof(data)));
  EXPECT_EQ(errno, ENOSPC);
  Failpoints::instance().clear_all();
  EXPECT_TRUE(storefs::write(f, data, sizeof(data)));
  EXPECT_TRUE(storefs::close(f));
}

TEST_F(FailpointFsTest, ShortWriteLeavesTornPrefixOnDisk) {
  const fs::path file = dir_.path() / "torn";
  std::FILE* f = storefs::open(file, "wb");
  ASSERT_NE(f, nullptr);
  FailpointPolicy p;
  p.action = FailAction::kShortWrite;
  p.short_bytes = 3;
  Failpoints::instance().set(storefs::kSiteWrite, p);
  const char data[8] = {'0', '1', '2', '3', '4', '5', '6', '7'};
  EXPECT_FALSE(storefs::write(f, data, sizeof(data)));
  Failpoints::instance().clear_all();
  EXPECT_TRUE(storefs::close(f));
  // Exactly the injected prefix reached the file — the torn-frame state a
  // crashed writer leaves.
  std::ifstream in(file, std::ios::binary);
  const std::string got((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "012");
}

TEST_F(FailpointFsTest, SegmentWriterSurfacesInjectedFaultsAsStoreErrors) {
  const fs::path seg = dir_.path() / "seg.apks";
  SegmentWriter w(seg, /*shard_id=*/1, /*seq=*/1);
  const std::vector<std::uint8_t> payload(32, 0xAB);

  FailpointPolicy p;
  p.action = FailAction::kError;
  p.error_code = EIO;
  Failpoints::instance().set(storefs::kSiteWrite, p);
  try {
    w.append(payload);
    FAIL() << "append with injected EIO did not throw";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
    EXPECT_EQ(e.path(), seg.string());
  }
  Failpoints::instance().clear_all();

  Failpoints::instance().set(storefs::kSiteFsync, p);
  w.append(payload);
  EXPECT_THROW(w.sync(), StoreError);
  Failpoints::instance().clear_all();
  EXPECT_NO_THROW(w.sync());
  w.close();

  // The surviving file holds exactly the frames whose writes succeeded.
  const SegmentScanResult scan = scan_segment(seg);
  EXPECT_EQ(scan.records, 1u);
  EXPECT_FALSE(scan.torn_tail());
}

}  // namespace
}  // namespace apks
