// parallel_run: every index exactly once, the caller taking part, nested
// calls, exceptions rethrown only after every task is done, and callers on
// several threads sharing the one pool.
#include "common/work_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace apks {
namespace {

TEST(WorkPool, EveryIndexRunsExactlyOnce) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> runs(n);
    parallel_run(n, [&](std::size_t i) { runs[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "n=" << n << " index " << i;
    }
  }
}

// Every task but the caller's waits for a task on the calling thread. The
// pool has hardware_concurrency() - 1 threads, so with one task more than
// there are cores, the calling thread must claim one; if it did not, the
// bounded wait below would time out.
TEST(WorkPool, CallerTakesPart) {
  const std::thread::id caller = std::this_thread::get_id();
  const std::size_t n = std::max(1u, std::thread::hardware_concurrency()) + 1;
  std::mutex mu;
  std::condition_variable cv;
  bool caller_ran = false;
  std::atomic<std::size_t> timed_out{0};
  parallel_run(n, [&](std::size_t) {
    std::unique_lock lock(mu);
    if (std::this_thread::get_id() == caller) {
      caller_ran = true;
      cv.notify_all();
      return;
    }
    if (!cv.wait_for(lock, std::chrono::seconds(30),
                     [&] { return caller_ran; })) {
      timed_out.fetch_add(1);
    }
  });
  EXPECT_TRUE(caller_ran);
  EXPECT_EQ(timed_out.load(), 0u);
}

TEST(WorkPool, NestedRunCompletes) {
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> runs(kOuter * kInner);
  parallel_run(kOuter, [&](std::size_t i) {
    parallel_run(kInner,
                 [&](std::size_t j) { runs[i * kInner + j].fetch_add(1); });
  });
  for (std::size_t k = 0; k < runs.size(); ++k) {
    EXPECT_EQ(runs[k].load(), 1) << "index " << k;
  }
}

TEST(WorkPool, OneOfTwoExceptionsRethrownAfterEveryTask) {
  constexpr std::size_t kTasks = 200;
  std::atomic<std::size_t> finished{0};
  std::string what;
  try {
    parallel_run(kTasks, [&](std::size_t i) {
      if (i == 17 || i == 150) {
        throw std::runtime_error("task " + std::to_string(i));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      finished.fetch_add(1);
    });
    ADD_FAILURE() << "no exception rethrown";
  } catch (const std::runtime_error& ex) {
    what = ex.what();
    // Read inside the handler: every other task had already finished.
    EXPECT_EQ(finished.load(), kTasks - 2);
  }
  EXPECT_TRUE(what == "task 17" || what == "task 150") << what;
}

TEST(WorkPool, SingleTaskExceptionPropagates) {
  EXPECT_THROW(parallel_run(1, [](std::size_t) {
                 throw std::logic_error("only task");
               }),
               std::logic_error);
}

// Callers on several threads share the pool: each call still runs its own
// indices exactly once.
TEST(WorkPool, ConcurrentCallersShareThePool) {
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kCalls = 50;
  constexpr std::size_t kTasks = 16;
  std::vector<std::atomic<std::size_t>> sums(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t call = 0; call < kCalls; ++call) {
        parallel_run(kTasks, [&](std::size_t i) { sums[c].fetch_add(i + 1); });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[c].load(), kCalls * kTasks * (kTasks + 1) / 2);
  }
}

}  // namespace
}  // namespace apks
