#include "common/work_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

namespace apks {
namespace {

// One parallel_run call. It lives on the caller's stack: the caller
// returns only once every index has reported done and no pool thread is
// inside the job any more. The fields after `next` are guarded by the
// pool mutex.
struct Job {
  Job(const std::function<void(std::size_t)>& f, std::size_t count)
      : fn(&f), n(count) {}

  const std::function<void(std::size_t)>* fn;
  std::size_t n;
  std::atomic<std::size_t> next{0};  // next unclaimed index
  std::size_t done = 0;              // indices run and reported
  std::size_t helpers = 0;           // pool threads inside the job
  std::exception_ptr error;          // first exception reported
  std::condition_variable finished;
};

// What one thread's pass over a job ran.
struct Drained {
  std::size_t ran = 0;
  std::exception_ptr error;
};

// Claims and runs indices until none are left.
Drained drain(Job& job) {
  Drained d;
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return d;
    try {
      (*job.fn)(i);
    } catch (...) {
      if (!d.error) d.error = std::current_exception();
    }
    ++d.ran;
  }
}

class Pool {
 public:
  Pool() {
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned t = 1; t < cores; ++t) {
      std::thread([this] { work(); }).detach();
    }
  }

  void run(Job& job) {
    {
      std::lock_guard lock(mu_);
      jobs_.push_back(&job);
    }
    wake_.notify_all();
    const Drained mine = drain(job);
    std::unique_lock lock(mu_);
    // Every index is claimed, so no pool thread may join the job now.
    std::erase(jobs_, &job);
    report(job, mine);
    job.finished.wait(lock,
                      [&] { return job.helpers == 0 && job.done == job.n; });
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  void work() {
    std::unique_lock lock(mu_);
    for (;;) {
      wake_.wait(lock, [&] { return !jobs_.empty(); });
      Job& job = *jobs_.front();
      ++job.helpers;
      lock.unlock();
      const Drained ran = drain(job);
      lock.lock();
      std::erase(jobs_, &job);
      --job.helpers;
      report(job, ran);
      // Still under the lock: the caller cannot wake and return (ending
      // the job's lifetime) before this notify is done.
      if (job.helpers == 0 && job.done == job.n) job.finished.notify_all();
    }
  }

  static void report(Job& job, const Drained& d) {
    job.done += d.ran;
    if (d.error && !job.error) job.error = d.error;
  }

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<Job*> jobs_;  // jobs that may still have unclaimed indices
};

}  // namespace

void parallel_run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  // Never destroyed: the pool threads wait on it until the process exits,
  // so no static destructor can pull it from under them.
  static Pool* const pool = new Pool;
  Job job(fn, n);
  pool->run(job);
}

}  // namespace apks
