// The process-wide work pool: one fixed set of hardware_concurrency() - 1
// threads that every parallel section of the library runs on (the search
// engine's block scan, the store's lane-packed index decode). Nothing else
// in src/ spawns threads per call.
//
// parallel_run(n, fn) runs fn(0), ..., fn(n - 1), each exactly once, and
// returns when all of them are done. The calling thread claims indices
// too, so a call always makes progress on its own work: a call nested
// inside a task, or one made while every pool thread is busy with another
// caller's work, cannot deadlock. n <= 1 runs on the calling thread
// without touching the pool. The pool threads start on the first call that
// can use them and live until the process exits.
//
// Every index runs even if some throw; parallel_run then rethrows the
// first exception caught.
#pragma once

#include <cstddef>
#include <functional>

namespace apks {

void parallel_run(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace apks
