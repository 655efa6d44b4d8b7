// The benchmark's span recorder: spans around every call apks_bench makes
// into a layer, kept in per-thread preallocated buffers and written out
// once the run ends.
//
// A span is (name, start, end, parent, request id, up to two numeric
// attributes). Parents are indexes into the same thread's buffer: a
// request's spans are recorded by the one thread that issued it, so
// children never cross buffers. Self time is a span's duration minus the
// time its children cover; children of one span run one after another on
// that thread, so their durations simply add.
//
// Output: Chrome trace-event JSON (one "X" event per span; opens in
// Perfetto or chrome://tracing) and a per-name table of count, total
// p50/p99 and self-time p50.
#pragma once

#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace apks::e2e {

using SteadyClock = std::chrono::steady_clock;

struct SpanAttr {
  const char* key = nullptr;  // static string; nullptr = unused slot
  double value = 0;
};

struct Span {
  const char* name = nullptr;  // static string
  std::int64_t start_ns = 0;   // since the recorder's epoch
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;    // index in the same buffer; -1 = root
  std::uint64_t request = 0;
  std::array<SpanAttr, 2> attrs{};
};

// One thread's spans. Capacity is reserved up front, so recording never
// allocates; spans past capacity are dropped and counted.
class SpanBuffer {
 public:
  SpanBuffer(std::uint32_t tid, std::size_t capacity,
             SteadyClock::time_point epoch)
      : tid_(tid), epoch_(epoch), spans_(capacity) {}

  // Returns the new span's index, or -1 when the buffer is full.
  std::int32_t open(const char* name, std::uint64_t request,
                    std::int32_t parent) {
    if (size_ == spans_.size()) {
      ++dropped_;
      return -1;
    }
    Span& s = spans_[size_];
    s = Span{};
    s.name = name;
    s.request = request;
    s.parent = parent;
    s.start_ns = now_ns();
    return static_cast<std::int32_t>(size_++);
  }
  void close(std::int32_t idx) { spans_[static_cast<std::size_t>(idx)].end_ns = now_ns(); }
  // Records a finished span that another thread timed.
  void add(const char* name, std::uint64_t request, std::int32_t parent,
           SteadyClock::time_point start, SteadyClock::time_point end) {
    const std::int32_t idx = open(name, request, parent);
    if (idx < 0) return;
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.start_ns = ns_since_epoch(start);
    s.end_ns = ns_since_epoch(end);
  }
  void set_attr(std::int32_t idx, const char* key, double value) {
    for (SpanAttr& a : spans_[static_cast<std::size_t>(idx)].attrs) {
      if (a.key == nullptr || a.key == key) {
        a = {key, value};
        return;
      }
    }
  }

  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] const Span& at(std::size_t i) const { return spans_[i]; }

 private:
  [[nodiscard]] std::int64_t now_ns() const { return ns_since_epoch(SteadyClock::now()); }
  [[nodiscard]] std::int64_t ns_since_epoch(SteadyClock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  std::uint32_t tid_;
  SteadyClock::time_point epoch_;
  std::vector<Span> spans_;
  std::size_t size_ = 0;
  std::size_t dropped_ = 0;
};

// RAII span; a null buffer (tracing off) makes every call a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name, std::uint64_t request,
             std::int32_t parent = -1)
      : buf_(buf), idx_(buf != nullptr ? buf->open(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (idx_ >= 0) buf_->close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void attr(const char* key, double value) {
    if (idx_ >= 0) buf_->set_attr(idx_, key, value);
  }
  [[nodiscard]] std::int32_t index() const noexcept { return idx_; }

 private:
  SpanBuffer* buf_;
  std::int32_t idx_;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t per_thread_capacity)
      : capacity_(per_thread_capacity), epoch_(SteadyClock::now()) {}

  // A fresh buffer for one thread; call before the thread starts.
  SpanBuffer& add_buffer() {
    const std::lock_guard lock(mu_);
    buffers_.push_back(std::make_unique<SpanBuffer>(
        static_cast<std::uint32_t>(buffers_.size() + 1), capacity_, epoch_));
    return *buffers_.back();
  }

  [[nodiscard]] std::size_t span_count() const {
    std::size_t n = 0;
    for (const auto& b : buffers_) n += b->size();
    return n;
  }
  [[nodiscard]] std::size_t dropped() const {
    std::size_t n = 0;
    for (const auto& b : buffers_) n += b->dropped();
    return n;
  }

  // Chrome trace-event format. Returns false when the file cannot be
  // written.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    for (const auto& b : buffers_) {
      for (std::size_t i = 0; i < b->size(); ++i) {
        const Span& s = b->at(i);
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%" PRIu64,
                     first ? "" : ",\n", s.name, b->tid(),
                     static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                     s.request);
        if (s.parent >= 0) {
          std::fprintf(f, ",\"parent\":\"%s\"",
                       b->at(static_cast<std::size_t>(s.parent)).name);
        }
        for (const SpanAttr& a : s.attrs) {
          if (a.key != nullptr) std::fprintf(f, ",\"%s\":%.6g", a.key, a.value);
        }
        std::fprintf(f, "}}");
        first = false;
      }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

  struct NameSummary {
    LatencySummary total_ms;
    LatencySummary self_ms;
  };

  // Per span name: durations and self times in milliseconds.
  [[nodiscard]] std::map<std::string, NameSummary> summarize() const {
    std::map<std::string, std::vector<double>> total;
    std::map<std::string, std::vector<double>> self;
    for (const auto& b : buffers_) {
      std::vector<std::int64_t> covered(b->size(), 0);
      for (std::size_t i = 0; i < b->size(); ++i) {
        const Span& s = b->at(i);
        if (s.parent >= 0) {
          covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
        }
      }
      for (std::size_t i = 0; i < b->size(); ++i) {
        const Span& s = b->at(i);
        const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        total[s.name].push_back(dur);
        self[s.name].push_back(dur - static_cast<double>(covered[i]) / 1e6);
      }
    }
    std::map<std::string, NameSummary> out;
    for (auto& [name, values] : total) {
      out[name] = {LatencySummary(std::move(values)),
                   LatencySummary(std::move(self[name]))};
    }
    return out;
  }

  // A percentile the sample does not support prints as "-".
  void print_table(std::FILE* f) const {
    std::fprintf(f, "%-22s %8s %10s %10s %12s\n", "span", "count", "p50_ms",
                 "p99_ms", "self_p50_ms");
    const auto cell = [](const LatencySummary& s, double p) {
      char buf[32];
      if (s.supports(p)) {
        std::snprintf(buf, sizeof buf, "%.3f", s.at(p));
      } else {
        std::snprintf(buf, sizeof buf, "-");
      }
      return std::string(buf);
    };
    for (const auto& [name, s] : summarize()) {
      std::fprintf(f, "%-22s %8zu %10s %10s %12s\n", name.c_str(),
                   s.total_ms.samples(), cell(s.total_ms, 50).c_str(),
                   cell(s.total_ms, 99).c_str(), cell(s.self_ms, 50).c_str());
    }
  }

 private:
  std::size_t capacity_;
  SteadyClock::time_point epoch_;
  std::mutex mu_;  // guards buffers_ growth
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace apks::e2e
