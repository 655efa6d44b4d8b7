// Shared helpers for the experiment-reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper's Section
// VII and prints the measured series next to the paper's reported numbers.
// Absolute times differ (the paper used a 3.4 GHz Pentium D with PBC in
// 2011); the claims under test are the *shapes*: scaling exponents, who
// wins, and by roughly what factor. Iteration counts adapt to op cost so
// every binary finishes in minutes on one core.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "core/apks.h"
#include "data/nursery.h"
#include "data/workload.h"

namespace apks::bench {

using Clock = std::chrono::steady_clock;

// Tally of the timed calls time_op made in this process. JsonReport
// records it, so a committed number says how many calls stand behind it.
struct TimedIterations {
  std::size_t measurements = 0;  // time_op calls
  std::size_t total = 0;         // fn() calls across all measurements
  std::size_t min = 0;           // fewest fn() calls behind one measurement
};
inline TimedIterations& timed_iterations() {
  static TimedIterations tally;
  return tally;
}

// Times `fn` repeatedly until ~`budget_ms` elapsed (at least once, at most
// `max_iters`); returns mean seconds per call.
inline double time_op(const std::function<void()>& fn, double budget_ms = 500,
                      int max_iters = 20) {
  const auto start = Clock::now();
  std::size_t iters = 0;
  for (;;) {
    fn();
    ++iters;
    const double elapsed =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (elapsed >= budget_ms || iters >= static_cast<std::size_t>(max_iters)) {
      TimedIterations& tally = timed_iterations();
      tally.min = tally.measurements == 0 ? iters : std::min(tally.min, iters);
      tally.total += iters;
      ++tally.measurements;
      return elapsed / 1000.0 / static_cast<double>(iters);
    }
  }
}

// Noise-robust variant: runs `batches` independent time_op measurements and
// returns the median — one-core machines see scheduler spikes that would
// otherwise put outliers into a published series.
inline double time_op_median(const std::function<void()>& fn,
                             double budget_ms = 300, int max_iters = 8,
                             int batches = 3) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    samples.push_back(time_op(fn, budget_ms, max_iters));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

inline void print_header(const char* title, const char* paper_note) {
  std::printf("\n=== %s ===\n", title);
  std::printf("paper reference: %s\n", paper_note);
}

// The n values of the paper's sweeps: n = 9k + 1 for expansion factors
// k = 1..8 (Table III uses all eight; the figures stop at 46).
inline std::vector<std::size_t> paper_n_values(std::size_t max_k) {
  std::vector<std::size_t> out;
  for (std::size_t k = 1; k <= max_k; ++k) out.push_back(9 * k + 1);
  return out;
}

// Nearest-rank percentile (p in [0, 1]) of an ascending sample; 0 when
// the sample is empty.
inline double percentile(const std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

// Command-line switches shared by the bench binaries:
//   --smoke        shrink parameter sweeps + iteration budgets so the binary
//                  finishes in seconds (CI gate, not a measurement)
//   --json[=path]  additionally write the measured series as JSON (default
//                  path is per-binary, e.g. BENCH_msm.json)
struct BenchArgs {
  bool smoke = false;
  bool json = false;
  std::string json_path;
};

inline BenchArgs parse_bench_args(int argc, char** argv,
                                  const std::string& default_json_path) {
  BenchArgs args;
  args.json_path = default_json_path;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(a, "--json") == 0) {
      args.json = true;
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      args.json = true;
      args.json_path = a + 7;
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --smoke, --json[=path])\n",
                   a);
      std::exit(2);
    }
  }
  return args;
}

// A number-or-string JSON scalar. The benches only ever emit flat rows of
// these, so a tagged pair beats pulling in a JSON library.
struct JsonValue {
  enum class Kind { kNumber, kString } kind;
  double num = 0;
  std::string str;
  JsonValue(double v) : kind(Kind::kNumber), num(v) {}                // NOLINT
  JsonValue(int v) : kind(Kind::kNumber), num(v) {}                   // NOLINT
  JsonValue(unsigned v) : kind(Kind::kNumber), num(v) {}              // NOLINT
  JsonValue(std::size_t v)                                            // NOLINT
      : kind(Kind::kNumber), num(static_cast<double>(v)) {}
  JsonValue(const char* s) : kind(Kind::kString), str(s) {}           // NOLINT
  JsonValue(std::string s) : kind(Kind::kString), str(std::move(s)) {}// NOLINT
};

// Machine-readable bench output: one object with ordered meta fields and an
// ordered list of flat rows. Numbers render with %.9g, which round-trips
// timings and every integer the benches produce. The meta opens with the
// run's provenance — build type, sanitizer, effective SIMD engine, smoke
// flag, core count and source commit — so a committed BENCH_*.json says
// what kind of run made it. A bench that timed through time_op also gets
// "iterations" (timed calls in all) and "min_iterations" (fewest behind
// one measurement) at write time.
class JsonReport {
 public:
  JsonReport(std::string bench, const BenchArgs& args)
      : bench_(std::move(bench)) {
    set_meta("build_type", APKS_BUILD_TYPE);
    set_meta("sanitize", APKS_SANITIZE_NAME[0] != '\0' ? APKS_SANITIZE_NAME
                                                        : "none");
    set_meta("simd_effective", simd_level_name(simd_level()));
    set_meta("smoke", args.smoke ? 1 : 0);
    set_meta("nproc", std::thread::hardware_concurrency());
    set_meta("git_sha", APKS_GIT_SHA);
  }

  void set_meta(const std::string& key, JsonValue value) {
    meta_.emplace_back(key, std::move(value));
  }
  void add_row(std::vector<std::pair<std::string, JsonValue>> row) {
    rows_.push_back(std::move(row));
  }

  // Returns false (and reports) when the file cannot be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    auto meta = meta_;
    if (const TimedIterations& t = timed_iterations(); t.measurements > 0) {
      meta.emplace_back("iterations", t.total);
      meta.emplace_back("min_iterations", t.min);
    }
    std::fprintf(f, "{\n  \"bench\": ");
    write_string(f, bench_);
    std::fprintf(f, ",\n  \"meta\": {");
    for (std::size_t i = 0; i < meta.size(); ++i) {
      std::fprintf(f, "%s", i == 0 ? "" : ", ");
      write_string(f, meta[i].first);
      std::fprintf(f, ": ");
      write_value(f, meta[i].second);
    }
    std::fprintf(f, "},\n  \"rows\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    {");
      for (std::size_t j = 0; j < rows_[i].size(); ++j) {
        std::fprintf(f, "%s", j == 0 ? "" : ", ");
        write_string(f, rows_[i][j].first);
        std::fprintf(f, ": ");
        write_value(f, rows_[i][j].second);
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    const bool ok = std::fclose(f) == 0;
    if (ok) std::printf("wrote %s\n", path.c_str());
    return ok;
  }

 private:
  static void write_string(std::FILE* f, const std::string& s) {
    std::fputc('"', f);
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        std::fputc('\\', f);
        std::fputc(c, f);
      } else if (c == '\n') {
        std::fputs("\\n", f);
      } else {
        std::fputc(c, f);
      }
    }
    std::fputc('"', f);
  }
  static void write_value(std::FILE* f, const JsonValue& v) {
    if (v.kind == JsonValue::Kind::kString) {
      write_string(f, v.str);
    } else {
      std::fprintf(f, "%.9g", v.num);
    }
  }

  std::string bench_;
  std::vector<std::pair<std::string, JsonValue>> meta_;
  std::vector<std::vector<std::pair<std::string, JsonValue>>> rows_;
};

// The engine triple every comparison bench sweeps, in report order.
inline const char* engine_name(ScalarEngine e) {
  switch (e) {
    case ScalarEngine::kNaive: return "naive";
    case ScalarEngine::kWindowed: return "windowed";
    case ScalarEngine::kPrecomputed: return "precomputed";
  }
  return "?";
}

}  // namespace apks::bench
