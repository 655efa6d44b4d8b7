// Latency summaries for apks_bench: nearest-rank percentiles, the sample
// count, and whether the sample supports a percentile.
//
// A percentile p is "supported" when at least kMinBeyond samples lie
// beyond it (n * (1 - p) >= kMinBeyond): with fewer, p99 of a 20-sample
// row is just its maximum and p50 == p99 rows appear. Failed operations
// enter a sample as +infinity, so they count as missing every latency
// limit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace apks::e2e {

inline constexpr std::size_t kMinBeyond = 10;
inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

class LatencySummary {
 public:
  LatencySummary() = default;
  explicit LatencySummary(std::vector<double> values)
      : sorted_(std::move(values)) {
    std::sort(sorted_.begin(), sorted_.end());
  }

  [[nodiscard]] std::size_t samples() const noexcept { return sorted_.size(); }

  // True when at least kMinBeyond samples lie beyond percentile p.
  [[nodiscard]] bool supports(double p) const noexcept {
    return static_cast<double>(sorted_.size()) * (100.0 - p) / 100.0 >=
           static_cast<double>(kMinBeyond);
  }

  // Nearest-rank percentile: the smallest value with at least p% of the
  // sample at or below it. 0 for an empty sample.
  [[nodiscard]] double at(double p) const {
    if (sorted_.empty()) return 0;
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(sorted_.size()));
    const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return sorted_[std::min(idx, sorted_.size() - 1)];
  }

  // Highest of 50/90/95/99/99.9 the sample supports; 0 when even the
  // median is unsupported.
  [[nodiscard]] double max_supported() const noexcept {
    double best = 0;
    for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
      if (supports(p)) best = p;
    }
    return best;
  }

 private:
  std::vector<double> sorted_;
};

}  // namespace apks::e2e
