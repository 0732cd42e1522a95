// Streaming and batch descriptive statistics used throughout the simulator
// and the benchmark harnesses (queue-length averages, energy totals,
// gradient-gap variance, FPS percentiles, ...).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fedco::util {

/// Numerically stable streaming mean/variance (Welford) with min/max.
class RunningStats {
 public:
  void add(double value) noexcept;
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept { *this = RunningStats{}; }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] double mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// Population variance; 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of a sample span; 0 for an empty span.
[[nodiscard]] double mean(std::span<const double> values) noexcept;

/// Population variance of a sample span; 0 for fewer than 2 samples.
[[nodiscard]] double variance(std::span<const double> values) noexcept;

[[nodiscard]] double stddev(std::span<const double> values) noexcept;

/// Linear-interpolated percentile, q in [0,100], over the order statistics
/// of a copy (selected in expected O(n), equal to sorting it).
[[nodiscard]] double percentile(std::span<const double> values, double q);

/// The run-summary percentile triple. Computed over one copy (each rank
/// selected from the part the previous one left unpartitioned), bit-equal
/// to three percentile() calls; all zero for an empty span.
struct Percentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

[[nodiscard]] Percentiles percentiles(std::span<const double> values);

/// Pearson correlation coefficient; 0 if either side is degenerate.
[[nodiscard]] double pearson(std::span<const double> xs,
                             std::span<const double> ys) noexcept;

/// Fixed-width histogram over [lo, hi) with overflow/underflow folded into
/// the edge bins. Used by the FPS benchmark and diagnostics.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value) noexcept;
  [[nodiscard]] std::size_t bin_count(std::size_t bin) const;
  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] double bin_lo(std::size_t bin) const;
  [[nodiscard]] double bin_hi(std::size_t bin) const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Exponential moving average with smoothing factor alpha in (0, 1].
class Ema {
 public:
  explicit Ema(double alpha) noexcept : alpha_(alpha) {}

  double add(double value) noexcept {
    if (!seeded_) {
      value_ = value;
      seeded_ = true;
    } else {
      value_ += alpha_ * (value - value_);
    }
    return value_;
  }

  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] bool seeded() const noexcept { return seeded_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

}  // namespace fedco::util
