// Sparse (time, value) trace recorder for figure series: queue lengths,
// gradient-gap traces, accuracy curves, FPS traces.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fedco::util {

/// One named trace of (t, value) samples with non-decreasing t.
class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  void add(double t, double value);
  /// Room for n samples, so a series built at a known length holds no slack.
  void reserve(std::size_t n) {
    times_.reserve(n);
    values_.reserve(n);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t size() const noexcept { return times_.size(); }
  [[nodiscard]] bool empty() const noexcept { return times_.empty(); }
  [[nodiscard]] std::span<const double> times() const noexcept { return times_; }
  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }
  [[nodiscard]] double time_at(std::size_t i) const { return times_.at(i); }
  [[nodiscard]] double value_at(std::size_t i) const { return values_.at(i); }
  [[nodiscard]] double last_value() const;

  /// Piecewise-constant (sample-and-hold) value at time t; value before the
  /// first sample is the first sample's value. Empty series yields 0.
  [[nodiscard]] double at(double t) const noexcept;

  /// Time-average over the recorded span, sample-and-hold semantics.
  [[nodiscard]] double time_average() const noexcept;

  /// First time the value reaches `threshold` (>=); negative if never.
  [[nodiscard]] double first_crossing(double threshold) const noexcept;

  /// Down-sample keeping every k-th point (k >= 1); always keeps the last.
  [[nodiscard]] TimeSeries decimate(std::size_t k) const;

 private:
  std::string name_;
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace fedco::util
