#include "util/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace fedco::util {

void RunningStats::add(double value) noexcept {
  ++count_;
  sum_ += value;
  if (count_ == 1) {
    mean_ = value;
    m2_ = 0.0;
    min_ = value;
    max_ = value;
    return;
  }
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double combined = n1 + n2;
  mean_ += delta * n2 / combined;
  m2_ += other.m2_ + delta * delta * n1 * n2 / combined;
  sum_ += other.sum_;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double mean(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double variance(std::span<const double> values) noexcept {
  if (values.size() < 2) return 0.0;
  const double mu = mean(values);
  double m2 = 0.0;
  for (const double v : values) m2 += (v - mu) * (v - mu);
  return m2 / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) noexcept {
  return std::sqrt(variance(values));
}

namespace {
/// Linear-interpolated percentiles at ascending `qs`, by selection: each
/// rank's order statistic comes from nth_element over the part the
/// previous rank left unpartitioned, and its successor is the minimum of
/// the upper partition — the values a sorted copy holds there, so the
/// result is bit-equal to interpolating over std::sort's output. The copy
/// is gathered with a fixed prime stride: summary samples come in time
/// order, and such smooth series drive introselect's median-of-3 pivots
/// into its O(n log n) fallback (240 ms against 18 ms on the 1.77M gaps of
/// a 1M-user run). Order statistics do not depend on the order.
template <std::size_t N>
std::array<double, N> select_percentiles(std::span<const double> values,
                                         std::array<double, N> qs) {
  constexpr std::size_t kStride = 7919;
  std::vector<double> work;
  work.reserve(values.size());
  for (std::size_t s = 0; s < std::min(kStride, values.size()); ++s) {
    for (std::size_t i = s; i < values.size(); i += kStride) work.push_back(values[i]);
  }
  auto from = work.begin();  // [from, end) is not yet partitioned
  for (double& q : qs) {
    const double rank = q / 100.0 * static_cast<double>(work.size() - 1);
    const auto lower = static_cast<std::size_t>(rank);
    const auto at = work.begin() + static_cast<std::ptrdiff_t>(lower);
    if (at >= from) {
      std::nth_element(from, at, work.end());
      from = at + 1;
    }
    const double frac = rank - static_cast<double>(lower);
    q = at + 1 == work.end()
            ? *at
            : *at + frac * (*std::min_element(at + 1, work.end()) - *at);
  }
  return qs;
}
}  // namespace

double percentile(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  if (q < 0.0 || q > 100.0) throw std::invalid_argument{"percentile q out of range"};
  return select_percentiles(values, std::array{q})[0];
}

Percentiles percentiles(std::span<const double> values) {
  if (values.empty()) return {};
  const auto [p50, p90, p99] =
      select_percentiles(values, std::array{50.0, 90.0, 99.0});
  return {p50, p90, p99};
}

double pearson(std::span<const double> xs, std::span<const double> ys) noexcept {
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  const double mx = mean(xs.subspan(0, n));
  const double my = mean(ys.subspan(0, n));
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo) {
  if (bins == 0) throw std::invalid_argument{"Histogram needs at least one bin"};
  if (!(hi > lo)) throw std::invalid_argument{"Histogram needs hi > lo"};
  width_ = (hi - lo) / static_cast<double>(bins);
  counts_.assign(bins, 0);
}

void Histogram::add(double value) noexcept {
  auto bin = static_cast<std::ptrdiff_t>(std::floor((value - lo_) / width_));
  bin = std::clamp<std::ptrdiff_t>(bin, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

std::size_t Histogram::bin_count(std::size_t bin) const { return counts_.at(bin); }

double Histogram::bin_lo(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range{"Histogram bin"};
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin) + width_; }

}  // namespace fedco::util
