// The experiment driver's Eq. (12) gap engine: folded accrual, the one
// source of every per-user gap read and of G(t), the Eq. (16) input
// (docs/performance.md §6, docs/algorithms.md §6). Driver-internal
// machinery, split out so it is directly unit-testable
// (tests/gap_accrual_test.cpp) without running a full experiment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fedco::core {

/// gap(s) = base + epsilon * (s - anchor): the one expression behind
/// FoldedGapAccrual::eval and ReadyRow::gap, so both read the same double.
[[nodiscard]] inline double folded_gap(double base, std::int32_t anchor,
                                       std::int64_t s, double epsilon) noexcept {
  return base + epsilon * static_cast<double>(s - anchor);
}

/// Folded-accrual engine: each accruing user's gap is the closed form
/// gap_i(s) = base_i + epsilon * (s - anchor_i), so the fleet sum
///
///   G(t) = sum_frozen + sum_base + epsilon * (accruing * t - sum_anchors)
///
/// is three scalar accumulators away — O(1) per slot — updated only when a
/// user changes Eq. (12) class (training freeze/unfreeze, update reset,
/// drop, presence join/leave). Anchors are summed exactly in int64, so the
/// only divergence from a per-slot sweep (`gap += epsilon` for every
/// accruing user, then an index-order sum — the oracle in
/// tests/gap_accrual_test.cpp) is floating-point associativity: one
/// multiply replaces (s - anchor) sequential additions, and detaching a
/// contribution subtracts the exact double that was added. The driver owns
/// when to attach/detach (experiment.cpp set_mode); this class owns the
/// arithmetic.
///
/// Per-user state is two flat columns: the base (which doubles as the
/// frozen-value record while a user trains) and the int32 anchor slot.
class FoldedGapAccrual {
 public:
  void init(std::size_t users, double epsilon) {
    epsilon_ = epsilon;
    base_.assign(users, 0.0);
    anchor_.assign(users, -1);
    sum_base_ = 0.0;
    sum_frozen_ = 0.0;
    accruing_ = 0;
    sum_anchors_ = 0;
  }

  /// Closed-form gap of an accruing user at the end of slot `s`.
  [[nodiscard]] double eval(std::size_t i, std::int64_t s) const noexcept {
    return folded_gap(base_[i], anchor_[i], s, epsilon_);
  }

  /// The closed form's two cells, copied into the driver's ready rows.
  [[nodiscard]] double base(std::size_t i) const noexcept { return base_[i]; }
  [[nodiscard]] std::int32_t anchor(std::size_t i) const noexcept {
    return anchor_[i];
  }

  /// Start accruing at slot `t` from `base` (the value at the end of slot
  /// t-1, i.e. the first swept slot t contributes base + epsilon).
  void attach_accrue(std::size_t i, double base, std::int64_t t) {
    base_[i] = base;
    anchor_[i] = static_cast<std::int32_t>(t - 1);
    sum_base_ += base;
    sum_anchors_ += t - 1;
    ++accruing_;
  }

  void detach_accrue(std::size_t i) {
    sum_base_ -= base_[i];
    sum_anchors_ -= anchor_[i];
    --accruing_;
  }

  /// Freeze `value` as the user's training-time contribution. The value is
  /// recorded in the base column because the driver's gap array may be
  /// overwritten before the matching detach (an update reset lands before
  /// the mode transition).
  void attach_frozen(std::size_t i, double value) {
    base_[i] = value;
    sum_frozen_ += value;
  }

  void detach_frozen(std::size_t i) { sum_frozen_ -= base_[i]; }

  /// G(t) after every accruing user added its slot-t epsilon — what a
  /// per-slot sweep would return at the end of slot t.
  [[nodiscard]] double sum(std::int64_t t) const noexcept {
    return sum_frozen_ + sum_base_ +
           epsilon_ * (static_cast<double>(accruing_) * static_cast<double>(t) -
                       static_cast<double>(sum_anchors_));
  }

  /// Users currently in the accruing class (test/debug hook).
  [[nodiscard]] std::int64_t accruing() const noexcept { return accruing_; }

 private:
  double epsilon_ = 0.0;
  std::vector<double> base_;
  std::vector<std::int32_t> anchor_;
  double sum_base_ = 0.0;
  double sum_frozen_ = 0.0;
  std::int64_t accruing_ = 0;
  std::int64_t sum_anchors_ = 0;
};

}  // namespace fedco::core
