// Gap-accrual bookkeeping components for the experiment driver's Eq. (12)
// dynamics: the shared epsilon-chain prefix table the lazy-accrual gap
// reads use, and the folded-accrual accumulator engine behind the opt-in
// `folded_gap_accrual` mode (docs/performance.md §8, docs/algorithms.md).
// Both are driver-internal machinery, split out so they are directly
// unit-testable (tests/gap_accrual_test.cpp) without running a full
// experiment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fedco::core {

/// Shared prefix table of the epsilon-accrual chain: value(k) is the result
/// of k sequential `gap += epsilon` additions starting from 0.0 — the chain
/// every zero-reset gap follows on the lazy-accrual path, so one table
/// serves the whole fleet. Entries below kTailThreshold are built by exactly
/// those sequential additions (bit-identical to the eager per-slot loop, the
/// golden-fingerprint contract); past the threshold the value is the
/// threshold entry plus a closed-form multiply. That caps the table at
/// kTailThreshold doubles (512 KiB) no matter how long a horizon runs, at
/// the cost of floating-point-associativity divergence from the sequential
/// chain — only reachable by gaps idling > kTailThreshold consecutive slots
/// (every committed golden horizon is far below it).
class EpsChainTable {
 public:
  /// Longest chain kept as literal sequential additions. Chosen above every
  /// golden scenario horizon (<= 10800 slots) with an order-of-magnitude
  /// margin, so the closed-form tail can never change a pinned fingerprint.
  static constexpr std::int64_t kTailThreshold = 1 << 16;

  explicit EpsChainTable(double epsilon) : epsilon_(epsilon) {}

  [[nodiscard]] double value(std::int64_t k) {
    if (k >= kTailThreshold) {
      grow(kTailThreshold - 1);
      return chain_[static_cast<std::size_t>(kTailThreshold - 1)] +
             epsilon_ * static_cast<double>(k - (kTailThreshold - 1));
    }
    grow(k);
    return chain_[static_cast<std::size_t>(k)];
  }

  /// Entries materialized so far (bounded by kTailThreshold; test hook).
  [[nodiscard]] std::size_t stored() const noexcept { return chain_.size(); }

 private:
  void grow(std::int64_t k) {
    while (static_cast<std::int64_t>(chain_.size()) <= k) {
      chain_.push_back(chain_.back() + epsilon_);
    }
  }

  double epsilon_;
  std::vector<double> chain_{0.0};
};

/// Folded-accrual engine: each accruing user's gap is the closed form
/// gap_i(s) = base_i + epsilon * (s - anchor_i), so the fleet sum
///
///   G(t) = sum_frozen + sum_base + epsilon * (accruing * t - sum_anchors)
///
/// is three scalar accumulators away — O(1) per slot — updated only when a
/// user changes Eq. (12) class (training freeze/unfreeze, update reset,
/// drop, presence join/leave). Anchors are summed exactly in int64, so the
/// only divergence from the per-slot sweep is floating-point associativity:
/// one multiply replaces (s - anchor) sequential additions, and detaching a
/// contribution subtracts the exact double that was added. The driver owns
/// when to attach/detach (experiment.cpp fold_retag); this class owns the
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
    return base_[i] + epsilon_ * static_cast<double>(s - anchor_[i]);
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

  /// G(t) after every accruing user added its slot-t epsilon — what the
  /// per-slot sweep returns at the end of slot t.
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
