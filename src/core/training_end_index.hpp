// The experiment driver's expected_lag index (Algorithm 2, line 4): the
// end slots of every in-flight training session. Driver-internal
// machinery, split out so it is directly unit-testable
// (tests/training_end_index_test.cpp) without running a full experiment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/clock.hpp"

namespace fedco::core {

/// Fenwick (binary-indexed) tree counting in-flight training end slots,
/// with a per-slot histogram beside it. count_le(end) returns exactly the
/// integer the historical sorted-vector upper_bound produced, but
/// insert/erase are O(log cap) instead of O(n) memmoves, which dominated
/// large-fleet event processing. count_at(end) is the O(1) step between
/// neighbouring prefix counts, which lets the driver carry a count from
/// one end slot to the next without a fresh prefix walk.
///
/// Ends and queries clamp to [0, cap]: an end past the cap counts as the
/// cap, and a query below 0 reads as a query at 0. The driver sizes cap so
/// that no reachable query slot is clamped (see Driver::setup_lag_index).
class TrainingEndIndex {
 public:
  void init(sim::Slot cap) {
    cap_ = cap;
    tree_.assign(static_cast<std::size_t>(cap) + 2, 0);
    at_.assign(static_cast<std::size_t>(cap) + 2, 0);
  }

  void add(sim::Slot end, std::int32_t delta) noexcept {
    const std::size_t p = pos(end);
    at_[p] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(at_[p]) + delta);
    for (std::size_t i = p; i < tree_.size(); i += i & (~i + 1)) {
      tree_[i] = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(tree_[i]) + delta);
    }
  }

  /// Number of indexed ends <= `end` (both sides clamped).
  [[nodiscard]] std::size_t count_le(sim::Slot end) const noexcept {
    std::size_t sum = 0;
    for (std::size_t i = pos(end); i > 0; i -= i & (~i + 1)) sum += tree_[i];
    return sum;
  }

  /// count_le(end) - count_le(end - 1) in O(1): the ends at exactly `end`
  /// for 1 <= end <= cap (at the cap, every end clamped onto it), and 0
  /// elsewhere, where clamping maps end and end - 1 to one position.
  [[nodiscard]] std::size_t count_at(sim::Slot end) const noexcept {
    if (end < 1 || end > cap_) return 0;
    return at_[static_cast<std::size_t>(end) + 1];
  }

 private:
  [[nodiscard]] std::size_t pos(sim::Slot end) const noexcept {
    const sim::Slot clamped = end < 0 ? 0 : (end > cap_ ? cap_ : end);
    return static_cast<std::size_t>(clamped) + 1;
  }

  sim::Slot cap_ = 0;
  std::vector<std::uint32_t> tree_;
  std::vector<std::uint32_t> at_;  ///< ends per position (pos(end))
};

}  // namespace fedco::core
