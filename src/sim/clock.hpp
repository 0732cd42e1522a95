// Slotted simulation time. The paper's online framework operates on equal
// slots of length td (1 s in the evaluation); all fedco components share this
// representation.
#pragma once

#include <cstdint>
#include <limits>

namespace fedco::sim {

/// Discrete slot index (0-based).
using Slot = std::int64_t;

/// Longest horizon a run accepts: per-user slot columns are int32. At 1 s
/// slots this is 68 years, far past any meaningful run.
inline constexpr Slot kMaxHorizonSlots = std::numeric_limits<std::int32_t>::max();

/// Slotted clock: converts between slot indices and wall-clock seconds.
class Clock {
 public:
  explicit Clock(double slot_seconds = 1.0) noexcept
      : slot_seconds_(slot_seconds > 0.0 ? slot_seconds : 1.0) {}

  [[nodiscard]] Slot now() const noexcept { return now_; }
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(now_) * slot_seconds_;
  }
  [[nodiscard]] double slot_seconds() const noexcept { return slot_seconds_; }

  void advance(Slot slots = 1) noexcept { now_ += slots; }
  void reset() noexcept { now_ = 0; }

  /// Convert a duration in seconds to a slot count, rounding up so that an
  /// activity never finishes earlier than its physical duration.
  [[nodiscard]] Slot slots_for_seconds(double seconds_duration) const noexcept {
    if (seconds_duration <= 0.0) return 0;
    const double slots = seconds_duration / slot_seconds_;
    const auto whole = static_cast<Slot>(slots);
    return slots > static_cast<double>(whole) ? whole + 1 : whole;
  }

 private:
  Slot now_ = 0;
  double slot_seconds_;
};

}  // namespace fedco::sim
