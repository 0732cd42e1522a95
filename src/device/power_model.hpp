// The four-state power model of paper Eq. (10) and the per-slot energy
// accounting built on it.
#pragma once

#include <cstdint>

#include "device/profiles.hpp"

namespace fedco::device {

/// The scheduler's per-slot control decision alpha(t).
enum class Decision { kSchedule, kIdle };

/// Foreground application status s(t).
enum class AppStatus { kApp, kNoApp };

/// Instantaneous power draw (W) for a control decision and app status —
/// Eq. (10):
///   schedule + app    -> P_a' (co-running; depends on which app)
///   schedule + no app -> P_b  (training alone in the background)
///   idle + app        -> P_a  (app alone)
///   idle + no app     -> P_d  (device idle)
/// `app` selects the Table II row; it is ignored when status == kNoApp.
[[nodiscard]] double power_w(const DeviceProfile& dev, Decision decision,
                             AppStatus status, AppKind app) noexcept;

/// Energy (J) consumed over `seconds` in the given state.
[[nodiscard]] double energy_j(const DeviceProfile& dev, Decision decision,
                              AppStatus status, AppKind app,
                              double seconds) noexcept;

/// Training execution time for this device given the co-running context.
/// Separate execution takes d_i = train_time_s; co-running takes the
/// measured (elongated) Table II co-run time.
[[nodiscard]] double training_duration_s(const DeviceProfile& dev,
                                         AppStatus status, AppKind app) noexcept;
/// The longest training_duration_s over every Table II device and context.
[[nodiscard]] double longest_training_duration_s() noexcept;

/// True iff the profile satisfies the paper's ordering
/// P_a' > P_a > P_b > P_d for the given app.
[[nodiscard]] bool satisfies_power_ordering(const DeviceProfile& dev,
                                            AppKind app) noexcept;

/// Cumulative per-device energy meter used by the simulation driver.
class EnergyMeter {
 public:
  /// Account `seconds` in the given state.
  void accrue(const DeviceProfile& dev, Decision decision, AppStatus status,
              AppKind app, double seconds) noexcept;

  /// Account `slots` consecutive slots of `seconds` each in the given
  /// state: bit-identical to calling accrue() `slots` times (the same
  /// per-slot quantum is added sequentially — floating-point addition is
  /// not associative, so this must NOT be folded into one multiply), but
  /// the quantum is computed once. The event-driven driver uses this to
  /// replay idle spans lazily (DESIGN.md §9).
  void accrue_repeat(const DeviceProfile& dev, Decision decision,
                     AppStatus status, AppKind app, double seconds,
                     std::int64_t slots) noexcept;

  /// Account the online controller's own decision-evaluation cost: the
  /// device sits at Table III "Power(comp.)" instead of whatever baseline
  /// it was at, for `seconds` (Table III overhead study).
  void accrue_decision_overhead(const DeviceProfile& dev, double seconds) noexcept;

  [[nodiscard]] double total_j() const noexcept { return total_j_; }
  [[nodiscard]] double training_j() const noexcept { return training_j_; }
  [[nodiscard]] double corun_j() const noexcept { return corun_j_; }
  [[nodiscard]] double app_j() const noexcept { return app_j_; }
  [[nodiscard]] double idle_j() const noexcept { return idle_j_; }
  [[nodiscard]] double overhead_j() const noexcept { return overhead_j_; }

  void reset() noexcept { *this = EnergyMeter{}; }

 private:
  double total_j_ = 0.0;
  double training_j_ = 0.0;
  double corun_j_ = 0.0;
  double app_j_ = 0.0;
  double idle_j_ = 0.0;
  double overhead_j_ = 0.0;
};

}  // namespace fedco::device
