// Device and application power profiles.
//
// The paper measures four physical devices (Nexus 6, Nexus 6P, HiKey970,
// Pixel 2) with Monsoon/Trepn/Snapdragon profilers. Those measurements —
// Table II (per-app average power and execution time) and Table III (idle /
// decision-compute power) — are embedded here verbatim as the simulation's
// ground truth, which is exactly the set of quantities the paper's
// optimization consumes. See DESIGN.md §2 for the substitution rationale.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace fedco::device {

enum class DeviceKind : std::uint8_t {
  kNexus6 = 0,
  kNexus6P = 1,
  kHikey970 = 2,
  kPixel2 = 3,
};
inline constexpr std::size_t kDeviceKinds = 4;

enum class AppKind : std::uint8_t {
  kMap = 0,
  kNews = 1,
  kEtrade = 2,
  kYoutube = 3,
  kTiktok = 4,
  kZoom = 5,
  kCandyCrush = 6,
  kAngrybird = 7,
};
inline constexpr std::size_t kAppKinds = 8;

[[nodiscard]] std::string_view device_name(DeviceKind kind) noexcept;
[[nodiscard]] std::string_view app_name(AppKind kind) noexcept;
[[nodiscard]] std::span<const DeviceKind> all_devices() noexcept;
[[nodiscard]] std::span<const AppKind> all_apps() noexcept;

/// Per-(device, app) row of the paper's Table II.
struct AppPowerEntry {
  double app_power_w = 0.0;     ///< P_a: app running alone (W)
  double corun_power_w = 0.0;   ///< P_a': app + background training (W)
  double corun_time_s = 0.0;    ///< training execution time while co-running (s)
  double reported_saving = 0.0; ///< the saving fraction printed in Table II
};

/// Whether the app is interaction/render-heavy (games, video) — drives the
/// big-core utilization and the training slowdown under contention
/// (paper Observation 2: 10-15% slowdown for intensive apps).
enum class AppIntensity { kLight, kMedium, kHeavy };
[[nodiscard]] AppIntensity app_intensity(AppKind kind) noexcept;

/// The app's nominal foreground frame-rate target (Fig. 2 plateaus).
[[nodiscard]] double app_target_fps(AppKind kind) noexcept;

/// Static description of one device model.
struct DeviceProfile {
  DeviceKind kind{};
  std::string_view name;
  double train_power_w = 0.0;    ///< P_b: background training alone (W)
  double train_time_s = 0.0;     ///< d_i: one local epoch of LeNet-5 (s)
  double idle_power_w = 0.0;     ///< P_d (Table III "Power(idle)")
  double decision_power_w = 0.0; ///< Table III "Power(comp.)" during Eq. 21 eval
  std::size_t big_cores = 0;
  std::size_t little_cores = 0;
  /// Cores the vendor designates for background services
  /// (/dev/cpuset/background/cpus; Sec. VI).
  std::size_t background_cores = 0;
  /// True for big.LITTLE asymmetric silicon; false for the homogeneous
  /// Nexus 6 where co-running contends on one cluster.
  bool asymmetric = false;
  std::array<AppPowerEntry, kAppKinds> apps{};

  [[nodiscard]] const AppPowerEntry& app(AppKind app_kind) const noexcept {
    return apps[static_cast<std::size_t>(app_kind)];
  }
};

/// Measured profile of a device model (embedded Table II/III data).
[[nodiscard]] const DeviceProfile& profile(DeviceKind kind) noexcept;

/// Synthetic profile that strictly satisfies the paper's power ordering
/// P_a' > P_a > P_b > P_d for every app; used by property tests and by the
/// analytical examples where a canonical well-ordered device is wanted.
[[nodiscard]] const DeviceProfile& canonical_profile() noexcept;

/// Energy-saving fraction of co-running vs separate execution, the Table II
/// formula: 1 - P_a'·t_a / (P_b·t_b + P_a·t_a).
[[nodiscard]] double corun_saving_fraction(const DeviceProfile& dev,
                                           AppKind app) noexcept;

/// Per-decision energy saving s_i = (P_b + P_a - P_a')·d used as the
/// knapsack item value (offline problem P1); duration is the co-run time.
[[nodiscard]] double corun_saving_joules(const DeviceProfile& dev,
                                         AppKind app) noexcept;

}  // namespace fedco::device
