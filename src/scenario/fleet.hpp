// Per-user fleet parameterization — the expansion target of a ScenarioSpec.
//
// A PerUserConfig carries everything that may differ between users of one
// experiment: the device model, the arrival process (rate, diurnal shape,
// timezone-shifted peak), the network tier, and the presence window (churn).
// Every field defaults to "inherit the homogeneous ExperimentConfig value",
// so a fleet of default-constructed PerUserConfigs is *bit-identical* to the
// pre-scenario homogeneous driver (the golden parity fingerprints pin this).
//
// Device assignment is owned by this layer: the driver's historical uniform
// pick over the four testbed devices lives in assign_device(), and explicit
// mixes are expanded by generate_fleet() (see spec.hpp).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "device/profiles.hpp"
#include "sim/clock.hpp"
#include "util/rng.hpp"

namespace fedco::scenario {

/// Sentinel leave slot: the user never churns out.
inline constexpr sim::Slot kNeverLeaves = std::numeric_limits<sim::Slot>::max();

/// One presence window [join, leave). Users with commute patterns or
/// outage-split presence carry their first window in
/// PerUserConfig::join_slot/leave_slot and the rest, in ascending order, in
/// PerUserConfig::extra_windows.
struct PresenceWindow {
  sim::Slot join = 0;
  sim::Slot leave = kNeverLeaves;

  friend bool operator==(const PresenceWindow&, const PresenceWindow&) =
      default;
};

/// One user's deviation from the homogeneous ExperimentConfig. Unset
/// optionals inherit the config value; the default-constructed struct is the
/// identity override (changes nothing, consumes no extra RNG).
struct PerUserConfig {
  /// Device model; unset = the classic uniform pick over the four testbed
  /// devices (assign_device draws it from the user's own RNG stream).
  std::optional<device::DeviceKind> device;

  /// Bernoulli arrival probability per slot; unset = config value.
  std::optional<double> arrival_probability;
  /// Diurnal modulation on/off; unset = config value.
  std::optional<bool> diurnal;
  /// Peak-to-trough swing; unset = config value.
  std::optional<double> diurnal_swing;
  /// Hour-of-day of the arrival-rate peak — the timezone shift of this
  /// user's diurnal phase. 20.0 is the ArrivalStreamParams default.
  double diurnal_peak_hour = 20.0;

  /// Network tier for model exchange; unset = config use_lte.
  std::optional<bool> use_lte;

  /// Presence window [join_slot, leave_slot): outside it the user is absent
  /// — no arrivals, no training decisions, no energy accrual. In-flight
  /// sessions started before leave_slot run to completion.
  sim::Slot join_slot = 0;
  sim::Slot leave_slot = kNeverLeaves;

  /// Further presence windows after the first (commute patterns, outage
  /// splits). Must be ascending and disjoint: each window's join strictly
  /// after the previous window's leave. Empty for single-window users.
  std::vector<PresenceWindow> extra_windows;

  /// Bitmask over the netem profile registry (netem_profiles.hpp): bit i
  /// set means profile i shapes this user's link while one of its
  /// hour-of-day phases is active. 0 = pristine link.
  std::uint32_t link_degradations = 0;

  /// Scheduling weight (VIP class). 1.0 = standard user; >1 biases every
  /// scheduler's objective toward this user's work, <1 away from it.
  /// Schedulers only read it behind their priority gates, so an all-1.0
  /// fleet is bit-identical to the pre-priority goldens.
  double priority = 1.0;

  friend bool operator==(const PerUserConfig&, const PerUserConfig&) = default;

  /// Identity override (inherits everything)?
  [[nodiscard]] bool is_default() const { return *this == PerUserConfig{}; }
};

/// The single owner of the fleet device-assignment draw. A pinned kind wins
/// without touching the RNG; otherwise one uniform_int(kDeviceKinds) draw
/// picks among the four testbed devices — the exact draw the experiment
/// driver historically made inline, moved here so device assignment has one
/// home (the golden parity fingerprints pin the equivalence).
[[nodiscard]] device::DeviceKind assign_device(
    const std::optional<device::DeviceKind>& pinned, util::Rng& rng) noexcept;

/// Structure-of-arrays fleet storage: one paired value/set-mask column per
/// override concern, each column either empty (every user inherits the
/// homogeneous config value) or allocated exactly once at fleet-build time.
///
/// A std::vector<PerUserConfig> of 1M users costs ~100 MB of AoS optionals
/// and churns the allocator per user; the arena stores the same information
/// in at most 18 flat allocations (column_count() reports how many are
/// live), independent of fleet size. user(i) reconstitutes the exact
/// PerUserConfig an AoS fleet would hold — fleet_from(fleet_arena_from(f))
/// round-trips every fleet (the arena parity tests pin this).
class FleetArena {
 public:
  FleetArena() = default;
  explicit FleetArena(std::size_t num_users) : num_users_(num_users) {}

  [[nodiscard]] std::size_t size() const noexcept { return num_users_; }

  /// Columns are materialized lazily: the first set_* for a concern
  /// allocates its column(s) filled with the inherit default; a fleet that
  /// never overrides a concern never pays for its column.
  void set_device(std::size_t i, device::DeviceKind kind);
  void set_arrival_probability(std::size_t i, double probability);
  void set_diurnal(std::size_t i, bool enabled);
  void set_diurnal_swing(std::size_t i, double swing);
  void set_diurnal_peak_hour(std::size_t i, double hour);
  void set_use_lte(std::size_t i, bool lte);
  void set_presence(std::size_t i, sim::Slot join, sim::Slot leave);
  /// Appends `windows` to the shared window pool and points user i at the
  /// slice. Call at most once per user (fleet builds assign each user's
  /// windows in one shot).
  void set_extra_windows(std::size_t i,
                         const std::vector<PresenceWindow>& windows);
  void set_link_degradations(std::size_t i, std::uint32_t mask);
  void set_priority(std::size_t i, double weight);

  /// The AoS view of user i (what the equivalent vector<PerUserConfig>
  /// would hold at index i).
  [[nodiscard]] PerUserConfig user(std::size_t i) const;

  /// User i's arrival-law overrides (probability, diurnal, swing, peak
  /// hour), every other field left at its default. Reads those four
  /// columns alone, inline, so a driver can re-read a law per arrival.
  [[nodiscard]] PerUserConfig arrival_overrides(std::size_t i) const {
    PerUserConfig pu;
    if (!arrival_probability_.empty() && arrival_probability_set_[i] != 0) {
      pu.arrival_probability = arrival_probability_[i];
    }
    if (!diurnal_.empty() && diurnal_set_[i] != 0) pu.diurnal = diurnal_[i] != 0;
    if (!diurnal_swing_.empty() && diurnal_swing_set_[i] != 0) {
      pu.diurnal_swing = diurnal_swing_[i];
    }
    if (!diurnal_peak_hour_.empty()) pu.diurnal_peak_hour = diurnal_peak_hour_[i];
    return pu;
  }

  /// Number of live (allocated) columns — the arena's total allocation
  /// count. Bounded by a constant (18) regardless of fleet size; the
  /// memory-budget property test pins this.
  [[nodiscard]] std::size_t column_count() const noexcept;

  /// Per-user content equality: arenas holding the same overrides compare
  /// equal whatever their column layout (an explicitly stored default and
  /// an unmaterialized column read back identically through user(i)).
  friend bool operator==(const FleetArena& a, const FleetArena& b);

 private:
  std::size_t num_users_ = 0;

  // Paired value/mask columns. Masks are uint8_t (not vector<bool>) so a
  // column is one contiguous allocation with byte-addressable flags.
  // Columns without a mask (peak hour, presence window) carry their inherit
  // default as the fill value instead.
  std::vector<device::DeviceKind> device_;
  std::vector<std::uint8_t> device_set_;
  std::vector<double> arrival_probability_;
  std::vector<std::uint8_t> arrival_probability_set_;
  std::vector<std::uint8_t> diurnal_;
  std::vector<std::uint8_t> diurnal_set_;
  std::vector<double> diurnal_swing_;
  std::vector<std::uint8_t> diurnal_swing_set_;
  std::vector<double> diurnal_peak_hour_;  // empty = all 20.0
  std::vector<std::uint8_t> use_lte_;
  std::vector<std::uint8_t> use_lte_set_;
  std::vector<sim::Slot> join_slot_;   // empty = all 0
  std::vector<sim::Slot> leave_slot_;  // empty = all kNeverLeaves
  // Multi-cycle presence: per-user [begin, begin+count) slices of one
  // shared window pool — still O(1) allocations however many users cycle.
  std::vector<std::uint32_t> extra_begin_;
  std::vector<std::uint32_t> extra_count_;  // empty = no extra windows
  std::vector<PresenceWindow> extra_pool_;
  std::vector<std::uint32_t> link_degradations_;  // empty = all 0
  std::vector<double> priority_;                  // empty = all 1.0
};

/// The config-level fleet handle: one immutable arena shared by every copy
/// of a config, so campaigns replicate 1M-user configs in O(1). Equality
/// compares per-user content, not pointers — a config reloaded from JSON
/// equals the one that was saved. Null = the homogeneous fleet.
struct SharedFleet : std::shared_ptr<const FleetArena> {
  SharedFleet() = default;
  // Implicit by design: `config.fleet = std::make_shared<...>(...)`.
  SharedFleet(std::shared_ptr<const FleetArena> arena) noexcept
      : std::shared_ptr<const FleetArena>(std::move(arena)) {}

  friend bool operator==(const SharedFleet& a, const SharedFleet& b) {
    if (!a || !b) return !a && !b;
    return a.get() == b.get() || *a == *b;
  }
};

/// Pack an AoS fleet into the arena form (config_io's reader, tests).
[[nodiscard]] FleetArena fleet_arena_from(
    const std::vector<PerUserConfig>& fleet);

/// Expand an arena back to the AoS form (serialization and legacy paths).
[[nodiscard]] std::vector<PerUserConfig> fleet_from(const FleetArena& arena);

}  // namespace fedco::scenario
