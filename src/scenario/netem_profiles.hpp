// Named netem-style link-degradation profiles (ROADMAP fault-injection
// item): each profile is a fixed set of hour-of-day phases that scale a
// link's loss / latency / bandwidth while active, the way `tc netem`
// shapes an interface. The registry is built in and append-only — a
// profile's index is its stable bit in the per-user degradation bitmask
// stored by scenario::FleetArena, so reordering or removing entries would
// silently re-route every archived config. The scenario layer only deals
// in multipliers; the driver owns applying them to a net::LinkConfig
// (keeps fedco_scenario free of a fedco_net dependency).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fedco::scenario {

/// One degradation phase: active while the local hour of day lies in
/// [begin_hour, end_hour), wrapping past midnight when begin > end.
struct NetemPhase {
  double begin_hour = 0.0;
  double end_hour = 0.0;
  double loss_mult = 1.0;
  double latency_mult = 1.0;
  double bandwidth_mult = 1.0;

  [[nodiscard]] bool active_at(double hour) const noexcept {
    if (begin_hour <= end_hour) return hour >= begin_hour && hour < end_hour;
    return hour >= begin_hour || hour < end_hour;
  }
};

struct NetemProfile {
  const char* name;
  const NetemPhase* phases;
  std::size_t phase_count;
};

/// Number of registry entries. Bounded by 32: profile index i maps to bit
/// (1u << i) in the per-user degradation mask.
[[nodiscard]] std::size_t netem_profile_count() noexcept;

/// Registry lookup by name; nullptr when unknown (spec validation turns
/// that into an "unknown degradation profile" error).
[[nodiscard]] const NetemProfile* find_netem_profile(
    std::string_view name) noexcept;

/// Registry index for `name`, or -1 when unknown.
[[nodiscard]] int netem_profile_index(std::string_view name) noexcept;

/// Combined multipliers of every profile in `mask` with a phase active at
/// `hour`. Multipliers compose multiplicatively across profiles; `active`
/// is false (and all multipliers 1.0) when no phase applies, which is the
/// driver's cue to use the pristine link.
struct NetemEffect {
  double loss_mult = 1.0;
  double latency_mult = 1.0;
  double bandwidth_mult = 1.0;
  bool active = false;
};

[[nodiscard]] NetemEffect netem_effect(std::uint32_t mask,
                                       double hour) noexcept;

/// Bits of `mask` whose profile has any phase active at `hour` — the
/// driver emits an obs kLinkPhase event whenever this set changes.
[[nodiscard]] std::uint32_t netem_active_bits(std::uint32_t mask,
                                              double hour) noexcept;

}  // namespace fedco::scenario
