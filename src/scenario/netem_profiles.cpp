#include "scenario/netem_profiles.hpp"

namespace fedco::scenario {
namespace {

// Evening residential WiFi saturation: shared backhaul under peak load.
constexpr NetemPhase kEveningCongestion[] = {
    {18.0, 23.0, 3.0, 2.5, 0.35},
};

// Cellular brownout around the morning commute: heavy packet loss while
// towers shed load, then a lingering latency tail as queues drain.
constexpr NetemPhase kCellBrownout[] = {
    {9.0, 11.0, 8.0, 1.0, 0.5},
    {11.0, 12.0, 1.0, 1.5, 1.0},
};

// Overnight carrier maintenance window (wraps midnight).
constexpr NetemPhase kNightMaintenance[] = {
    {23.5, 2.5, 2.0, 4.0, 0.25},
};

// Append-only: index == bitmask bit (see header).
constexpr NetemProfile kProfiles[] = {
    {"evening_congestion", kEveningCongestion, std::size(kEveningCongestion)},
    {"cell_brownout", kCellBrownout, std::size(kCellBrownout)},
    {"night_maintenance", kNightMaintenance, std::size(kNightMaintenance)},
};
static_assert(std::size(kProfiles) <= 32, "profile index must fit a bitmask");

}  // namespace

std::size_t netem_profile_count() noexcept { return std::size(kProfiles); }

const NetemProfile* find_netem_profile(std::string_view name) noexcept {
  for (const NetemProfile& profile : kProfiles) {
    if (name == profile.name) return &profile;
  }
  return nullptr;
}

int netem_profile_index(std::string_view name) noexcept {
  for (std::size_t i = 0; i < std::size(kProfiles); ++i) {
    if (name == kProfiles[i].name) return static_cast<int>(i);
  }
  return -1;
}

NetemEffect netem_effect(std::uint32_t mask, double hour) noexcept {
  NetemEffect effect;
  for (std::size_t i = 0; i < std::size(kProfiles) && mask != 0; ++i) {
    if ((mask & (1u << i)) == 0) continue;
    for (std::size_t p = 0; p < kProfiles[i].phase_count; ++p) {
      const NetemPhase& phase = kProfiles[i].phases[p];
      if (!phase.active_at(hour)) continue;
      effect.loss_mult *= phase.loss_mult;
      effect.latency_mult *= phase.latency_mult;
      effect.bandwidth_mult *= phase.bandwidth_mult;
      effect.active = true;
    }
  }
  return effect;
}

std::uint32_t netem_active_bits(std::uint32_t mask, double hour) noexcept {
  std::uint32_t bits = 0;
  for (std::size_t i = 0; i < std::size(kProfiles); ++i) {
    if ((mask & (1u << i)) == 0) continue;
    for (std::size_t p = 0; p < kProfiles[i].phase_count; ++p) {
      if (kProfiles[i].phases[p].active_at(hour)) {
        bits |= 1u << i;
        break;
      }
    }
  }
  return bits;
}

}  // namespace fedco::scenario
