#include "scenario/fleet.hpp"

namespace fedco::scenario {
namespace {

// Lazily allocate `column` (and, when present, its mask) sized to the fleet
// with the inherit default. One allocation per column for the arena's whole
// lifetime — the memory-budget property test counts these.
template <typename T>
void materialize(std::vector<T>& column, std::size_t num_users, T fill) {
  if (column.empty()) column.assign(num_users, fill);
}

}  // namespace

device::DeviceKind assign_device(
    const std::optional<device::DeviceKind>& pinned, util::Rng& rng) noexcept {
  if (pinned) return *pinned;
  return static_cast<device::DeviceKind>(rng.uniform_int(device::kDeviceKinds));
}

void FleetArena::set_device(std::size_t i, device::DeviceKind kind) {
  materialize(device_, num_users_, device::DeviceKind{});
  materialize(device_set_, num_users_, std::uint8_t{0});
  device_[i] = kind;
  device_set_[i] = 1;
}

void FleetArena::set_arrival_probability(std::size_t i, double probability) {
  materialize(arrival_probability_, num_users_, 0.0);
  materialize(arrival_probability_set_, num_users_, std::uint8_t{0});
  arrival_probability_[i] = probability;
  arrival_probability_set_[i] = 1;
}

void FleetArena::set_diurnal(std::size_t i, bool enabled) {
  materialize(diurnal_, num_users_, std::uint8_t{0});
  materialize(diurnal_set_, num_users_, std::uint8_t{0});
  diurnal_[i] = enabled ? 1 : 0;
  diurnal_set_[i] = 1;
}

void FleetArena::set_diurnal_swing(std::size_t i, double swing) {
  materialize(diurnal_swing_, num_users_, 0.0);
  materialize(diurnal_swing_set_, num_users_, std::uint8_t{0});
  diurnal_swing_[i] = swing;
  diurnal_swing_set_[i] = 1;
}

void FleetArena::set_diurnal_peak_hour(std::size_t i, double hour) {
  materialize(diurnal_peak_hour_, num_users_, 20.0);
  diurnal_peak_hour_[i] = hour;
}

void FleetArena::set_use_lte(std::size_t i, bool lte) {
  materialize(use_lte_, num_users_, std::uint8_t{0});
  materialize(use_lte_set_, num_users_, std::uint8_t{0});
  use_lte_[i] = lte ? 1 : 0;
  use_lte_set_[i] = 1;
}

void FleetArena::set_presence(std::size_t i, sim::Slot join, sim::Slot leave) {
  materialize(join_slot_, num_users_, sim::Slot{0});
  materialize(leave_slot_, num_users_, kNeverLeaves);
  join_slot_[i] = join;
  leave_slot_[i] = leave;
}

void FleetArena::set_extra_windows(std::size_t i,
                                   const std::vector<PresenceWindow>& windows) {
  if (windows.empty()) return;
  materialize(extra_begin_, num_users_, std::uint32_t{0});
  materialize(extra_count_, num_users_, std::uint32_t{0});
  extra_begin_[i] = static_cast<std::uint32_t>(extra_pool_.size());
  extra_count_[i] = static_cast<std::uint32_t>(windows.size());
  extra_pool_.insert(extra_pool_.end(), windows.begin(), windows.end());
}

void FleetArena::set_link_degradations(std::size_t i, std::uint32_t mask) {
  materialize(link_degradations_, num_users_, std::uint32_t{0});
  link_degradations_[i] = mask;
}

void FleetArena::set_priority(std::size_t i, double weight) {
  materialize(priority_, num_users_, 1.0);
  priority_[i] = weight;
}

PerUserConfig FleetArena::user(std::size_t i) const {
  PerUserConfig pu = arrival_overrides(i);
  if (!device_.empty() && device_set_[i] != 0) pu.device = device_[i];
  if (!use_lte_.empty() && use_lte_set_[i] != 0) pu.use_lte = use_lte_[i] != 0;
  if (!join_slot_.empty()) pu.join_slot = join_slot_[i];
  if (!leave_slot_.empty()) pu.leave_slot = leave_slot_[i];
  if (!extra_count_.empty() && extra_count_[i] != 0) {
    pu.extra_windows.assign(
        extra_pool_.begin() + extra_begin_[i],
        extra_pool_.begin() + extra_begin_[i] + extra_count_[i]);
  }
  if (!link_degradations_.empty()) pu.link_degradations = link_degradations_[i];
  if (!priority_.empty()) pu.priority = priority_[i];
  return pu;
}

std::size_t FleetArena::column_count() const noexcept {
  std::size_t live = 0;
  live += device_.empty() ? 0 : 1;
  live += device_set_.empty() ? 0 : 1;
  live += arrival_probability_.empty() ? 0 : 1;
  live += arrival_probability_set_.empty() ? 0 : 1;
  live += diurnal_.empty() ? 0 : 1;
  live += diurnal_set_.empty() ? 0 : 1;
  live += diurnal_swing_.empty() ? 0 : 1;
  live += diurnal_swing_set_.empty() ? 0 : 1;
  live += diurnal_peak_hour_.empty() ? 0 : 1;
  live += use_lte_.empty() ? 0 : 1;
  live += use_lte_set_.empty() ? 0 : 1;
  live += join_slot_.empty() ? 0 : 1;
  live += leave_slot_.empty() ? 0 : 1;
  live += extra_begin_.empty() ? 0 : 1;
  live += extra_count_.empty() ? 0 : 1;
  live += extra_pool_.empty() ? 0 : 1;
  live += link_degradations_.empty() ? 0 : 1;
  live += priority_.empty() ? 0 : 1;
  return live;
}

bool operator==(const FleetArena& a, const FleetArena& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.user(i) != b.user(i)) return false;
  }
  return true;
}

FleetArena fleet_arena_from(const std::vector<PerUserConfig>& fleet) {
  FleetArena arena{fleet.size()};
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const PerUserConfig& pu = fleet[i];
    if (pu.device) arena.set_device(i, *pu.device);
    if (pu.arrival_probability) {
      arena.set_arrival_probability(i, *pu.arrival_probability);
    }
    if (pu.diurnal) arena.set_diurnal(i, *pu.diurnal);
    if (pu.diurnal_swing) arena.set_diurnal_swing(i, *pu.diurnal_swing);
    if (pu.diurnal_peak_hour != 20.0) {
      arena.set_diurnal_peak_hour(i, pu.diurnal_peak_hour);
    }
    if (pu.use_lte) arena.set_use_lte(i, *pu.use_lte);
    if (pu.join_slot != 0 || pu.leave_slot != kNeverLeaves) {
      arena.set_presence(i, pu.join_slot, pu.leave_slot);
    }
    if (!pu.extra_windows.empty()) {
      arena.set_extra_windows(i, pu.extra_windows);
    }
    if (pu.link_degradations != 0) {
      arena.set_link_degradations(i, pu.link_degradations);
    }
    if (pu.priority != 1.0) arena.set_priority(i, pu.priority);
  }
  return arena;
}

std::vector<PerUserConfig> fleet_from(const FleetArena& arena) {
  std::vector<PerUserConfig> fleet(arena.size());
  for (std::size_t i = 0; i < arena.size(); ++i) fleet[i] = arena.user(i);
  return fleet;
}

}  // namespace fedco::scenario
