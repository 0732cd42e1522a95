// The one statement of every ExperimentConfig and per-user range. Each rule
// is a row (field, holds, reason) in field order; the first that fails is
// the violation. The reasons are the words every caller prints.
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/experiment.hpp"
#include "device/power_model.hpp"
#include "scenario/netem_profiles.hpp"

namespace fedco::core {

namespace {

struct Rule {
  const char* field;
  bool holds;
  const char* reason;
};

constexpr const char* kPositive = "must be positive";
constexpr const char* kPositiveFinite = "must be positive and finite";
constexpr const char* kNonNegativeFinite = "must be non-negative and finite";
constexpr const char* kUnitInterval = "must be in [0, 1]";
constexpr const char* kHalfOpenUnit = "must be in [0, 1)";

bool unit(double v) { return v >= 0.0 && v <= 1.0; }
bool unit_or_unset(const std::optional<double>& v) { return !v || unit(*v); }
bool positive_finite(double v) { return std::isfinite(v) && v > 0.0; }
bool non_negative_finite(double v) { return std::isfinite(v) && v >= 0.0; }

template <std::size_t N>
std::optional<ConfigViolation> first_broken(const Rule (&rules)[N]) {
  for (const Rule& rule : rules) {
    if (!rule.holds) return ConfigViolation{rule.field, rule.reason};
  }
  return std::nullopt;
}

}  // namespace

std::optional<ConfigViolation> validate(const ExperimentConfig& c) {
  const device::BatteryConfig& b = c.battery;
  const data::SynthCifarConfig& d = c.dataset;
  const device::ThermalConfig& h = c.thermal;
  // The training-end index spans the horizon plus the longest session in
  // slots, throttled when thermal is on: computed in double, so the slot
  // count is range-checked before any cast to an integer.
  const double longest_slots =
      std::ceil(device::longest_training_duration_s() *
                (c.enable_thermal ? h.max_slowdown : 1.0) / c.slot_seconds);
  const Rule rules[] = {
      {"num_users", c.num_users >= 1, kPositive},
      // ReadyRow::user and the driver's user lists are uint32, and so is
      // the count itself.
      {"num_users", c.num_users <= std::numeric_limits<std::uint32_t>::max(),
       "must be at most 2^32 - 1"},
      {"horizon_slots", c.horizon_slots > 0, kPositive},
      // The folded-accrual anchors and per-user slot columns are int32.
      {"horizon_slots", c.horizon_slots <= sim::kMaxHorizonSlots,
       "must be at most 2^31 - 1"},
      {"slot_seconds", positive_finite(c.slot_seconds), kPositiveFinite},
      // Outside [0, 1] the arrival processes would clamp silently.
      {"arrival_probability", unit(c.arrival_probability), kUnitInterval},
      {"diurnal_swing", unit(c.diurnal_swing), kUnitInterval},
      {"V", non_negative_finite(c.V), kNonNegativeFinite},
      {"lb", non_negative_finite(c.lb), kNonNegativeFinite},
      {"epsilon", non_negative_finite(c.epsilon), kNonNegativeFinite},
      // The offline replan and trace recording run on t % K.
      {"offline_window_slots", c.offline_window_slots > 0, kPositive},
      {"offline_lb", positive_finite(c.offline_lb), kPositiveFinite},
      {"eta", positive_finite(c.eta), kPositiveFinite},
      // A momentum of 1 or more never decays.
      {"beta", c.beta >= 0.0 && c.beta < 1.0, kHalfOpenUnit},
      {"batch_size", c.batch_size >= 1, kPositive},
      {"dataset.classes", d.classes >= 1, kPositive},
      {"dataset.channels", d.channels >= 1, kPositive},
      {"dataset.height", d.height >= 1, kPositive},
      {"dataset.width", d.width >= 1, kPositive},
      {"decision_eval_seconds", non_negative_finite(c.decision_eval_seconds),
       kNonNegativeFinite},
      {"decision_interval_slots", c.decision_interval_slots >= 1, kPositive},
      {"upload_drop_probability", unit(c.upload_drop_probability),
       kUnitInterval},
      // Battery::drain divides by the capacity and recharges in steps of
      // 1 - recharge_at_soc.
      {"battery.capacity_mah", positive_finite(b.capacity_mah),
       kPositiveFinite},
      {"battery.voltage_v", positive_finite(b.voltage_v), kPositiveFinite},
      {"battery.initial_soc", unit(b.initial_soc), kUnitInterval},
      {"battery.recharge_at_soc",
       b.recharge_at_soc >= 0.0 && b.recharge_at_soc < 1.0, kHalfOpenUnit},
      {"min_soc_to_train", unit(c.min_soc_to_train), kUnitInterval},
      // The lumped thermal model: a negative rate diverges, and the
      // lag index is sized for the longest session times max_slowdown.
      {"thermal.ambient_c", std::isfinite(h.ambient_c), "must be finite"},
      {"thermal.throttle_onset_c",
       std::isfinite(h.throttle_onset_c) && h.throttle_onset_c <= h.critical_c,
       "must be finite and at most critical_c"},
      {"thermal.heating_c_per_joule",
       non_negative_finite(h.heating_c_per_joule), kNonNegativeFinite},
      {"thermal.cooling_fraction_per_s",
       non_negative_finite(h.cooling_fraction_per_s), kNonNegativeFinite},
      {"thermal.max_slowdown", h.max_slowdown >= 1.0 && h.max_slowdown <= 100.0,
       "must be in [1, 100]"},
      {"record_interval", c.record_interval > 0, kPositive},
      {"slot_seconds",
       longest_slots <= static_cast<double>(sim::kMaxHorizonSlots),
       "is too small: the longest training session must span at most "
       "2^31 - 1 slots"},
  };
  if (auto broken = first_broken(rules)) return broken;
  if (c.fleet && c.fleet->size() != c.num_users) {
    return ConfigViolation{"per_user",
                           "holds " + std::to_string(c.fleet->size()) +
                               " entries but num_users is " +
                               std::to_string(c.num_users)};
  }
  return std::nullopt;
}

std::optional<ConfigViolation> validate_user(
    const scenario::PerUserConfig& u) {
  const std::uint64_t known_profiles =
      (std::uint64_t{1} << scenario::netem_profile_count()) - 1;
  const Rule rules[] = {
      {"arrival_probability", unit_or_unset(u.arrival_probability),
       kUnitInterval},
      {"diurnal_swing", unit_or_unset(u.diurnal_swing), kUnitInterval},
      {"diurnal_peak_hour",
       u.diurnal_peak_hour >= 0.0 && u.diurnal_peak_hour < 24.0,
       "must be in [0, 24)"},
      {"join_slot", u.join_slot >= 0, "must be non-negative"},
      {"leave_slot", u.leave_slot > u.join_slot,
       "must be after join_slot (empty presence window)"},
      {"priority", positive_finite(u.priority), kPositiveFinite},
  };
  if (auto broken = first_broken(rules)) return broken;
  // A bit past the registry would index no profile.
  if ((u.link_degradations & ~known_profiles) != 0) {
    return ConfigViolation{
        "link_degradations",
        "sets bits outside the " +
            std::to_string(scenario::netem_profile_count()) +
            " known netem profiles"};
  }
  // Later windows ascend and are disjoint: a join landing on the previous
  // leave slot would push into the event bucket being drained.
  sim::Slot prev_leave = u.leave_slot;
  for (std::size_t k = 0; k < u.extra_windows.size(); ++k) {
    const scenario::PresenceWindow& w = u.extra_windows[k];
    if (w.leave <= w.join || w.join <= prev_leave) {
      return ConfigViolation{"extra_windows[" + std::to_string(k) + "]",
                             w.leave <= w.join
                                 ? "is an empty presence window"
                                 : "must start after the previous window "
                                   "leaves (ascending, non-overlapping)"};
    }
    prev_leave = w.leave;
  }
  return std::nullopt;
}

}  // namespace fedco::core
