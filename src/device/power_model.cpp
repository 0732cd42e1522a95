#include "device/power_model.hpp"

#include <algorithm>

namespace fedco::device {

double power_w(const DeviceProfile& dev, Decision decision, AppStatus status,
               AppKind app) noexcept {
  if (decision == Decision::kSchedule) {
    return status == AppStatus::kApp ? dev.app(app).corun_power_w
                                     : dev.train_power_w;
  }
  return status == AppStatus::kApp ? dev.app(app).app_power_w
                                   : dev.idle_power_w;
}

double energy_j(const DeviceProfile& dev, Decision decision, AppStatus status,
                AppKind app, double seconds) noexcept {
  return power_w(dev, decision, status, app) * seconds;
}

double training_duration_s(const DeviceProfile& dev, AppStatus status,
                           AppKind app) noexcept {
  return status == AppStatus::kApp ? dev.app(app).corun_time_s
                                   : dev.train_time_s;
}

double longest_training_duration_s() noexcept {
  double longest = 0.0;
  for (std::size_t k = 0; k < kDeviceKinds; ++k) {
    const DeviceProfile& dev = profile(static_cast<DeviceKind>(k));
    longest = std::max(longest, dev.train_time_s);
    for (const AppPowerEntry& e : dev.apps) {
      longest = std::max(longest, e.corun_time_s);
    }
  }
  return longest;
}

bool satisfies_power_ordering(const DeviceProfile& dev, AppKind app) noexcept {
  const AppPowerEntry& e = dev.app(app);
  return e.corun_power_w > e.app_power_w && e.app_power_w > dev.train_power_w &&
         dev.train_power_w > dev.idle_power_w;
}

void EnergyMeter::accrue(const DeviceProfile& dev, Decision decision,
                         AppStatus status, AppKind app, double seconds) noexcept {
  const double joules = energy_j(dev, decision, status, app, seconds);
  total_j_ += joules;
  if (decision == Decision::kSchedule) {
    if (status == AppStatus::kApp) {
      corun_j_ += joules;
    } else {
      training_j_ += joules;
    }
  } else {
    if (status == AppStatus::kApp) {
      app_j_ += joules;
    } else {
      idle_j_ += joules;
    }
  }
}

void EnergyMeter::accrue_repeat(const DeviceProfile& dev, Decision decision,
                                AppStatus status, AppKind app, double seconds,
                                std::int64_t slots) noexcept {
  if (slots <= 0) return;
  const double joules = energy_j(dev, decision, status, app, seconds);
  double* bucket = decision == Decision::kSchedule
                       ? (status == AppStatus::kApp ? &corun_j_ : &training_j_)
                       : (status == AppStatus::kApp ? &app_j_ : &idle_j_);
  // Replay the per-slot additions verbatim: total and bucket each form the
  // exact addition chain the slot loop would have produced.
  double total = total_j_;
  double in_bucket = *bucket;
  for (std::int64_t k = 0; k < slots; ++k) {
    total += joules;
    in_bucket += joules;
  }
  total_j_ = total;
  *bucket = in_bucket;
}

void EnergyMeter::accrue_decision_overhead(const DeviceProfile& dev,
                                           double seconds) noexcept {
  // Marginal cost of evaluating Eq. (21): the delta between the Table III
  // compute and idle power levels over the evaluation window.
  const double joules = (dev.decision_power_w - dev.idle_power_w) * seconds;
  overhead_j_ += joules;
  total_j_ += joules;
}

}  // namespace fedco::device
