#include "device/battery.hpp"

#include <algorithm>
#include <cmath>

namespace fedco::device {

Battery::Battery(BatteryConfig config) noexcept
    : config_(config), soc_(std::clamp(config.initial_soc, 0.0, 1.0)) {}

double Battery::capacity_j() const noexcept {
  // mAh -> As (x3.6) -> J (x voltage).
  return config_.capacity_mah * 3.6 * config_.voltage_v;
}

double Battery::drain(double joules) noexcept {
  if (joules <= 0.0) return soc_;
  drained_j_ += joules;
  const double cap = capacity_j();
  soc_ -= joules / cap;
  // Opportunistic recharge back to full; the deficit below the threshold
  // carries over so heavy drain can trigger several logical cycles, counted
  // in O(1) (one at a time, a tiny capacity takes drain/capacity steps).
  const double threshold = config_.recharge_at_soc;
  if (soc_ < threshold) {
    const double step = 1.0 - threshold;
    const double cycles =
        soc_ + step >= threshold ? 1.0 : std::ceil((threshold - soc_) / step);
    soc_ += cycles * step;
    // A capacity near the smallest double asks for ~1e300 cycles; the
    // count saturates instead of overflowing the cast.
    recharges_ += static_cast<std::size_t>(std::min(0x1p53, cycles));
  }
  soc_ = std::clamp(soc_, 0.0, 1.0);
  return soc_;
}

double Battery::equivalent_cycles() const noexcept {
  return drained_j_ / capacity_j();
}

}  // namespace fedco::device
