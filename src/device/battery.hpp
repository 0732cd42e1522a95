// Battery state-of-charge accounting. The paper motivates energy savings by
// battery drain and lifetime (charge/discharge cycles); this model converts
// the power draw of the Eq. (10) states into state-of-charge and cycle
// wear so examples/benches can report battery impact per scheme.
#pragma once

#include <cstddef>

namespace fedco::device {

struct BatteryConfig {
  double capacity_mah = 2700.0;   ///< Pixel 2-class battery
  double voltage_v = 3.85;
  double initial_soc = 1.0;       ///< state of charge in [0, 1]
  /// SoC threshold in [0, 1) at which the device charges back to full
  /// (opportunistic charging in the simulation).
  double recharge_at_soc = 0.15;

  friend bool operator==(const BatteryConfig&, const BatteryConfig&) = default;
};

class Battery {
 public:
  explicit Battery(BatteryConfig config = {}) noexcept;

  /// Capacity in joules.
  [[nodiscard]] double capacity_j() const noexcept;

  /// Drain `joules`; recharges (counting cycle wear) when SoC drops under
  /// the threshold. Returns the SoC after the operation.
  double drain(double joules) noexcept;

  [[nodiscard]] double soc() const noexcept { return soc_; }
  [[nodiscard]] double drained_j() const noexcept { return drained_j_; }
  /// Equivalent full cycles consumed (total drain / capacity).
  [[nodiscard]] double equivalent_cycles() const noexcept;
  [[nodiscard]] std::size_t recharge_count() const noexcept { return recharges_; }

 private:
  BatteryConfig config_;
  double soc_;
  double drained_j_ = 0.0;
  std::size_t recharges_ = 0;
};

}  // namespace fedco::device
