// Network link model for model exchange.
//
// The paper uploads a ~2.5 MB DL4J model over Retrofit/HTTP whenever a local
// epoch completes and downloads the current global model when the device
// becomes available (Sec. VI). This module provides the transfer-time and
// tail-energy accounting for those exchanges; the JobScheduler-style
// connectivity gate (Wi-Fi only, device charging, ...) is modelled by
// TransferPolicy.
#pragma once

#include <cstddef>

#include "util/rng.hpp"

namespace fedco::net {

enum class LinkTech { kWifi, kLte };

struct LinkConfig {
  LinkTech tech = LinkTech::kWifi;
  double bandwidth_mbps = 40.0;     ///< goodput
  double latency_ms = 20.0;         ///< per-request round-trip setup
  double loss_probability = 0.0;    ///< probability one transfer attempt fails
  std::size_t max_retries = 3;
  /// Radio power while transferring (W) and the post-transfer tail window
  /// during which the radio stays in the high-power state (the "tail energy"
  /// the coalescing literature targets; Sec. II-B).
  double radio_power_w = 0.8;
  double tail_seconds = 1.5;
  double tail_power_w = 0.4;
};

/// Default parameterisations.
[[nodiscard]] LinkConfig wifi_link() noexcept;
[[nodiscard]] LinkConfig lte_link() noexcept;

/// Outcome of a simulated transfer.
struct TransferResult {
  bool success = false;
  double duration_s = 0.0;  ///< transfer time including retries (no tail)
  double energy_j = 0.0;    ///< radio energy including the tail window
  std::size_t attempts = 0;
};

class Link {
 public:
  explicit Link(LinkConfig config = wifi_link()) noexcept : config_(config) {}

  /// Time to move `bytes` over the link once, without failures.
  [[nodiscard]] double nominal_transfer_s(std::size_t bytes) const noexcept;

  /// Simulate a transfer of `bytes` with loss/retries.
  [[nodiscard]] TransferResult transfer(std::size_t bytes, util::Rng& rng) const;

  [[nodiscard]] const LinkConfig& config() const noexcept { return config_; }

 private:
  LinkConfig config_;
};

/// JobScheduler-style gating conditions for starting a training task
/// (Sec. VI: "networking connectivity (Wifi/4G), device status (idling or
/// charging) and execution time window").
struct TransferPolicy {
  bool require_wifi = false;
  double min_battery_soc = 0.0;
  /// Allowed execution window in seconds-of-day; [0, 86400) == always.
  double window_begin_s = 0.0;
  double window_end_s = 86400.0;

  [[nodiscard]] bool admits(LinkTech tech, double battery_soc,
                            double seconds_of_day) const noexcept;
};

}  // namespace fedco::net
