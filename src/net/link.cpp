#include "net/link.hpp"

#include <algorithm>

namespace fedco::net {

LinkConfig wifi_link() noexcept { return LinkConfig{}; }

LinkConfig lte_link() noexcept {
  LinkConfig cfg;
  cfg.tech = LinkTech::kLte;
  cfg.bandwidth_mbps = 12.0;
  cfg.latency_ms = 60.0;
  cfg.loss_probability = 0.02;
  cfg.radio_power_w = 1.2;
  cfg.tail_seconds = 6.0;  // LTE RRC tail is much longer than Wi-Fi PS-Poll
  cfg.tail_power_w = 0.8;
  return cfg;
}

double Link::nominal_transfer_s(std::size_t bytes) const noexcept {
  const double bits = static_cast<double>(bytes) * 8.0;
  const double bandwidth_bps = std::max(config_.bandwidth_mbps, 1e-6) * 1e6;
  return config_.latency_ms / 1000.0 + bits / bandwidth_bps;
}

TransferResult Link::transfer(std::size_t bytes, util::Rng& rng) const {
  TransferResult result;
  const double once = nominal_transfer_s(bytes);
  for (std::size_t attempt = 0; attempt <= config_.max_retries; ++attempt) {
    ++result.attempts;
    result.duration_s += once;
    result.energy_j += config_.radio_power_w * once;
    if (!rng.bernoulli(config_.loss_probability)) {
      result.success = true;
      break;
    }
  }
  // One tail window after the radio goes quiet, success or not.
  result.energy_j += config_.tail_power_w * config_.tail_seconds;
  return result;
}

bool TransferPolicy::admits(LinkTech tech, double battery_soc,
                            double seconds_of_day) const noexcept {
  if (require_wifi && tech != LinkTech::kWifi) return false;
  if (battery_soc < min_battery_soc) return false;
  if (window_begin_s <= window_end_s) {
    return seconds_of_day >= window_begin_s && seconds_of_day <= window_end_s;
  }
  // Wrapping window (e.g. 22:00 -> 06:00).
  return seconds_of_day >= window_begin_s || seconds_of_day <= window_end_s;
}

}  // namespace fedco::net
