#include "core/online_scheduler.hpp"

#include <cmath>

namespace fedco::core {

double OnlineScheduler::amplification(double lag) const {
  const auto index = static_cast<std::size_t>(lag);
  if (lag >= 0.0 && lag < kMaxCachedLag && static_cast<double>(index) == lag) {
    if (index >= amp_cache_.size()) {
      // Let push_back grow geometrically: an exact-fit reserve here would
      // reallocate (and copy) the whole memo every time the observed lag
      // creeps one past the cached maximum — O(L^2) bytes over a run
      // whose lag reaches L, which at 100k users dominated the decide
      // path. The cached values are unchanged either way.
      for (std::size_t l = amp_cache_.size(); l <= index; ++l) {
        const double amp =
            fl::momentum_amplification(config_.beta, static_cast<double>(l));
        // The idle screen's precondition, checked per new entry (no step
        // down seen through 2^20 for beta 0.5-0.9999; nothing relies on it).
        if (amp_checked_ == l && (l == 0 || amp >= amp_cache_.back())) {
          amp_checked_ = l + 1;
        }
        amp_cache_.push_back(amp);
      }
    }
    return amp_cache_[index];
  }
  return fl::momentum_amplification(config_.beta, lag);
}

OnlineDecisionOutcome OnlineScheduler::decide(
    const device::DeviceProfile& dev, const OnlineDecisionInput& input) const {
  // Power levels of the two candidate actions under the current app status
  // (Eq. 10).
  const double p_schedule = device::power_w(dev, device::Decision::kSchedule,
                                            input.app_status, input.app);
  const double p_idle = device::power_w(dev, device::Decision::kIdle,
                                        input.app_status, input.app);
  return evaluate(p_schedule, p_idle, input.current_gap, input.expected_lag,
                  input.momentum_norm, queues_.q(),
                  queues_.h() * input.h_scale);
}

}  // namespace fedco::core
