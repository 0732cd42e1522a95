// Immediate scheduling: train as soon as the device is ready, ignoring
// foreground apps — the paper's energy upper bound baseline (Sec. VII-B).
#pragma once

#include "core/scheduler.hpp"

namespace fedco::core {

class ImmediateScheduler final : public Scheduler {
 public:
  [[nodiscard]] SchedulerKind kind() const noexcept override {
    return SchedulerKind::kImmediate;
  }

  [[nodiscard]] device::Decision decide(std::size_t user, sim::Slot t,
                                        SchedulerContext& ctx) override;
};

}  // namespace fedco::core
