// Synchronous SGD (FedAvg [2]): every ready user trains right away, then
// parks at a round barrier; the server aggregates once all users have
// submitted and releases the fleet into the next round together.
#pragma once

#include "core/scheduler.hpp"

namespace fedco::core {

class SyncSgdScheduler final : public Scheduler {
 public:
  [[nodiscard]] SchedulerKind kind() const noexcept override {
    return SchedulerKind::kSyncSgd;
  }

  /// Aggregate when the whole fleet reached the barrier (stragglers gate
  /// the round, which is exactly the cost the paper holds against FedAvg).
  void on_slot_begin(sim::Slot t, SchedulerContext& ctx) override;

  [[nodiscard]] device::Decision decide(std::size_t user, sim::Slot t,
                                        SchedulerContext& ctx) override;

  [[nodiscard]] bool uses_round_barrier() const noexcept override {
    return true;
  }

  /// The sync server re-requests lost uploads (a dropped upload would
  /// deadlock the barrier), so failure injection does not apply.
  [[nodiscard]] bool reliable_uploads() const noexcept override {
    return true;
  }
};

}  // namespace fedco::core
