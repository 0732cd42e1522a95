// Offline (oracle) scheduling: every `offline_window_slots` the scheme runs
// the Sec. IV knapsack planner over the ready users with oracle knowledge of
// their in-window app arrivals, and caches one plan per user (its
// scheme-owned state): schedule now, wait for the app and co-run, or defer
// to the next window. A replan hands the planner's core each ready user
// straight from the context (the core keeps a user index, a class id and a
// knapsack item per ready user; the class is the device plus the feasible
// co-run's arrival slot and app), runs one cold Algorithm 1 DP and writes
// the plans into the cache; the cached plans are the only state kept
// between windows (see OfflinePlanner).
#pragma once

#include <vector>

#include "core/offline_planner.hpp"
#include "core/scheduler.hpp"

namespace fedco::core {

class OfflineScheduler final : public Scheduler {
 public:
  explicit OfflineScheduler(const ExperimentConfig& config);

  [[nodiscard]] SchedulerKind kind() const noexcept override {
    return SchedulerKind::kOffline;
  }

  /// Window plans read every ready user's next in-window app arrival.
  [[nodiscard]] bool looks_ahead() const noexcept override { return true; }

  /// Users start deferred until the first window plan runs.
  void on_experiment_begin(SchedulerContext& ctx) override;

  /// Window boundary: replan all currently-ready users.
  void on_slot_begin(sim::Slot t, SchedulerContext& ctx) override;

  /// Freshly ready users wait for the next window plan.
  void on_user_ready(std::size_t user, sim::Slot t,
                     SchedulerContext& ctx) override;

  [[nodiscard]] device::Decision decide(std::size_t user, sim::Slot t,
                                        SchedulerContext& ctx) override;

  /// A cached window plan pins the decision stream: a deferred user idles
  /// until the next window boundary, a wait-for-app user until its planned
  /// start slot — so the driver can park ready users instead of
  /// re-consulting decide() every slot.
  [[nodiscard]] sim::Slot ready_parked_until(std::size_t user,
                                             sim::Slot t) const override;

 private:
  OfflinePlanner planner_;
  sim::Slot window_slots_;
  std::vector<OfflineUserPlan> plans_;  ///< scheme state, one slot per user
};

}  // namespace fedco::core
