#include "core/schedulers/offline.hpp"

namespace fedco::core {

OfflineScheduler::OfflineScheduler(const ExperimentConfig& config)
    : planner_(make_planner_config(config)),
      window_slots_(config.offline_window_slots) {}

void OfflineScheduler::on_experiment_begin(SchedulerContext& ctx) {
  plans_.assign(ctx.num_users(), OfflineUserPlan{OfflineAction::kDefer, 0});
}

void OfflineScheduler::on_slot_begin(sim::Slot t, SchedulerContext& ctx) {
  if (t % window_slots_ != 0) return;
  const double momentum_norm = ctx.momentum_norm();  // constant within a slot
  std::size_t ready = 0;
  std::size_t scheduled = 0;
  planner_.plan(
      t, ctx.num_users(),
      [&](std::size_t i, OfflineUserInput& in) {
        // Only present, ready users enter the window knapsack; a churned-out
        // user neither saves energy nor accrues schedulable staleness.
        if (!ctx.user_ready(i) || !ctx.user_present(i, t)) return false;
        in.dev = &ctx.user_device(i);
        in.current_gap = ctx.user_gap(i);
        in.momentum_norm = momentum_norm;
        in.leave_slot = ctx.user_leave_slot(i);
        in.priority = ctx.user_priority(i);
        if (const auto arrival =
                ctx.next_arrival_between(i, t, t + window_slots_)) {
          in.next_arrival = arrival->at;
          in.arrival_app = arrival->app;
        }
        return true;
      },
      [&](std::size_t user, const OfflineUserPlan& plan, std::size_t) {
        plans_[user] = plan;
        ++ready;
        if (plan.action != OfflineAction::kDefer) ++scheduled;
      });
  ctx.note_replan(t, ready, scheduled);
}

void OfflineScheduler::on_user_ready(std::size_t user, sim::Slot t,
                                     SchedulerContext& ctx) {
  (void)t;
  (void)ctx;
  plans_[user] = OfflineUserPlan{OfflineAction::kDefer, 0};
}

sim::Slot OfflineScheduler::ready_parked_until(std::size_t user,
                                               sim::Slot t) const {
  // Plans only change at the next window boundary (on_slot_begin replan);
  // until then decide() is a pure function of the cached plan and t.
  const sim::Slot boundary = (t / window_slots_ + 1) * window_slots_;
  const OfflineUserPlan& plan = plans_[user];
  if (plan.action != OfflineAction::kDefer && plan.start_slot > t) {
    return std::min(boundary, plan.start_slot);
  }
  return boundary;
}

device::Decision OfflineScheduler::decide(std::size_t user, sim::Slot t,
                                          SchedulerContext& ctx) {
  (void)ctx;
  const OfflineUserPlan& plan = plans_[user];
  switch (plan.action) {
    case OfflineAction::kScheduleNow:
    case OfflineAction::kWaitForApp:
      return t >= plan.start_slot ? device::Decision::kSchedule
                                  : device::Decision::kIdle;
    case OfflineAction::kDefer:
      return device::Decision::kIdle;
  }
  return device::Decision::kIdle;
}

}  // namespace fedco::core
