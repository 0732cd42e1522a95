#include "core/offline_planner.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "core/experiment.hpp"
#include "device/power_model.hpp"
#include "fl/staleness.hpp"

namespace fedco::core {

OfflinePlannerConfig make_planner_config(const ExperimentConfig& config) {
  OfflinePlannerConfig planner;
  planner.lb = config.offline_lb;
  planner.window_slots = config.offline_window_slots;
  planner.epsilon = config.epsilon;
  planner.eta = config.eta;
  planner.beta = config.beta;
  planner.slot_seconds = config.slot_seconds;
  planner.churn_aware = config.offline_churn_aware;
  return planner;
}

OfflineWindowPlan OfflinePlanner::plan(
    sim::Slot window_begin, const std::vector<OfflineUserInput>& users) const {
  OfflineWindowPlan out;
  out.plans.assign(users.size(), OfflineUserPlan{});
  if (users.empty()) return out;

  const double t0 = static_cast<double>(window_begin) * config_.slot_seconds;

  // Churn-aware feasibility pre-pass: a co-run whose session would end
  // after the user's known departure is dropped to the no-arrival branch —
  // the plan never waits for work the departure makes unfinishable. A
  // session ending exactly at the leave slot stays feasible (in-flight
  // sessions run to completion).
  constexpr sim::Slot kNever = std::numeric_limits<sim::Slot>::max();
  const bool churn = config_.churn_aware;
  std::vector<std::uint8_t> infeasible(churn ? users.size() : 0, 0);
  if (churn) {
    for (std::size_t i = 0; i < users.size(); ++i) {
      const auto& u = users[i];
      if (!u.next_arrival || u.leave_slot == kNever) continue;
      const double end_s =
          static_cast<double>(*u.next_arrival) * config_.slot_seconds +
          device::training_duration_s(*u.dev, device::AppStatus::kApp,
                                      u.arrival_app);
      if (end_s > static_cast<double>(u.leave_slot) * config_.slot_seconds) {
        infeasible[i] = 1;
      }
    }
  }
  const auto corun_ok = [&](std::size_t i) {
    return users[i].next_arrival.has_value() && (!churn || infeasible[i] == 0);
  };

  // Candidate execution windows for the Lemma 1 lag bound.
  std::vector<UserWindow> windows(users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    const auto& u = users[i];
    windows[i].begin = t0;
    windows[i].app_arrival =
        corun_ok(i)
            ? static_cast<double>(*u.next_arrival) * config_.slot_seconds
            : t0;
    windows[i].duration =
        corun_ok(i)
            ? device::training_duration_s(*u.dev, device::AppStatus::kApp,
                                          u.arrival_app)
            : u.dev->train_time_s;
  }

  // Knapsack items: value = energy saved by waiting/co-running instead of
  // training separately now; weight = the gradient gap that the wait + stale
  // co-run update will have cost (Eq. 4 with the Lemma 1 lag bound, plus the
  // Eq. 12 epsilon accumulation while idling until the app arrives).
  std::vector<KnapsackItem> items(users.size());
  out.lag_bounds.resize(users.size());
  // The Lemma 1 bound via the counting index: identical integers to the
  // O(n)-per-user lag_upper_bound scan, computed once per distinct window
  // (far fewer than users: a few device/app durations x the window slots).
  const LagBoundIndex lag_index{windows};
  for (std::size_t i = 0; i < users.size(); ++i) {
    const auto& u = users[i];
    out.lag_bounds[i] = lag_index.bound(i);
    const double lag = static_cast<double>(out.lag_bounds[i]);
    if (corun_ok(i)) {
      const double wait_s = windows[i].app_arrival - t0;
      const double wait_slots = wait_s / config_.slot_seconds;
      items[i].value = device::corun_saving_joules(*u.dev, u.arrival_app);
      items[i].weight = u.current_gap + config_.epsilon * wait_slots +
                        fl::gradient_gap(config_.eta, config_.beta, lag,
                                         u.momentum_norm);
    } else {
      // No in-window arrival: waiting saves the separate-training energy for
      // now (training deferred to a later co-run) at the cost of a full
      // window of idle gap accumulation.
      items[i].value = (u.dev->train_power_w - u.dev->idle_power_w) *
                       u.dev->train_time_s;
      items[i].weight =
          u.current_gap +
          config_.epsilon * static_cast<double>(config_.window_slots);
      if (churn && u.leave_slot != kNever) {
        // Deweight the deferral by the remaining-presence fraction: a user
        // departing mid-window can only realise that fraction of the
        // deferred co-run opportunity.
        const double presence = std::clamp(
            (static_cast<double>(u.leave_slot) -
             static_cast<double>(window_begin)) /
                static_cast<double>(config_.window_slots),
            0.0, 1.0);
        items[i].value *= presence;
      }
    }
    // Priority scales the staleness cost (not the saving): deferring a
    // VIP's work consumes proportionally more of the window budget, so
    // VIPs are the first to be scheduled now. 1.0 is the exact identity.
    if (u.priority != 1.0) items[i].weight *= u.priority;
    if (items[i].value < 0.0) items[i].value = 0.0;  // co-run never helps here
  }
  out.knapsack = solve_knapsack(items, config_.lb, config_.knapsack_grid);

  for (std::size_t i = 0; i < users.size(); ++i) {
    if (out.knapsack.selected[i]) {
      if (corun_ok(i)) {
        out.plans[i].action = OfflineAction::kWaitForApp;
        out.plans[i].start_slot = *users[i].next_arrival;
      } else {
        out.plans[i].action = OfflineAction::kDefer;
      }
    } else {
      out.plans[i].action = OfflineAction::kScheduleNow;
      out.plans[i].start_slot = window_begin;
    }
  }
  return out;
}

}  // namespace fedco::core
