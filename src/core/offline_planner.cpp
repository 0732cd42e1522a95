#include "core/offline_planner.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>

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

namespace {
/// Users with equal keys share their Lemma 1 window and every item term
/// but the gap, the churn presence scaling and the priority.
struct ClassKey {
  const device::DeviceProfile* dev;
  std::uint64_t momentum_bits;
  sim::Slot arrival;    ///< co-run start (0 without a co-run)
  device::AppKind app;  ///< co-run app (kMap without a co-run)
  bool corun;
  bool operator==(const ClassKey&) const = default;
};

struct ClassKeyHash {
  std::size_t operator()(const ClassKey& k) const noexcept {
    return std::bit_cast<std::uintptr_t>(k.dev) * 0x9e3779b97f4a7c15ULL ^
           k.momentum_bits * 0xbf58476d1ce4e5b9ULL ^
           static_cast<std::uint64_t>(k.arrival) << 4 ^
           static_cast<std::uint64_t>(k.app);
  }
};

struct Class {
  ClassKey key;
  double wait_slots;  ///< slots idled before training
  double value;       ///< saving before the churn presence scaling
  double gap_cost;    ///< gradient gap at the class's lag bound
};

/// Gathered per ready user with its KnapsackItem; with the solver's 4-byte
/// weight unit, 28 bytes per ready user.
struct Row { std::uint32_t user, cls; };
static_assert(sizeof(Row) + sizeof(KnapsackItem) == 24,
              "a wider per-ready-user row must revisit the replan byte "
              "budget (docs/performance.md section 14)");
}  // namespace

KnapsackSolution OfflinePlanner::plan(sim::Slot window_begin,
                                      std::size_t num_users,
                                      const Gather& gather,
                                      const Emit& emit) const {
  if (num_users >= UINT32_MAX) throw std::length_error{"OfflinePlanner: too many users"};
  constexpr sim::Slot kNever = std::numeric_limits<sim::Slot>::max();
  const double ss = config_.slot_seconds;
  const double t0 = static_cast<double>(window_begin) * ss;

  // Classes by key, with their Lemma 1 windows and member counts; a
  // class's terms use the IEEE operations of a per-user plan.
  std::unordered_map<ClassKey, std::uint32_t, ClassKeyHash> class_ids;
  std::vector<Class> classes;
  std::vector<UserWindow> windows;
  std::vector<std::uint32_t> members;
  const auto add_class = [&](const ClassKey& k) {
    const device::DeviceProfile& dev = *k.dev;
    const double arrival_s = static_cast<double>(k.arrival) * ss;
    // Without a co-run, waiting saves the separate-training energy for now
    // (training deferred to a later co-run) at the cost of a full window of
    // idle gap accumulation.
    windows.push_back(
        k.corun ? UserWindow{t0, arrival_s,
                             device::training_duration_s(
                                 dev, device::AppStatus::kApp, k.app)}
                : UserWindow{t0, t0, dev.train_time_s});
    classes.push_back(
        k.corun ? Class{k, (arrival_s - t0) / ss,
                        device::corun_saving_joules(dev, k.app), 0.0}
                : Class{k, static_cast<double>(config_.window_slots),
                        (dev.train_power_w - dev.idle_power_w) * dev.train_time_s,
                        0.0});
    members.push_back(0);
  };

  // Gather: one (user, class) row and one item per ready user, both
  // columns reserved once (untouched capacity is never paged in). The
  // item's weight holds the user's gap until the lag bounds are known.
  std::vector<Row> rows;
  std::vector<KnapsackItem> items;
  rows.reserve(num_users);
  items.reserve(num_users);
  std::vector<std::pair<std::uint32_t, double>> priorities;  ///< rows != 1.0
  for (std::size_t user = 0; user < num_users; ++user) {
    OfflineUserInput in;
    if (!gather(user, in)) continue;
    // Churn-aware feasibility: a co-run whose session would end after the
    // user's known departure is dropped to the no-arrival branch — the plan
    // never waits for work the departure makes unfinishable. A session
    // ending exactly at the leave slot stays feasible (in-flight sessions
    // run to completion).
    const bool leaves = config_.churn_aware && in.leave_slot != kNever;
    bool corun = in.next_arrival.has_value();
    if (corun && leaves) {
      const double end_s =
          static_cast<double>(*in.next_arrival) * ss +
          device::training_duration_s(*in.dev, device::AppStatus::kApp,
                                      in.arrival_app);
      corun = !(end_s > static_cast<double>(in.leave_slot) * ss);
    }
    const ClassKey key{in.dev, std::bit_cast<std::uint64_t>(in.momentum_norm),
                       corun ? *in.next_arrival : 0,
                       corun ? in.arrival_app : device::AppKind::kMap, corun};
    const auto [it, fresh] = class_ids.try_emplace(
        key, static_cast<std::uint32_t>(classes.size()));
    if (fresh) add_class(key);
    const std::uint32_t cls = it->second;
    ++members[cls];
    double value = classes[cls].value;
    if (!corun && leaves) {
      // Deweight the deferral by the remaining-presence fraction: a user
      // departing mid-window can only realise that fraction of the
      // deferred co-run opportunity.
      value *= std::clamp((static_cast<double>(in.leave_slot) -
                           static_cast<double>(window_begin)) /
                              static_cast<double>(config_.window_slots),
                          0.0, 1.0);
    }
    if (value < 0.0) value = 0.0;  // co-run never helps here
    if (in.priority != 1.0) priorities.emplace_back(rows.size(), in.priority);
    rows.push_back({static_cast<std::uint32_t>(user), cls});
    items.push_back({value, in.current_gap});
  }

  // The Lemma 1 bound via the counting index over the class windows with
  // their member counts: identical integers to the O(n)-per-user
  // lag_upper_bound scan over the users' windows.
  const LagBoundIndex lag_index{windows, members};
  for (std::size_t c = 0; c < classes.size(); ++c) {
    classes[c].gap_cost = fl::gradient_gap(
        config_.eta, config_.beta, static_cast<double>(lag_index.bound(c)),
        std::bit_cast<double>(classes[c].key.momentum_bits));
  }
  // Knapsack items: value = energy saved by waiting/co-running instead of
  // training separately now; weight = the gradient gap that the wait + stale
  // co-run update will have cost (Eq. 4 with the Lemma 1 lag bound, plus the
  // Eq. 12 epsilon accumulation while idling until the app arrives).
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Class& cls = classes[rows[r].cls];
    double& weight = items[r].weight;  // the user's gap until here
    weight += config_.epsilon * cls.wait_slots;
    if (cls.key.corun) weight += cls.gap_cost;
  }
  // Priority scales the staleness cost (not the saving): deferring a VIP's
  // work consumes proportionally more of the window budget, so VIPs are
  // the first to be scheduled now.
  for (const auto& [row, priority] : priorities) items[row].weight *= priority;
  KnapsackSolution knapsack =
      KnapsackSolver{}.solve(items, config_.lb, config_.knapsack_grid);

  for (std::size_t r = 0; r < rows.size(); ++r) {
    const ClassKey& key = classes[rows[r].cls].key;
    emit(rows[r].user,
         !knapsack.selected[r] ? OfflineUserPlan{OfflineAction::kScheduleNow, window_begin}
         : key.corun           ? OfflineUserPlan{OfflineAction::kWaitForApp, key.arrival}
                               : OfflineUserPlan{OfflineAction::kDefer, 0},
         lag_index.bound(rows[r].cls));
  }
  return knapsack;
}

OfflineWindowPlan OfflinePlanner::plan(
    sim::Slot window_begin, const std::vector<OfflineUserInput>& users) const {
  OfflineWindowPlan out;
  out.plans.reserve(users.size());
  out.lag_bounds.reserve(users.size());
  out.knapsack = plan(
      window_begin, users.size(),
      [&](std::size_t user, OfflineUserInput& in) {
        in = users[user];
        return true;
      },
      [&](std::size_t, const OfflineUserPlan& plan, std::size_t lag_bound) {
        out.plans.push_back(plan);
        out.lag_bounds.push_back(lag_bound);
      });
  return out;
}

}  // namespace fedco::core
