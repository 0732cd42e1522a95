// Windowed offline (oracle) scheduler built on the Sec. IV knapsack.
//
// Every `window_slots` the planner sees the ready users, their oracle-known
// next app arrival inside the look-ahead window (the paper invokes the
// offline algorithm every 500 s with a 500 s look-ahead), and decides per
// user: wait for the app and co-run (x_i = 1, consuming staleness budget) or
// not. Non-selected users with an arrival train immediately; users without
// an in-window arrival are deferred when selected, scheduled immediately
// otherwise.
//
// OfflinePlanner is the one planning path. Its core gathers each ready user
// into a 24-byte row keyed by the user's class (device and momentum norm,
// plus the feasible co-run's arrival slot and app), computes the Lemma 1
// bound and the gradient gap once per class, and runs one cold Algorithm 1
// DP over the items, which skips rows that provably change nothing —
// bit-identical to the plain DP (docs/algorithms.md §1). Nothing carries
// from one window to the next.
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "core/knapsack.hpp"
#include "device/profiles.hpp"
#include "sim/clock.hpp"

namespace fedco::core {

struct ExperimentConfig;

struct OfflinePlannerConfig {
  double lb = 1000.0;          ///< staleness budget per window
  sim::Slot window_slots = 500;
  double epsilon = 0.05;       ///< idle gap increment while waiting (Eq. 12)
  double eta = 0.05;
  double beta = 0.9;
  double slot_seconds = 1.0;
  std::size_t knapsack_grid = 2000;

  /// Churn-aware planning (ExperimentConfig::offline_churn_aware): co-run
  /// (user, window) pairs whose session would end after the user's known
  /// departure are dropped to the no-arrival branch, and deferred work is
  /// deweighted by the fraction of the window the user remains present.
  /// Off = the oblivious plan of every committed golden.
  bool churn_aware = false;
};

/// Map the experiment-level offline knobs onto a planner config (shared by
/// schedulers/offline and the benchmarks so the two never drift).
[[nodiscard]] OfflinePlannerConfig make_planner_config(
    const ExperimentConfig& config);

/// Planner view of one ready user at the window boundary.
struct OfflineUserInput {
  const device::DeviceProfile* dev = nullptr;
  double current_gap = 0.0;                    ///< accumulated idle gap so far
  std::optional<sim::Slot> next_arrival;       ///< first in-window app arrival
  device::AppKind arrival_app = device::AppKind::kMap;
  double momentum_norm = 0.0;                  ///< ||v_t|| for Eq. (4)
  /// End of the user's current presence window (max() = never leaves).
  /// Only read when config.churn_aware is set.
  sim::Slot leave_slot = std::numeric_limits<sim::Slot>::max();
  /// Scheduling weight (PerUserConfig::priority): scales the user's
  /// knapsack staleness weight, so VIP (> 1) users are costlier to defer
  /// and get scheduled now. 1.0 leaves the item untouched.
  double priority = 1.0;
};

enum class OfflineAction {
  kScheduleNow,   ///< train separately at the window start
  kWaitForApp,    ///< idle, then co-run at `start_slot`
  kDefer,         ///< idle through this window (no in-window arrival)
};

struct OfflineUserPlan {
  OfflineAction action = OfflineAction::kScheduleNow;
  sim::Slot start_slot = 0;  ///< when to begin training (kWaitForApp only)
};

struct OfflineWindowPlan {
  std::vector<OfflineUserPlan> plans;  ///< parallel to the input users
  KnapsackSolution knapsack;           ///< raw solver output (diagnostics)
  std::vector<std::size_t> lag_bounds; ///< Lemma 1 bound per user
};

/// Stateless window planner: a plan depends only on the config and the
/// window's inputs.
class OfflinePlanner {
 public:
  explicit OfflinePlanner(OfflinePlannerConfig config) : config_(config) {}

  /// Algorithm 1 applied to one window starting at `window_begin`: an
  /// adapter over the core below.
  [[nodiscard]] OfflineWindowPlan plan(
      sim::Slot window_begin, const std::vector<OfflineUserInput>& users) const;

  using Gather = std::function<bool(std::size_t user, OfflineUserInput& in)>;
  using Emit = std::function<void(std::size_t user, const OfflineUserPlan& plan,
                                  std::size_t lag_bound)>;

  /// The planning core. `gather(user, in)` fills `in` for users 0 ..
  /// num_users - 1 (< 2^32) and returns whether the user is ready; `emit`
  /// receives each ready user's plan and Lemma 1 bound in user order. It
  /// keeps ~28 bytes per ready user (docs/performance.md §14) and one
  /// class per key: at one momentum norm and 500 slots, at most 16,004 =
  /// 4 devices x (500 x 8 apps + 1). Every weight is finished in the order
  /// ((gap + epsilon * wait) + gradient gap) * priority. Returns the DP's
  /// solution.
  KnapsackSolution plan(sim::Slot window_begin, std::size_t num_users,
                        const Gather& gather, const Emit& emit) const;

 private:
  OfflinePlannerConfig config_;
};

}  // namespace fedco::core
