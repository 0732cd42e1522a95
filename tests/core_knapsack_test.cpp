// Offline knapsack (Algorithm 1): DP optimality vs exhaustive search,
// capacity feasibility, greedy comparison, the Lemma 1 lag bound checked
// against a brute-force enumeration of all decision combinations, and the
// KnapsackSolver the planner runs (row skipping, bit-identical to the plain
// row-by-row DP oracle below, and a reused solver leaking nothing from one
// solve into the next), and the class-keyed window planner against a
// per-user reference planner, through its adapter and through the offline
// scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "core/knapsack.hpp"
#include "core/offline_planner.hpp"
#include "core/scheduler.hpp"
#include "core/schedulers/offline.hpp"
#include "device/power_model.hpp"
#include "device/profiles.hpp"
#include "fl/staleness.hpp"
#include "util/rng.hpp"

namespace fedco::core {
namespace {

/// The oracle: the plain Eq. (8) DP, every item's row evaluated in full and
/// kept as its own take/skip bit row, then the standard backtrack from the
/// full budget. KnapsackSolver must reproduce it bit for bit.
KnapsackSolution naive_knapsack(const std::vector<KnapsackItem>& items,
                                double capacity, std::size_t grid) {
  KnapsackSolution solution;
  solution.selected.assign(items.size(), false);
  if (items.empty() || capacity <= 0.0 || grid == 0) return solution;
  const double unit = capacity / static_cast<double>(grid);
  std::vector<std::size_t> units(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    units[i] =
        static_cast<std::size_t>(std::ceil(items[i].weight / unit - 1e-12));
  }
  std::vector<double> best(grid + 1, 0.0);
  std::vector<std::vector<bool>> take(items.size(),
                                      std::vector<bool>(grid + 1, false));
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (units[i] > grid || items[i].value <= 0.0) continue;
    for (std::size_t y = grid + 1; y-- > units[i];) {
      const double candidate = best[y - units[i]] + items[i].value;
      if (candidate > best[y]) {
        best[y] = candidate;
        take[i][y] = true;
      }
    }
  }
  std::size_t y = grid;
  for (std::size_t i = items.size(); i-- > 0;) {
    if (take[i][y]) {
      solution.selected[i] = true;
      solution.total_value += items[i].value;
      solution.total_weight += items[i].weight;
      y -= units[i];
    }
  }
  return solution;
}

void expect_same_solution(const KnapsackSolution& got,
                          const KnapsackSolution& want) {
  ASSERT_EQ(got.selected, want.selected);
  EXPECT_EQ(got.total_value, want.total_value);
  EXPECT_EQ(got.total_weight, want.total_weight);
}

TEST(Knapsack, EmptyAndDegenerate) {
  EXPECT_EQ(solve_knapsack({}, 10.0).total_value, 0.0);
  const std::vector<KnapsackItem> items{{5.0, 2.0}};
  EXPECT_EQ(solve_knapsack(items, 0.0).total_value, 0.0);
  EXPECT_EQ(solve_knapsack(items, 10.0, 0).total_value, 0.0);
  EXPECT_THROW(solve_knapsack({{-1.0, 2.0}}, 10.0), std::invalid_argument);
  EXPECT_THROW(solve_knapsack({{1.0, -2.0}}, 10.0), std::invalid_argument);
}

TEST(Knapsack, NonFiniteItemsAreRejected) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const KnapsackItem bad : {KnapsackItem{1.0, kInf}, KnapsackItem{1.0, kNan},
                                 KnapsackItem{kInf, 1.0}, KnapsackItem{kNan, 1.0}}) {
    EXPECT_THROW((void)solve_knapsack({{2.0, 1.0}, bad}, 10.0),
                 std::invalid_argument);
  }
  // A finite weight whose grid quotient overflows simply never fits.
  const KnapsackSolution s =
      solve_knapsack({{5.0, 1e308}, {1.0, 1.0}}, 1e-300, 2000);
  EXPECT_FALSE(s.selected[0]);
}

TEST(Knapsack, TextbookInstance) {
  // values {60,100,120}, weights {10,20,30}, capacity 50 -> take {1,2} = 220.
  const std::vector<KnapsackItem> items{{60.0, 10.0}, {100.0, 20.0}, {120.0, 30.0}};
  const KnapsackSolution s = solve_knapsack(items, 50.0, 50);
  EXPECT_DOUBLE_EQ(s.total_value, 220.0);
  EXPECT_FALSE(s.selected[0]);
  EXPECT_TRUE(s.selected[1]);
  EXPECT_TRUE(s.selected[2]);
}

TEST(Knapsack, OverweightItemNeverSelected) {
  const std::vector<KnapsackItem> items{{1000.0, 100.0}, {1.0, 0.5}};
  const KnapsackSolution s = solve_knapsack(items, 10.0);
  EXPECT_FALSE(s.selected[0]);
  EXPECT_TRUE(s.selected[1]);
}

TEST(Knapsack, ZeroWeightItemsAreFree) {
  const std::vector<KnapsackItem> items{{3.0, 0.0}, {4.0, 0.0}, {5.0, 10.0}};
  const KnapsackSolution s = solve_knapsack(items, 10.0);
  EXPECT_DOUBLE_EQ(s.total_value, 12.0);
}

class KnapsackRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnapsackRandom, DpMatchesExhaustiveAndRespectsCapacity) {
  util::Rng rng{GetParam()};
  const std::size_t n = 2 + rng.uniform_int(std::uint64_t{11});  // 2..12 items
  std::vector<KnapsackItem> items(n);
  for (auto& item : items) {
    item.value = rng.uniform(0.0, 100.0);
    item.weight = rng.uniform(0.1, 20.0);
  }
  const double capacity = rng.uniform(5.0, 60.0);

  const KnapsackSolution exact = solve_knapsack_exact(items, capacity);
  // Fine grid: ceil-rounding costs at most (n * capacity / grid) weight.
  const KnapsackSolution dp = solve_knapsack(items, capacity, 20000);
  const KnapsackSolution greedy = solve_knapsack_greedy(items, capacity);

  EXPECT_LE(dp.total_weight, capacity + 1e-9);
  EXPECT_LE(greedy.total_weight, capacity + 1e-9);
  // DP on a fine grid is within a hair of the continuous optimum and never
  // beats it.
  EXPECT_LE(dp.total_value, exact.total_value + 1e-9);
  EXPECT_GE(dp.total_value, 0.98 * exact.total_value);
  // Greedy never beats the optimum.
  EXPECT_LE(greedy.total_value, exact.total_value + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackRandom,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(Knapsack, ExactRejectsLargeInstances) {
  std::vector<KnapsackItem> items(25, KnapsackItem{1.0, 1.0});
  EXPECT_THROW(solve_knapsack_exact(items, 10.0), std::invalid_argument);
}

// ------------------------------------------------------- reused solver

std::vector<KnapsackItem> random_items(util::Rng& rng, std::size_t n) {
  std::vector<KnapsackItem> items(n);
  for (auto& item : items) {
    item.value = rng.uniform(0.0, 50.0);
    item.weight = rng.uniform(0.0, 10.0);
  }
  return items;
}

class IncrementalKnapsack : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalKnapsack, MatchesFullSolveUnderArbitraryMutations) {
  // A solver reused across calls keeps per-solve scratch; none of it may
  // leak into the next solve. Each call must equal the plain DP —
  // identical selections and bitwise-identical totals — no matter how the
  // item list, capacity, or grid changed since the previous call (prefix
  // edits, suffix edits, growth, shrinkage).
  util::Rng rng{GetParam()};
  KnapsackSolver solver;
  std::vector<KnapsackItem> items =
      random_items(rng, 1 + rng.uniform_int(std::uint64_t{600}));
  double capacity = rng.uniform(5.0, 80.0);
  std::size_t grid = 200 + rng.uniform_int(std::uint64_t{400});
  for (int round = 0; round < 6; ++round) {
    const KnapsackSolution full = naive_knapsack(items, capacity, grid);
    const KnapsackSolution inc = solver.solve(items, capacity, grid);
    ASSERT_EQ(inc.selected, full.selected) << "seed=" << GetParam()
                                           << " round=" << round;
    EXPECT_EQ(inc.total_value, full.total_value);
    EXPECT_EQ(inc.total_weight, full.total_weight);
    // Mutate for the next round.
    switch (rng.uniform_int(std::uint64_t{5})) {
      case 0: {  // suffix edit
        const std::size_t at = rng.uniform_int(items.size());
        items.resize(at);
        const auto grown = random_items(
            rng, 1 + rng.uniform_int(std::uint64_t{200}));
        items.insert(items.end(), grown.begin(), grown.end());
        break;
      }
      case 1:  // prefix edit
        items[rng.uniform_int(items.size())].weight = rng.uniform(0.0, 10.0);
        break;
      case 2:  // pure growth
        items.push_back({rng.uniform(0.0, 50.0), rng.uniform(0.0, 10.0)});
        break;
      case 3:  // capacity change invalidates the discretization
        capacity = rng.uniform(5.0, 80.0);
        break;
      default:  // grid change invalidates the discretization
        grid = 200 + rng.uniform_int(std::uint64_t{400});
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalKnapsack,
                         ::testing::Range<std::uint64_t>(1, 13));

// Saturated, duplicate-heavy item sets: the planner's regime. A handful of
// device/app profiles give few distinct values, weights span 11..98 units of
// a 2000-unit grid, and the budget holds a small fraction of the total
// weight, so almost every row provably changes nothing and is skipped. The
// dyadic values make exact ties (take == best) common; zero values, zero
// weights and items wider than the grid ride along.
std::vector<KnapsackItem> saturated_items(util::Rng& rng, std::size_t n,
                                          double unit) {
  constexpr double kValues[] = {0.0, 12.5, 25.0, 37.5, 50.0, 100.0};
  std::vector<KnapsackItem> items(n);
  for (KnapsackItem& item : items) {
    item.value = kValues[rng.uniform_int(std::uint64_t{6})];
    const std::uint64_t kind = rng.uniform_int(std::uint64_t{1000});
    if (kind == 0) {
      item.weight = 0.0;
    } else if (kind < 10) {
      item.weight = 2500.0 * unit;  // wider than the grid: never fits
    } else {
      // ceil(weight / unit) lands exactly on 11..98 units.
      const auto units = 11 + rng.uniform_int(std::uint64_t{88});
      item.weight = (static_cast<double>(units) - 0.5) * unit;
    }
  }
  return items;
}

TEST(PrunedKnapsack, SkippedRowsLeaveTheSolutionBitEqualToThePlainDp) {
  constexpr std::size_t kGrid = 2000;
  constexpr double kCapacity = 100.0;
  constexpr double kUnit = kCapacity / static_cast<double>(kGrid);
  util::Rng rng{17};
  std::vector<KnapsackItem> items = saturated_items(rng, 24'000, kUnit);
  double total_weight = 0.0;
  for (const KnapsackItem& item : items) total_weight += item.weight;
  ASSERT_GT(total_weight, 100.0 * kCapacity);  // capacity << sum of weights

  KnapsackSolver solver;
  expect_same_solution(solver.solve(items, kCapacity, kGrid),
                       naive_knapsack(items, kCapacity, kGrid));
  // The skip path carries the solve: under 5% of the rows change the table.
  EXPECT_LT(solver.stored_rows(), items.size() / 20);
  EXPECT_GT(solver.stored_rows(), 0u);

  // Re-solves after edits on the same solver must still match the plain DP.
  items[18'000].value = 100.0;  // suffix edit
  expect_same_solution(solver.solve(items, kCapacity, kGrid),
                       naive_knapsack(items, kCapacity, kGrid));
  const std::vector<KnapsackItem> grown = saturated_items(rng, 3'000, kUnit);
  items.insert(items.end(), grown.begin(), grown.end());  // growth
  expect_same_solution(solver.solve(items, kCapacity, kGrid),
                       naive_knapsack(items, kCapacity, kGrid));
  items[5].weight = 0.0;  // prefix edit
  expect_same_solution(solver.solve(items, kCapacity, kGrid),
                       naive_knapsack(items, kCapacity, kGrid));
}

// Many tiny instances over a handful of integer values and widths: small
// enough that certificates are issued, voided by a table change and
// re-issued within a few items, so an off-by-one in the skip bound or a
// stale certificate surfaces as a different selection.
TEST(PrunedKnapsack, TinyDuplicateHeavyInstancesMatchThePlainDp) {
  util::Rng rng{23};
  for (int instance = 0; instance < 3000; ++instance) {
    std::vector<KnapsackItem> items(2 + rng.uniform_int(std::uint64_t{40}));
    for (KnapsackItem& item : items) {
      item.value = static_cast<double>(rng.uniform_int(std::uint64_t{7}));
      item.weight = static_cast<double>(rng.uniform_int(std::uint64_t{8}));
    }
    const std::size_t grid = 4 + rng.uniform_int(std::uint64_t{12});
    const double capacity = static_cast<double>(grid);
    KnapsackSolver solver;
    const KnapsackSolution got = solver.solve(items, capacity, grid);
    const KnapsackSolution want = naive_knapsack(items, capacity, grid);
    ASSERT_EQ(got.selected, want.selected) << "instance " << instance;
    ASSERT_EQ(got.total_value, want.total_value) << "instance " << instance;
  }
}

// ------------------------------------------------------------- Lemma 1

/// Brute-force "true lag": for every combination of everyone's decisions
/// (start at begin or at app_arrival), count others finishing inside user
/// i's actual execution window; the maximum over combos must not exceed the
/// Lemma 1 bound.
std::size_t true_max_lag(const std::vector<UserWindow>& users, std::size_t i) {
  const std::size_t n = users.size();
  std::size_t worst = 0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    const double my_start = ((mask >> i) & 1U) != 0 ? users[i].app_arrival
                                                    : users[i].begin;
    const double my_end = my_start + users[i].duration;
    std::size_t lag = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double their_start = ((mask >> j) & 1U) != 0 ? users[j].app_arrival
                                                         : users[j].begin;
      const double their_end = their_start + users[j].duration;
      if (their_end >= my_start && their_end <= my_end) ++lag;
    }
    worst = std::max(worst, lag);
  }
  return worst;
}

class Lemma1Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma1Property, BoundDominatesTrueLagForAllDecisions) {
  util::Rng rng{GetParam()};
  const std::size_t n = 3 + rng.uniform_int(std::uint64_t{6});  // 3..8 users
  std::vector<UserWindow> users(n);
  for (auto& u : users) {
    u.begin = rng.uniform(0.0, 500.0);
    u.app_arrival = u.begin + rng.uniform(0.0, 500.0);
    u.duration = rng.uniform(50.0, 400.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(lag_upper_bound(users, i), true_max_lag(users, i))
        << "seed=" << GetParam() << " user=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1Property,
                         ::testing::Range<std::uint64_t>(1, 26));

TEST(Lemma1, NeverExceedsNMinusOne) {
  // The trivial bound of Sec. IV: lag <= n - 1.
  util::Rng rng{123};
  std::vector<UserWindow> users(10);
  for (auto& u : users) {
    u.begin = 0.0;
    u.app_arrival = 0.0;
    u.duration = 100.0;
  }
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_LE(lag_upper_bound(users, i), users.size() - 1);
  }
}

TEST(Lemma1, DisjointWindowsGiveZero) {
  std::vector<UserWindow> users(3);
  for (std::size_t i = 0; i < 3; ++i) {
    users[i].begin = static_cast<double>(i) * 1000.0;
    users[i].app_arrival = users[i].begin;
    users[i].duration = 10.0;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(lag_upper_bound(users, i), 0u);
  }
  EXPECT_THROW((void)lag_upper_bound(users, 5), std::out_of_range);
}

// ------------------------------------------------------- offline planner

OfflinePlannerConfig planner_config(double lb) {
  OfflinePlannerConfig cfg;
  cfg.lb = lb;
  cfg.window_slots = 500;
  cfg.epsilon = 0.05;
  cfg.eta = 0.05;
  cfg.beta = 0.9;
  return cfg;
}

TEST(OfflinePlanner, EmptyInput) {
  const auto plan = OfflinePlanner{planner_config(100.0)}.plan(0, {});
  EXPECT_TRUE(plan.plans.empty());
}

TEST(OfflinePlanner, RelaxedBudgetWaitsForApps) {
  // Paper Fig. 4a: with Lb = 1000 the offline solution acts like a greedy
  // always-wait-for-co-running scheme.
  std::vector<OfflineUserInput> users(5);
  for (std::size_t i = 0; i < users.size(); ++i) {
    users[i].dev = &device::profile(device::DeviceKind::kPixel2);
    users[i].next_arrival = static_cast<sim::Slot>(50 + 30 * i);
    users[i].arrival_app = device::AppKind::kMap;
    users[i].momentum_norm = 10.0;
  }
  const auto plan = OfflinePlanner{planner_config(1000.0)}.plan(0, users);
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(plan.plans[i].action, OfflineAction::kWaitForApp);
    EXPECT_EQ(plan.plans[i].start_slot, *users[i].next_arrival);
  }
}

TEST(OfflinePlanner, TightBudgetSchedulesImmediately) {
  std::vector<OfflineUserInput> users(5);
  for (auto& u : users) {
    u.dev = &device::profile(device::DeviceKind::kPixel2);
    u.next_arrival = 100;
    u.arrival_app = device::AppKind::kMap;
    u.momentum_norm = 10.0;
    u.current_gap = 5.0;
  }
  // Budget too small for anyone's gap weight.
  const auto plan = OfflinePlanner{planner_config(1e-6)}.plan(0, users);
  for (const auto& p : plan.plans) {
    EXPECT_EQ(p.action, OfflineAction::kScheduleNow);
  }
}

TEST(OfflinePlanner, NoArrivalSelectedMeansDefer) {
  std::vector<OfflineUserInput> users(2);
  users[0].dev = &device::profile(device::DeviceKind::kHikey970);
  users[1].dev = &device::profile(device::DeviceKind::kHikey970);
  // No arrivals at all: deferring saves (P_b - P_d) * d, still worth picking
  // under a relaxed budget.
  const auto plan = OfflinePlanner{planner_config(1000.0)}.plan(0, users);
  for (const auto& p : plan.plans) {
    EXPECT_EQ(p.action, OfflineAction::kDefer);
  }
}

TEST(OfflinePlanner, StalenessBudgetIsRespected) {
  util::Rng rng{77};
  std::vector<OfflineUserInput> users(12);
  for (auto& u : users) {
    u.dev = &device::profile(static_cast<device::DeviceKind>(
        rng.uniform_int(device::kDeviceKinds)));
    if (rng.bernoulli(0.7)) {
      u.next_arrival = static_cast<sim::Slot>(rng.uniform_int(std::uint64_t{400}));
      u.arrival_app = static_cast<device::AppKind>(
          rng.uniform_int(device::kAppKinds));
    }
    u.current_gap = rng.uniform(0.0, 10.0);
    u.momentum_norm = rng.uniform(1.0, 15.0);
  }
  const double lb = 30.0;
  const auto plan = OfflinePlanner{planner_config(lb)}.plan(0, users);
  EXPECT_LE(plan.knapsack.total_weight, lb + 1e-9);
  EXPECT_EQ(plan.lag_bounds.size(), users.size());
}

class LagBoundIndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LagBoundIndexProperty, IndexMatchesNaiveScanExactly) {
  // The counting index must return the identical integer as the O(n) scan
  // for every user — including duplicated completion times (grouping),
  // interval endpoints (closed-interval edges), and overlapping candidate
  // intervals (the inclusion-exclusion path).
  util::Rng rng{GetParam()};
  std::vector<UserWindow> users(rng.uniform_int(std::uint64_t{60}) + 2);
  for (auto& u : users) {
    u.begin = 1000.0;  // the planner gives every user the same window start
    // Few distinct durations (device/app profiles), arbitrary arrivals.
    u.duration = 50.0 * static_cast<double>(1 + rng.uniform_int(std::uint64_t{5}));
    u.app_arrival =
        u.begin + static_cast<double>(rng.uniform_int(std::uint64_t{500}));
  }
  const LagBoundIndex index{users};
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(index.bound(i), lag_upper_bound(users, i)) << "user " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LagBoundIndexProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST_P(LagBoundIndexProperty, GeneralWindowsMatchNaiveScanExactly) {
  // Scattered begins, and arrivals that may precede them: the group-range
  // counting must return the identical integers outside the planner's
  // shared-begin shape too.
  util::Rng rng{GetParam() * 7919};
  std::vector<UserWindow> users(rng.uniform_int(std::uint64_t{40}) + 2);
  for (auto& u : users) {
    u.begin = static_cast<double>(rng.uniform_int(std::uint64_t{300}));
    u.duration = 25.0 * static_cast<double>(1 + rng.uniform_int(std::uint64_t{6}));
    u.app_arrival =
        static_cast<double>(rng.uniform_int(std::uint64_t{600}));  // may be < begin
  }
  const LagBoundIndex index{users};
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(index.bound(i), lag_upper_bound(users, i)) << "user " << i;
  }
}


/// Every bound of `index` equals the naive scan's.
void expect_matches_scan(const std::vector<UserWindow>& users) {
  const LagBoundIndex index{users};
  for (std::size_t i = 0; i < users.size(); ++i) {
    ASSERT_EQ(index.bound(i), lag_upper_bound(users, i)) << "user " << i;
  }
}

TEST_P(LagBoundIndexProperty, HeavilyDuplicatedWindowsMatchNaiveScan) {
  // The planner's shape at fleet scale: one window start, a few durations,
  // arrivals drawn from 500 slots and many users without an arrival
  // (app_arrival == begin) — thousands of users over a few hundred
  // distinct windows, each answered once and shared by its duplicates.
  util::Rng rng{GetParam() * 104729};
  std::vector<UserWindow> users(1500 + rng.uniform_int(std::uint64_t{1500}));
  const std::size_t durations = 1 + rng.uniform_int(std::uint64_t{4});
  for (auto& u : users) {
    u.begin = 500.0;
    u.duration = 37.5 * static_cast<double>(1 + rng.uniform_int(durations));
    u.app_arrival = rng.bernoulli(0.4)
                        ? u.begin
                        : u.begin + static_cast<double>(
                                        rng.uniform_int(std::uint64_t{500}));
  }
  expect_matches_scan(users);
}

TEST(LagBoundIndex, IdenticalWindowsAndSingleUser) {
  std::vector<UserWindow> same(257, UserWindow{10.0, 40.0, 100.0});
  const LagBoundIndex index{same};
  for (std::size_t i = 0; i < same.size(); ++i) {
    ASSERT_EQ(index.bound(i), same.size() - 1);
  }
  expect_matches_scan(same);

  const std::vector<UserWindow> one{UserWindow{3.0, 7.0, 20.0}};
  EXPECT_EQ(LagBoundIndex{one}.bound(0), 0u);
  EXPECT_THROW((void)LagBoundIndex{one}.bound(1), std::out_of_range);
  EXPECT_THROW((void)LagBoundIndex{std::vector<UserWindow>{}}.bound(0),
               std::out_of_range);
}

TEST(LagBoundIndex, SignedZeroBeginsShareOneWindow) {
  // -0.0 and 0.0 compare equal everywhere in the naive scan, so their
  // windows are one distinct key; every bound must still match.
  std::vector<UserWindow> users;
  for (int k = 0; k < 40; ++k) {
    const double begin = k % 2 == 0 ? 0.0 : -0.0;
    const double arrival = k % 3 == 0 ? begin : static_cast<double>(k % 7) * 10.0;
    const double duration = k % 5 == 0 ? -0.0 : 25.0 * static_cast<double>(1 + k % 3);
    users.push_back({begin, arrival, duration});
  }
  expect_matches_scan(users);
}

TEST(LagBoundIndex, MixedBeginsWithDuplicatesMatchNaiveScan) {
  util::Rng rng{99};
  std::vector<UserWindow> users(1200);
  for (auto& u : users) {
    u.begin = 100.0 * static_cast<double>(rng.uniform_int(std::uint64_t{4}));
    u.duration = 50.0 * static_cast<double>(1 + rng.uniform_int(std::uint64_t{3}));
    u.app_arrival = rng.bernoulli(0.3)
                        ? u.begin
                        : static_cast<double>(rng.uniform_int(std::uint64_t{40})) * 12.5;
  }
  expect_matches_scan(users);
}

TEST(LagBoundIndex, RejectsBadWindowsNamingTheUser) {
  const auto message = [](const std::vector<UserWindow>& users) {
    try {
      const LagBoundIndex index{users};
    } catch (const std::invalid_argument& e) {
      return std::string{e.what()};
    }
    return std::string{"no throw"};
  };
  std::vector<UserWindow> users(4, UserWindow{0.0, 10.0, 50.0});
  users[2].duration = -1.0;
  EXPECT_NE(message(users).find("user 2"), std::string::npos) << message(users);
  users[2].duration = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(message(users).find("user 2"), std::string::npos) << message(users);
  users[2].duration = 50.0;
  users[3].begin = std::numeric_limits<double>::infinity();
  EXPECT_NE(message(users).find("user 3"), std::string::npos) << message(users);
  users[3].begin = 0.0;
  users[1].app_arrival = -std::numeric_limits<double>::infinity();
  EXPECT_NE(message(users).find("user 1"), std::string::npos) << message(users);
}

TEST(OfflinePlanner, LagBoundsMatchNaiveScanOverLargeWindow) {
  // The planner's Lemma 1 bounds over a 2k-user window equal the O(n)
  // scan over the windows it builds: begin = window start, the co-run
  // arrival and duration for users with an in-window app, else the
  // separate training duration.
  util::Rng rng{4242};
  const sim::Slot window_begin = 1000;
  const OfflinePlannerConfig cfg = planner_config(50.0);
  std::vector<OfflineUserInput> users(2000);
  std::vector<UserWindow> windows(users.size());
  const double t0 = static_cast<double>(window_begin) * cfg.slot_seconds;
  for (std::size_t i = 0; i < users.size(); ++i) {
    OfflineUserInput& u = users[i];
    u.dev = &device::profile(static_cast<device::DeviceKind>(
        rng.uniform_int(device::kDeviceKinds)));
    u.current_gap = rng.uniform(0.0, 5.0);
    u.momentum_norm = rng.uniform(1.0, 12.0);
    windows[i] = {t0, t0, u.dev->train_time_s};
    if (rng.bernoulli(0.6)) {
      u.next_arrival =
          window_begin + static_cast<sim::Slot>(rng.uniform_int(std::uint64_t{500}));
      u.arrival_app =
          static_cast<device::AppKind>(rng.uniform_int(device::kAppKinds));
      windows[i].app_arrival = static_cast<double>(*u.next_arrival) * cfg.slot_seconds;
      windows[i].duration = device::training_duration_s(
          *u.dev, device::AppStatus::kApp, u.arrival_app);
    }
  }
  const auto plan = OfflinePlanner{cfg}.plan(window_begin, users);
  ASSERT_EQ(plan.lag_bounds.size(), users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    ASSERT_EQ(plan.lag_bounds[i], lag_upper_bound(windows, i)) << "user " << i;
  }
}

TEST(OfflinePlanner, ReusedPlannerMatchesAFreshPlannerPerWindow) {
  // One planner over a run of windows that grow, shrink and carry
  // churn-aware infeasible co-runs must plan every window exactly as a
  // planner built for that window alone: nothing crosses a window boundary.
  util::Rng rng{515};
  OfflinePlannerConfig cfg = planner_config(40.0);
  cfg.churn_aware = true;
  OfflinePlanner reused{cfg};
  constexpr std::size_t kSizes[] = {300, 900, 40, 1200, 600, 1};
  std::vector<OfflineUserInput> users;
  for (std::size_t w = 0; w < std::size(kSizes); ++w) {
    const sim::Slot begin = static_cast<sim::Slot>(w) * cfg.window_slots;
    // Survivors keep their place with a grown gap; the rest are redrawn.
    users.resize(kSizes[w]);
    std::size_t infeasible = 0;
    for (OfflineUserInput& u : users) {
      if (u.dev != nullptr && rng.bernoulli(0.5)) {
        u.current_gap += cfg.epsilon * static_cast<double>(cfg.window_slots);
        continue;
      }
      u = OfflineUserInput{};
      u.dev = &device::profile(static_cast<device::DeviceKind>(
          rng.uniform_int(device::kDeviceKinds)));
      u.current_gap = rng.uniform(0.0, 5.0);
      u.momentum_norm = rng.uniform(1.0, 12.0);
      if (rng.bernoulli(0.6)) {
        u.next_arrival = begin + static_cast<sim::Slot>(
                                     rng.uniform_int(std::uint64_t{500}));
        u.arrival_app =
            static_cast<device::AppKind>(rng.uniform_int(device::kAppKinds));
      }
      if (rng.bernoulli(0.3)) {
        u.leave_slot =
            begin + static_cast<sim::Slot>(rng.uniform_int(std::uint64_t{600}));
      }
    }
    for (const OfflineUserInput& u : users) {
      if (!u.next_arrival ||
          u.leave_slot == std::numeric_limits<sim::Slot>::max()) {
        continue;
      }
      const double end_s =
          static_cast<double>(*u.next_arrival) * cfg.slot_seconds +
          device::training_duration_s(*u.dev, device::AppStatus::kApp,
                                      u.arrival_app);
      if (end_s > static_cast<double>(u.leave_slot) * cfg.slot_seconds) {
        ++infeasible;
      }
    }
    if (kSizes[w] >= 300) {
      ASSERT_GT(infeasible, 0u) << "window " << w;
    }

    const OfflineWindowPlan got = reused.plan(begin, users);
    const OfflineWindowPlan want = OfflinePlanner{cfg}.plan(begin, users);
    ASSERT_EQ(got.plans.size(), want.plans.size());
    for (std::size_t i = 0; i < users.size(); ++i) {
      ASSERT_EQ(got.plans[i].action, want.plans[i].action)
          << "window " << w << " user " << i;
      ASSERT_EQ(got.plans[i].start_slot, want.plans[i].start_slot)
          << "window " << w << " user " << i;
    }
    EXPECT_EQ(got.lag_bounds, want.lag_bounds) << "window " << w;
    EXPECT_EQ(got.knapsack.selected, want.knapsack.selected) << "window " << w;
    EXPECT_EQ(got.knapsack.total_value, want.knapsack.total_value);
    EXPECT_EQ(got.knapsack.total_weight, want.knapsack.total_weight);
  }
}

TEST_P(LagBoundIndexProperty, WeightedWindowsMatchTheExpandedUsers) {
  // An entry with weight w stands for w users with its window: every
  // bound equals the naive scan over the expanded per-user list. Entries
  // repeat keys (also as ±0 twins of the begin and the arrival): separate
  // entries with one window must count alike.
  util::Rng rng{GetParam() * 31337};
  std::vector<UserWindow> entries;
  std::vector<std::uint32_t> weights;
  const std::size_t m = 1 + rng.uniform_int(std::uint64_t{80});
  for (std::size_t k = 0; k < m; ++k) {
    UserWindow u;
    if (k > 0 && rng.bernoulli(0.3)) {
      u = entries[rng.uniform_int(static_cast<std::uint64_t>(k))];
      if (u.begin == 0.0) u.begin = -u.begin;
      if (u.app_arrival == 0.0) u.app_arrival = -u.app_arrival;
    } else {
      const bool at_zero = rng.bernoulli(0.4);
      u.begin = at_zero ? (rng.bernoulli(0.5) ? 0.0 : -0.0) : 500.0;
      u.duration = 37.5 * static_cast<double>(1 + rng.uniform_int(std::uint64_t{4}));
      u.app_arrival =
          rng.bernoulli(0.3)
              ? (rng.bernoulli(0.5) ? 0.0 : -0.0)
              : u.begin + static_cast<double>(rng.uniform_int(std::uint64_t{500}));
    }
    entries.push_back(u);
    weights.push_back(static_cast<std::uint32_t>(1 + rng.uniform_int(std::uint64_t{6})));
  }
  std::vector<UserWindow> expanded;
  std::vector<std::size_t> first;  // entry -> its first expanded user
  for (std::size_t k = 0; k < m; ++k) {
    first.push_back(expanded.size());
    expanded.insert(expanded.end(), weights[k], entries[k]);
  }
  const LagBoundIndex index{entries, weights};
  for (std::size_t k = 0; k < m; ++k) {
    ASSERT_EQ(index.bound(k), lag_upper_bound(expanded, first[k])) << "entry " << k;
  }
}

TEST(LagBoundIndex, WeightedRejectsZeroWeightsAndSizeMismatch) {
  const std::vector<UserWindow> two(2, UserWindow{0.0, 10.0, 50.0});
  EXPECT_THROW((LagBoundIndex{two, {1, 0}}), std::invalid_argument);
  EXPECT_THROW((LagBoundIndex{two, {1}}), std::invalid_argument);
  EXPECT_EQ((LagBoundIndex{two, {3, 2}}.bound(1)), 4u);
}

// ------------------------------------ class-keyed planner vs per-user oracle

constexpr sim::Slot kNever = std::numeric_limits<sim::Slot>::max();

/// Would `u`'s co-run end after its known departure?
bool departs_first(const OfflinePlannerConfig& cfg, const OfflineUserInput& u) {
  if (!u.next_arrival || u.leave_slot == kNever) return false;
  const double end_s = static_cast<double>(*u.next_arrival) * cfg.slot_seconds +
                       device::training_duration_s(*u.dev, device::AppStatus::kApp,
                                                   u.arrival_app);
  return end_s > static_cast<double>(u.leave_slot) * cfg.slot_seconds;
}

/// The per-user planner: one UserWindow and one item per user, the O(n)
/// lag_upper_bound scan per user and solve_knapsack, in the operation
/// order of Algorithm 1 as Sec. IV states it per user. The class-keyed
/// OfflinePlanner must reproduce it bit for bit.
OfflineWindowPlan reference_plan(const OfflinePlannerConfig& cfg,
                                 sim::Slot begin,
                                 const std::vector<OfflineUserInput>& users) {
  const std::size_t n = users.size();
  const double t0 = static_cast<double>(begin) * cfg.slot_seconds;
  std::vector<bool> corun(n);
  std::vector<UserWindow> windows(n);
  for (std::size_t i = 0; i < n; ++i) {
    const OfflineUserInput& u = users[i];
    corun[i] = u.next_arrival && !(cfg.churn_aware && departs_first(cfg, u));
    windows[i] =
        corun[i]
            ? UserWindow{t0, static_cast<double>(*u.next_arrival) * cfg.slot_seconds,
                         device::training_duration_s(
                             *u.dev, device::AppStatus::kApp, u.arrival_app)}
            : UserWindow{t0, t0, u.dev->train_time_s};
  }
  OfflineWindowPlan out;
  std::vector<KnapsackItem> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    const OfflineUserInput& u = users[i];
    out.lag_bounds.push_back(lag_upper_bound(windows, i));
    KnapsackItem& item = items[i];
    if (corun[i]) {
      const double wait_slots = (windows[i].app_arrival - t0) / cfg.slot_seconds;
      item.value = device::corun_saving_joules(*u.dev, u.arrival_app);
      item.weight = u.current_gap + cfg.epsilon * wait_slots +
                    fl::gradient_gap(cfg.eta, cfg.beta,
                                     static_cast<double>(out.lag_bounds[i]),
                                     u.momentum_norm);
    } else {
      item.value = (u.dev->train_power_w - u.dev->idle_power_w) *
                   u.dev->train_time_s;
      item.weight =
          u.current_gap + cfg.epsilon * static_cast<double>(cfg.window_slots);
      if (cfg.churn_aware && u.leave_slot != kNever) {
        item.value *= std::clamp((static_cast<double>(u.leave_slot) -
                                  static_cast<double>(begin)) /
                                     static_cast<double>(cfg.window_slots),
                                 0.0, 1.0);
      }
    }
    if (u.priority != 1.0) item.weight *= u.priority;
    if (item.value < 0.0) item.value = 0.0;
  }
  out.knapsack = solve_knapsack(items, cfg.lb, cfg.knapsack_grid);
  for (std::size_t i = 0; i < n; ++i) {
    if (!out.knapsack.selected[i]) {
      out.plans.push_back({OfflineAction::kScheduleNow, begin});
    } else if (corun[i]) {
      out.plans.push_back({OfflineAction::kWaitForApp, *users[i].next_arrival});
    } else {
      out.plans.push_back({OfflineAction::kDefer, 0});
    }
  }
  return out;
}

void expect_same_plan(const OfflineWindowPlan& got, const OfflineWindowPlan& want,
                      const std::string& where) {
  ASSERT_EQ(got.plans.size(), want.plans.size()) << where;
  for (std::size_t i = 0; i < want.plans.size(); ++i) {
    ASSERT_EQ(got.plans[i].action, want.plans[i].action) << where << " user " << i;
    ASSERT_EQ(got.plans[i].start_slot, want.plans[i].start_slot)
        << where << " user " << i;
  }
  EXPECT_EQ(got.lag_bounds, want.lag_bounds) << where;
  EXPECT_EQ(got.knapsack.selected, want.knapsack.selected) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.knapsack.total_value),
            std::bit_cast<std::uint64_t>(want.knapsack.total_value)) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.knapsack.total_weight),
            std::bit_cast<std::uint64_t>(want.knapsack.total_weight)) << where;
}

/// A Pixel 2 with other power levels: the same training durations, so its
/// classes share Lemma 1 windows with the Pixel 2's.
const device::DeviceProfile& pixel2_twin() {
  static const device::DeviceProfile twin = [] {
    device::DeviceProfile p = device::profile(device::DeviceKind::kPixel2);
    p.train_power_w *= 1.25;
    p.idle_power_w *= 0.75;
    for (auto& app : p.apps) app.corun_power_w *= 1.1;
    return p;
  }();
  return twin;
}

/// A random window of `n` ready users: four Table II devices and the
/// Pixel 2 twin, ±0 and positive gaps, users with and without an
/// in-window arrival, departures inside and past the window, priorities
/// off 1.0, and one or several momentum norms.
std::vector<OfflineUserInput> random_window(util::Rng& rng, std::size_t n,
                                            sim::Slot begin,
                                            const OfflinePlannerConfig& cfg,
                                            bool one_momentum) {
  const double momenta[] = {6.5, 1.25, 0.0, -0.0};
  std::vector<OfflineUserInput> users(n);
  for (OfflineUserInput& u : users) {
    const std::uint64_t d = rng.uniform_int(device::kDeviceKinds + 1);
    u.dev = d == device::kDeviceKinds
                ? &pixel2_twin()
                : &device::profile(static_cast<device::DeviceKind>(d));
    const std::uint64_t g = rng.uniform_int(std::uint64_t{10});
    u.current_gap = g == 0 ? 0.0 : g == 1 ? -0.0 : rng.uniform(0.0, 5.0);
    u.momentum_norm = one_momentum ? momenta[0] : momenta[rng.uniform_int(std::uint64_t{4})];
    if (rng.bernoulli(0.6)) {
      u.next_arrival = begin + static_cast<sim::Slot>(
                                   rng.uniform_int(static_cast<std::uint64_t>(cfg.window_slots)));
      u.arrival_app = static_cast<device::AppKind>(rng.uniform_int(device::kAppKinds));
    }
    if (rng.bernoulli(0.3)) {
      u.leave_slot = begin + static_cast<sim::Slot>(rng.uniform_int(std::uint64_t{600}));
    }
    if (rng.bernoulli(0.2)) {
      const double tiers[] = {0.5, 2.0, 3.75};
      u.priority = tiers[rng.uniform_int(std::uint64_t{3})];
    }
  }
  return users;
}

class PlannerDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerDifferential, ClassKeyedPlanMatchesThePerUserReference) {
  util::Rng rng{GetParam() * 6151};
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2000},
                              static_cast<std::size_t>(2 + rng.uniform_int(std::uint64_t{300}))}) {
    for (const bool churn : {false, true}) {
      OfflinePlannerConfig cfg = planner_config(
          std::array{5.0, 40.0, 400.0, 1e6}[rng.uniform_int(std::uint64_t{4})]);
      cfg.churn_aware = churn;
      const sim::Slot begin =
          static_cast<sim::Slot>(rng.uniform_int(std::uint64_t{4})) * cfg.window_slots;
      const auto users = random_window(rng, n, begin, cfg, rng.bernoulli(0.5));
      const std::string where = "n=" + std::to_string(n) +
                                " churn=" + std::to_string(churn);
      if (n == 2000) {  // the window exercises the churn-aware veto
        EXPECT_GT(std::count_if(users.begin(), users.end(),
                                [&](const OfflineUserInput& u) {
                                  return departs_first(cfg, u);
                                }),
                  0)
            << where;
      }
      expect_same_plan(OfflinePlanner{cfg}.plan(begin, users),
                       reference_plan(cfg, begin, users), where);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerDifferential, ::testing::Range<std::uint64_t>(1, 13));

/// A driver stand-in for the offline scheduler: every user has a device,
/// a gap, a leave slot, a priority and at most one scripted arrival; some
/// are not ready or not present and must stay out of the window.
class PlanContext final : public SchedulerContext {
 public:
  struct User {
    OfflineUserInput in;
    bool ready = true;
    bool present = true;
  };
  std::vector<User> users;
  double momentum = 6.5;
  std::size_t replan_items = 0;
  std::size_t replan_scheduled = 0;

  [[nodiscard]] std::size_t num_users() const noexcept override { return users.size(); }
  [[nodiscard]] bool user_ready(std::size_t i) const override { return users[i].ready; }
  [[nodiscard]] bool user_present(std::size_t i, sim::Slot) const override {
    return users[i].present;
  }
  [[nodiscard]] std::size_t barrier_count() const noexcept override { return 0; }
  [[nodiscard]] std::size_t active_present_count() const noexcept override {
    return users.size();
  }
  [[nodiscard]] const device::DeviceProfile& user_device(std::size_t i) const override {
    return *users[i].in.dev;
  }
  [[nodiscard]] std::optional<device::AppKind> user_app(std::size_t) override {
    return std::nullopt;
  }
  [[nodiscard]] double user_gap(std::size_t i) const override {
    return users[i].in.current_gap;
  }
  [[nodiscard]] double momentum_norm() const override { return momentum; }
  [[nodiscard]] sim::Slot user_leave_slot(std::size_t i) const override {
    return users[i].in.leave_slot;
  }
  [[nodiscard]] double user_priority(std::size_t i) const override {
    return users[i].in.priority;
  }
  [[nodiscard]] sim::Slot training_end_slot(std::size_t, device::AppStatus,
                                            device::AppKind, sim::Slot t) const override {
    return t;
  }
  [[nodiscard]] double lag_count_at(sim::Slot) const override { return 0.0; }
  [[nodiscard]] std::optional<apps::ArrivalEvent> next_arrival_between(
      std::size_t i, sim::Slot from, sim::Slot until) override {
    const OfflineUserInput& in = users[i].in;
    if (in.next_arrival && *in.next_arrival >= from && *in.next_arrival < until) {
      return apps::ArrivalEvent{*in.next_arrival, in.arrival_app};
    }
    return std::nullopt;
  }
  void aggregate_round(sim::Slot) override {}
  void note_replan(sim::Slot, std::size_t items, std::size_t scheduled) override {
    replan_items = items;
    replan_scheduled = scheduled;
  }
};

TEST(PlannerDifferential, SchedulerReplanMatchesTheAdapter) {
  // The scheduler gathers straight from the context into the planning
  // core; its cached plans must be the adapter's plans over the inputs the
  // ready, present users would have handed it, and the users left out
  // must keep their previous plan.
  util::Rng rng{8088};
  ExperimentConfig config;
  config.offline_lb = 60.0;
  for (const bool churn : {false, true}) {
    config.offline_churn_aware = churn;
    const OfflinePlannerConfig cfg = make_planner_config(config);
    OfflineScheduler scheduler{config};
    PlanContext ctx;
    ctx.users.resize(1500);
    scheduler.on_experiment_begin(ctx);
    for (const sim::Slot t : {sim::Slot{0}, cfg.window_slots, 3 * cfg.window_slots}) {
      const auto inputs = random_window(rng, ctx.users.size(), t, cfg, true);
      std::vector<OfflineUserInput> ready;
      std::vector<std::size_t> ids;
      std::vector<std::pair<device::Decision, sim::Slot>> left_out;
      for (std::size_t i = 0; i < ctx.users.size(); ++i) {
        ctx.users[i].in = inputs[i];
        ctx.users[i].ready = !rng.bernoulli(0.1);
        ctx.users[i].present = !rng.bernoulli(0.1);
        if (ctx.users[i].ready && ctx.users[i].present) {
          ready.push_back(inputs[i]);
          ids.push_back(i);
        }
      }
      for (std::size_t i = 0; i < ctx.users.size(); ++i) {
        left_out.emplace_back(scheduler.decide(i, t, ctx),
                              scheduler.ready_parked_until(i, t));
      }
      scheduler.on_slot_begin(t + 1, ctx);  // not a boundary: no replan
      scheduler.on_slot_begin(t, ctx);
      const OfflineWindowPlan want = OfflinePlanner{cfg}.plan(t, ready);
      ASSERT_EQ(ctx.replan_items, ids.size());
      std::size_t scheduled = 0;
      std::size_t k = 0;
      for (std::size_t i = 0; i < ctx.users.size(); ++i) {
        const device::Decision decision = scheduler.decide(i, t, ctx);
        const sim::Slot parked = scheduler.ready_parked_until(i, t);
        if (k == ids.size() || ids[k] != i) {
          ASSERT_EQ(decision, left_out[i].first) << "t " << t << " user " << i;
          ASSERT_EQ(parked, left_out[i].second) << "t " << t << " user " << i;
          continue;
        }
        const OfflineUserPlan& plan = want.plans[k++];
        scheduled += plan.action != OfflineAction::kDefer;
        const bool now = plan.action != OfflineAction::kDefer && plan.start_slot <= t;
        ASSERT_EQ(decision, now ? device::Decision::kSchedule : device::Decision::kIdle)
            << "t " << t << " user " << i;
        const sim::Slot boundary = t + cfg.window_slots;
        ASSERT_EQ(parked, plan.action != OfflineAction::kDefer && plan.start_slot > t
                              ? std::min(boundary, plan.start_slot)
                              : boundary)
            << "t " << t << " user " << i;
      }
      EXPECT_EQ(ctx.replan_scheduled, scheduled);
    }
  }
}

}  // namespace
}  // namespace fedco::core
