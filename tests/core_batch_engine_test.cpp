// Batched hot-path engine parity: the batched online decide is
// bit-identical to the scalar reference path (golden-fingerprint
// cross-checks over the parity scenario grid), and its idle screen never
// claims an idle the scalar Eq. (21) rule would not make. The incremental
// offline replan's equivalence to a cold solve is a solver-level property
// in core_knapsack_test. See docs/algorithms.md for the map of which test
// guards which hot-path algorithm.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/online_scheduler.hpp"
#include "device/power_model.hpp"
#include "device/profiles.hpp"
#include "golden_fingerprint.hpp"
#include "util/rng.hpp"

namespace fedco::core {
namespace {

constexpr SchedulerKind kAllKinds[] = {
    SchedulerKind::kImmediate, SchedulerKind::kSyncSgd, SchedulerKind::kOffline,
    SchedulerKind::kOnline};

TEST(BatchEngine, BatchedDecideMatchesScalarForAllSchemes) {
  // The decide_batch contract is strict sequential equivalence with the
  // per-user decide() loop. Flipping online_batch_decide must not move a
  // single bit of any observable, for any scheme (only the online scheme
  // overrides the hook; the others exercise the base-class fallback).
  for (const auto& scenario : testing::parity_scenarios()) {
    for (const SchedulerKind kind : kAllKinds) {
      ExperimentConfig batched = scenario.config;
      batched.scheduler = kind;
      batched.online_batch_decide = true;
      ExperimentConfig scalar = batched;
      scalar.online_batch_decide = false;
      EXPECT_EQ(testing::fingerprint(run_experiment(batched)),
                testing::fingerprint(run_experiment(scalar)))
          << scenario.name << " / " << scheduler_name(kind);
    }
  }
}

/// One Eq. (21) input set for the idle screen: the device/app class, the
/// queue backlogs (set through the scheduler's own queue step), the
/// momentum norm, the priority/churn h_scale, and the lag window.
struct ScreenCase {
  device::DeviceKind device = device::DeviceKind::kPixel2;
  device::AppStatus status = device::AppStatus::kNoApp;
  device::AppKind app = device::AppKind::kMap;
  double q = 0.0;
  double h = 0.0;
  double momentum = 1.0;
  double h_scale = 1.0;
  double lag_floor = 0.0;
  std::size_t reach = 0;
};

OnlineScheduler make_online(const OnlineSchedulerConfig& config,
                            const ScreenCase& c) {
  OnlineScheduler online{config};
  online.update_queues(c.q, 0.0, c.h + config.lb);
  return online;
}

OnlineDecisionOutcome scalar(const OnlineScheduler& online,
                             const ScreenCase& c, double gap, double lag) {
  OnlineDecisionInput in;
  in.app_status = c.status;
  in.app = c.app;
  in.current_gap = gap;
  in.expected_lag = lag;
  in.momentum_norm = c.momentum;
  in.h_scale = c.h_scale;
  return online.decide(device::profile(c.device), in);
}

/// screen-idle => the scalar decide() idles at every lag in the window;
/// and (inputs are finite) the screen is exactly the decision at the
/// floor lag, so it fires whenever that decision idles.
void expect_screen_exact(const OnlineScheduler& online, const ScreenCase& c,
                         double gap, const std::string& what) {
  const device::DeviceProfile& dev = device::profile(c.device);
  const OnlineScheduler::IdleScreen screen = online.idle_screen(
      device::power_w(dev, device::Decision::kSchedule, c.status, c.app),
      device::power_w(dev, device::Decision::kIdle, c.status, c.app),
      c.lag_floor, c.momentum, online.queues().q());
  const bool screened = online.screened_idle(
      screen, gap, online.queues().h() * c.h_scale, c.reach);
  const bool idle_at_floor =
      scalar(online, c, gap, c.lag_floor).decision == device::Decision::kIdle;
  EXPECT_EQ(screened, idle_at_floor) << what << " gap=" << gap;
  if (!screened) return;
  for (std::size_t step = 0; step <= c.reach; ++step) {
    const double lag = c.lag_floor + static_cast<double>(step);
    EXPECT_EQ(scalar(online, c, gap, lag).decision, device::Decision::kIdle)
        << what << " gap=" << gap << " lag=" << lag;
  }
}

/// The smallest gap the scalar rule schedules at the floor lag (a larger
/// gap only raises the idle cost), by bisection over the ordered bit
/// patterns of non-negative doubles; -1 when no gap in [0, 1e12] flips the
/// decision.
double flip_gap(const OnlineScheduler& online, const ScreenCase& c) {
  const auto schedules = [&](double g) {
    return scalar(online, c, g, c.lag_floor).decision ==
           device::Decision::kSchedule;
  };
  std::uint64_t lo = std::bit_cast<std::uint64_t>(0.0);
  std::uint64_t hi = std::bit_cast<std::uint64_t>(1e12);
  if (schedules(0.0) || !schedules(1e12)) return -1.0;
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (schedules(std::bit_cast<double>(mid)) ? hi : lo) = mid;
  }
  return std::bit_cast<double>(hi);
}

/// Probe one case at the flip (a few ulps either side) and at g = 0.
void probe(const OnlineSchedulerConfig& config, const ScreenCase& c,
           const std::string& what) {
  const OnlineScheduler online = make_online(config, c);
  expect_screen_exact(online, c, 0.0, what + " g=0");
  const double flip = flip_gap(online, c);
  if (flip < 0.0) return;
  double below = flip;
  double above = flip;
  for (int ulp = 0; ulp < 3; ++ulp) {
    expect_screen_exact(online, c, below, what + " below flip");
    expect_screen_exact(online, c, above, what + " above flip");
    below = std::nextafter(below, 0.0);
    above = std::nextafter(above, 1e300);
  }
}

TEST(IdleScreen, ScreenedIdleImpliesScalarIdle) {
  // The batched pass settles a row idle without a lag lookup whenever
  // OnlineScheduler::screened_idle holds at the slot-start lag. Seeded
  // random inputs, plus each flip probed one ulp either side.
  util::Rng rng{20240611};
  constexpr double kBetas[] = {0.5, 0.9, 0.95, 0.99, 0.999};
  for (int trial = 0; trial < 300; ++trial) {
    OnlineSchedulerConfig config;
    config.V = rng.uniform(0.0, 10000.0);
    config.epsilon = rng.uniform(0.001, 0.5);
    config.eta = rng.uniform(0.001, 0.5);
    config.beta = kBetas[rng.uniform_int(std::uint64_t{5})];
    ScreenCase c;
    c.device = static_cast<device::DeviceKind>(
        rng.uniform_int(std::uint64_t{device::kDeviceKinds}));
    const auto column = rng.uniform_int(std::uint64_t{device::kAppKinds + 1});
    if (column < device::kAppKinds) {
      c.status = device::AppStatus::kApp;
      c.app = static_cast<device::AppKind>(column);
    }
    c.q = rng.uniform(0.0, 2000.0);
    c.h = rng.uniform(0.0, 1e5);
    c.momentum = rng.uniform(0.0, 20.0);
    c.h_scale = trial % 3 == 0 ? 1.0 : rng.uniform(0.0, 4.0);
    c.lag_floor = static_cast<double>(rng.uniform_int(std::int64_t{0}, 300));
    c.reach = static_cast<std::size_t>(rng.uniform_int(std::int64_t{0}, 40));
    probe(config, c, "trial " + std::to_string(trial));
    for (int extra = 0; extra < 4; ++extra) {
      const OnlineScheduler online = make_online(config, c);
      expect_screen_exact(online, c, rng.uniform(0.0, 50.0),
                          "trial " + std::to_string(trial) + " random gap");
    }
  }
}

TEST(IdleScreen, EdgeRegimes) {
  const OnlineSchedulerConfig config;  // the paper defaults
  ScreenCase base;
  base.q = 40.0;
  base.h = 3000.0;
  base.momentum = 6.0;
  base.lag_floor = 12.0;
  base.reach = 8;
  ScreenCase no_h = base;  // H = 0: the Eq. (22) branch, gap-blind
  no_h.h = 0.0;
  probe(config, no_h, "H=0");
  ScreenCase busy = base;  // Q >> V*P: every user schedules
  busy.q = 1e9;
  probe(config, busy, "Q>>VP");
  ScreenCase saturated = base;  // 1 - beta^L rounds to 1: amp is constant
  saturated.lag_floor = 5000.0;
  saturated.reach = 64;
  probe(config, saturated, "saturated amp");
  ScreenCase zero_lag = base;  // amp(0) = 0: the floor's gap term vanishes
  zero_lag.lag_floor = 0.0;
  probe(config, zero_lag, "lag 0");
  ScreenCase vip = base;  // priority weight > 1 scales both H terms
  vip.h_scale = 3.0;
  probe(config, vip, "priority");
  ScreenCase churn = base;  // churn-aware remaining-presence fraction
  churn.h_scale = 0.25;
  probe(config, churn, "churn");
  ScreenCase corun = base;
  corun.status = device::AppStatus::kApp;
  corun.app = device::AppKind::kYoutube;
  probe(config, corun, "co-run");
  // A negative weight reverses the monotonicity: the screen stays off.
  const OnlineScheduler online = make_online(config, base);
  const OnlineScheduler::IdleScreen screen =
      online.idle_screen(10.0, 1.0, base.lag_floor, base.momentum, base.q);
  EXPECT_FALSE(online.screened_idle(screen, 0.0, -1.0, 0));
  // Non-integral or out-of-memo floors are never screened.
  EXPECT_FALSE(online.screened_idle(
      online.idle_screen(10.0, 1.0, 2.5, base.momentum, base.q), 0.0, 0.0, 0));
  EXPECT_FALSE(online.screened_idle(
      online.idle_screen(10.0, 1.0, 1e7, base.momentum, base.q), 0.0, 0.0, 0));
}

}  // namespace
}  // namespace fedco::core
