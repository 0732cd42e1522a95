// Lyapunov queues (Eqs. 15-17), the online decision rule (Eqs. 21-23), and
// the drift bound of Lemma 2.
#include <gtest/gtest.h>

#include <cmath>

#include "core/online_scheduler.hpp"
#include "core/queues.hpp"
#include "device/profiles.hpp"
#include "util/rng.hpp"

namespace fedco::core {
namespace {

using device::AppKind;
using device::AppStatus;
using device::Decision;

// ----------------------------------------------------------------- queues

TEST(LyapunovQueues, Equation15And16) {
  LyapunovQueues q{10.0};  // Lb = 10
  q.step(3.0, 0.0, 0.0);   // A=3
  EXPECT_DOUBLE_EQ(q.q(), 3.0);
  EXPECT_DOUBLE_EQ(q.h(), 0.0);  // G=0 < Lb
  q.step(2.0, 1.0, 25.0);        // Q: max(3-1,0)+2=4 ; H: max(0+25-10,0)=15
  EXPECT_DOUBLE_EQ(q.q(), 4.0);
  EXPECT_DOUBLE_EQ(q.h(), 15.0);
  q.step(0.0, 10.0, 0.0);        // Q clamps at 0 ; H: max(15-10,0)=5
  EXPECT_DOUBLE_EQ(q.q(), 0.0);
  EXPECT_DOUBLE_EQ(q.h(), 5.0);
}

TEST(LyapunovQueues, LyapunovFunctionAndDrift) {
  LyapunovQueues q{0.0};
  EXPECT_DOUBLE_EQ(q.lyapunov(), 0.0);
  q.step(3.0, 0.0, 4.0);  // Q=3, H=4 -> L = (9+16)/2
  EXPECT_DOUBLE_EQ(q.lyapunov(), 12.5);
  EXPECT_DOUBLE_EQ(q.last_drift(), 12.5);
  q.step(0.0, 3.0, 0.0);  // Q=0, H=4 -> L = 8
  EXPECT_DOUBLE_EQ(q.last_drift(), 8.0 - 12.5);
  q.reset();
  EXPECT_DOUBLE_EQ(q.q(), 0.0);
  EXPECT_DOUBLE_EQ(q.h(), 0.0);
}

TEST(DriftBound, Lemma2Constant) {
  EXPECT_DOUBLE_EQ(drift_bound_b(1.0, 2.0, 3.0, 4.0),
                   0.5 * (1.0 + 4.0 + 9.0 + 16.0));
}

// --------------------------------------------------------- decision rule

OnlineSchedulerConfig base_config() {
  OnlineSchedulerConfig cfg;
  cfg.V = 100.0;
  cfg.lb = 10.0;
  cfg.epsilon = 0.05;
  cfg.eta = 0.05;
  cfg.beta = 0.9;
  return cfg;
}

TEST(OnlineDecision, EmptyQueuesMeanIdle) {
  // Sec. V-B: with Q = H = 0 only the V*P term remains and P_idle < P_sched,
  // so the controller waits for co-running opportunities.
  OnlineScheduler sched{base_config()};
  OnlineDecisionInput input;
  input.app_status = AppStatus::kNoApp;
  const auto out = sched.decide(device::canonical_profile(), input);
  EXPECT_EQ(out.decision, Decision::kIdle);
  EXPECT_GT(out.cost_schedule, out.cost_idle);
}

TEST(OnlineDecision, Equation22ThresholdNoApp) {
  // No staleness backlog (H=0): schedule exactly when
  // Q >= V*td*(P_b - P_d) (Sec. V-B).
  const auto& dev = device::canonical_profile();
  OnlineSchedulerConfig cfg = base_config();
  OnlineScheduler sched{cfg};
  const double threshold =
      cfg.V * cfg.slot_seconds * (dev.train_power_w - dev.idle_power_w);
  // Push Q just below the threshold.
  sched.update_queues(threshold - 1.0, 0.0, 0.0);
  OnlineDecisionInput input;
  EXPECT_EQ(sched.decide(dev, input).decision, Decision::kIdle);
  // And past it.
  sched.update_queues(2.0, 0.0, 0.0);
  EXPECT_EQ(sched.decide(dev, input).decision, Decision::kSchedule);
}

TEST(OnlineDecision, Equation22ThresholdWithApp) {
  // With an app in the foreground the threshold uses P_a' - P_a, which is
  // much smaller — co-running becomes attractive at small Q.
  const auto& dev = device::canonical_profile();
  OnlineSchedulerConfig cfg = base_config();
  OnlineScheduler sched{cfg};
  OnlineDecisionInput input;
  input.app_status = AppStatus::kApp;
  input.app = AppKind::kMap;
  const auto& entry = dev.app(AppKind::kMap);
  const double threshold =
      cfg.V * cfg.slot_seconds * (entry.corun_power_w - entry.app_power_w);
  sched.update_queues(threshold + 1.0, 0.0, 0.0);
  EXPECT_EQ(sched.decide(dev, input).decision, Decision::kSchedule);
  // The co-run threshold is below the background-training threshold.
  EXPECT_LT(threshold,
            cfg.V * cfg.slot_seconds * (dev.train_power_w - dev.idle_power_w));
}

TEST(OnlineDecision, StalenessBacklogForcesScheduling) {
  // Eq. (23): with H large and an accumulated idle gap exceeding the
  // post-schedule gap, scheduling clears staleness and wins even at Q = 0.
  const auto& dev = device::canonical_profile();
  OnlineScheduler sched{base_config()};
  // Build a big virtual queue: G >> Lb for several slots.
  for (int i = 0; i < 50; ++i) sched.update_queues(0.0, 0.0, 100.0);
  ASSERT_GT(sched.queues().h(), 1000.0);
  OnlineDecisionInput input;
  input.current_gap = 50.0;    // long-idled user
  input.expected_lag = 1.0;
  input.momentum_norm = 1.0;   // post-schedule gap = eta * 1 * 1 = 0.05
  const auto out = sched.decide(dev, input);
  EXPECT_EQ(out.decision, Decision::kSchedule);
  EXPECT_LT(out.gap_if_scheduled, input.current_gap);
}

TEST(OnlineDecision, LargerVFavorsIdle) {
  const auto& dev = device::canonical_profile();
  OnlineDecisionInput input;
  input.current_gap = 5.0;
  input.expected_lag = 2.0;
  input.momentum_norm = 10.0;

  OnlineSchedulerConfig lo = base_config();
  lo.V = 1.0;
  OnlineSchedulerConfig hi = base_config();
  hi.V = 1e7;

  OnlineScheduler cheap{lo};
  OnlineScheduler costly{hi};
  // Same moderate queue state for both.
  cheap.update_queues(10.0, 0.0, 50.0);
  costly.update_queues(10.0, 0.0, 50.0);

  EXPECT_EQ(cheap.decide(dev, input).decision, Decision::kSchedule);
  EXPECT_EQ(costly.decide(dev, input).decision, Decision::kIdle);
}

TEST(OnlineDecision, VZeroSchedulesWheneverQueued) {
  // V = 0 removes the energy term: any queue backlog triggers service.
  OnlineSchedulerConfig cfg = base_config();
  cfg.V = 0.0;
  OnlineScheduler sched{cfg};
  sched.update_queues(1.0, 0.0, 0.0);
  OnlineDecisionInput input;
  EXPECT_EQ(sched.decide(device::canonical_profile(), input).decision,
            Decision::kSchedule);
}

/// Property sweep: the decision must be consistent with its own reported
/// costs for random states, and costs must be finite.
class OnlineDecisionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OnlineDecisionProperty, DecisionMatchesCostComparison) {
  util::Rng rng{GetParam()};
  OnlineSchedulerConfig cfg = base_config();
  cfg.V = rng.uniform(0.0, 1e5);
  OnlineScheduler sched{cfg};
  for (int step = 0; step < 200; ++step) {
    sched.update_queues(rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0),
                        rng.uniform(0.0, 50.0));
    OnlineDecisionInput input;
    input.app_status = rng.bernoulli(0.5) ? AppStatus::kApp : AppStatus::kNoApp;
    input.app = static_cast<AppKind>(rng.uniform_int(device::kAppKinds));
    input.current_gap = rng.uniform(0.0, 30.0);
    input.expected_lag = rng.uniform(0.0, 24.0);
    input.momentum_norm = rng.uniform(0.0, 20.0);
    const auto& dev = device::profile(
        static_cast<device::DeviceKind>(rng.uniform_int(device::kDeviceKinds)));
    const auto out = sched.decide(dev, input);
    EXPECT_TRUE(std::isfinite(out.cost_schedule));
    EXPECT_TRUE(std::isfinite(out.cost_idle));
    if (out.decision == Decision::kSchedule) {
      EXPECT_LE(out.cost_schedule, out.cost_idle);
    } else {
      EXPECT_GT(out.cost_schedule, out.cost_idle);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineDecisionProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace fedco::core
