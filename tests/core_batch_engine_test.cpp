// Batched hot-path engine parity: the batched online decide is
// bit-identical to the per-user decide() loop (a scheduler-level
// differential test over randomized rows), and its idle screen never
// claims an idle the scalar Eq. (21) rule would not make. The incremental
// offline replan's equivalence to a cold solve is a solver-level property
// in core_knapsack_test. See docs/algorithms.md for the map of which test
// guards which hot-path algorithm.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/gap_accrual.hpp"
#include "core/online_scheduler.hpp"
#include "core/scheduler.hpp"
#include "core/schedulers/online.hpp"
#include "device/power_model.hpp"
#include "device/profiles.hpp"
#include "util/rng.hpp"

namespace fedco::core {
namespace {

// ---------------------------------------------------------------------------
// Batched decide == the per-user decide() loop, at the scheduler level.
// ---------------------------------------------------------------------------

/// A driver stand-in serving randomized ready users: each has a device, an
/// app column, a gap (the folded-gap copy its row carries), a leave slot
/// and a priority weight. The lag answer counts the in-flight sessions of
/// a table that every schedule() extends by the session it starts, so a
/// pass that evaluated a row before applying an earlier schedule would
/// read a stale lag.
class RowContext final : public SchedulerContext {
 public:
  struct User {
    device::DeviceKind device = device::DeviceKind::kPixel2;
    std::uint8_t app = device::kAppKinds;  ///< AppKind, or kAppKinds: none
    double gap_base = 0.0;
    std::int32_t gap_anchor = 0;
    sim::Slot leave = scenario::kNeverLeaves;
    double priority = 1.0;
  };

  RowContext(const ExperimentConfig& config, std::vector<User> users)
      : config_(config), users_(std::move(users)) {}

  // The slot state each twin reads: the slot being decided (user_gap
  // reads slot - 1), ||v_t|| and the in-flight sessions' end slots.
  sim::Slot slot = 0;
  double momentum = 1.0;
  std::vector<sim::Slot> training_ends;

  [[nodiscard]] ReadyRow row(std::uint32_t user) const {
    const User& u = users_[user];
    return ReadyRow{u.gap_base, u.gap_anchor, user, 0,
                    static_cast<std::uint8_t>(u.device), u.app};
  }
  /// The session end a schedule of `user` at slot t adds to the table.
  [[nodiscard]] sim::Slot end_of(std::uint32_t user, sim::Slot t) const {
    const std::uint8_t app = users_[user].app;
    return app < device::kAppKinds
               ? training_end_slot(user, device::AppStatus::kApp,
                                   static_cast<device::AppKind>(app), t)
               : training_end_slot(user, device::AppStatus::kNoApp,
                                   device::AppKind::kMap, t);
  }

  [[nodiscard]] std::size_t num_users() const noexcept override {
    return users_.size();
  }
  [[nodiscard]] bool user_ready(std::size_t) const override { return true; }
  [[nodiscard]] bool user_present(std::size_t, sim::Slot) const override {
    return true;
  }
  [[nodiscard]] std::size_t barrier_count() const noexcept override {
    return 0;
  }
  [[nodiscard]] std::size_t active_present_count() const noexcept override {
    return users_.size();
  }
  [[nodiscard]] const device::DeviceProfile& user_device(
      std::size_t user) const override {
    return device::profile(users_[user].device);
  }
  [[nodiscard]] std::optional<device::AppKind> user_app(
      std::size_t user) override {
    const std::uint8_t app = users_[user].app;
    if (app == device::kAppKinds) return std::nullopt;
    return static_cast<device::AppKind>(app);
  }
  [[nodiscard]] double user_gap(std::size_t user) const override {
    const User& u = users_[user];
    return folded_gap(u.gap_base, u.gap_anchor, slot - 1, config_.epsilon);
  }
  [[nodiscard]] double momentum_norm() const override { return momentum; }
  [[nodiscard]] sim::Slot user_leave_slot(std::size_t user) const override {
    return users_[user].leave;
  }
  [[nodiscard]] double user_priority(std::size_t user) const override {
    return users_[user].priority;
  }
  [[nodiscard]] sim::Slot training_end_slot(std::size_t user,
                                            device::AppStatus status,
                                            device::AppKind app,
                                            sim::Slot t) const override {
    return t + static_cast<sim::Slot>(std::ceil(device::training_duration_s(
                   user_device(user), status, app)));
  }
  [[nodiscard]] double lag_count_at(sim::Slot end_slot) const override {
    return static_cast<double>(
        std::count_if(training_ends.begin(), training_ends.end(),
                      [&](sim::Slot e) { return e <= end_slot; }));
  }
  [[nodiscard]] std::optional<apps::ArrivalEvent>
  next_arrival_between(std::size_t, sim::Slot, sim::Slot) override {
    return std::nullopt;
  }
  void aggregate_round(sim::Slot) override {}

 private:
  ExperimentConfig config_;
  std::vector<User> users_;
};

/// One row's reported outcome: scheduled, or idle parked until `until`.
struct Outcome {
  std::size_t row = 0;
  bool scheduled = false;
  sim::Slot until = 0;
  bool operator==(const Outcome&) const = default;
};

/// Records every schedule and idle call, one Outcome per row, and applies
/// each schedule to its context before the next row is evaluated.
class RecordingSink final : public Scheduler::DecisionSink {
 public:
  RecordingSink(RowContext& ctx, const std::vector<ReadyRow>& rows)
      : ctx_(ctx), rows_(rows) {}
  void schedule(std::size_t k) override {
    outcomes.push_back({k, true, 0});
    ctx_.training_ends.push_back(ctx_.end_of(rows_[k].user, ctx_.slot));
  }
  void idle(std::size_t from, std::size_t to, sim::Slot until) override {
    EXPECT_LT(from, to);
    for (std::size_t k = from; k < to; ++k) {
      outcomes.push_back({k, false, until});
    }
  }
  std::vector<Outcome> outcomes;

 private:
  RowContext& ctx_;
  const std::vector<ReadyRow>& rows_;
};

TEST(BatchEngine, BatchedDecideMatchesTheScalarLoop) {
  // decide_batch's contract is strict sequential equivalence with the
  // per-user decide() loop, which Scheduler::decide_batch runs. A twin
  // scheduler runs that loop (the qualified base call) over the same rows,
  // queues and lag table; every row's outcome, its parking slot and the
  // order of the reports must agree. Random V, Lb, epsilon, eta, beta,
  // momentum and Q/H (through on_slot_end), with and without VIP weights
  // and churn awareness, at decision intervals 1 and 5.
  util::Rng rng{20261019};
  constexpr double kBetas[] = {0.5, 0.9, 0.95, 0.99};
  std::size_t scheduled = 0;
  std::size_t idled = 0;
  for (int trial = 0; trial < 24; ++trial) {
    for (const sim::Slot interval : {sim::Slot{1}, sim::Slot{5}}) {
      for (const bool churn : {false, true}) {
        for (const bool vip : {false, true}) {
          ExperimentConfig cfg;
          cfg.V = rng.uniform(0.0, 8000.0);
          cfg.lb = rng.uniform(1.0, 200.0);
          cfg.epsilon = rng.uniform(0.001, 0.5);
          cfg.eta = rng.uniform(0.001, 0.2);
          cfg.beta = kBetas[rng.uniform_int(std::uint64_t{4})];
          cfg.decision_interval_slots = interval;
          cfg.online_churn_aware = churn;
          constexpr sim::Slot kStart = 1000;
          std::vector<RowContext::User> users(200);
          for (RowContext::User& u : users) {
            u.device = static_cast<device::DeviceKind>(
                rng.uniform_int(std::uint64_t{device::kDeviceKinds}));
            u.app = static_cast<std::uint8_t>(
                rng.uniform_int(std::uint64_t{device::kAppKinds + 1}));
            u.gap_anchor = static_cast<std::int32_t>(
                kStart - rng.uniform_int(std::int64_t{1}, 400));
            u.gap_base = rng.uniform(0.0, 30.0);
            if (rng.uniform() < 0.5) {
              u.leave = kStart + rng.uniform_int(std::int64_t{0}, 1500);
            }
            if (vip && rng.uniform() < 0.3) u.priority = rng.uniform(0.0, 6.0);
          }
          RowContext batch_ctx{cfg, users};
          for (int e = 0; e < 40; ++e) {
            batch_ctx.training_ends.push_back(
                kStart + rng.uniform_int(std::int64_t{0}, 1200));
          }
          RowContext loop_ctx = batch_ctx;
          OnlineLyapunovScheduler batch{cfg};
          OnlineLyapunovScheduler twin{cfg};
          batch.on_experiment_begin(batch_ctx);
          twin.on_experiment_begin(loop_ctx);
          for (sim::Slot t = kStart; t < kStart + 12; ++t) {
            // A random due subset, strictly ascending, one row per user.
            std::vector<ReadyRow> rows;
            for (std::uint32_t i = 0; i < users.size(); ++i) {
              if (rng.uniform() < 0.4) rows.push_back(batch_ctx.row(i));
            }
            const double momentum = rng.uniform(0.0, 20.0);
            for (RowContext* ctx : {&batch_ctx, &loop_ctx}) {
              ctx->slot = t;
              ctx->momentum = momentum;
            }
            batch.on_slot_begin(t, batch_ctx);
            twin.on_slot_begin(t, loop_ctx);
            RecordingSink batch_sink{batch_ctx, rows};
            RecordingSink loop_sink{loop_ctx, rows};
            batch.decide_batch(rows.data(), rows.size(), t, batch_ctx,
                               batch_sink);
            twin.Scheduler::decide_batch(rows.data(), rows.size(), t,
                                         loop_ctx, loop_sink);
            ASSERT_EQ(batch_sink.outcomes.size(), rows.size());
            for (std::size_t k = 0; k < rows.size(); ++k) {
              ASSERT_EQ(batch_sink.outcomes[k].row, k);
            }
            ASSERT_EQ(batch_sink.outcomes, loop_sink.outcomes)
                << "trial " << trial << " interval " << interval
                << " churn " << churn << " vip " << vip << " slot " << t;
            ASSERT_EQ(batch_ctx.training_ends, loop_ctx.training_ends);
            for (const Outcome& o : batch_sink.outcomes) {
              ++(o.scheduled ? scheduled : idled);
            }
            // The Eq. (15)/(16) queue step: A(t), b(t) and G(t) push Q
            // and H around Lb, so H weighs the gap in some slots only.
            const double arrivals = rng.uniform(0.0, 30.0);
            const double served = rng.uniform(0.0, 20.0);
            const double sum_gaps = rng.uniform(0.0, 3.0 * cfg.lb);
            batch.on_slot_end(arrivals, served, sum_gaps);
            twin.on_slot_end(arrivals, served, sum_gaps);
          }
        }
      }
    }
  }
  // Both outcomes occur often, or the comparison is vacuous.
  EXPECT_GT(scheduled, 1000u);
  EXPECT_GT(idled, 1000u);
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
