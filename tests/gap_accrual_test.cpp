// Unit tests for the driver's Eq. (12) gap engine (src/core/gap_accrual.hpp):
// the folded-accrual accumulators, checked against a per-slot sweep oracle
// (every accruing gap += epsilon, then an index-order sum) over a long
// random sequence of Eq. (12) class transitions; a driver run whose gaps
// are known in closed form across absences and rejoins; and a
// record-cadence battery checking that gap reads leave every outcome
// untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "core/gap_accrual.hpp"
#include "scenario/spec.hpp"
#include "util/rng.hpp"

namespace fedco::core {
namespace {

constexpr double kEps = 0.05;

TEST(FoldedGapAccrual, SumIsTheSumOfClosedForms) {
  FoldedGapAccrual fold;
  fold.init(4, kEps);
  EXPECT_EQ(fold.sum(0), 0.0);
  EXPECT_EQ(fold.accruing(), 0);

  // Two accruing users attached at different slots with different bases,
  // one frozen (training) contribution, one absent user.
  fold.attach_accrue(0, 0.0, 1);
  fold.attach_accrue(1, 1.25, 10);
  fold.attach_frozen(2, 3.5);
  EXPECT_EQ(fold.accruing(), 2);

  for (const std::int64_t t : {10, 11, 500, 100000}) {
    const double manual = fold.eval(0, t) + fold.eval(1, t) + 3.5;
    EXPECT_DOUBLE_EQ(fold.sum(t), manual) << "slot " << t;
  }
  // attach_accrue(i, base, t) means: first accrued slot is t, so the
  // value at the end of slot t is base + epsilon.
  EXPECT_DOUBLE_EQ(fold.eval(0, 1), kEps);
  EXPECT_DOUBLE_EQ(fold.eval(1, 10), 1.25 + kEps);

  // Detaching removes exactly what was attached: the accumulators return
  // to the frozen-only contribution, then to zero.
  fold.detach_accrue(0);
  fold.detach_accrue(1);
  EXPECT_EQ(fold.accruing(), 0);
  EXPECT_DOUBLE_EQ(fold.sum(1234), 3.5);
  fold.detach_frozen(2);
  EXPECT_DOUBLE_EQ(fold.sum(1234), 0.0);
}

TEST(FoldedGapAccrual, ReattachAfterResetRestartsTheClosedForm) {
  FoldedGapAccrual fold;
  fold.init(1, kEps);
  fold.attach_accrue(0, 0.0, 1);
  const double before = fold.eval(0, 100);
  // Update reset: detach, re-attach from zero at a later slot.
  fold.detach_accrue(0);
  fold.attach_accrue(0, 0.0, 101);
  EXPECT_DOUBLE_EQ(fold.eval(0, 101), kEps);
  EXPECT_LT(fold.eval(0, 150), before);
  EXPECT_DOUBLE_EQ(fold.sum(150), fold.eval(0, 150));
}

enum class Mode { kAbsent, kTraining, kAccrue };

/// The per-slot gap sweep the driver ran before the folded engine became
/// its only path, kept as the Eq. (12) oracle: every accruing user adds
/// epsilon, then G(t) sums every present user's gap in user-index order.
struct SweepOracle {
  std::vector<double> gap;
  std::vector<Mode> mode;

  double slot(double epsilon) {
    double sum = 0.0;
    for (std::size_t i = 0; i < gap.size(); ++i) {
      if (mode[i] == Mode::kAbsent) continue;
      if (mode[i] == Mode::kAccrue) gap[i] += epsilon;
      sum += gap[i];
    }
    return sum;
  }
};

// The folded engine against the sweep oracle on a seeded random sequence of
// every Eq. (12) class transition the driver makes — training freeze, zero
// reset after an applied update, non-zero base after a dropped upload,
// leave and rejoin — over more than 2^16 slots, with transition rates from
// every few dozen slots to never (a chain accruing the whole run). The
// fold side mirrors the driver's set_mode: a departing user's value is
// pinned from the closed form, and an accrue attachment starts from the
// value the driver's gap column holds.
TEST(FoldedGapAccrual, MatchesThePerSlotSweepOracle) {
  constexpr std::size_t kUsers = 200;
  constexpr std::int64_t kSlots = 70'000;
  constexpr double kTolerance = 1e-6;
  util::Rng rng{2024};

  SweepOracle sweep;
  sweep.gap.assign(kUsers, 0.0);
  sweep.mode.assign(kUsers, Mode::kAbsent);
  FoldedGapAccrual fold;
  fold.init(kUsers, kEps);
  std::vector<double> column(kUsers, 0.0);  // the driver's gap column
  std::vector<double> rate(kUsers);
  const double rates[] = {1.0 / 40, 1.0 / 400, 1.0 / 4000, 1.0 / 40000};
  for (std::size_t i = 0; i < kUsers; ++i) {
    rate[i] = i % 50 == 1 ? 0.0 : rates[i % 4];
    if (i % 5 != 0) {  // every fifth user joins later
      sweep.mode[i] = Mode::kAccrue;
      fold.attach_accrue(i, 0.0, 0);
    }
  }

  std::int64_t freezes = 0, resets = 0, drops = 0, leaves = 0, joins = 0;
  double max_drift = 0.0;
  for (std::int64_t t = 0; t < kSlots; ++t) {
    // Transitions land before slot t accrues, as driver events do.
    for (std::size_t i = 0; i < kUsers; ++i) {
      if (rate[i] == 0.0 || !rng.bernoulli(rate[i])) continue;
      const bool coin = rng.bernoulli(0.5);
      switch (sweep.mode[i]) {
        case Mode::kAccrue:
          if (coin) {  // training freeze at a fresh gradient gap
            const double frozen = rng.uniform(0.0, 5.0);
            fold.detach_accrue(i);
            fold.attach_frozen(i, frozen);
            column[i] = frozen;
            sweep.gap[i] = frozen;
            sweep.mode[i] = Mode::kTraining;
            ++freezes;
          } else {  // leave: pin the departing value
            column[i] = fold.eval(i, t - 1);
            ASSERT_NEAR(column[i], sweep.gap[i], kTolerance) << "user " << i;
            fold.detach_accrue(i);
            sweep.mode[i] = Mode::kAbsent;
            ++leaves;
          }
          break;
        case Mode::kTraining:
          fold.detach_frozen(i);
          if (coin) {  // applied update: accrue again from zero
            column[i] = 0.0;
            sweep.gap[i] = 0.0;
            ++resets;
          } else {  // dropped upload: the frozen gap keeps accruing
            ++drops;
          }
          fold.attach_accrue(i, column[i], t);
          sweep.mode[i] = Mode::kAccrue;
          break;
        case Mode::kAbsent:  // rejoin from the pinned value
          fold.attach_accrue(i, column[i], t);
          sweep.mode[i] = Mode::kAccrue;
          ++joins;
          break;
      }
    }
    const double want = sweep.slot(kEps);
    const double got = fold.sum(t);
    ASSERT_NEAR(got, want, kTolerance) << "G at slot " << t;
    max_drift = std::max(max_drift, std::abs(got - want));
    for (std::size_t i = 0; i < kUsers; ++i) {
      if (sweep.mode[i] != Mode::kAccrue) continue;
      ASSERT_NEAR(fold.eval(i, t), sweep.gap[i], kTolerance)
          << "user " << i << " at slot " << t;
    }
  }
  // Every transition kind occurred many times, and the run crossed 2^16
  // slots with chains that never reset.
  EXPECT_GT(freezes, 1000);
  EXPECT_GT(resets, 1000);
  EXPECT_GT(drops, 1000);
  EXPECT_GT(leaves, 1000);
  EXPECT_GT(joins, 1000);
  EXPECT_GT(sweep.gap[1], kEps * 65'536);
  // The engines differ by association order only: non-zero, far below the
  // tolerance.
  EXPECT_GT(max_drift, 0.0);
  EXPECT_LT(max_drift, kTolerance / 10);
}

// Eq. (12) through the driver on multi-window presence: with training
// gated off (state of charge held below the gate), a user's gap at the end
// of slot t is epsilon times its present slots through t — it must hold
// its value across every absence and resume from it on rejoin — and G(t)
// is the sum over present users.
TEST(FoldedGapDriver, AbsentUsersKeepTheirGapUntilTheyRejoin) {
  scenario::ScenarioSpec spec;
  spec.num_users = 20;
  spec.horizon_slots = 3000;
  spec.arrival.mean_probability = 0.004;
  spec.churn.churn_fraction = 0.3;
  spec.churn.min_presence = 0.3;
  spec.churn.max_presence = 0.8;
  spec.faults.commute.fraction = 0.7;
  spec.faults.commute.period_slots = 400;
  spec.faults.commute.on_slots = 250;
  ExperimentConfig base;
  base.scheduler = SchedulerKind::kImmediate;
  base.seed = 11;
  base.track_battery = true;
  base.battery.initial_soc = 0.99;
  base.min_soc_to_train = 1.0;  // never reached: every ready slot is gated
  base.record_interval = 1;
  base.record_per_user_gaps = true;
  const ExperimentConfig cfg = apply_scenario_arena(spec, base);
  const ExperimentResult r = run_experiment(cfg);
  ASSERT_EQ(r.total_updates, 0u);
  ASSERT_GT(r.summary.joins, 0u);

  const auto* g_trace = r.traces.find("G");
  ASSERT_NE(g_trace, nullptr);
  std::vector<double> want_g(static_cast<std::size_t>(cfg.horizon_slots), 0.0);
  std::size_t rejoins = 0;
  for (std::size_t u = 0; u < cfg.num_users; ++u) {
    const scenario::PerUserConfig pu = cfg.fleet->user(u);
    std::vector<scenario::PresenceWindow> windows{{pu.join_slot, pu.leave_slot}};
    windows.insert(windows.end(), pu.extra_windows.begin(),
                   pu.extra_windows.end());
    rejoins += windows.size() - 1;
    const auto* trace = r.traces.find("gap_user" + std::to_string(u));
    ASSERT_NE(trace, nullptr);
    double gap = 0.0;
    for (sim::Slot t = 0; t < cfg.horizon_slots; ++t) {
      const bool present =
          std::any_of(windows.begin(), windows.end(),
                      [t](const scenario::PresenceWindow& w) {
                        return t >= w.join && t < w.leave;
                      });
      if (present) {
        gap += kEps;
        want_g[static_cast<std::size_t>(t)] += gap;
      }
      ASSERT_NEAR(trace->value_at(static_cast<std::size_t>(t)), gap, 1e-9)
          << "user " << u << " at slot " << t;
    }
  }
  EXPECT_GT(rejoins, cfg.num_users / 2);
  for (std::size_t t = 0; t < want_g.size(); ++t) {
    ASSERT_NEAR(g_trace->value_at(t), want_g[t], 1e-6) << "G at slot " << t;
  }
}

// The folded engine answers every gap read (replans, G(t), per-user traces)
// in closed form, so how often the run records must not move a single
// outcome. Churn (absent spans and re-joins) and dropped uploads (non-zero
// accrual bases) make every class transition occur; the sync barrier's
// reliable uploads never drop.
class RecordCadence : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(RecordCadence, OutcomesDoNotDependOnTheRecordInterval) {
  scenario::ScenarioSpec spec;
  spec.num_users = 40;
  spec.horizon_slots = 2400;
  spec.arrival.mean_probability = 0.004;
  spec.churn.churn_fraction = 0.5;
  spec.churn.min_presence = 0.25;
  spec.churn.max_presence = 0.75;
  ExperimentConfig base;
  base.scheduler = GetParam();
  base.seed = 5;
  base.upload_drop_probability = 0.3;
  base.offline_window_slots = 150;
  base.record_per_user_gaps = true;
  ExperimentConfig cfg = apply_scenario_arena(spec, base);

  cfg.record_interval = 1;  // every slot: the reference G(t) and gap traces
  const ExperimentResult ref = run_experiment(cfg);
  ASSERT_GT(ref.total_updates, 0u);
  ASSERT_GT(ref.summary.leaves, 0u);
  if (GetParam() != SchedulerKind::kSyncSgd) {
    ASSERT_GT(ref.dropped_updates, 0u);
  }
  for (const sim::Slot interval : {7, 10}) {
    SCOPED_TRACE("record_interval " + std::to_string(interval));
    cfg.record_interval = interval;
    const ExperimentResult r = run_experiment(cfg);
    EXPECT_EQ(r.total_energy_j, ref.total_energy_j);
    EXPECT_EQ(r.training_j, ref.training_j);
    EXPECT_EQ(r.corun_j, ref.corun_j);
    EXPECT_EQ(r.app_j, ref.app_j);
    EXPECT_EQ(r.idle_j, ref.idle_j);
    EXPECT_EQ(r.network_j, ref.network_j);
    EXPECT_EQ(r.total_updates, ref.total_updates);
    EXPECT_EQ(r.dropped_updates, ref.dropped_updates);
    EXPECT_EQ(r.corun_sessions, ref.corun_sessions);
    EXPECT_EQ(r.separate_sessions, ref.separate_sessions);
    EXPECT_EQ(r.avg_lag, ref.avg_lag);
    EXPECT_EQ(r.avg_gap, ref.avg_gap);
    EXPECT_EQ(r.avg_queue_h, ref.avg_queue_h);
    EXPECT_EQ(r.summary.decisions_scheduled, ref.summary.decisions_scheduled);
    EXPECT_EQ(r.summary.decisions_idle, ref.summary.decisions_idle);
    EXPECT_EQ(r.summary.parks, ref.summary.parks);
    EXPECT_EQ(r.summary.joins, ref.summary.joins);
    EXPECT_EQ(r.summary.leaves, ref.summary.leaves);
    EXPECT_EQ(r.summary.replans, ref.summary.replans);
    ASSERT_EQ(r.lag_gap_samples.size(), ref.lag_gap_samples.size());
    for (std::size_t k = 0; k < r.lag_gap_samples.size(); ++k) {
      const LagGapSample& a = r.lag_gap_samples[k];
      const LagGapSample& b = ref.lag_gap_samples[k];
      ASSERT_TRUE(a.time_s == b.time_s && a.lag == b.lag && a.gap == b.gap &&
                  a.user == b.user)
          << "lag/gap sample " << k;
    }
    // Every record slot of this run is also one of the reference's (slot
    // t is reference sample t): G(t) and each user's gap must agree there.
    std::vector<std::string> series{"G"};
    for (std::size_t u = 0; u < cfg.num_users; ++u) {
      series.push_back("gap_user" + std::to_string(u));
    }
    for (const std::string& name : series) {
      const auto* got = r.traces.find(name);
      const auto* want = ref.traces.find(name);
      ASSERT_NE(got, nullptr) << name;
      ASSERT_NE(want, nullptr) << name;
      ASSERT_EQ(got->size(),
                static_cast<std::size_t>((cfg.horizon_slots - 1) / interval + 1));
      for (std::size_t k = 0; k < got->size(); ++k) {
        const auto t = static_cast<std::size_t>(got->time_at(k));
        ASSERT_EQ(want->time_at(t), got->time_at(k));
        ASSERT_EQ(got->value_at(k), want->value_at(t)) << name << " at " << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, RecordCadence,
                         ::testing::Values(SchedulerKind::kOffline,
                                           SchedulerKind::kImmediate,
                                           SchedulerKind::kSyncSgd,
                                           SchedulerKind::kOnline));

}  // namespace
}  // namespace fedco::core
