// Unit tests for the gap-accrual components behind the driver's Eq. (12)
// bookkeeping (src/core/gap_accrual.hpp): the shared epsilon-chain prefix
// table with its bounded closed-form tail, and the folded-accrual
// accumulator engine of the opt-in folded_gap_accrual mode. A long-horizon
// driver run exercises both past the chain-table threshold, where the tail
// formula is the only path, and a record-cadence battery checks that the
// lazy chain's gap reads leave every outcome untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "core/gap_accrual.hpp"
#include "scenario/spec.hpp"

namespace fedco::core {
namespace {

constexpr double kEps = 0.05;

TEST(EpsChainTable, BitIdenticalToSequentialAdditionsBelowThreshold) {
  EpsChainTable table{kEps};
  EXPECT_EQ(table.value(0), 0.0);
  // value(k) must reproduce the exact addition chain the eager per-slot
  // loop performs — bit for bit, not just approximately — because chain
  // replay feeds the golden-fingerprint contract.
  double chain = 0.0;
  for (std::int64_t k = 1; k <= 4096; ++k) {
    chain += kEps;
    ASSERT_EQ(table.value(k), chain) << "chain length " << k;
  }
  // Random access after sequential growth reads the same entries.
  double seventeen = 0.0;
  for (int i = 0; i < 17; ++i) seventeen += kEps;
  EXPECT_EQ(table.value(17), seventeen);
}

TEST(EpsChainTable, ClosedFormTailBeyondThreshold) {
  EpsChainTable table{kEps};
  // The literal sequential chain at k = 300000, for reference.
  const std::int64_t k = 300000;
  double chain = 0.0;
  for (std::int64_t i = 0; i < k; ++i) chain += kEps;
  // Past kTailThreshold the table switches to threshold-entry +
  // closed-form multiply: equal to the sequential chain up to
  // floating-point associativity.
  const double tail = table.value(k);
  EXPECT_NEAR(tail, chain, 1e-9 * chain);
  EXPECT_NE(tail, 0.0);

  // The tail is continuous and strictly increasing across the boundary.
  const std::int64_t th = EpsChainTable::kTailThreshold;
  EXPECT_LT(table.value(th - 1), table.value(th));
  EXPECT_LT(table.value(th), table.value(th + 1));
  EXPECT_NEAR(table.value(th) - table.value(th - 1), kEps, 1e-12);

  // Storage stays bounded by the threshold no matter how far we read.
  EXPECT_LE(table.stored(), static_cast<std::size_t>(th));
  (void)table.value(10'000'000);
  EXPECT_LE(table.stored(), static_cast<std::size_t>(th));
}

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

// Long-horizon driver integration: with the battery gate pinned above any
// reachable state of charge nobody ever trains, so every user accrues one
// pure epsilon chain for the whole horizon — past
// EpsChainTable::kTailThreshold, onto the closed-form tail (the satellite
// contract: bounded table, associativity-only divergence). The folded
// engine computes the same gaps from its own closed form; both runs must
// agree on the recorded per-user gap traces to within tight
// floating-point tolerance, and on the decision stream (no updates at
// all) exactly.
TEST(GapAccrualLongHorizon, ChainTailAndFoldedAgreeBeyondThreshold) {
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kImmediate;  // chain mode (no slot totals)
  cfg.track_battery = true;
  cfg.min_soc_to_train = 2.0;  // unreachable: every ready slot stays gated
  cfg.num_users = 3;
  cfg.horizon_slots = EpsChainTable::kTailThreshold + 8000;
  cfg.arrival_probability = 0.001;
  cfg.seed = 9;
  cfg.record_per_user_gaps = true;
  cfg.record_interval = 8192;

  const ExperimentResult chain = run_experiment(cfg);
  cfg.folded_gap_accrual = true;
  const ExperimentResult folded = run_experiment(cfg);

  EXPECT_EQ(chain.total_updates, 0u);
  EXPECT_EQ(folded.total_updates, 0u);
  EXPECT_EQ(folded.total_energy_j, chain.total_energy_j);

  for (std::size_t u = 0; u < cfg.num_users; ++u) {
    const auto* a = chain.traces.find("gap_user" + std::to_string(u));
    const auto* b = folded.traces.find("gap_user" + std::to_string(u));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->size(), b->size());
    double final_gap = 0.0;
    for (std::size_t k = 0; k < a->size(); ++k) {
      ASSERT_NEAR(a->value_at(k), b->value_at(k),
                  1e-9 * std::max(1.0, a->value_at(k)))
          << "user " << u << " record " << k;
      final_gap = a->value_at(k);
    }
    // The final record sits past the chain-table threshold, so the value
    // came through the closed-form tail — epsilon * (accrued slots), up
    // to the boundary-slot convention (the cross-mode check above is the
    // precise one; this pins the magnitude, i.e. that accrual never
    // stopped or wrapped).
    const double slots =
        static_cast<double>((cfg.horizon_slots - 1) / cfg.record_interval *
                            cfg.record_interval);
    EXPECT_GE(slots, static_cast<double>(EpsChainTable::kTailThreshold));
    EXPECT_NEAR(final_gap, kEps * slots, 2.0 * kEps);
  }
}

// The lazy chain answers every gap read (replans, G(t) at record slots,
// per-user traces) from its anchors without replaying energy, so how often
// the run records must not move a single outcome. Churn (absent spans and
// re-joins) and dropped uploads (impure chains, which rebase on read) make
// every chain transition occur; the sync barrier's reliable uploads keep
// its chains pure.
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

INSTANTIATE_TEST_SUITE_P(LazySchemes, RecordCadence,
                         ::testing::Values(SchedulerKind::kOffline,
                                           SchedulerKind::kImmediate,
                                           SchedulerKind::kSyncSgd));

}  // namespace
}  // namespace fedco::core
