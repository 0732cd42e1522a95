// Parameterized invariant suite: the full simulation driver must uphold a
// set of conservation and sanity properties for every scheduler across
// random seeds and arrival regimes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <tuple>
#include <vector>

#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "core/offline_planner.hpp"
#include "core/result_io.hpp"
#include "device/power_model.hpp"
#include "golden_fingerprint.hpp"
#include "obs/events.hpp"
#include "scenario/spec.hpp"
#include "util/rng.hpp"

namespace fedco::core {
namespace {

struct PropertyCase {
  SchedulerKind scheduler;
  std::uint64_t seed;
  double arrival_p;
};

class ExperimentInvariants : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ExperimentInvariants, HoldAcrossSchedulersAndSeeds) {
  const PropertyCase param = GetParam();
  ExperimentConfig cfg;
  cfg.scheduler = param.scheduler;
  cfg.num_users = 12;
  cfg.horizon_slots = 3000;
  cfg.arrival_probability = param.arrival_p;
  cfg.seed = param.seed;
  cfg.record_per_user_gaps = true;
  const ExperimentResult r = run_experiment(cfg);

  // Energy conservation: breakdown sums to the total, all non-negative.
  const double parts = r.training_j + r.corun_j + r.app_j + r.idle_j +
                       r.network_j + r.overhead_j;
  EXPECT_NEAR(r.total_energy_j, parts, 1e-6);
  for (const double component :
       {r.training_j, r.corun_j, r.app_j, r.idle_j, r.network_j, r.overhead_j}) {
    EXPECT_GE(component, 0.0);
  }

  // Lower bound: every device idles at least at P_d for the horizon
  // (cheapest profile is Nexus 6 at 0.238 W).
  EXPECT_GE(r.total_energy_j,
            0.238 * 12.0 * static_cast<double>(cfg.horizon_slots) * 0.99);

  // Session/update accounting: applied + dropped never exceeds sessions,
  // and all sessions have a type.
  EXPECT_GE(r.corun_sessions + r.separate_sessions,
            r.total_updates + r.dropped_updates);
  EXPECT_GT(r.total_updates + r.dropped_updates, 0u);

  // Queue sanity: Q is the count of waiting users, bounded by n; H >= 0.
  EXPECT_GE(r.avg_queue_q, 0.0);
  EXPECT_LE(r.avg_queue_q, 12.0 + 1e-9);
  EXPECT_GE(r.avg_queue_h, 0.0);

  // Staleness sanity. Note Def. 1 lag counts *updates*, not users: a slow
  // co-run session (e.g. Nexus6/CandyCrush at 997 s) can watch a fast
  // device complete several rounds, so lag can exceed n-1; it is bounded
  // by the total updates ever applied.
  EXPECT_GE(r.avg_lag, 0.0);
  EXPECT_LE(r.avg_lag, static_cast<double>(r.total_updates));
  for (const auto& sample : r.lag_gap_samples) {
    EXPECT_GE(sample.gap, 0.0);
    EXPECT_LE(sample.lag, r.total_updates);
  }

  // Gap traces are recorded and non-negative.
  for (std::size_t u = 0; u < 12; ++u) {
    const auto* gaps = r.traces.find("gap_user" + std::to_string(u));
    ASSERT_NE(gaps, nullptr);
    for (const double g : gaps->values()) EXPECT_GE(g, 0.0);
  }

  // JSON export round-trips through the writer without structural errors
  // and contains the scheduler tag.
  const std::string json = result_to_json(cfg, r);
  EXPECT_NE(json.find(scheduler_name(cfg.scheduler)), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  std::string name = scheduler_name(info.param.scheduler);
  // gtest parameter names must be alphanumeric ("Sync-SGD" is not).
  std::erase_if(name, [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); });
  name += "_seed" + std::to_string(info.param.seed);
  name += info.param.arrival_p >= 0.01 ? "_busy" : "_quiet";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExperimentInvariants,
    ::testing::Values(
        PropertyCase{SchedulerKind::kImmediate, 1, 0.001},
        PropertyCase{SchedulerKind::kImmediate, 2, 0.05},
        PropertyCase{SchedulerKind::kSyncSgd, 1, 0.001},
        PropertyCase{SchedulerKind::kSyncSgd, 2, 0.05},
        PropertyCase{SchedulerKind::kOffline, 1, 0.001},
        PropertyCase{SchedulerKind::kOffline, 2, 0.05},
        PropertyCase{SchedulerKind::kOnline, 1, 0.001},
        PropertyCase{SchedulerKind::kOnline, 2, 0.05},
        PropertyCase{SchedulerKind::kOnline, 3, 0.0}),
    case_name);

// Memory-budget property for the 1M-user fleet path (docs/performance.md
// §"The 1M-user fleet"): arena fleet builds must allocate O(1) columns per
// override concern, never O(users) separate blocks. column_count() reports
// exactly how many columns are live, so growing the fleet 10x must leave it
// unchanged — per-user vector growth anywhere in the arena would show up as
// a size-dependent count. The companion RSS gate is ci/bench_gate.sh: a
// fixed peak-RSS ceiling on the benchmark's two 1M-user workloads.
TEST(FleetMemoryBudget, ArenaAllocationCountIsConstantInFleetSize) {
  scenario::ScenarioSpec spec;
  spec.horizon_slots = 600;
  spec.device_mix = {{device::DeviceKind::kPixel2, 0.25},
                     {device::DeviceKind::kNexus6P, 0.25},
                     {device::DeviceKind::kNexus6, 0.25},
                     {device::DeviceKind::kHikey970, 0.25}};
  spec.arrival.distribution = scenario::ArrivalSpec::Distribution::kLogNormal;
  spec.arrival.mean_probability = 0.002;
  spec.arrival.sigma = 0.5;
  spec.diurnal.enabled = true;
  spec.diurnal.swing = 0.8;
  spec.diurnal.timezone_spread_hours = 10.0;
  spec.network.lte_fraction = 0.3;
  spec.churn.churn_fraction = 0.2;
  spec.priority.vip_fraction = 0.1;
  spec.stream_rng = true;

  spec.num_users = 10000;
  const scenario::FleetArena small = scenario::generate_fleet_arena(spec, 1);
  spec.num_users = 100000;
  const scenario::FleetArena large = scenario::generate_fleet_arena(spec, 1);

  // Every concern of this spec is active, yet the arena holds a constant
  // number of flat columns — the same number at 10k and at 100k users.
  EXPECT_EQ(small.column_count(), large.column_count());
  EXPECT_LE(large.column_count(), 18u);
  EXPECT_EQ(large.size(), 100000u);

  // A concern the spec never overrides must cost zero columns: the default
  // spec (homogeneous fleet, no churn/diurnal/LTE/mix) allocates nothing.
  scenario::ScenarioSpec plain;
  plain.num_users = 100000;
  plain.horizon_slots = 600;
  EXPECT_EQ(scenario::generate_fleet_arena(plain, 1).column_count(), 0u);
}

// Stream mode upholds the same driver invariants as the legacy script path
// (the parity battery proves lazy == pregenerated; this proves the mode is
// physically sensible, not just self-consistent).
TEST(StreamModeInvariants, ConservationHoldsUnderArrivalStreams) {
  for (const auto kind : {SchedulerKind::kImmediate, SchedulerKind::kSyncSgd,
                          SchedulerKind::kOffline, SchedulerKind::kOnline}) {
    ExperimentConfig cfg;
    cfg.scheduler = kind;
    cfg.num_users = 12;
    cfg.horizon_slots = 3000;
    cfg.arrival_probability = 0.005;
    cfg.seed = 17;
    cfg.arrival_streams = true;
    const ExperimentResult r = run_experiment(cfg);
    const double parts = r.training_j + r.corun_j + r.app_j + r.idle_j +
                         r.network_j + r.overhead_j;
    EXPECT_NEAR(r.total_energy_j, parts, 1e-6) << scheduler_name(kind);
    EXPECT_GT(r.total_updates + r.dropped_updates, 0u) << scheduler_name(kind);
    EXPECT_GE(r.corun_sessions + r.separate_sessions,
              r.total_updates + r.dropped_updates)
        << scheduler_name(kind);
  }
}

// ------------------------------------------------------------------------
// Folded-accrual invariants: the closed-form G(t) engine (the driver's
// only one) must uphold the physical invariants on every regime the gap
// dynamics exercise (availability churn, diurnal arrivals, LTE): the
// Eq. (10) energy sums, the exact Eq. (16) recurrence on the recorded
// G(t)/H(t), and batched ≡ scalar decide. Agreement with a per-slot sweep
// is checked against the oracle in gap_accrual_test.cpp.

struct FoldedCase {
  SchedulerKind scheduler;
  const char* regime;  // "churn" | "diurnal" | "lte"
};

ExperimentConfig folded_case_config(const FoldedCase& param) {
  ExperimentConfig cfg;
  cfg.scheduler = param.scheduler;
  cfg.num_users = 30;
  cfg.horizon_slots = 2000;
  cfg.arrival_probability = 0.01;
  cfg.seed = 23;
  cfg.record_interval = 1;  // per-slot G/H traces for the recurrence check
  cfg.lb = 50.0;            // keep H(t) off the floor so Eq. 16 is exercised
  if (std::string{param.regime} == "churn") {
    scenario::ScenarioSpec spec;
    spec.num_users = cfg.num_users;
    spec.horizon_slots = cfg.horizon_slots;
    spec.arrival.mean_probability = cfg.arrival_probability;
    spec.churn.churn_fraction = 0.5;
    spec.churn.min_presence = 0.3;
    spec.churn.max_presence = 0.8;
    cfg = apply_scenario_arena(spec, cfg);
  } else if (std::string{param.regime} == "diurnal") {
    cfg.diurnal = true;
    cfg.diurnal_swing = 0.8;
  } else {
    cfg.use_lte = true;
  }
  return cfg;
}

class FoldedGapInvariants : public ::testing::TestWithParam<FoldedCase> {};

TEST_P(FoldedGapInvariants, HoldOnEveryRegime) {
  const FoldedCase param = GetParam();
  const ExperimentConfig cfg = folded_case_config(param);
  const ExperimentResult folded = run_experiment(cfg);

  const double parts = folded.training_j + folded.corun_j + folded.app_j +
                       folded.idle_j + folded.network_j + folded.overhead_j;
  EXPECT_NEAR(folded.total_energy_j, parts, 1e-6);
  EXPECT_GT(folded.total_updates + folded.dropped_updates, 0u);

  const auto* g_folded = folded.traces.find("G");
  const auto* h_folded = folded.traces.find("H");
  ASSERT_NE(g_folded, nullptr);
  ASSERT_NE(h_folded, nullptr);
  ASSERT_EQ(g_folded->size(), h_folded->size());

  if (param.scheduler == SchedulerKind::kOnline) {
    // Eq. (16) holds exactly on the recorded folded trajectory:
    // H(t) = max(H(t-1) + G(t) - Lb, 0), from H(-1) = 0.
    double h_prev = 0.0;
    for (std::size_t k = 0; k < h_folded->size(); ++k) {
      const double expect =
          std::max(h_prev + g_folded->value_at(k) - cfg.lb, 0.0);
      ASSERT_EQ(h_folded->value_at(k), expect) << "slot " << k;
      h_prev = h_folded->value_at(k);
    }

    // The batched Sec. V-A decide path and the scalar reference must stay
    // bit-identical under folded accrual too (the PR 5 contract).
    ExperimentConfig scalar_cfg = cfg;
    scalar_cfg.online_batch_decide = false;
    const ExperimentResult scalar = run_experiment(scalar_cfg);
    EXPECT_EQ(fedco::testing::fingerprint(folded),
              fedco::testing::fingerprint(scalar));
  }
}

std::string folded_case_name(const ::testing::TestParamInfo<FoldedCase>& info) {
  std::string name = scheduler_name(info.param.scheduler);
  std::erase_if(name, [](char c) {
    return !std::isalnum(static_cast<unsigned char>(c));
  });
  return name + "_" + info.param.regime;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, FoldedGapInvariants,
    ::testing::Values(
        FoldedCase{SchedulerKind::kImmediate, "churn"},
        FoldedCase{SchedulerKind::kImmediate, "diurnal"},
        FoldedCase{SchedulerKind::kImmediate, "lte"},
        FoldedCase{SchedulerKind::kSyncSgd, "churn"},
        FoldedCase{SchedulerKind::kSyncSgd, "diurnal"},
        FoldedCase{SchedulerKind::kSyncSgd, "lte"},
        FoldedCase{SchedulerKind::kOffline, "churn"},
        FoldedCase{SchedulerKind::kOffline, "diurnal"},
        FoldedCase{SchedulerKind::kOffline, "lte"},
        FoldedCase{SchedulerKind::kOnline, "churn"},
        FoldedCase{SchedulerKind::kOnline, "diurnal"},
        FoldedCase{SchedulerKind::kOnline, "lte"}),
    folded_case_name);

// ------------------------------------------------------------------------
// The batched online decide screens provably idle rows out before any lag
// lookup (OnlineScheduler::screened_idle). Every regime that reaches the
// screen with a non-trivial H(t) weight, parking promise, gate or presence
// shape must keep the scalar reference's decisions, counts and energy.

/// Every decision-stream event (decision, park, wake) of a run, in order.
struct DecisionLog final : obs::EventSink {
  std::vector<std::tuple<int, std::int64_t, std::int64_t, std::int64_t>> rows;
  void emit(const obs::Event& e) override {
    if (e.kind == obs::EventKind::kDecision ||
        e.kind == obs::EventKind::kPark || e.kind == obs::EventKind::kWake) {
      rows.emplace_back(static_cast<int>(e.kind), e.slot, e.user, e.a);
    }
  }
};

void expect_batched_matches_scalar(ExperimentConfig cfg, const char* what) {
  cfg.scheduler = SchedulerKind::kOnline;
  cfg.online_batch_decide = true;
  DecisionLog batched_log;
  const ExperimentResult batched = run_experiment(cfg, {&batched_log, 1});
  cfg.online_batch_decide = false;
  DecisionLog scalar_log;
  const ExperimentResult scalar = run_experiment(cfg, {&scalar_log, 1});
  // The regime must actually decide both ways, or the match is vacuous.
  EXPECT_GT(batched.summary.decisions_scheduled, 0u) << what;
  EXPECT_GT(batched.summary.decisions_idle, 0u) << what;
  EXPECT_EQ(batched_log.rows, scalar_log.rows) << what;
  EXPECT_EQ(batched.summary.decisions_scheduled,
            scalar.summary.decisions_scheduled) << what;
  EXPECT_EQ(batched.summary.decisions_idle, scalar.summary.decisions_idle)
      << what;
  EXPECT_EQ(batched.summary.parks, scalar.summary.parks) << what;
  EXPECT_EQ(batched.summary.wakes, scalar.summary.wakes) << what;
  EXPECT_EQ(batched.battery_gated_slots, scalar.battery_gated_slots) << what;
  EXPECT_EQ(batched.total_energy_j, scalar.total_energy_j) << what;
  EXPECT_EQ(fedco::testing::fingerprint(batched),
            fedco::testing::fingerprint(scalar))
      << what;
}

/// A busy fleet with a small deferral budget, so H(t) is non-zero and
/// Online both idles and schedules throughout the run.
scenario::ScenarioSpec screened_fleet() {
  scenario::ScenarioSpec spec;
  spec.num_users = 40;
  spec.horizon_slots = 3000;
  spec.arrival.mean_probability = 0.01;
  return spec;
}

ExperimentConfig screened_config() {
  ExperimentConfig cfg;
  cfg.seed = 17;
  cfg.lb = 30.0;
  return cfg;
}

TEST(ScreenedRegimes, VipPriority) {
  scenario::ScenarioSpec spec = screened_fleet();
  spec.priority.vip_fraction = 0.3;
  spec.priority.vip_weight = 4.0;
  expect_batched_matches_scalar(apply_scenario_arena(spec, screened_config()),
                                "vip");
}

TEST(ScreenedRegimes, ChurnAware) {
  scenario::ScenarioSpec spec = screened_fleet();
  spec.churn.churn_fraction = 0.6;
  spec.churn.min_presence = 0.2;
  spec.churn.max_presence = 0.7;
  ExperimentConfig cfg = screened_config();
  cfg.online_churn_aware = true;
  expect_batched_matches_scalar(apply_scenario_arena(spec, cfg),
                                "churn-aware");
}

TEST(ScreenedRegimes, DecisionInterval) {
  ExperimentConfig cfg = screened_config();
  cfg.decision_interval_slots = 7;  // parks and wakes, no battery gate
  expect_batched_matches_scalar(apply_scenario_arena(screened_fleet(), cfg),
                                "interval 7");
}

TEST(ScreenedRegimes, BatteryGate) {
  ExperimentConfig cfg = screened_config();
  cfg.track_battery = true;
  cfg.battery.capacity_mah = 150.0;
  cfg.min_soc_to_train = 0.4;
  const ExperimentConfig gated = apply_scenario_arena(screened_fleet(), cfg);
  expect_batched_matches_scalar(gated, "battery gate");
  EXPECT_GT(run_experiment(gated).battery_gated_slots, 0u);
}

TEST(ScreenedRegimes, CommuteMultiWindow) {
  scenario::ScenarioSpec spec = screened_fleet();
  spec.faults.commute.fraction = 0.6;
  spec.faults.commute.period_slots = 600;
  spec.faults.commute.on_slots = 350;
  expect_batched_matches_scalar(apply_scenario_arena(spec, screened_config()),
                                "commute");
}

TEST(ScreenedRegimes, DoubleEntries) {
  // Presence gaps of 1-3 slots inside a 60-slot decision interval leave
  // stale wakes behind, so users reach one decide batch twice (ROADMAP's
  // double-schedule bug). Such rows skip the screen and read their gap
  // through recheck_gap; the batched pass must still match the scalar
  // loop decision for decision.
  ExperimentConfig cfg = screened_config();
  cfg.num_users = 40;
  cfg.horizon_slots = 3000;
  cfg.arrival_probability = 0.02;
  cfg.seed = 3;
  cfg.lb = 20.0;
  cfg.decision_interval_slots = 60;
  util::Rng rng{5};
  std::vector<scenario::PerUserConfig> fleet(cfg.num_users);
  for (scenario::PerUserConfig& pu : fleet) {
    sim::Slot t = 100 + rng.uniform_int(std::int64_t{0}, 50);
    pu.leave_slot = t;
    while (t < 2800) {
      const sim::Slot join = t + rng.uniform_int(std::int64_t{1}, 3);
      t = join + rng.uniform_int(std::int64_t{5}, 80);
      pu.extra_windows.push_back({join, t});
    }
  }
  testing::set_fleet(cfg, fleet);
  expect_batched_matches_scalar(cfg, "double entries");
}

// ------------------------------------------------------------------------
// Fault-injection invariants (PR 9): outage and recovery windows split a
// user's presence into multiple windows, which stresses the driver's
// event calendar harder than anything the single-window fleets can —
// kJoin/kLeave pairs repeat per user, in-flight sessions must drain
// across absences, and lazy stream feeds re-seek at every re-entry. The
// goldens in scenario_fault_test pin the trajectories; this suite checks
// the physics stays sane on regimes chosen to collide events.

void expect_fault_conservation(const ExperimentConfig& cfg,
                               const char* what) {
  const ExperimentResult r = run_experiment(cfg);
  const double parts = r.training_j + r.corun_j + r.app_j + r.idle_j +
                       r.network_j + r.overhead_j;
  EXPECT_NEAR(r.total_energy_j, parts, 1e-6)
      << what << " / " << scheduler_name(cfg.scheduler);
  // Every applied or dropped update came from a started session, and the
  // run still made progress despite the faults.
  EXPECT_GE(r.corun_sessions + r.separate_sessions,
            r.total_updates + r.dropped_updates)
      << what << " / " << scheduler_name(cfg.scheduler);
  EXPECT_GT(r.total_updates + r.dropped_updates, 0u)
      << what << " / " << scheduler_name(cfg.scheduler);
  // Queue sanity under churn: Q counts waiting users, bounded by n.
  EXPECT_GE(r.avg_queue_q, 0.0);
  EXPECT_LE(r.avg_queue_q, static_cast<double>(cfg.num_users) + 1e-9);
  // Presence accounting: each recovery re-entry is a join; a user can
  // only leave a window it joined (final windows reaching the horizon
  // never emit a leave, so joins bound leaves from above).
  EXPECT_GE(r.summary.joins, r.summary.leaves)
      << what << " / " << scheduler_name(cfg.scheduler);
}

TEST(FaultInvariants, ConservationUnderMidTrainingOutages) {
  // Busy arrivals guarantee sessions are in flight when the outage lands;
  // the full-fleet window forces every in-flight transfer to drain across
  // an absence.
  for (const auto kind : {SchedulerKind::kImmediate, SchedulerKind::kSyncSgd,
                          SchedulerKind::kOffline, SchedulerKind::kOnline}) {
    scenario::ScenarioSpec spec;
    spec.num_users = 16;
    spec.horizon_slots = 3000;
    spec.arrival.mean_probability = 0.02;
    scenario::OutageSpec blackout;
    blackout.region = "everyone";
    blackout.start_slot = 800;
    blackout.end_slot = 1200;
    blackout.fraction = 1.0;
    spec.faults.outages = {blackout};
    ExperimentConfig cfg;
    cfg.scheduler = kind;
    cfg.seed = 7;
    expect_fault_conservation(apply_scenario_arena(spec, cfg), "mid-training");
  }
}

TEST(FaultInvariants, SingleSlotRecoveryWindows) {
  // Back-to-back outages leaving one-slot presence gaps: users join and
  // leave on adjacent slots, the tightest legal window the calendar
  // accepts (join strictly after the previous leave).
  for (const auto kind : {SchedulerKind::kImmediate, SchedulerKind::kOnline}) {
    ExperimentConfig cfg;
    cfg.scheduler = kind;
    cfg.num_users = 8;
    cfg.horizon_slots = 2000;
    cfg.arrival_probability = 0.05;
    cfg.seed = 11;
    // The chopped-up presence leaves ~1300 present slots; the default
    // Lb=500 deferral budget would let Online push every decision past
    // the horizon, which tests nothing. A small budget makes it act.
    cfg.lb = 20.0;
    std::vector<scenario::PerUserConfig> fleet(cfg.num_users);
    for (std::size_t i = 0; i < cfg.num_users; ++i) {
      const auto s = static_cast<sim::Slot>(i);
      auto& pu = fleet[i];
      pu.leave_slot = 500 + s;
      pu.extra_windows = {{501 + s, 502 + s},   // single-slot recovery
                          {900 + s, 901 + s},   // and another
                          {1200, scenario::kNeverLeaves}};
    }
    testing::set_fleet(cfg, fleet);
    expect_fault_conservation(cfg, "single-slot-recovery");
  }
}

TEST(FaultInvariants, OutageCollidingWithPhaseEnds) {
  // Fixed arrivals + a dense outage grid make leave slots land on the
  // same slots as training phase-end events (sessions are hundreds of
  // slots long, windows are too): the calendar must order kPhaseEnd
  // before kLeave per user and keep the books balanced.
  for (const auto kind : {SchedulerKind::kSyncSgd, SchedulerKind::kOffline,
                          SchedulerKind::kOnline}) {
    scenario::ScenarioSpec spec;
    spec.num_users = 20;
    spec.horizon_slots = 4000;
    spec.arrival.mean_probability = 0.03;
    spec.faults.commute.fraction = 1.0;
    spec.faults.commute.period_slots = 350;
    spec.faults.commute.on_slots = 300;
    scenario::OutageSpec mid;
    mid.region = "half";
    mid.start_slot = 1000;
    mid.end_slot = 1600;
    mid.fraction = 0.5;
    spec.faults.outages = {mid};
    ExperimentConfig cfg;
    cfg.scheduler = kind;
    cfg.seed = 29;
    expect_fault_conservation(apply_scenario_arena(spec, cfg), "phase-collide");
  }
}

TEST(FaultInvariants, StreamLazyMatchesPregeneratedUnderFaults) {
  // The multi-window stream path has two implementations — lazy per-window
  // feed re-seek vs. per-window pregenerated arena slices. They must stay
  // bit-identical on fault fleets exactly as the parity battery pins for
  // single-window fleets.
  for (const auto kind : {SchedulerKind::kImmediate, SchedulerKind::kSyncSgd,
                          SchedulerKind::kOffline, SchedulerKind::kOnline}) {
    scenario::ScenarioSpec spec;
    spec.num_users = 24;
    spec.horizon_slots = 2400;
    spec.arrival.distribution =
        scenario::ArrivalSpec::Distribution::kLogNormal;
    spec.arrival.mean_probability = 0.008;
    spec.arrival.sigma = 0.5;
    spec.stream_rng = true;
    spec.faults.commute.fraction = 0.5;
    spec.faults.commute.period_slots = 500;
    spec.faults.commute.on_slots = 320;
    scenario::OutageSpec mid;
    mid.region = "third";
    mid.start_slot = 700;
    mid.end_slot = 1100;
    mid.fraction = 0.34;
    spec.faults.outages = {mid};
    ExperimentConfig base;
    base.scheduler = kind;
    base.seed = 42;
    ExperimentConfig lazy = apply_scenario_arena(spec, base);
    lazy.pregenerate_streams = false;
    ExperimentConfig pregen = lazy;
    pregen.pregenerate_streams = true;
    EXPECT_EQ(fedco::testing::fingerprint(run_experiment(lazy)),
              fedco::testing::fingerprint(run_experiment(pregen)))
        << scheduler_name(kind);
  }
}

// ------------------------------------------------------------------------
// Churn-/priority-aware invariants (PR 10): the departure-aware planner
// and the presence-discounted online rule change WHICH work is scheduled,
// never the books — conservation must hold with the flags on, departure
// feasibility must hold plan by plan, and the priority machinery must be
// the exact identity when no weight deviates from 1.0.

TEST(ChurnAwareInvariants, PlansNeverCoRunPastTheDeparture) {
  // Every (device, app) pair at four departure shapes: comfortably
  // feasible, ending exactly at the leave slot (feasible — in-flight
  // sessions run to completion), unfinishable, and never-leaving. With an
  // effectively unbounded budget the knapsack selects every co-run it is
  // offered, so any unfinishable co-run that survives the feasibility
  // pre-pass would surface as a kWaitForApp plan here.
  OfflinePlannerConfig cfg;
  cfg.lb = 1e12;
  cfg.window_slots = 3000;
  cfg.slot_seconds = 1.0;
  cfg.churn_aware = true;
  constexpr sim::Slot kArrival = 100;
  std::vector<OfflineUserInput> users;
  for (std::size_t k = 0; k < device::kDeviceKinds; ++k) {
    const device::DeviceProfile& dev =
        device::profile(static_cast<device::DeviceKind>(k));
    for (std::size_t a = 0; a < device::kAppKinds; ++a) {
      const auto app = static_cast<device::AppKind>(a);
      const auto duration = static_cast<sim::Slot>(std::ceil(
          device::training_duration_s(dev, device::AppStatus::kApp, app)));
      for (const sim::Slot leave :
           {kArrival + duration + 50, kArrival + duration,
            kArrival + duration / 2, scenario::kNeverLeaves}) {
        OfflineUserInput in;
        in.dev = &dev;
        in.next_arrival = kArrival;
        in.arrival_app = app;
        in.momentum_norm = 1.0;
        in.leave_slot = leave;
        users.push_back(in);
      }
    }
  }
  const OfflineWindowPlan aware = OfflinePlanner{cfg}.plan(0, users);
  std::size_t co_runs = 0;
  for (std::size_t i = 0; i < users.size(); ++i) {
    if (aware.plans[i].action != OfflineAction::kWaitForApp) continue;
    ++co_runs;
    const double end_s =
        static_cast<double>(aware.plans[i].start_slot) * cfg.slot_seconds +
        device::training_duration_s(*users[i].dev, device::AppStatus::kApp,
                                    users[i].arrival_app);
    EXPECT_LE(end_s,
              static_cast<double>(users[i].leave_slot) * cfg.slot_seconds)
        << "user " << i;
  }
  // The feasible shapes (3 of 4 per pair) must actually co-run under the
  // unbounded budget — an empty plan would vacuously pass the loop above.
  EXPECT_EQ(co_runs, device::kDeviceKinds * device::kAppKinds * 3);

  // And the property bites: the oblivious planner waits for at least one
  // co-run the departure makes unfinishable.
  cfg.churn_aware = false;
  const OfflineWindowPlan oblivious = OfflinePlanner{cfg}.plan(0, users);
  std::size_t doomed = 0;
  for (std::size_t i = 0; i < users.size(); ++i) {
    if (oblivious.plans[i].action != OfflineAction::kWaitForApp) continue;
    const double end_s =
        static_cast<double>(oblivious.plans[i].start_slot) * cfg.slot_seconds +
        device::training_duration_s(*users[i].dev, device::AppStatus::kApp,
                                    users[i].arrival_app);
    doomed += end_s > static_cast<double>(users[i].leave_slot) ? 1 : 0;
  }
  EXPECT_EQ(doomed, device::kDeviceKinds * device::kAppKinds);
}

TEST(ChurnAwareInvariants, ConservationHoldsWithBothFlagsOn) {
  // The churn-aware modes only reweight/veto decisions; the Eq. (15)/(16)
  // queue updates and the energy meters are untouched, so the fault-suite
  // conservation battery must hold verbatim with the flags on.
  for (const auto kind : {SchedulerKind::kImmediate, SchedulerKind::kSyncSgd,
                          SchedulerKind::kOffline, SchedulerKind::kOnline}) {
    scenario::ScenarioSpec spec;
    spec.num_users = 24;
    spec.horizon_slots = 3000;
    spec.arrival.mean_probability = 0.01;
    spec.churn.churn_fraction = 0.6;
    spec.churn.min_presence = 0.2;
    spec.churn.max_presence = 0.7;
    spec.priority.vip_fraction = 0.25;
    spec.priority.vip_weight = 4.0;
    ExperimentConfig cfg;
    cfg.scheduler = kind;
    cfg.seed = 13;
    cfg.offline_churn_aware = true;
    cfg.online_churn_aware = true;
    expect_fault_conservation(apply_scenario_arena(spec, cfg), "churn-aware");
  }
}

TEST(ChurnAwareInvariants, VipFractionZeroAllocatesNothing) {
  // A priority block that assigns no VIPs is the exact identity: zero
  // arena columns, every user at weight 1.0 — so the fleet is
  // indistinguishable from one generated without the block (the golden
  // identity lives in scenario_priority_test; this pins the memory side).
  scenario::ScenarioSpec spec;
  spec.num_users = 500;
  spec.horizon_slots = 600;
  spec.priority.vip_fraction = 0.0;
  spec.priority.vip_weight = 16.0;
  const scenario::FleetArena fleet = scenario::generate_fleet_arena(spec, 3);
  EXPECT_EQ(fleet.column_count(), 0u);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(fleet.user(i).priority, 1.0);
  }
}

TEST(ChurnAwareInvariants, StreamLazyMatchesPregeneratedOnPriorityFleets) {
  // The lazy-vs-pregenerated stream parity must survive the new modes: the
  // priority column and churn-aware decisions read fleet state, never the
  // arrival machinery, so the A/B switch stays bit-identical.
  for (const auto kind : {SchedulerKind::kImmediate, SchedulerKind::kSyncSgd,
                          SchedulerKind::kOffline, SchedulerKind::kOnline}) {
    scenario::ScenarioSpec spec;
    spec.num_users = 24;
    spec.horizon_slots = 2400;
    spec.arrival.distribution =
        scenario::ArrivalSpec::Distribution::kLogNormal;
    spec.arrival.mean_probability = 0.008;
    spec.arrival.sigma = 0.5;
    spec.churn.churn_fraction = 0.5;
    spec.churn.min_presence = 0.3;
    spec.churn.max_presence = 0.8;
    spec.priority.vip_fraction = 0.2;
    spec.priority.vip_weight = 4.0;
    spec.stream_rng = true;
    ExperimentConfig base;
    base.scheduler = kind;
    base.seed = 42;
    base.offline_churn_aware = true;
    base.online_churn_aware = true;
    ExperimentConfig lazy = apply_scenario_arena(spec, base);
    lazy.pregenerate_streams = false;
    ExperimentConfig pregen = lazy;
    pregen.pregenerate_streams = true;
    EXPECT_EQ(fedco::testing::fingerprint(run_experiment(lazy)),
              fedco::testing::fingerprint(run_experiment(pregen)))
        << scheduler_name(kind);
  }
}

TEST(ChurnAwareInvariants, ChurnAwareFlagsAreOptIn) {
  EXPECT_FALSE(ExperimentConfig{}.offline_churn_aware);
  EXPECT_FALSE(ExperimentConfig{}.online_churn_aware);
}

TEST(ResultJson, FileExportAndOptions) {
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kOnline;
  cfg.num_users = 4;
  cfg.horizon_slots = 500;
  cfg.seed = 5;
  const ExperimentResult r = run_experiment(cfg);

  const std::string path = "/tmp/fedco_result_test.json";
  write_result_json(path, cfg, r);
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::string contents{std::istreambuf_iterator<char>{in},
                       std::istreambuf_iterator<char>{}};
  EXPECT_NE(contents.find("\"energy_j\""), std::string::npos);
  EXPECT_NE(contents.find("\"traces\""), std::string::npos);

  ResultJsonOptions no_traces;
  no_traces.include_traces = false;
  const std::string lean = result_to_json(cfg, r, no_traces);
  EXPECT_EQ(lean.find("\"traces\""), std::string::npos);
  EXPECT_LT(lean.size(), contents.size());

  ResultJsonOptions with_samples;
  with_samples.include_lag_gap_samples = true;
  const std::string full = result_to_json(cfg, r, with_samples);
  EXPECT_NE(full.find("\"lag_gap\""), std::string::npos);

  EXPECT_THROW(write_result_json("/no_such_dir_xyz/out.json", cfg, r),
               std::runtime_error);
}

}  // namespace
}  // namespace fedco::core
