// Golden-fingerprint pins for the event-driven driver's lazy-accrual edge
// cases.
//
// The constants below were captured from the eager (pre-event-driven)
// slot-loop driver, which advanced every user every slot; the event-driven
// driver must reproduce them bit for bit. Each scenario targets a span the
// lazy-accrual machinery must replay exactly:
//
//   idle-window      a user parked ready across an entire presence window
//                    (gap + idle energy accrue lazily from join to leave)
//   offline-defer    the offline scheme defers whole windows, so users sit
//                    parked between window-boundary wake events
//   horizon-last     a training completion landing exactly on the horizon's
//                    last slot, and one slot past it (never fires)
//   churn-aligned    joins/leaves colliding with phase-end slots, including
//                    a single-slot presence window and in-flight drains
//   churn-scenario   a generated heterogeneous churn fleet (the scenario
//                    subsystem feeding presence windows into the event heap)
//
// Like the core_scheduler_parity goldens, the constants are IEEE-754 bit
// patterns from the reference x86-64/libstdc++ toolchain. Set
// FEDCO_REGEN_GOLDENS=1 to print current fingerprints instead of asserting
// (for recapturing after an intentional behaviour change).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "device/profiles.hpp"
#include "golden_fingerprint.hpp"
#include "scenario/spec.hpp"
#include "sim/clock.hpp"

namespace fedco::core {
namespace {

constexpr SchedulerKind kAllSchedulers[] = {
    SchedulerKind::kImmediate, SchedulerKind::kSyncSgd, SchedulerKind::kOffline,
    SchedulerKind::kOnline};

/// Slots one separate (no-app) training session occupies on `kind` — the
/// driver's phase_end arithmetic for slot_seconds == 1.
sim::Slot separate_training_slots(device::DeviceKind kind) {
  const sim::Clock clock{1.0};
  return std::max<sim::Slot>(
      clock.slots_for_seconds(device::profile(kind).train_time_s), 1);
}

/// A user parked ready across an entire presence window: the online scheme
/// with an astronomically high V never schedules, so every user idles from
/// join to leave and all accrual (gap, idle/app energy, G trace) is pure
/// per-slot accumulation.
ExperimentConfig idle_window_config() {
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kOnline;
  cfg.num_users = 8;
  cfg.horizon_slots = 1800;
  cfg.arrival_probability = 0.004;
  cfg.seed = 21;
  cfg.V = 1e12;  // energy term dominates: decide() always idles
  cfg.record_interval = 50;
  cfg.record_per_user_gaps = true;
  std::vector<scenario::PerUserConfig> fleet(cfg.num_users);
  fleet[3].join_slot = 100;
  fleet[3].leave_slot = 900;
  fleet[5].join_slot = 400;
  testing::set_fleet(cfg, fleet);
  return cfg;
}

/// No arrivals anywhere: the offline knapsack selects every user (positive
/// deferral value, cheap weight), so the whole fleet defers window after
/// window and users only wake at window boundaries.
ExperimentConfig offline_defer_config() {
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kOffline;
  cfg.num_users = 6;
  cfg.horizon_slots = 1800;
  cfg.arrival_probability = 0.0;
  cfg.offline_window_slots = 600;
  cfg.seed = 33;
  cfg.record_interval = 25;
  std::vector<scenario::PerUserConfig> fleet(cfg.num_users);
  fleet[2].join_slot = 200;
  fleet[2].leave_slot = 1000;
  fleet[4].leave_slot = 900;
  testing::set_fleet(cfg, fleet);
  return cfg;
}

/// Training completion exactly on the horizon's last slot (extra = 1) or
/// one slot past it (extra = 0: the completion event never fires and the
/// session drains at finalize with its energy fully accrued).
ExperimentConfig horizon_last_config(SchedulerKind kind, sim::Slot extra) {
  ExperimentConfig cfg;
  cfg.scheduler = kind;
  cfg.num_users = 2;
  cfg.fixed_device = device::DeviceKind::kNexus6;
  cfg.arrival_probability = 0.0;
  cfg.horizon_slots = separate_training_slots(device::DeviceKind::kNexus6) + extra;
  cfg.seed = 77;
  cfg.record_interval = 10;
  return cfg;
}

/// Joins and leaves colliding with phase-end slots. With a pinned device
/// and no app arrivals, every training session takes exactly D slots, so
/// presence edges can be aimed at completion slots:
///   user 1 joins at D          (same slot user 0's first session completes)
///   user 2 leaves at D         (its own training completes on its leave slot
///                               and drains in flight)
///   user 3 lives [D, 2D)       (window exactly one training session long)
///   user 4 lives [D, D+1)      (single-slot presence window)
ExperimentConfig churn_aligned_config(SchedulerKind kind) {
  const sim::Slot d = separate_training_slots(device::DeviceKind::kNexus6);
  ExperimentConfig cfg;
  cfg.scheduler = kind;
  cfg.num_users = 6;
  cfg.fixed_device = device::DeviceKind::kNexus6;
  cfg.arrival_probability = 0.0;
  cfg.horizon_slots = 3 * d + 10;
  cfg.seed = 55;
  cfg.record_interval = 20;
  std::vector<scenario::PerUserConfig> fleet(cfg.num_users);
  fleet[1].join_slot = d;
  fleet[2].leave_slot = d;
  fleet[3].join_slot = d;
  fleet[3].leave_slot = 2 * d;
  fleet[4].join_slot = d;
  fleet[4].leave_slot = d + 1;
  testing::set_fleet(cfg, fleet);
  return cfg;
}

/// A generated heterogeneous churn fleet: the scenario subsystem feeds
/// presence windows, per-user rates, and the device/network mixes into the
/// driver (the same shape as the scenario_test churn fixture).
ExperimentConfig churn_scenario_config(SchedulerKind kind) {
  scenario::ScenarioSpec spec;
  spec.name = "event-churn";
  spec.num_users = 20;
  spec.horizon_slots = 2500;
  spec.device_mix = {{device::DeviceKind::kNexus6, 0.25},
                     {device::DeviceKind::kNexus6P, 0.25},
                     {device::DeviceKind::kHikey970, 0.25},
                     {device::DeviceKind::kPixel2, 0.25}};
  spec.arrival.distribution = scenario::ArrivalSpec::Distribution::kLogNormal;
  spec.arrival.mean_probability = 0.003;
  spec.arrival.sigma = 0.5;
  spec.network.lte_fraction = 0.3;
  spec.churn.churn_fraction = 0.3;
  spec.churn.min_presence = 0.2;
  spec.churn.max_presence = 0.6;
  ExperimentConfig base;
  base.seed = 9;
  base.scheduler = kind;
  base.record_interval = 25;
  return apply_scenario_arena(spec, base);
}

struct EdgeGolden {
  const char* name;
  SchedulerKind kind;
  std::uint64_t fingerprint;
};

// Captured from the eager pre-event-driven driver (see file comment).
constexpr EdgeGolden kEdgeGoldens[] = {
    {"idle-window", SchedulerKind::kOnline, 0x3290AD7916076C1BULL},
    {"offline-defer", SchedulerKind::kOffline, 0x9B5FD35DCFD8B949ULL},
    {"horizon-last+1", SchedulerKind::kImmediate, 0x416116C66284B9E7ULL},
    {"horizon-last+1", SchedulerKind::kSyncSgd, 0x33C6ED95F13D1A53ULL},
    {"horizon-last+1", SchedulerKind::kOffline, 0xDB55A71E61E2D193ULL},
    {"horizon-last+1", SchedulerKind::kOnline, 0x3F4167DE3D58D053ULL},
    {"horizon-last+0", SchedulerKind::kImmediate, 0xF1E81D2123A85633ULL},
    {"horizon-last+0", SchedulerKind::kSyncSgd, 0xF1E81D2123A85633ULL},
    {"horizon-last+0", SchedulerKind::kOffline, 0xACDA0ED643F4CCE7ULL},
    {"horizon-last+0", SchedulerKind::kOnline, 0x5A70A83B9BA0CF27ULL},
    {"churn-aligned", SchedulerKind::kImmediate, 0x4648B23C4EE7D1A1ULL},
    {"churn-aligned", SchedulerKind::kSyncSgd, 0x993859CA6AB56E1CULL},
    {"churn-aligned", SchedulerKind::kOffline, 0x98F3512A0B24C908ULL},
    {"churn-aligned", SchedulerKind::kOnline, 0xF56F000C77107CC5ULL},
    {"churn-scenario", SchedulerKind::kImmediate, 0xDAB8DF74B241EDA4ULL},
    {"churn-scenario", SchedulerKind::kSyncSgd, 0xC37FBCBA9759750DULL},
    {"churn-scenario", SchedulerKind::kOffline, 0x060C4E36D3C44C98ULL},
    {"churn-scenario", SchedulerKind::kOnline, 0x24FA916239D0BE06ULL},
};

ExperimentConfig edge_config(const std::string& name, SchedulerKind kind) {
  if (name == "idle-window") return idle_window_config();
  if (name == "offline-defer") return offline_defer_config();
  if (name == "horizon-last+1") return horizon_last_config(kind, 1);
  if (name == "horizon-last+0") return horizon_last_config(kind, 0);
  if (name == "churn-aligned") return churn_aligned_config(kind);
  if (name == "churn-scenario") return churn_scenario_config(kind);
  throw std::logic_error{"unknown edge scenario"};
}

bool regen_mode() {
  const char* regen = std::getenv("FEDCO_REGEN_GOLDENS");
  return regen != nullptr && regen[0] != '\0' && regen[0] != '0';
}

TEST(EventDriverEdges, LazyAccrualMatchesEagerGoldens) {
  for (const EdgeGolden& golden : kEdgeGoldens) {
    const ExperimentConfig cfg = edge_config(golden.name, golden.kind);
    const std::uint64_t fp = testing::fingerprint(run_experiment(cfg));
    if (regen_mode()) {
      std::printf("    {\"%s\", SchedulerKind::k%s, 0x%016llXULL},\n",
                  golden.name,
                  std::string{scheduler_name(golden.kind)} == "Sync-SGD"
                      ? "SyncSgd"
                      : scheduler_name(golden.kind),
                  static_cast<unsigned long long>(fp));
      continue;
    }
    EXPECT_EQ(fp, golden.fingerprint)
        << golden.name << " / " << scheduler_name(golden.kind);
  }
}

/// One config of the leave-slot scan: a tiny fleet whose user 2 departs at
/// `leave`, swept across the horizon so phase ends collide with the leave
/// slot in every way (training ending on it, transfers draining exactly on
/// it, mid-transfer departures).
ExperimentConfig drain_scan_config(SchedulerKind kind, sim::Slot leave) {
  ExperimentConfig cfg;
  cfg.scheduler = kind;
  cfg.num_users = 3;
  cfg.horizon_slots = 2000;
  cfg.arrival_probability = 0.002;
  cfg.seed = 11;
  cfg.record_interval = 100;
  std::vector<scenario::PerUserConfig> fleet(cfg.num_users);
  fleet[2].leave_slot = leave;
  testing::set_fleet(cfg, fleet);
  return cfg;
}

TEST(EventDriverEdges, LeaveSlotScanMatchesEagerDriver) {
  // Combined fingerprints over a sweep of leave slots, captured from the
  // eager driver. This pins the same-slot presence bookkeeping: an early
  // event-driven draft double-decremented the active-present counter when
  // a model transfer drained exactly on the user's leave slot (slots 213/
  // 451/664/1663 below under Sync-SGD), silently desynchronizing the
  // round barrier.
  struct ScanGolden {
    SchedulerKind kind;
    std::uint64_t combined;
  };
  constexpr ScanGolden kScanGoldens[] = {
      {SchedulerKind::kImmediate, 0xEAA5270C57E83D22ULL},
      {SchedulerKind::kSyncSgd, 0x4031F908C36D41BFULL},
      {SchedulerKind::kOffline, 0x836B07F2C8444BC7ULL},
      {SchedulerKind::kOnline, 0x7834571B3F29FA51ULL},
  };
  for (const ScanGolden& golden : kScanGoldens) {
    std::uint64_t combined = 0xCBF29CE484222325ULL;
    auto fold = [&combined](std::uint64_t fp) {
      combined ^= fp;
      combined *= 0x100000001B3ULL;
    };
    for (sim::Slot leave = 2; leave < 2000; leave += 7) {
      fold(testing::fingerprint(
          run_experiment(drain_scan_config(golden.kind, leave))));
    }
    for (const sim::Slot leave : {213, 451, 664, 1663}) {
      fold(testing::fingerprint(
          run_experiment(drain_scan_config(golden.kind, leave))));
    }
    if (regen_mode()) {
      std::printf("      {SchedulerKind::k%s, 0x%016llXULL},\n",
                  std::string{scheduler_name(golden.kind)} == "Sync-SGD"
                      ? "SyncSgd"
                      : scheduler_name(golden.kind),
                  static_cast<unsigned long long>(combined));
      continue;
    }
    EXPECT_EQ(combined, golden.combined) << scheduler_name(golden.kind);
  }
}

TEST(EventDriverEdges, IdleWindowNeverSchedules) {
  // The V -> infinity online scheme must never train: every user's whole
  // presence is one uninterrupted lazy-accrual span.
  const ExperimentResult result = run_experiment(idle_window_config());
  EXPECT_EQ(result.total_updates, 0u);
  EXPECT_EQ(result.corun_sessions + result.separate_sessions, 0u);
  EXPECT_GT(result.total_energy_j, 0.0);
}

TEST(EventDriverEdges, OfflineDeferNeverSchedules) {
  // With no arrivals the deferral item always wins the knapsack, so the
  // fleet idles from window boundary to window boundary.
  const ExperimentResult result = run_experiment(offline_defer_config());
  EXPECT_EQ(result.total_updates, 0u);
  EXPECT_GT(result.idle_j, 0.0);
  EXPECT_DOUBLE_EQ(result.training_j, 0.0);
}

TEST(EventDriverEdges, HorizonBoundaryCompletionCounts) {
  // extra = 1: both users' first (and only) session completes exactly on
  // the final slot; extra = 0: the completion lands one past the horizon
  // and must not be processed (energy accrued, no update recorded).
  const ExperimentResult at_last = run_experiment(
      horizon_last_config(SchedulerKind::kImmediate, 1));
  EXPECT_EQ(at_last.total_updates, 2u);
  const ExperimentResult past_end = run_experiment(
      horizon_last_config(SchedulerKind::kImmediate, 0));
  EXPECT_EQ(past_end.total_updates, 0u);
  EXPECT_GT(past_end.training_j, 0.0);
}

}  // namespace
}  // namespace fedco::core
