// Per-user driver state: the hot UserState block and its side columns.
//
// The driver keeps one small hot block per user and moves every field only
// one mode reads into a side column allocated only when that mode is on:
// the battery (track_battery), the thermal model (enable_thermal), the
// real-training client state, and the offline oracle's look-ahead cursor.
// Script-arena feeds need no column (each user's arena slice ends in a
// sentinel event). This suite pins a golden for each column the older
// golden suites leave uncovered, and checks which columns a run allocates.
//
// Already pinned elsewhere: the battery gate and thermal throttling
// ("environment" in core_scheduler_parity_test: gated slots, recharges
// and throttled sessions under all four schemes), plain real training
// ("real-training" there), script-arena feeds (every legacy-mode golden,
// the traced half of the stream battery, the trace-driven fault golden)
// and the lazy oracle over single-window stream users ("stream-churn"
// offline in scenario_stream_parity_test).
//
// Re-pin after an intentional trajectory change with
//   FEDCO_REGEN_GOLDENS=1 ./core_user_state_test
// and paste the printed rows (see tests/README.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "golden_fingerprint.hpp"
#include "scenario/spec.hpp"
#include "stream_oracle.hpp"

namespace fedco::core {
namespace {

bool regen_mode() {
  const char* regen = std::getenv("FEDCO_REGEN_GOLDENS");
  return regen != nullptr && regen[0] != '\0' && regen[0] != '0';
}

/// Lazy arrival streams over commute and outage presence cycles: most
/// users hold several presence windows, so the offline oracle's cursor
/// crosses window boundaries ahead of the user's own presence.
ExperimentConfig stream_commute(SchedulerKind kind) {
  scenario::ScenarioSpec spec;
  spec.num_users = 24;
  spec.horizon_slots = 2400;
  spec.arrival.distribution = scenario::ArrivalSpec::Distribution::kLogNormal;
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
  base.offline_window_slots = 300;
  return apply_scenario_arena(spec, base);
}

/// Real training with every client-side mitigation on: delay-compensated
/// aggregation keeps each user's downloaded parameters, the gap-aware
/// learning rate its last upload.
ExperimentConfig real_mitigations(SchedulerKind kind) {
  ExperimentConfig cfg;
  cfg.scheduler = kind;
  cfg.num_users = 4;
  cfg.horizon_slots = 1500;
  cfg.arrival_probability = 0.002;
  cfg.seed = 17;
  cfg.real_training = true;
  cfg.model = ModelKind::kMlp;
  cfg.dataset.classes = 3;
  cfg.dataset.height = 8;
  cfg.dataset.width = 8;
  cfg.dataset.train_per_class = 20;
  cfg.dataset.test_per_class = 8;
  cfg.eval_interval_s = 500.0;
  cfg.aggregation.kind = fl::AggregationKind::kDelayComp;
  cfg.gap_aware_lr = true;
  cfg.weight_prediction = true;
  return cfg;
}

struct ColumnGolden {
  const char* scenario;
  SchedulerKind kind;
  std::uint64_t fingerprint;
};

// Captured with FEDCO_REGEN_GOLDENS=1 on the driver that still kept every
// mode's state inside UserState, before the side columns existed. The
// stream-commute row was re-pinned when the decide batch became one row
// per user (a stale wake used to schedule a user twice in one slot).
constexpr ColumnGolden kColumnGoldens[] = {
    {"stream-commute", SchedulerKind::kOffline, 0xE8315E73D7B15F84ULL},
    {"real-mitigations", SchedulerKind::kImmediate, 0x9C6F9B8374BCBF86ULL},
    {"real-mitigations", SchedulerKind::kOnline, 0xFB8AF5C7DA287C3CULL},
};

ExperimentConfig column_config(const std::string& name, SchedulerKind kind) {
  if (name == "stream-commute") return stream_commute(kind);
  if (name == "real-mitigations") return real_mitigations(kind);
  throw std::logic_error{"unknown side-column scenario"};
}

TEST(SideColumnGoldens, EveryColumnIsPinned) {
  for (const ColumnGolden& golden : kColumnGoldens) {
    const ExperimentConfig cfg = column_config(golden.scenario, golden.kind);
    const std::uint64_t fp = testing::fingerprint(run_experiment(cfg));
    if (cfg.arrival_streams) {
      // The traced script spans every window; the lazy oracle walks them
      // itself. Both must see the same look-ahead.
      EXPECT_EQ(testing::fingerprint(testing::run_stream_oracle(cfg)), fp)
          << golden.scenario << " / " << scheduler_name(golden.kind);
    }
    if (regen_mode()) {
      std::printf("    {\"%s\", SchedulerKind::k%s, 0x%016llXULL},\n",
                  golden.scenario, scheduler_name(golden.kind),
                  static_cast<unsigned long long>(fp));
      continue;
    }
    EXPECT_EQ(fp, golden.fingerprint)
        << golden.scenario << " / " << scheduler_name(golden.kind);
  }
}

TEST(SideColumnGoldens, ScenariosExerciseTheirColumns) {
  // A golden pins a column only if the run reaches it: the commute fleet
  // holds multi-window users, the offline scheme replans, and the
  // mitigated real-training runs apply updates, and each mitigation that
  // reads a client column moves the trajectory.
  const ExperimentConfig commute = stream_commute(SchedulerKind::kOffline);
  std::size_t multi_window = 0;
  for (std::size_t i = 0; i < commute.num_users; ++i) {
    multi_window += commute.fleet->user(i).extra_windows.empty() ? 0 : 1;
  }
  EXPECT_GE(multi_window, commute.num_users / 3);
  const ExperimentResult offline = run_experiment(commute);
  EXPECT_GT(offline.summary.replans, 0u);
  EXPECT_GT(offline.summary.joins, commute.num_users);
  const ExperimentConfig real = real_mitigations(SchedulerKind::kImmediate);
  const ExperimentResult mitigated = run_experiment(real);
  EXPECT_GT(mitigated.total_updates, 3u);
  ExperimentConfig no_delay_comp = real;
  no_delay_comp.aggregation.kind = fl::AggregationKind::kReplace;
  ExperimentConfig no_gap_lr = real;
  no_gap_lr.gap_aware_lr = false;
  const std::uint64_t fp = testing::fingerprint(mitigated);
  EXPECT_NE(testing::fingerprint(run_experiment(no_delay_comp)), fp);
  EXPECT_NE(testing::fingerprint(run_experiment(no_gap_lr)), fp);
}

// ---------------------------------------------------------------------------
// Which columns a run allocates.
// ---------------------------------------------------------------------------

ExperimentConfig small_run() {
  ExperimentConfig cfg;
  cfg.num_users = 8;
  cfg.horizon_slots = 300;
  cfg.arrival_probability = 0.01;
  return cfg;
}

TEST(UserStateColumns, HotBlockIsThreeCacheLines) {
  // One session machine per user: 192 bytes of fields, three cache lines.
  const UserStateBytes bytes = user_state_bytes(small_run());
  EXPECT_EQ(bytes.hot, 192u);
}

TEST(UserStateColumns, EveryModeOffAllocatesNoSideColumn) {
  // Legacy script arrivals (each slice ends in a sentinel, no per-user
  // bounds), no battery, thermal or real training, single windows, and a
  // scheme that never looks ahead.
  for (const auto kind : {SchedulerKind::kImmediate, SchedulerKind::kSyncSgd,
                          SchedulerKind::kOnline}) {
    ExperimentConfig cfg = small_run();
    cfg.scheduler = kind;
    EXPECT_EQ(user_state_bytes(cfg).side, 0u) << scheduler_name(kind);
  }
  // The paper-scale configuration the sweep campaigns run.
  EXPECT_EQ(user_state_bytes(ExperimentConfig{}).side, 0u);
  // Lazy streams read each user's arrival law from the config or the
  // fleet arena when they need it, so they hold no column either; replayed
  // as a trace (the stream oracle), they live in the script arena.
  ExperimentConfig streams = small_run();
  streams.arrival_streams = true;
  EXPECT_EQ(user_state_bytes(streams).side, 0u);
  EXPECT_EQ(testing::fingerprint(testing::run_stream_oracle(streams)),
            testing::fingerprint(run_experiment(streams)));
}

TEST(UserStateColumns, EachModeAllocatesOnlyItsColumn) {
  using Set = void (*)(ExperimentConfig&);
  const Set modes[] = {
      [](ExperimentConfig& c) { c.track_battery = true; },
      [](ExperimentConfig& c) { c.enable_thermal = true; },
      [](ExperimentConfig& c) {
        c.real_training = true;
        c.model = ModelKind::kMlp;
        c.dataset.classes = 2;
        c.dataset.height = 4;
        c.dataset.width = 4;
        c.dataset.train_per_class = 8;
        c.dataset.test_per_class = 2;
      },
      [](ExperimentConfig& c) { c.scheduler = SchedulerKind::kOffline; },
      [](ExperimentConfig& c) {
        std::vector<scenario::PerUserConfig> fleet(c.num_users);
        fleet[3].leave_slot = 100;
        fleet[3].extra_windows = {{150, 200}};
        testing::set_fleet(c, fleet);
      },
  };
  ExperimentConfig all = small_run();
  std::size_t sum = 0;
  for (const Set set : modes) {
    ExperimentConfig one = small_run();
    set(one);
    const std::size_t side = user_state_bytes(one).side;
    EXPECT_GT(side, 0u);
    sum += side;
    set(all);
  }
  // The columns are independent: all modes on hold exactly their sum.
  EXPECT_EQ(user_state_bytes(all).side, sum);
}

}  // namespace
}  // namespace fedco::core
