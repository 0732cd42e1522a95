// Integration tests of the full simulation driver: determinism, energy
// accounting consistency, scheduler orderings the paper reports, edge
// cases (p = 0 / p = 1 arrivals, single user, tiny horizons), and the
// phase-timing contract of RunSummary::Timing.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "device/profiles.hpp"
#include "obs/events.hpp"
#include "util/stats.hpp"

namespace fedco::core {
namespace {

ExperimentConfig fast_config(SchedulerKind kind) {
  ExperimentConfig cfg;
  cfg.scheduler = kind;
  cfg.num_users = 10;
  cfg.horizon_slots = 2500;
  cfg.arrival_probability = 0.002;
  cfg.seed = 42;
  return cfg;
}

TEST(Experiment, DeterministicInSeed) {
  const auto a = run_experiment(fast_config(SchedulerKind::kOnline));
  const auto b = run_experiment(fast_config(SchedulerKind::kOnline));
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.total_updates, b.total_updates);
  EXPECT_DOUBLE_EQ(a.avg_queue_q, b.avg_queue_q);
  EXPECT_DOUBLE_EQ(a.avg_queue_h, b.avg_queue_h);
}

TEST(Experiment, DifferentSeedsDiffer) {
  auto cfg = fast_config(SchedulerKind::kOnline);
  const auto a = run_experiment(cfg);
  cfg.seed = 43;
  const auto b = run_experiment(cfg);
  EXPECT_NE(a.total_energy_j, b.total_energy_j);
}

TEST(Experiment, EnergyBreakdownSumsToTotal) {
  for (const auto kind : {SchedulerKind::kImmediate, SchedulerKind::kSyncSgd,
                          SchedulerKind::kOffline, SchedulerKind::kOnline}) {
    const auto r = run_experiment(fast_config(kind));
    const double parts = r.training_j + r.corun_j + r.app_j + r.idle_j +
                         r.network_j + r.overhead_j;
    EXPECT_NEAR(r.total_energy_j, parts, 1e-6) << scheduler_name(kind);
    EXPECT_GT(r.total_energy_j, 0.0);
  }
}

TEST(Experiment, PaperOrderingImmediateCostsMostOfflineLeast) {
  // Fig. 4(a): Immediate is the energy upper bound; offline (relaxed Lb) is
  // the lower bound; online sits in between.
  auto cfg = fast_config(SchedulerKind::kImmediate);
  cfg.horizon_slots = 5000;
  const double immediate = run_experiment(cfg).total_energy_j;
  cfg.scheduler = SchedulerKind::kOnline;
  const double online = run_experiment(cfg).total_energy_j;
  cfg.scheduler = SchedulerKind::kOffline;
  const double offline = run_experiment(cfg).total_energy_j;
  EXPECT_LT(online, immediate);
  EXPECT_LT(offline, immediate);
  EXPECT_LE(offline, online * 1.05);  // offline is (near-)minimal
}

TEST(Experiment, ImmediateMakesMostUpdates) {
  const auto immediate = run_experiment(fast_config(SchedulerKind::kImmediate));
  const auto online = run_experiment(fast_config(SchedulerKind::kOnline));
  const auto offline = run_experiment(fast_config(SchedulerKind::kOffline));
  const auto sync = run_experiment(fast_config(SchedulerKind::kSyncSgd));
  EXPECT_GT(immediate.total_updates, online.total_updates);
  EXPECT_GT(immediate.total_updates, offline.total_updates);
  // Sync's one aggregate per round is the fewest updates of all.
  EXPECT_LT(sync.total_updates, online.total_updates);
  EXPECT_GT(sync.total_updates, 0u);
}

TEST(Experiment, ImmediateLagApproachesNMinusOne) {
  // With everyone training continuously, every update sees nearly all other
  // users complete during its own training interval (Def. 1).
  const auto r = run_experiment(fast_config(SchedulerKind::kImmediate));
  EXPECT_GT(r.avg_lag, 0.6 * static_cast<double>(10 - 1));
  EXPECT_LE(r.avg_lag, 10.0);
}

TEST(Experiment, LargerVSavesMoreEnergyAndGrowsQueues) {
  // The [O(1/V), O(V)] trade-off of Theorem 1, end to end. V = 0 serves the
  // queue greedily (immediate-like, maximal energy); a large V trades queue
  // backlog for energy. Past the knee the energy curve is nearly flat
  // (Fig. 4a), so the robust comparison is V = 0 against a large V.
  auto cfg = fast_config(SchedulerKind::kOnline);
  cfg.horizon_slots = 4000;
  cfg.V = 0.0;
  const auto small_v = run_experiment(cfg);
  cfg.V = 50000.0;
  const auto large_v = run_experiment(cfg);
  EXPECT_LT(large_v.total_energy_j, 0.8 * small_v.total_energy_j);
  EXPECT_GE(large_v.avg_queue_q + large_v.avg_queue_h,
            small_v.avg_queue_q + small_v.avg_queue_h);
}

TEST(Experiment, TighterLbRaisesEnergy) {
  // Fig. 4(a): smaller Lb -> less staleness tolerance -> more immediate
  // scheduling -> more energy.
  auto cfg = fast_config(SchedulerKind::kOnline);
  cfg.horizon_slots = 6000;
  cfg.V = 20000.0;
  cfg.lb = 20.0;
  const double tight = run_experiment(cfg).total_energy_j;
  cfg.lb = 2000.0;
  const double relaxed = run_experiment(cfg).total_energy_j;
  EXPECT_LT(relaxed, tight);
}

TEST(Experiment, NoArrivalsMeansNoCorunning) {
  auto cfg = fast_config(SchedulerKind::kImmediate);
  cfg.arrival_probability = 0.0;
  const auto r = run_experiment(cfg);
  EXPECT_EQ(r.corun_sessions, 0u);
  EXPECT_EQ(r.app_j, 0.0);
  EXPECT_EQ(r.corun_j, 0.0);
  EXPECT_GT(r.total_updates, 0u);
}

TEST(Experiment, SaturatedArrivalsCorunAlmostAlways) {
  auto cfg = fast_config(SchedulerKind::kImmediate);
  cfg.arrival_probability = 1.0;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.corun_sessions, 10 * r.separate_sessions);
}

TEST(Experiment, SingleUserWorks) {
  auto cfg = fast_config(SchedulerKind::kOnline);
  cfg.num_users = 1;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.total_energy_j, 0.0);
  // A lone user never sees foreign updates: lag stays 0.
  EXPECT_EQ(r.avg_lag, 0.0);
}

TEST(Experiment, FixedDeviceFleet) {
  auto cfg = fast_config(SchedulerKind::kImmediate);
  cfg.fixed_device = device::DeviceKind::kHikey970;
  cfg.arrival_probability = 0.0;
  const auto r = run_experiment(cfg);
  // All-HiKey fleet training continuously: energy ~ n * P_b * horizon.
  const double expected =
      10.0 * 7.87 * static_cast<double>(cfg.horizon_slots);
  EXPECT_GT(r.total_energy_j, 0.5 * expected);
  EXPECT_LT(r.total_energy_j, 1.1 * expected);
}

TEST(Experiment, InvalidConfigsThrow) {
  auto cfg = fast_config(SchedulerKind::kOnline);
  cfg.num_users = 0;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg = fast_config(SchedulerKind::kOnline);
  cfg.horizon_slots = 0;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

TEST(Experiment, TracesAreRecorded) {
  auto cfg = fast_config(SchedulerKind::kOnline);
  cfg.record_per_user_gaps = true;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.traces.contains("Q"));
  EXPECT_TRUE(r.traces.contains("H"));
  EXPECT_TRUE(r.traces.contains("G"));
  EXPECT_TRUE(r.traces.contains("gap_user0"));
  EXPECT_TRUE(r.traces.contains("server_gap"));
  EXPECT_GT(r.traces.find("Q")->size(), 100u);
  // Exactly Q, H, G, server_gap and one gap series per user, each gap
  // series sampled at every recorded slot.
  EXPECT_EQ(r.traces.size(), 4 + cfg.num_users);
  for (std::size_t i = 0; i < cfg.num_users; ++i) {
    const auto* gap = r.traces.find("gap_user" + std::to_string(i));
    ASSERT_NE(gap, nullptr) << i;
    EXPECT_EQ(gap->size(), r.traces.find("Q")->size()) << i;
  }
}

TEST(Experiment, ServerGapTraceIsTheUpdateSamples) {
  // server_gap is one point per applied update: the samples' time and gap,
  // bit for bit. Sync-SGD's come from aggregated rounds, whose sample
  // carries the user == num_users sentinel.
  for (const auto kind : {SchedulerKind::kImmediate, SchedulerKind::kSyncSgd,
                          SchedulerKind::kOffline, SchedulerKind::kOnline}) {
    const ExperimentConfig cfg = fast_config(kind);
    const ExperimentResult r = run_experiment(cfg);
    const std::vector<LagGapSample>& samples = r.lag_gap_samples;
    ASSERT_FALSE(samples.empty()) << scheduler_name(kind);
    EXPECT_EQ(samples.back().user == cfg.num_users,
              kind == SchedulerKind::kSyncSgd)
        << scheduler_name(kind);
    const util::TimeSeries* trace = r.traces.find("server_gap");
    ASSERT_NE(trace, nullptr) << scheduler_name(kind);
    ASSERT_EQ(trace->size(), samples.size()) << scheduler_name(kind);
    for (std::size_t k = 0; k < samples.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(trace->time_at(k)),
                std::bit_cast<std::uint64_t>(samples[k].time_s))
          << scheduler_name(kind) << " #" << k;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(trace->value_at(k)),
                std::bit_cast<std::uint64_t>(samples[k].gap))
          << scheduler_name(kind) << " #" << k;
    }
  }
  // Two slots end before any session does: no update, no series.
  ExperimentConfig quiet = fast_config(SchedulerKind::kImmediate);
  quiet.horizon_slots = 2;
  const ExperimentResult r = run_experiment(quiet);
  EXPECT_EQ(r.total_updates, 0u);
  EXPECT_FALSE(r.traces.contains("server_gap"));
}

/// Counts what it is sent; attaching it turns the driver's emission on.
struct CountingSink final : obs::EventSink {
  void emit(const obs::Event&) override { ++events; }
  std::size_t events = 0;
};

/// The phase timings of a run: finite, non-negative, and summing to at
/// most the whole call, whichever phases lapped.
void expect_timing_contract(const RunSummary::Timing& t,
                            const std::string& label) {
  for (const double s : {t.setup_s, t.events_s, t.decide_s, t.record_s,
                         t.finalize_s, t.total_s}) {
    EXPECT_TRUE(std::isfinite(s)) << label;
    EXPECT_GE(s, 0.0) << label;
  }
  EXPECT_LE(t.setup_s + t.events_s + t.decide_s + t.record_s + t.finalize_s,
            t.total_s)
      << label;
}

TEST(Experiment, PhaseTimingsStayWithinTheRun) {
  for (const auto kind : {SchedulerKind::kImmediate, SchedulerKind::kSyncSgd,
                          SchedulerKind::kOffline, SchedulerKind::kOnline}) {
    const auto cfg = fast_config(kind);
    for (const bool events_on : {false, true}) {
      CountingSink sink;
      RunHooks hooks;
      if (events_on) hooks.events = &sink;
      const auto r = run_experiment(cfg, hooks);
      const std::string label =
          std::string{scheduler_name(kind)} + (events_on ? " events" : "");
      expect_timing_contract(r.summary.timing, label);
      // Every scheme trains here, so phase ends are dispatched and timed.
      EXPECT_GT(r.summary.decisions_scheduled, 0u) << label;
      EXPECT_GT(r.summary.timing.events_s, 0.0) << label;
      EXPECT_EQ(events_on, sink.events > 0) << label;
    }
  }
}

TEST(Experiment, QuietEventsPhaseIsNeverTimed) {
  // One slot of Immediate: every user starts training at slot 0, but no
  // event is due (users present from slot 0 file no join) and the slot
  // hook has nothing to do, so the events phase never reads the clock.
  auto cfg = fast_config(SchedulerKind::kImmediate);
  cfg.horizon_slots = 1;
  for (const bool events_on : {false, true}) {
    CountingSink sink;
    RunHooks hooks;
    if (events_on) hooks.events = &sink;
    const auto r = run_experiment(cfg, hooks);
    EXPECT_EQ(r.summary.decisions_scheduled, cfg.num_users);
    EXPECT_EQ(r.summary.timing.events_s, 0.0) << events_on;
    EXPECT_GT(r.summary.timing.decide_s, 0.0) << events_on;
    expect_timing_contract(r.summary.timing, "one slot");
  }
}

TEST(Experiment, LagAndGapArePositivelyCorrelated) {
  // Fig. 5(a) lower subplot: lag and gradient gap move together. The online
  // scheduler produces a wide lag spread (immediate pins every lag near
  // n-1, washing the correlation out in noise).
  auto cfg = fast_config(SchedulerKind::kOnline);
  cfg.num_users = 15;
  cfg.horizon_slots = 8000;
  const auto r = run_experiment(cfg);
  ASSERT_GT(r.lag_gap_samples.size(), 30u);
  std::vector<double> lags;
  std::vector<double> gaps;
  for (const auto& s : r.lag_gap_samples) {
    lags.push_back(static_cast<double>(s.lag));
    gaps.push_back(s.gap);
  }
  EXPECT_GT(util::pearson(lags, gaps), 0.5);
}

TEST(Experiment, DecisionOverheadIsAccountedWhenEnabled) {
  auto cfg = fast_config(SchedulerKind::kOnline);
  cfg.decision_eval_seconds = 0.01;
  const auto with = run_experiment(cfg);
  cfg.decision_eval_seconds = 0.0;
  const auto without = run_experiment(cfg);
  EXPECT_GT(with.overhead_j, 0.0);
  EXPECT_EQ(without.overhead_j, 0.0);
}

TEST(Experiment, CoarserDecisionIntervalStillServes) {
  // Sec. VII "Energy Overhead": enlarging the decision interval reduces
  // overhead but must not deadlock the queue — updates still happen, and
  // with a 60 s granularity fewer co-run windows are caught.
  auto cfg = fast_config(SchedulerKind::kOnline);
  cfg.horizon_slots = 5000;
  cfg.V = 0.0;  // serve greedily so the interval is the only brake
  const auto every_slot = run_experiment(cfg);
  cfg.decision_interval_slots = 60;
  const auto coarse = run_experiment(cfg);
  EXPECT_GT(coarse.total_updates, 0u);
  EXPECT_LE(coarse.total_updates, every_slot.total_updates);
}

TEST(Experiment, DroppedUploadsReduceUpdatesNotEnergy) {
  auto cfg = fast_config(SchedulerKind::kImmediate);
  cfg.arrival_probability = 0.0;
  const auto reliable = run_experiment(cfg);
  cfg.upload_drop_probability = 0.5;
  const auto lossy = run_experiment(cfg);
  EXPECT_GT(lossy.dropped_updates, 0u);
  EXPECT_LT(lossy.total_updates, reliable.total_updates);
  // Energy is spent on the lost sessions all the same (same schedule).
  EXPECT_NEAR(lossy.total_energy_j, reliable.total_energy_j,
              0.1 * reliable.total_energy_j);
  // Conservation: sessions = applied + dropped (within the in-flight tail).
  EXPECT_GE(lossy.corun_sessions + lossy.separate_sessions,
            lossy.total_updates + lossy.dropped_updates);
}

TEST(Experiment, AllUploadsDroppedMeansNoUpdates) {
  auto cfg = fast_config(SchedulerKind::kImmediate);
  cfg.upload_drop_probability = 1.0;
  const auto r = run_experiment(cfg);
  EXPECT_EQ(r.total_updates, 0u);
  EXPECT_GT(r.dropped_updates, 0u);
}

TEST(Experiment, SyncModeIgnoresUploadDrops) {
  auto cfg = fast_config(SchedulerKind::kSyncSgd);
  cfg.upload_drop_probability = 1.0;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.total_updates, 0u);  // barrier still completes every round
  EXPECT_EQ(r.dropped_updates, 0u);
}

TEST(Experiment, ArrivalTraceReplayDrivesCorunning) {
  // Replaying a usage log: with immediate scheduling and a trace that puts
  // an app on screen at t = 0, the first session of every user co-runs.
  const std::string path = "/tmp/fedco_experiment_trace.csv";
  {
    std::ofstream out{path};
    out << "0,Map\n1000,Tiktok\n";
  }
  auto cfg = fast_config(SchedulerKind::kImmediate);
  cfg.arrival_trace_path = path;
  const auto r = run_experiment(cfg);
  EXPECT_GE(r.corun_sessions, 10u);  // all 10 users co-run at t = 0
  // Missing file reported.
  cfg.arrival_trace_path = "/no/such/trace.csv";
  EXPECT_THROW(run_experiment(cfg), std::runtime_error);
}

TEST(Experiment, TraceRowOrderDoesNotMatter) {
  // A usage log is replayed in slot order whatever its row order, and a
  // single file behaves exactly like a directory holding only that file.
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "fedco_trace_order";
  std::filesystem::create_directories(root / "dir");
  const std::filesystem::path sorted = root / "sorted.csv";
  const std::filesystem::path unsorted = root / "dir" / "unsorted.csv";
  {
    std::ofstream out{sorted, std::ios::trunc};
    out << "slot,app\n100,Zoom\n900,Map\n2000,Youtube\n3000,Tiktok\n";
  }
  {
    std::ofstream out{unsorted, std::ios::trunc};
    out << "slot,app\n3000,Tiktok\n100,Zoom\n2000,Youtube\n900,Map\n";
  }
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kOnline;
  cfg.num_users = 3;
  cfg.horizon_slots = 4000;
  cfg.seed = 42;
  cfg.arrival_trace_path = sorted.string();
  const ExperimentResult want = run_experiment(cfg);
  cfg.arrival_trace_path = unsorted.string();
  const ExperimentResult from_file = run_experiment(cfg);
  cfg.arrival_trace_path.clear();
  cfg.arrival_trace_dir = (root / "dir").string();
  const ExperimentResult from_dir = run_experiment(cfg);
  ASSERT_GT(want.app_j, 0.0);
  for (const ExperimentResult* got : {&from_file, &from_dir}) {
    EXPECT_EQ(got->total_energy_j, want.total_energy_j);
    EXPECT_EQ(got->app_j, want.app_j);
    EXPECT_EQ(got->corun_j, want.corun_j);
    EXPECT_EQ(got->total_updates, want.total_updates);
    EXPECT_EQ(got->corun_sessions, want.corun_sessions);
    EXPECT_EQ(got->avg_lag, want.avg_lag);
  }
}

// Foreground sessions through the driver. One pinned Pixel2 replays a
// trace; the gated runs hold its state of charge below the training gate,
// so app_j counts exactly the slots an app is on screen.

/// Write `body` to a temp trace named `name` and return its path.
std::string write_trace(const std::string& name, const std::string& body) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / name;
  std::ofstream out{path, std::ios::trunc};
  out << body;
  return path.string();
}

ExperimentConfig pixel2_trace_config(const std::string& trace_path) {
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kImmediate;
  cfg.num_users = 1;
  cfg.horizon_slots = 600;
  cfg.seed = 3;
  cfg.fixed_device = device::DeviceKind::kPixel2;
  cfg.arrival_trace_path = trace_path;
  return cfg;
}

ExperimentConfig gated(ExperimentConfig cfg) {
  cfg.track_battery = true;
  cfg.battery.initial_soc = 0.99;
  cfg.min_soc_to_train = 1.0;  // never reached: no training at all
  return cfg;
}

const device::DeviceProfile& pixel2() {
  return device::profile(device::DeviceKind::kPixel2);
}

TEST(Sessions, AZoomSessionLastsItsTableIICorunTime) {
  const ExperimentResult r = run_experiment(gated(pixel2_trace_config(
      write_trace("fedco_session_zoom.csv", "0,Zoom\n"))));
  ASSERT_EQ(r.total_updates, 0u);
  EXPECT_EQ(r.corun_sessions, 0u);
  const double on_screen =
      r.app_j / pixel2().app(device::AppKind::kZoom).app_power_w;
  EXPECT_NEAR(on_screen,
              std::ceil(pixel2().app(device::AppKind::kZoom).corun_time_s),
              1e-6);
}

TEST(Sessions, AnArrivalWhileAnAppRunsIsAbsorbed) {
  const ExperimentResult alone = run_experiment(gated(pixel2_trace_config(
      write_trace("fedco_session_zoom.csv", "0,Zoom\n"))));
  const ExperimentResult overlapped = run_experiment(gated(pixel2_trace_config(
      write_trace("fedco_session_zoom_map.csv", "0,Zoom\n5,Map\n"))));
  ASSERT_GT(alone.app_j, 0.0);
  EXPECT_EQ(overlapped.app_j, alone.app_j);
  EXPECT_EQ(overlapped.total_energy_j, alone.total_energy_j);
}

/// Slots of the run's decision events, and whether each co-ran.
struct DecisionLog final : obs::EventSink {
  void emit(const obs::Event& e) override {
    if (e.kind != obs::EventKind::kDecision) return;
    slots.push_back(e.slot);
    corun.push_back(e.a != 0);
  }
  std::vector<std::int64_t> slots;
  std::vector<bool> corun;
};

TEST(Sessions, ACorunSessionExtendsToCoverTraining) {
  // Without apps the user trains from slot 0, uploads, and is ready again
  // at slot R. A Zoom session opened during the upload, one slot before R,
  // has one slot fewer left than the co-run task takes, so it must stretch
  // to the task's end: every slot of the co-run task is a co-run slot.
  DecisionLog quiet_log;
  RunHooks hooks;
  hooks.events = &quiet_log;
  (void)run_experiment(
      pixel2_trace_config(write_trace("fedco_session_none.csv", "slot,app\n")),
      hooks);
  ASSERT_GE(quiet_log.slots.size(), 2u);
  ASSERT_EQ(quiet_log.slots[0], 0);
  const std::int64_t ready = quiet_log.slots[1];
  const std::int64_t arrival = ready - 1;
  ASSERT_GE(arrival,
            static_cast<std::int64_t>(std::ceil(pixel2().train_time_s)));

  DecisionLog log;
  hooks.events = &log;
  const ExperimentResult r = run_experiment(
      pixel2_trace_config(write_trace(
          "fedco_session_late_zoom.csv",
          std::to_string(arrival) + ",Zoom\n")),
      hooks);
  ASSERT_GE(log.slots.size(), 2u);
  EXPECT_EQ(log.slots[1], ready);
  EXPECT_TRUE(log.corun[1]);
  EXPECT_EQ(r.corun_sessions, 1u);
  const device::AppPowerEntry& zoom = pixel2().app(device::AppKind::kZoom);
  EXPECT_NEAR(r.corun_j / zoom.corun_power_w, std::ceil(zoom.corun_time_s),
              1e-6);
  EXPECT_NEAR(r.app_j / zoom.app_power_w, 1.0, 1e-6);
}

TEST(Experiment, BatteryTrackingAccumulatesCycles) {
  auto cfg = fast_config(SchedulerKind::kImmediate);
  cfg.track_battery = true;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.battery_cycles_total, 0.0);
  // Continuous training on a ~37 kJ battery for 2500 s drains deep enough
  // to trigger opportunistic recharges on the hungrier devices.
  EXPECT_GE(r.battery_recharges, 0u);
  // Disabled by default.
  cfg.track_battery = false;
  const auto off = run_experiment(cfg);
  EXPECT_EQ(off.battery_cycles_total, 0.0);
}

TEST(Experiment, BatteryGateBlocksTrainingBelowThreshold) {
  auto cfg = fast_config(SchedulerKind::kImmediate);
  cfg.track_battery = true;
  cfg.battery.capacity_mah = 100.0;  // tiny battery: drains within the run
  cfg.battery.recharge_at_soc = 0.10;
  cfg.min_soc_to_train = 0.60;       // wide gated band [0.10, 0.60)
  const auto gated = run_experiment(cfg);
  EXPECT_GT(gated.battery_gated_slots, 0u);
  cfg.min_soc_to_train = 0.0;
  const auto open = run_experiment(cfg);
  EXPECT_LE(open.battery_gated_slots, 0u);
  EXPECT_LE(gated.total_updates, open.total_updates);
}

TEST(Experiment, ThermalThrottlingElongatesImmediateTraining) {
  // Immediate scheduling trains back-to-back: devices heat up and sessions
  // elongate (the paper's straggler mechanism). The throttled run completes
  // fewer updates in the same horizon.
  auto cfg = fast_config(SchedulerKind::kImmediate);
  cfg.horizon_slots = 6000;
  cfg.arrival_probability = 0.0;
  cfg.fixed_device = device::DeviceKind::kHikey970;  // hottest profile
  const auto cool = run_experiment(cfg);
  cfg.enable_thermal = true;
  const auto hot = run_experiment(cfg);
  EXPECT_GT(hot.max_temperature_c, 45.0);
  EXPECT_GT(hot.worst_throttle_factor, 1.1);
  EXPECT_GT(hot.throttled_sessions, 0u);
  EXPECT_LT(hot.total_updates, cool.total_updates);
}

TEST(Experiment, OnlineSchedulerThrottlesFewerSessionsThanImmediate) {
  // Both schemes eventually hit the same steady-state die temperature on a
  // board-class device, but immediate's back-to-back training makes nearly
  // every session start hot, while online's idle gaps let the die cool.
  auto cfg = fast_config(SchedulerKind::kImmediate);
  cfg.enable_thermal = true;
  cfg.fixed_device = device::DeviceKind::kHikey970;
  const auto immediate = run_experiment(cfg);
  cfg.scheduler = SchedulerKind::kOnline;
  const auto online = run_experiment(cfg);
  EXPECT_LT(online.throttled_sessions, immediate.throttled_sessions);
}

TEST(Experiment, FedAsyncAggregationRuns) {
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kImmediate;
  cfg.num_users = 4;
  cfg.horizon_slots = 2000;
  cfg.arrival_probability = 0.0;
  cfg.seed = 13;
  cfg.real_training = true;
  cfg.model = ModelKind::kMlp;
  cfg.dataset.classes = 3;
  cfg.dataset.height = 8;
  cfg.dataset.width = 8;
  cfg.dataset.train_per_class = 20;
  cfg.dataset.test_per_class = 8;
  cfg.eval_interval_s = 500.0;
  cfg.aggregation.kind = fl::AggregationKind::kFedAsync;
  const auto fedasync = run_experiment(cfg);
  EXPECT_GT(fedasync.total_updates, 5u);
  EXPECT_GT(fedasync.final_accuracy, 0.34);
  cfg.aggregation.kind = fl::AggregationKind::kDelayComp;
  const auto delaycomp = run_experiment(cfg);
  EXPECT_GT(delaycomp.final_accuracy, 0.34);
}

// --------------------------------------------------------- real training

namespace {
ExperimentConfig tiny_real(SchedulerKind kind) {
  ExperimentConfig cfg;
  cfg.scheduler = kind;
  cfg.num_users = 5;
  cfg.horizon_slots = 2500;
  cfg.arrival_probability = 0.001;
  cfg.seed = 21;
  cfg.real_training = true;
  cfg.model = ModelKind::kMlp;
  cfg.dataset.classes = 4;
  cfg.dataset.height = 8;
  cfg.dataset.width = 8;
  cfg.dataset.train_per_class = 30;
  cfg.dataset.test_per_class = 10;
  cfg.eval_interval_s = 800.0;
  return cfg;
}
}  // namespace

TEST(ExperimentRealTraining, DirichletPartitionTrains) {
  auto cfg = tiny_real(SchedulerKind::kImmediate);
  cfg.dirichlet_alpha = 0.3;  // heavy label skew
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.total_updates, 5u);
  EXPECT_GT(r.final_accuracy, 0.25);  // chance = 0.25 on 4 classes
}

TEST(ExperimentRealTraining, GapAwareLearningRateRuns) {
  auto cfg = tiny_real(SchedulerKind::kImmediate);
  cfg.gap_aware_lr = true;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.total_updates, 5u);
  EXPECT_GT(r.final_accuracy, 0.25);
}

TEST(ExperimentRealTraining, WeightPredictionRuns) {
  auto cfg = tiny_real(SchedulerKind::kImmediate);
  cfg.weight_prediction = true;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.total_updates, 5u);
  EXPECT_GT(r.final_accuracy, 0.25);
}

TEST(ExperimentRealTraining, MitigationsChangeTheTrajectory) {
  // The mitigations are not no-ops: the resulting accuracy trace differs
  // from the vanilla run with the same seed.
  auto cfg = tiny_real(SchedulerKind::kImmediate);
  const auto vanilla = run_experiment(cfg);
  cfg.weight_prediction = true;
  const auto predicted = run_experiment(cfg);
  EXPECT_NE(vanilla.avg_gap, predicted.avg_gap);
}

TEST(ExperimentRealTraining, AccuracyImprovesOverChance) {
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kImmediate;
  cfg.num_users = 4;
  cfg.horizon_slots = 3000;
  cfg.arrival_probability = 0.002;
  cfg.seed = 9;
  cfg.real_training = true;
  cfg.model = ModelKind::kMlp;
  cfg.dataset.classes = 4;
  cfg.dataset.height = 8;
  cfg.dataset.width = 8;
  cfg.dataset.train_per_class = 30;
  cfg.dataset.test_per_class = 10;
  cfg.dataset.seed = 31;
  cfg.eval_interval_s = 500.0;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.total_updates, 10u);
  EXPECT_GT(r.final_accuracy, 0.30);  // chance = 0.25
  EXPECT_TRUE(r.traces.contains("accuracy"));
  const double t_chance = r.time_to_accuracy(0.26);
  EXPECT_GE(t_chance, 0.0);
  EXPECT_LT(r.time_to_accuracy(2.0), 0.0);  // accuracy can't exceed 1
}

TEST(ExperimentRealTraining, SyncAggregatesAllClients) {
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kSyncSgd;
  cfg.num_users = 3;
  cfg.horizon_slots = 1500;
  cfg.arrival_probability = 0.0;
  cfg.seed = 11;
  cfg.real_training = true;
  cfg.model = ModelKind::kMlp;
  cfg.dataset.classes = 3;
  cfg.dataset.height = 8;
  cfg.dataset.width = 8;
  cfg.dataset.train_per_class = 20;
  cfg.dataset.test_per_class = 8;
  cfg.eval_interval_s = 500.0;
  const auto r = run_experiment(cfg);
  // ~1500 s / (train ~210 s + transfer) -> a handful of rounds; all updates
  // carry lag 0 by the barrier.
  EXPECT_GE(r.total_updates, 3u);
  EXPECT_EQ(r.avg_lag, 0.0);
}

}  // namespace
}  // namespace fedco::core
