// Device profiles (Table II/III data), the Eq. (10) power model, CPU/FPS
// models, and battery accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "device/battery.hpp"
#include "device/cpu.hpp"
#include "device/fps_model.hpp"
#include "device/power_model.hpp"
#include "device/profiles.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fedco::device {
namespace {

TEST(Profiles, AllDevicesEnumerated) {
  EXPECT_EQ(all_devices().size(), kDeviceKinds);
  EXPECT_EQ(all_apps().size(), kAppKinds);
  EXPECT_EQ(device_name(DeviceKind::kPixel2), "Pixel2");
  EXPECT_EQ(app_name(AppKind::kCandyCrush), "CandyCrush");
}

TEST(Profiles, TableIITrainingRow) {
  EXPECT_DOUBLE_EQ(profile(DeviceKind::kNexus6).train_power_w, 1.8);
  EXPECT_DOUBLE_EQ(profile(DeviceKind::kNexus6).train_time_s, 204.0);
  EXPECT_DOUBLE_EQ(profile(DeviceKind::kNexus6P).train_power_w, 0.9);
  EXPECT_DOUBLE_EQ(profile(DeviceKind::kHikey970).train_power_w, 7.87);
  EXPECT_DOUBLE_EQ(profile(DeviceKind::kPixel2).train_power_w, 1.35);
  EXPECT_DOUBLE_EQ(profile(DeviceKind::kPixel2).train_time_s, 223.0);
}

TEST(Profiles, TableIIIIdleComputePower) {
  EXPECT_DOUBLE_EQ(profile(DeviceKind::kNexus6).idle_power_w, 0.238);
  EXPECT_DOUBLE_EQ(profile(DeviceKind::kNexus6).decision_power_w, 0.245);
  EXPECT_DOUBLE_EQ(profile(DeviceKind::kNexus6P).idle_power_w, 0.486);
  EXPECT_DOUBLE_EQ(profile(DeviceKind::kPixel2).idle_power_w, 0.689);
  EXPECT_DOUBLE_EQ(profile(DeviceKind::kPixel2).decision_power_w, 0.736);
}

/// The embedded Table II rows must reproduce the savings the paper prints
/// via 1 - P_a'*t_a / (P_b*t_b + P_a*t_a) — this validates both the data
/// entry and the formula (the paper rounds to whole percents).
class TableIISavings
    : public ::testing::TestWithParam<std::tuple<DeviceKind, AppKind>> {};

TEST_P(TableIISavings, ComputedMatchesReported) {
  const auto [dev_kind, app_kind] = GetParam();
  const DeviceProfile& dev = profile(dev_kind);
  const double computed = corun_saving_fraction(dev, app_kind);
  const double reported = dev.app(app_kind).reported_saving;
  // Table II prints powers to 2-3 significant digits and savings to whole
  // percents, so recomputing from the printed values can drift by a few
  // percentage points (worst case: Nexus6P/CandyCrush at 3.3 pp).
  EXPECT_NEAR(computed, reported, 0.04)
      << device_name(dev_kind) << " / " << app_name(app_kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllDeviceAppPairs, TableIISavings,
    ::testing::Combine(::testing::ValuesIn(all_devices().begin(),
                                           all_devices().end()),
                       ::testing::ValuesIn(all_apps().begin(),
                                           all_apps().end())),
    [](const auto& info) {
      return std::string{device_name(std::get<0>(info.param))} + "_" +
             std::string{app_name(std::get<1>(info.param))};
    });

TEST(Profiles, BigLittleConfigurationMatchesSectionVI) {
  EXPECT_EQ(profile(DeviceKind::kPixel2).background_cores, 2u);
  EXPECT_EQ(profile(DeviceKind::kNexus6P).background_cores, 1u);
  EXPECT_EQ(profile(DeviceKind::kHikey970).background_cores, 1u);
  EXPECT_TRUE(profile(DeviceKind::kPixel2).asymmetric);
  EXPECT_FALSE(profile(DeviceKind::kNexus6).asymmetric);
}

TEST(Profiles, CorunSavingJoulesSignMatchesIntuition) {
  // Pixel2/Map saves energy; Nexus6/CandyCrush burns extra (Table II: -39%).
  EXPECT_GT(corun_saving_joules(profile(DeviceKind::kPixel2), AppKind::kMap), 0.0);
  EXPECT_LT(corun_saving_fraction(profile(DeviceKind::kNexus6),
                                  AppKind::kCandyCrush),
            0.0);
}

// ----------------------------------------------------------- power model

class PowerOrdering : public ::testing::TestWithParam<AppKind> {};

TEST_P(PowerOrdering, CanonicalProfileSatisfiesEq10Ordering) {
  // P_a' > P_a > P_b > P_d (Sec. V system model).
  EXPECT_TRUE(satisfies_power_ordering(canonical_profile(), GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllApps, PowerOrdering,
                         ::testing::ValuesIn(all_apps().begin(),
                                             all_apps().end()));

TEST(PowerModel, Eq10StateMapping) {
  const DeviceProfile& dev = profile(DeviceKind::kPixel2);
  const AppKind app = AppKind::kTiktok;
  EXPECT_DOUBLE_EQ(power_w(dev, Decision::kSchedule, AppStatus::kApp, app),
                   dev.app(app).corun_power_w);
  EXPECT_DOUBLE_EQ(power_w(dev, Decision::kSchedule, AppStatus::kNoApp, app),
                   dev.train_power_w);
  EXPECT_DOUBLE_EQ(power_w(dev, Decision::kIdle, AppStatus::kApp, app),
                   dev.app(app).app_power_w);
  EXPECT_DOUBLE_EQ(power_w(dev, Decision::kIdle, AppStatus::kNoApp, app),
                   dev.idle_power_w);
}

TEST(PowerModel, EnergyScalesWithTime) {
  const DeviceProfile& dev = profile(DeviceKind::kHikey970);
  const double e1 = energy_j(dev, Decision::kSchedule, AppStatus::kNoApp,
                             AppKind::kMap, 1.0);
  const double e10 = energy_j(dev, Decision::kSchedule, AppStatus::kNoApp,
                              AppKind::kMap, 10.0);
  EXPECT_NEAR(e10, 10.0 * e1, 1e-9);
  EXPECT_NEAR(e1, 7.87, 1e-9);
}

TEST(PowerModel, TrainingDurationUsesCorunElongation) {
  const DeviceProfile& dev = profile(DeviceKind::kNexus6);
  EXPECT_DOUBLE_EQ(training_duration_s(dev, AppStatus::kNoApp, AppKind::kZoom),
                   204.0);
  EXPECT_DOUBLE_EQ(training_duration_s(dev, AppStatus::kApp, AppKind::kZoom),
                   370.0);
}

TEST(EnergyMeterTest, BreakdownSumsToTotal) {
  EnergyMeter meter;
  const DeviceProfile& dev = profile(DeviceKind::kPixel2);
  meter.accrue(dev, Decision::kSchedule, AppStatus::kApp, AppKind::kMap, 5.0);
  meter.accrue(dev, Decision::kSchedule, AppStatus::kNoApp, AppKind::kMap, 5.0);
  meter.accrue(dev, Decision::kIdle, AppStatus::kApp, AppKind::kMap, 5.0);
  meter.accrue(dev, Decision::kIdle, AppStatus::kNoApp, AppKind::kMap, 5.0);
  meter.accrue_decision_overhead(dev, 1.0);
  const double parts = meter.corun_j() + meter.training_j() + meter.app_j() +
                       meter.idle_j() + meter.overhead_j();
  EXPECT_NEAR(meter.total_j(), parts, 1e-9);
  EXPECT_NEAR(meter.corun_j(), 2.20 * 5.0, 1e-9);
  EXPECT_NEAR(meter.overhead_j(), (0.736 - 0.689) * 1.0, 1e-9);
  meter.reset();
  EXPECT_EQ(meter.total_j(), 0.0);
}

// ----------------------------------------------------------------- cpu

TEST(CpuModel, ObservationOneUtilizationRanges) {
  CpuModel model;
  const DeviceProfile& dev = profile(DeviceKind::kPixel2);
  // Training alone: little cores ~95-98%.
  const auto train_only = model.utilization(dev, Decision::kSchedule,
                                            AppStatus::kNoApp, AppKind::kMap);
  EXPECT_GE(train_only.little, 0.95);
  EXPECT_LE(train_only.little, 0.98);
  EXPECT_LT(train_only.big, 0.1);
  // Co-running: big cores 30-50% depending on the app.
  const auto corun_light = model.utilization(dev, Decision::kSchedule,
                                             AppStatus::kApp, AppKind::kNews);
  const auto corun_heavy = model.utilization(
      dev, Decision::kSchedule, AppStatus::kApp, AppKind::kAngrybird);
  EXPECT_NEAR(corun_light.big, 0.30, 1e-9);
  EXPECT_NEAR(corun_heavy.big, 0.50, 1e-9);
  EXPECT_GE(corun_heavy.memory_pressure, corun_light.memory_pressure);
}

TEST(CpuModel, HomogeneousSiliconFoldsToOneCluster) {
  CpuModel model;
  const auto u = model.utilization(profile(DeviceKind::kNexus6),
                                   Decision::kSchedule, AppStatus::kApp,
                                   AppKind::kAngrybird);
  EXPECT_EQ(u.little, 0.0);
  EXPECT_GT(u.big, 0.5);  // app + training share the only cluster
}

TEST(CpuModel, ObservationTwoSlowdownByIntensity) {
  CpuModel model;
  const DeviceProfile& asym = profile(DeviceKind::kPixel2);
  EXPECT_DOUBLE_EQ(model.training_slowdown(asym, AppStatus::kNoApp,
                                           AppKind::kAngrybird), 1.0);
  EXPECT_DOUBLE_EQ(model.training_slowdown(asym, AppStatus::kApp, AppKind::kNews),
                   1.0);  // light apps: no slowdown
  const double heavy = model.training_slowdown(asym, AppStatus::kApp,
                                               AppKind::kCandyCrush);
  EXPECT_GE(heavy, 1.10);
  EXPECT_LE(heavy, 1.15);
  // Homogeneous silicon pays the extra contention penalty.
  const double nexus6 = model.training_slowdown(profile(DeviceKind::kNexus6),
                                                AppStatus::kApp,
                                                AppKind::kCandyCrush);
  EXPECT_GT(nexus6, heavy);
}

// ----------------------------------------------------------------- fps

TEST(FpsModel, ObservationThreeCorunBarelyAffectsAsymmetricFps) {
  FpsModel model;
  util::Rng rng{61};
  const DeviceProfile& dev = profile(DeviceKind::kPixel2);
  util::RunningStats alone;
  util::RunningStats corun;
  for (int i = 0; i < 2000; ++i) {
    alone.add(model.sample_fps(dev, AppKind::kAngrybird, false, rng));
    corun.add(model.sample_fps(dev, AppKind::kAngrybird, true, rng));
  }
  EXPECT_NEAR(alone.mean(), 60.0, 2.0);
  // Average degradation while co-running stays small (paper: "steadily
  // around 60").
  EXPECT_GT(corun.mean(), 0.92 * alone.mean());
}

TEST(FpsModel, VideoAppsCapAtThirtyFps) {
  FpsModel model;
  util::Rng rng{67};
  const DeviceProfile& dev = profile(DeviceKind::kPixel2);
  for (int i = 0; i < 500; ++i) {
    EXPECT_LE(model.sample_fps(dev, AppKind::kTiktok, true, rng), 30.0);
  }
}

TEST(FpsModel, HomogeneousCorunDegradesMore) {
  FpsModel model;
  util::Rng rng{71};
  util::RunningStats asym;
  util::RunningStats homog;
  for (int i = 0; i < 2000; ++i) {
    asym.add(model.sample_fps(profile(DeviceKind::kPixel2),
                              AppKind::kAngrybird, true, rng));
    homog.add(model.sample_fps(profile(DeviceKind::kNexus6),
                               AppKind::kAngrybird, true, rng));
  }
  EXPECT_GT(asym.mean(), homog.mean());
}

TEST(FpsModel, TraceHasOneSamplePerSecond) {
  FpsModel model;
  util::Rng rng{73};
  const auto trace = model.trace(profile(DeviceKind::kPixel2),
                                 AppKind::kTiktok, true, 250.0, rng);
  EXPECT_EQ(trace.size(), 250u);
  EXPECT_EQ(trace.time_at(0), 0.0);
}

// --------------------------------------------------------------- battery

TEST(BatteryTest, CapacityConversion) {
  Battery b{{2700.0, 3.85, 1.0, 0.15}};
  EXPECT_NEAR(b.capacity_j(), 2700.0 * 3.6 * 3.85, 1e-9);
}

TEST(BatteryTest, DrainAndRecharge) {
  Battery b{{1000.0, 1.0, 1.0, 0.2}};  // 3600 J capacity
  b.drain(1800.0);
  EXPECT_NEAR(b.soc(), 0.5, 1e-9);
  EXPECT_EQ(b.recharge_count(), 0u);
  b.drain(1800.0);  // would hit 0 < 0.2 -> recharge
  EXPECT_EQ(b.recharge_count(), 1u);
  EXPECT_GT(b.soc(), 0.2);
  EXPECT_NEAR(b.equivalent_cycles(), 1.0, 1e-9);
  b.drain(-5.0);  // no-op
  EXPECT_NEAR(b.drained_j(), 3600.0, 1e-9);
}

/// The recharge loop Battery::drain used to run: one addition per cycle.
struct LoopBattery {
  BatteryConfig config;
  double soc = std::clamp(config.initial_soc, 0.0, 1.0);
  std::size_t recharges = 0;

  void drain(double joules) {
    if (joules <= 0.0) return;
    soc -= joules / (config.capacity_mah * 3.6 * config.voltage_v);
    while (soc < config.recharge_at_soc) {
      soc += 1.0 - config.recharge_at_soc;
      ++recharges;
    }
    soc = std::clamp(soc, 0.0, 1.0);
  }
};

TEST(BatteryTest, OneCycleDrainsAreBitEqualToTheLoop) {
  // Every drain the simulator makes stays within one recharge step; those
  // keep the loop's single addition, so battery goldens cannot move.
  util::Rng rng{2024};
  for (int trial = 0; trial < 50; ++trial) {
    const double threshold = 0.95 * rng.uniform();
    const BatteryConfig config{1.0 + 5000.0 * rng.uniform(),
                               3.0 + 1.5 * rng.uniform(),
                               threshold + (1.0 - threshold) * rng.uniform(),
                               threshold};
    Battery fast{config};
    LoopBattery loop{config};
    const double step_j = (1.0 - config.recharge_at_soc) * fast.capacity_j();
    for (int k = 0; k < 2000; ++k) {
      // Up to 0.95 of a step, with exact step-sized and tiny drains mixed in.
      const double r = rng.uniform();
      const double joules = k % 97 == 0   ? step_j
                            : k % 89 == 0 ? 1e-12
                                          : 0.95 * step_j * r;
      fast.drain(joules);
      loop.drain(joules);
      ASSERT_EQ(fast.soc(), loop.soc) << "trial " << trial << " drain " << k;
      ASSERT_EQ(fast.recharge_count(), loop.recharges);
    }
  }
}

TEST(BatteryTest, MultiCycleDeficitMatchesTheLoop) {
  // 3600 J capacity, step 0.5: a 1000.25-capacity drain leaves SoC at
  // -999.25, 2000 steps below the threshold. All values are exact.
  const BatteryConfig config{1000.0, 1.0, 1.0, 0.5};
  Battery fast{config};
  LoopBattery loop{config};
  fast.drain(3600.0 * 1000.25);
  loop.drain(3600.0 * 1000.25);
  EXPECT_EQ(fast.recharge_count(), 2000u);
  EXPECT_EQ(loop.recharges, 2000u);
  EXPECT_EQ(fast.soc(), 0.75);
  EXPECT_EQ(loop.soc, 0.75);
}

TEST(BatteryTest, HugeDeficitReturnsAtOnceWithTheRightCount) {
  // 1e15 capacities at once: SoC 1 - 1e15 climbs back in 2e15 - 1 steps of
  // 0.5 to exactly 0.5 (every intermediate is exact). The loop would run
  // 2e15 times.
  Battery b{{1000.0, 1.0, 1.0, 0.5}};
  b.drain(3600.0 * 1e15);
  EXPECT_EQ(b.recharge_count(), 1'999'999'999'999'999u);
  EXPECT_EQ(b.soc(), 0.5);
  // A 1e-12 mAh battery: one joule is ~7e10 capacities.
  Battery tiny{{1e-12, 3.85, 1.0, 0.15}};
  tiny.drain(1.0);
  const double capacities = 1.0 / tiny.capacity_j();
  EXPECT_NEAR(static_cast<double>(tiny.recharge_count()), capacities / 0.85,
              1.0);
  EXPECT_GE(tiny.soc(), 0.15);
  EXPECT_LE(tiny.soc(), 1.0);
}

}  // namespace
}  // namespace fedco::device
