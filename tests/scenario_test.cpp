// Scenario subsystem: generate_fleet determinism and semantics, the
// trivial-spec golden-parity bridge (a default spec expanded through
// apply_scenario_arena runs bit-identically to the homogeneous config),
// churn behaviour under all four schedulers, and fleet validation in the
// driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/config_io.hpp"
#include "golden_fingerprint.hpp"
#include "scenario/spec.hpp"

namespace fedco::scenario {
namespace {

ScenarioSpec heterogeneous_spec() {
  ScenarioSpec spec;
  spec.name = "het";
  spec.num_users = 80;
  spec.horizon_slots = 2000;
  spec.device_mix = {{device::DeviceKind::kPixel2, 0.5},
                     {device::DeviceKind::kNexus6, 0.25},
                     {device::DeviceKind::kHikey970, 0.25}};
  spec.arrival.distribution = ArrivalSpec::Distribution::kLogNormal;
  spec.arrival.mean_probability = 0.002;
  spec.arrival.sigma = 0.5;
  spec.diurnal.enabled = true;
  spec.diurnal.swing = 0.7;
  spec.diurnal.timezone_spread_hours = 8.0;
  spec.network.lte_fraction = 0.25;
  spec.churn.churn_fraction = 0.5;
  spec.churn.min_presence = 0.3;
  spec.churn.max_presence = 0.6;
  return spec;
}

TEST(GenerateFleet, TrivialSpecExpandsToAllDefaultUsers) {
  // The identity contract: a spec that states nothing but the population
  // size yields overrides that change nothing.
  ScenarioSpec spec;
  spec.num_users = 12;
  const std::vector<PerUserConfig> fleet = generate_fleet(spec, 99);
  ASSERT_EQ(fleet.size(), 12u);
  for (const PerUserConfig& user : fleet) {
    EXPECT_TRUE(user.is_default());
  }
}

TEST(GenerateFleet, DeterministicInSpecAndSeed) {
  const ScenarioSpec spec = heterogeneous_spec();
  EXPECT_EQ(generate_fleet(spec, 7), generate_fleet(spec, 7));
  EXPECT_NE(generate_fleet(spec, 7), generate_fleet(spec, 8));
}

TEST(GenerateFleet, ConcernStreamsAreIndependent) {
  // Adding churn must not re-roll device assignment or arrival rates.
  ScenarioSpec spec = heterogeneous_spec();
  spec.churn.churn_fraction = 0.0;
  const std::vector<PerUserConfig> without = generate_fleet(spec, 7);
  spec.churn.churn_fraction = 0.5;
  const std::vector<PerUserConfig> with = generate_fleet(spec, 7);
  for (std::size_t i = 0; i < without.size(); ++i) {
    EXPECT_EQ(without[i].device, with[i].device);
    EXPECT_EQ(without[i].arrival_probability, with[i].arrival_probability);
    EXPECT_EQ(without[i].use_lte, with[i].use_lte);
  }
}

TEST(GenerateFleet, DeviceMixApportionsExactly) {
  ScenarioSpec spec;
  spec.num_users = 8;
  spec.device_mix = {{device::DeviceKind::kPixel2, 0.5},
                     {device::DeviceKind::kNexus6, 0.25},
                     {device::DeviceKind::kHikey970, 0.25}};
  const std::vector<PerUserConfig> fleet = generate_fleet(spec, 3);
  std::size_t pixel2 = 0, nexus6 = 0, hikey = 0;
  for (const PerUserConfig& user : fleet) {
    ASSERT_TRUE(user.device.has_value());
    pixel2 += *user.device == device::DeviceKind::kPixel2 ? 1 : 0;
    nexus6 += *user.device == device::DeviceKind::kNexus6 ? 1 : 0;
    hikey += *user.device == device::DeviceKind::kHikey970 ? 1 : 0;
  }
  EXPECT_EQ(pixel2, 4u);
  EXPECT_EQ(nexus6, 2u);
  EXPECT_EQ(hikey, 2u);
}

TEST(GenerateFleet, LargestRemainderCoversOddPopulations) {
  ScenarioSpec spec;
  spec.num_users = 7;  // 1/3 splits do not divide 7
  spec.device_mix = {{device::DeviceKind::kPixel2, 1.0 / 3.0},
                     {device::DeviceKind::kNexus6, 1.0 / 3.0},
                     {device::DeviceKind::kHikey970, 1.0 / 3.0}};
  const std::vector<PerUserConfig> fleet = generate_fleet(spec, 3);
  std::size_t assigned = 0;
  for (const PerUserConfig& user : fleet) {
    assigned += user.device.has_value() ? 1 : 0;
  }
  EXPECT_EQ(assigned, 7u);  // every user got a device, none left over
}

TEST(GenerateFleet, LognormalRatesPreserveTheMean) {
  ScenarioSpec spec;
  spec.num_users = 4000;
  spec.arrival.distribution = ArrivalSpec::Distribution::kLogNormal;
  spec.arrival.mean_probability = 0.002;
  spec.arrival.sigma = 0.5;
  const std::vector<PerUserConfig> fleet = generate_fleet(spec, 11);
  double sum = 0.0;
  for (const PerUserConfig& user : fleet) {
    ASSERT_TRUE(user.arrival_probability.has_value());
    EXPECT_GE(*user.arrival_probability, 0.0);
    sum += *user.arrival_probability;
  }
  EXPECT_NEAR(sum / static_cast<double>(fleet.size()), 0.002, 0.0002);
}

TEST(GenerateFleet, UniformRatesStayInBounds) {
  ScenarioSpec spec;
  spec.num_users = 200;
  spec.arrival.distribution = ArrivalSpec::Distribution::kUniform;
  spec.arrival.min_probability = 0.001;
  spec.arrival.max_probability = 0.005;
  for (const PerUserConfig& user : generate_fleet(spec, 13)) {
    ASSERT_TRUE(user.arrival_probability.has_value());
    EXPECT_GE(*user.arrival_probability, 0.001);
    EXPECT_LT(*user.arrival_probability, 0.005);
  }
}

TEST(GenerateFleet, TimezoneSpreadShiftsAndWrapsPeaks) {
  ScenarioSpec spec;
  spec.num_users = 300;
  spec.diurnal.enabled = true;
  spec.diurnal.peak_hour = 22.0;
  spec.diurnal.timezone_spread_hours = 12.0;  // 16:00 .. 28:00 -> wraps
  std::set<double> peaks;
  for (const PerUserConfig& user : generate_fleet(spec, 17)) {
    EXPECT_GE(user.diurnal_peak_hour, 0.0);
    EXPECT_LT(user.diurnal_peak_hour, 24.0);
    peaks.insert(user.diurnal_peak_hour);
  }
  EXPECT_GT(peaks.size(), 100u);  // genuinely spread, not collapsed
}

TEST(GenerateFleet, LteFractionApportioned) {
  ScenarioSpec spec;
  spec.num_users = 40;
  spec.network.lte_fraction = 0.25;
  std::size_t lte = 0, wifi = 0;
  for (const PerUserConfig& user : generate_fleet(spec, 19)) {
    ASSERT_TRUE(user.use_lte.has_value());  // non-zero fraction pins all
    lte += *user.use_lte ? 1 : 0;
    wifi += *user.use_lte ? 0 : 1;
  }
  EXPECT_EQ(lte, 10u);
  EXPECT_EQ(wifi, 30u);
}

TEST(GenerateFleet, ChurnWindowsRespectPresenceBounds) {
  ScenarioSpec spec;
  spec.num_users = 100;
  spec.horizon_slots = 5000;
  spec.churn.churn_fraction = 0.3;
  spec.churn.min_presence = 0.2;
  spec.churn.max_presence = 0.5;
  std::size_t churners = 0;
  for (const PerUserConfig& user : generate_fleet(spec, 23)) {
    if (user.leave_slot == kNeverLeaves) {
      EXPECT_EQ(user.join_slot, 0);
      continue;
    }
    ++churners;
    const auto length = user.leave_slot - user.join_slot;
    EXPECT_GE(user.join_slot, 0);
    EXPECT_LE(user.leave_slot, 5000);
    EXPECT_GE(length, 999);   // 0.2 * 5000, llround slack
    EXPECT_LE(length, 2501);  // 0.5 * 5000
  }
  EXPECT_EQ(churners, 30u);
}

TEST(ValidateSpec, RejectsBadSpecs) {
  ScenarioSpec spec;
  spec.num_users = 0;
  EXPECT_THROW(validate(spec), std::invalid_argument);

  spec = ScenarioSpec{};
  spec.device_mix = {{device::DeviceKind::kPixel2, 0.5}};  // sums to 0.5
  EXPECT_THROW(validate(spec), std::invalid_argument);

  spec = ScenarioSpec{};
  spec.device_mix = {{device::DeviceKind::kPixel2, 0.5},
                     {device::DeviceKind::kPixel2, 0.5}};  // duplicate
  EXPECT_THROW(validate(spec), std::invalid_argument);

  spec = ScenarioSpec{};
  spec.arrival.distribution = ArrivalSpec::Distribution::kUniform;
  spec.arrival.min_probability = 0.5;
  spec.arrival.max_probability = 0.1;  // inverted bounds
  EXPECT_THROW(validate(spec), std::invalid_argument);

  spec = ScenarioSpec{};
  spec.churn.churn_fraction = 0.5;
  spec.churn.min_presence = 0.0;  // empty window possible
  EXPECT_THROW(validate(spec), std::invalid_argument);

  spec = ScenarioSpec{};
  spec.diurnal.peak_hour = 24.0;  // outside [0, 24)
  EXPECT_THROW(validate(spec), std::invalid_argument);
}

// ----------------------------------------------------------- driver side

TEST(ScenarioDriver, TrivialSpecMatchesHomogeneousGoldenPath) {
  // The acceptance contract: the default (homogeneous) scenario produces
  // bit-identical ExperimentResult fingerprints to the pre-scenario
  // config, for all four schedulers — i.e. expanding the trivial spec
  // through apply_scenario is a no-op on results.
  for (const auto kind :
       {core::SchedulerKind::kImmediate, core::SchedulerKind::kSyncSgd,
        core::SchedulerKind::kOffline, core::SchedulerKind::kOnline}) {
    core::ExperimentConfig cfg;
    cfg.scheduler = kind;
    cfg.num_users = 10;
    cfg.horizon_slots = 1500;
    cfg.arrival_probability = 0.002;
    cfg.seed = 42;

    ScenarioSpec trivial;
    trivial.num_users = cfg.num_users;
    trivial.horizon_slots = cfg.horizon_slots;
    trivial.arrival.mean_probability = cfg.arrival_probability;
    const core::ExperimentConfig expanded =
        core::apply_scenario_arena(trivial, cfg);
    ASSERT_EQ(expanded.fleet->size(), cfg.num_users);

    EXPECT_EQ(testing::fingerprint(core::run_experiment(expanded)),
              testing::fingerprint(core::run_experiment(cfg)))
        << core::scheduler_name(kind);
  }
}

TEST(ScenarioDriver, ApplyScenarioOwnsArrivalsAndNetwork) {
  // The spec owns the population outright: a leftover arrival trace or
  // LTE default in the base config must not silently survive the overlay.
  core::ExperimentConfig base;
  base.arrival_trace_path = "/tmp/leftover_usage.csv";
  base.use_lte = true;
  ScenarioSpec wifi_only;
  wifi_only.num_users = 5;
  wifi_only.network.lte_fraction = 0.0;
  const core::ExperimentConfig cfg =
      core::apply_scenario_arena(wifi_only, base);
  EXPECT_TRUE(cfg.arrival_trace_path.empty());
  EXPECT_FALSE(cfg.use_lte);

  ScenarioSpec all_lte = wifi_only;
  all_lte.network.lte_fraction = 1.0;
  EXPECT_TRUE(core::apply_scenario_arena(all_lte, base).use_lte);
}

TEST(ScenarioDriver, PerUserDevicePinEqualsFixedDevice) {
  // Pinning every user's device through the fleet consumes the same RNG
  // stream as fixed_device (neither draws), so the runs are bit-identical.
  core::ExperimentConfig fixed;
  fixed.num_users = 6;
  fixed.horizon_slots = 1000;
  fixed.arrival_probability = 0.003;
  fixed.seed = 5;
  fixed.fixed_device = device::DeviceKind::kPixel2;

  core::ExperimentConfig pinned = fixed;
  pinned.fixed_device.reset();
  std::vector<PerUserConfig> fleet(pinned.num_users);
  for (PerUserConfig& user : fleet) user.device = device::DeviceKind::kPixel2;
  testing::set_fleet(pinned, fleet);

  EXPECT_EQ(testing::fingerprint(core::run_experiment(pinned)),
            testing::fingerprint(core::run_experiment(fixed)));
}

TEST(ScenarioDriver, ChurnRunsGreenUnderAllSchedulers) {
  // Users joining/leaving mid-horizon must not deadlock the sync barrier,
  // break the offline window planner, or wedge the Lyapunov queues.
  ScenarioSpec spec = heterogeneous_spec();
  spec.num_users = 20;
  spec.horizon_slots = 2500;
  for (const auto kind :
       {core::SchedulerKind::kImmediate, core::SchedulerKind::kSyncSgd,
        core::SchedulerKind::kOffline, core::SchedulerKind::kOnline}) {
    core::ExperimentConfig cfg;
    cfg.seed = 9;
    cfg.scheduler = kind;
    cfg = core::apply_scenario_arena(spec, cfg);
    const core::ExperimentResult result = core::run_experiment(cfg);
    EXPECT_GT(result.total_updates, 0u) << core::scheduler_name(kind);
    EXPECT_GT(result.total_energy_j, 0.0) << core::scheduler_name(kind);
  }
}

TEST(ScenarioDriver, AbsentUsersBurnNoEnergy) {
  // A fleet where half the users are only present for the first tenth of
  // the horizon must spend strictly less energy than the always-on fleet.
  core::ExperimentConfig always_on;
  always_on.num_users = 10;
  always_on.horizon_slots = 2000;
  always_on.arrival_probability = 0.002;
  always_on.seed = 31;
  always_on.scheduler = core::SchedulerKind::kImmediate;

  core::ExperimentConfig churned = always_on;
  std::vector<PerUserConfig> fleet(churned.num_users);
  for (std::size_t i = 0; i < fleet.size(); i += 2) fleet[i].leave_slot = 200;
  testing::set_fleet(churned, fleet);

  const double full = core::run_experiment(always_on).total_energy_j;
  const double partial = core::run_experiment(churned).total_energy_j;
  EXPECT_LT(partial, 0.75 * full);
  EXPECT_GT(partial, 0.0);
}

TEST(ScenarioDriver, LateJoinersContributeUpdates) {
  core::ExperimentConfig cfg;
  cfg.num_users = 4;
  cfg.horizon_slots = 2000;
  cfg.arrival_probability = 0.002;
  cfg.seed = 12;
  cfg.scheduler = core::SchedulerKind::kImmediate;
  std::vector<PerUserConfig> fleet(cfg.num_users);
  for (PerUserConfig& user : fleet) user.join_slot = 1000;
  testing::set_fleet(cfg, fleet);
  const core::ExperimentResult result = core::run_experiment(cfg);
  EXPECT_GT(result.total_updates, 0u);
  // Nobody present before slot 1000: roughly half the always-on energy.
  core::ExperimentConfig always = cfg;
  always.fleet.reset();
  EXPECT_LT(result.total_energy_j,
            0.75 * core::run_experiment(always).total_energy_j);
}

TEST(ScenarioDriver, SyncBarrierReleasesDepartedUsers) {
  // Half the fleet departs early enough to be parked at the round barrier
  // (or mid-flight) when it leaves: rounds must still complete, and the
  // departed users must stop metering once their in-flight work drains —
  // strictly cheaper than the always-on fleet.
  core::ExperimentConfig cfg;
  cfg.scheduler = core::SchedulerKind::kSyncSgd;
  cfg.num_users = 4;
  cfg.horizon_slots = 3000;
  cfg.arrival_probability = 0.002;
  cfg.seed = 21;
  core::ExperimentConfig churned = cfg;
  std::vector<PerUserConfig> fleet(churned.num_users);
  fleet[2].leave_slot = 400;
  fleet[3].leave_slot = 400;
  testing::set_fleet(churned, fleet);
  const core::ExperimentResult partial = core::run_experiment(churned);
  EXPECT_GT(partial.total_updates, 0u);  // the barrier never deadlocks
  EXPECT_LT(partial.total_energy_j,
            core::run_experiment(cfg).total_energy_j);
}

TEST(ScenarioDriver, RejectsMalformedFleet) {
  core::ExperimentConfig cfg;
  cfg.num_users = 4;
  cfg.horizon_slots = 100;
  std::vector<PerUserConfig> fleet(3);  // wrong cardinality
  testing::set_fleet(cfg, fleet);
  EXPECT_THROW((void)core::run_experiment(cfg), std::invalid_argument);

  fleet.assign(4, PerUserConfig{});
  fleet[1].join_slot = 50;
  fleet[1].leave_slot = 50;  // empty presence window
  testing::set_fleet(cfg, fleet);
  EXPECT_THROW((void)core::run_experiment(cfg), std::invalid_argument);
}

TEST(AssignDevice, PinnedKindWinsWithoutDrawingAndUniformOtherwise) {
  util::Rng rng{1};
  const util::Rng untouched = rng;
  EXPECT_EQ(assign_device(device::DeviceKind::kNexus6P, rng),
            device::DeviceKind::kNexus6P);
  // No draw happened: the next uniform matches a pristine copy.
  util::Rng copy = untouched;
  EXPECT_EQ(rng(), copy());

  std::set<device::DeviceKind> seen;
  for (int i = 0; i < 200; ++i) seen.insert(assign_device(std::nullopt, rng));
  EXPECT_EQ(seen.size(), device::kDeviceKinds);
}

}  // namespace
}  // namespace fedco::scenario
