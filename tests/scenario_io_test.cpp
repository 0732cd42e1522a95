// ScenarioSpec <-> JSON: strict round-trip (equality after reload, unknown
// keys rejected, partial documents keep defaults), token vocabularies, and
// the shipped example scenario files' schema.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "scenario/scenario_io.hpp"

namespace fedco::scenario {
namespace {

ScenarioSpec exotic_spec() {
  // Deviate from every default to make the round-trip meaningful.
  ScenarioSpec spec;
  spec.name = "exotic \"quoted\" fleet";
  spec.num_users = 321;
  spec.horizon_slots = 4567;
  spec.device_mix = {{device::DeviceKind::kHikey970, 0.125},
                     {device::DeviceKind::kPixel2, 0.5},
                     {device::DeviceKind::kNexus6, 0.375}};
  spec.arrival.distribution = ArrivalSpec::Distribution::kLogNormal;
  spec.arrival.mean_probability = 0.0031;
  spec.arrival.min_probability = 0.0001;
  spec.arrival.max_probability = 0.01;
  spec.arrival.sigma = 0.77;
  spec.diurnal.enabled = true;
  spec.diurnal.swing = 0.65;
  spec.diurnal.peak_hour = 21.5;
  spec.diurnal.timezone_spread_hours = 9.25;
  spec.network.lte_fraction = 0.4;
  spec.churn.churn_fraction = 0.3;
  spec.churn.min_presence = 0.35;
  spec.churn.max_presence = 0.85;
  // Exercise every fault-schema field: a fraction-sampled outage, a
  // band-selected outage (with the midnight wrap), both netem profiles'
  // shapes, commute churn, and a trace directory.
  OutageSpec sampled;
  sampled.region = "flaky_isp";
  sampled.start_slot = 120;
  sampled.end_slot = 480;
  sampled.fraction = 0.25;
  OutageSpec band;
  band.region = "apac";
  band.start_slot = 900;
  band.end_slot = 1300;
  band.band_begin_hour = 19.5;
  band.band_end_hour = 1.0;
  spec.faults.outages = {sampled, band};
  spec.faults.degradations = {{"evening_congestion", 0.5},
                              {"cell_brownout", 0.125}};
  spec.faults.commute.fraction = 0.4;
  spec.faults.commute.period_slots = 720;
  spec.faults.commute.on_slots = 300;
  spec.faults.trace_dir = "/tmp/fedco_traces";
  spec.priority.vip_fraction = 0.15;
  spec.priority.vip_weight = 6.5;
  spec.priority.default_weight = 0.75;
  spec.stream_rng = false;  // trace_dir is incompatible with stream_rng
  return spec;
}

TEST(ScenarioIo, RoundTripYieldsEqualSpec) {
  const ScenarioSpec original = exotic_spec();
  EXPECT_TRUE(spec_from_json(spec_to_json(original)) == original);
}

TEST(ScenarioIo, DefaultSpecRoundTrips) {
  EXPECT_TRUE(spec_from_json(spec_to_json(ScenarioSpec{})) == ScenarioSpec{});
}

TEST(ScenarioIo, PartialDocumentKeepsDefaults) {
  const ScenarioSpec spec = spec_from_json(
      R"({"num_users": 64, "churn": {"churn_fraction": 0.2}})");
  EXPECT_EQ(spec.num_users, 64u);
  EXPECT_EQ(spec.churn.churn_fraction, 0.2);
  ScenarioSpec defaults;
  EXPECT_EQ(spec.horizon_slots, defaults.horizon_slots);
  EXPECT_TRUE(spec.arrival == defaults.arrival);
  EXPECT_EQ(spec.churn.min_presence, defaults.churn.min_presence);
}

TEST(ScenarioIo, UnknownKeysThrow) {
  EXPECT_THROW((void)spec_from_json(R"({"users": 10})"),
               std::invalid_argument);
  EXPECT_THROW((void)spec_from_json(R"({"arrival": {"rate": 0.001}})"),
               std::invalid_argument);
  EXPECT_THROW((void)spec_from_json(R"({"diurnal": {"peak": 20}})"),
               std::invalid_argument);
  EXPECT_THROW((void)spec_from_json(R"({"network": {"lte": 0.5}})"),
               std::invalid_argument);
  EXPECT_THROW((void)spec_from_json(R"({"churn": {"fraction": 0.5}})"),
               std::invalid_argument);
  EXPECT_THROW((void)spec_from_json(R"({"device_mix": {"iphone": 1.0}})"),
               std::invalid_argument);
  EXPECT_THROW((void)spec_from_json(R"({"faults": {"blackouts": []}})"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)spec_from_json(R"({"faults": {"commute": {"period": 100}}})"),
      std::invalid_argument);
}

TEST(ScenarioIo, TypeAndRangeErrorsThrow) {
  EXPECT_THROW((void)spec_from_json(R"({"num_users": "many"})"),
               std::invalid_argument);
  EXPECT_THROW((void)spec_from_json(R"({"num_users": 2.5})"),
               std::invalid_argument);
  EXPECT_THROW((void)spec_from_json(R"({"num_users": 0})"),
               std::invalid_argument);  // validated after parsing
  EXPECT_THROW((void)spec_from_json(
                   R"({"device_mix": {"pixel2": 0.5, "nexus6": 0.2}})"),
               std::invalid_argument);  // fractions must sum to 1
  EXPECT_THROW((void)spec_from_json(R"({"arrival": 7})"),
               std::invalid_argument);
  // Per-user slot columns are int32.
  EXPECT_THROW((void)spec_from_json(R"({"horizon_slots": 3000000000})"),
               std::invalid_argument);
  EXPECT_EQ(spec_from_json(R"({"horizon_slots": 2147483647})").horizon_slots,
            2147483647);
}

// Every semantic rejection the fault schema promises (docs/scenarios.md):
// bad specs must fail loudly at load time, never run with a silently
// patched fleet.
TEST(ScenarioIo, MalformedFaultSpecsThrow) {
  const auto rejects = [](const char* json, const char* needle) {
    try {
      (void)spec_from_json(json);
      FAIL() << "accepted: " << json;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string{error.what()}.find(needle), std::string::npos)
          << error.what();
    }
  };
  rejects(R"({"faults": {"degradations": [{"profile": "solar_flare"}]}})",
          "unknown degradation profile 'solar_flare'");
  rejects(R"({"faults": {"outages": [
             {"region": "eu", "start_slot": 0, "end_slot": 100, "fraction": 0.5},
             {"region": "eu", "start_slot": 50, "end_slot": 150, "fraction": 0.5}]}})",
          "outage windows for the same region overlap");
  rejects(R"({"faults": {"outages": [
             {"region": "eu", "start_slot": -5, "end_slot": 100, "fraction": 0.5}]}})",
          "non-negative");
  rejects(R"({"faults": {"outages": [
             {"region": "", "start_slot": 0, "end_slot": 100, "fraction": 0.5}]}})",
          "outage region must be non-empty");
  rejects(R"({"faults": {"outages": [
             {"region": "eu", "start_slot": 100, "end_slot": 100, "fraction": 0.5}]}})",
          "outage window is empty");
  rejects(R"({"faults": {"outages": [
             {"region": "eu", "start_slot": 0, "end_slot": 100}]}})",
          "outage needs fraction in (0, 1] or a band_begin_hour");
  rejects(R"({"faults": {"outages": [{"region": "eu", "start_slot": 0,
             "end_slot": 100, "band_begin_hour": 3.0, "band_end_hour": 24.0}]}})",
          "outage band hours must be in [0, 24)");
  rejects(R"({"faults": {"commute": {"fraction": 0.5, "period_slots": 100,
             "on_slots": 100}}})",
          "commute needs 0 < on_slots < period_slots");
  rejects(R"({"faults": {"commute": {"fraction": 1.5, "period_slots": 100,
             "on_slots": 50}}})",
          "commute.fraction must be in [0, 1]");
  rejects(R"({"stream_rng": true, "faults": {"trace_dir": "/tmp/x"}})",
          "faults.trace_dir is incompatible with stream_rng");
  // Fraction bounds on otherwise-valid fault entries: out-of-(0, 1]
  // fractions must be rejected, not clamped.
  rejects(R"({"faults": {"outages": [
             {"region": "eu", "start_slot": 0, "end_slot": 100, "fraction": 1.5}]}})",
          "outage needs fraction in (0, 1]");
  rejects(R"({"faults": {"outages": [
             {"region": "eu", "start_slot": 0, "end_slot": 100, "fraction": 0.0}]}})",
          "outage needs fraction in (0, 1]");
  rejects(R"({"faults": {"degradations": [
             {"profile": "cell_brownout", "fraction": 1.5}]}})",
          "degradation fraction must be in (0, 1]");
  rejects(R"({"faults": {"degradations": [
             {"profile": "cell_brownout", "fraction": 0.0}]}})",
          "degradation fraction must be in (0, 1]");
}

// The priority-block schema (docs/scenarios.md): same strictness contract
// as the fault schema — unknown keys, wrong types, and out-of-range
// weights all fail at load time.
TEST(ScenarioIo, MalformedPrioritySpecsThrow) {
  const auto rejects = [](const char* json, const char* needle) {
    try {
      (void)spec_from_json(json);
      FAIL() << "accepted: " << json;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string{error.what()}.find(needle), std::string::npos)
          << error.what();
    }
  };
  rejects(R"({"priority": {"vip_fraction": -0.1}})",
          "priority.vip_fraction must be in [0, 1]");
  rejects(R"({"priority": {"vip_fraction": 1.5}})",
          "priority.vip_fraction must be in [0, 1]");
  rejects(R"({"priority": {"vip_fraction": 0.2, "vip_weight": 0.0}})",
          "priority.vip_weight must be positive");
  rejects(R"({"priority": {"vip_fraction": 0.2, "vip_weight": -4.0}})",
          "priority.vip_weight must be positive");
  rejects(R"({"priority": {"default_weight": 0.0}})",
          "priority.default_weight must be positive");
  rejects(R"({"priority": {"default_weight": -1.0}})",
          "priority.default_weight must be positive");
  // Strict-JSON: unknown keys and wrong types inside the block are fatal.
  EXPECT_THROW((void)spec_from_json(R"({"priority": {"vip_share": 0.2}})"),
               std::invalid_argument);
  EXPECT_THROW((void)spec_from_json(R"({"priority": {"vip_weight": "high"}})"),
               std::invalid_argument);
  EXPECT_THROW((void)spec_from_json(R"({"priority": 4.0})"),
               std::invalid_argument);
}

TEST(ScenarioIo, FileRoundTrip) {
  const std::string path = "/tmp/fedco_scenario_io_test.json";
  const ScenarioSpec original = exotic_spec();
  save_scenario_json(path, original);
  EXPECT_TRUE(load_scenario_json(path) == original);
  std::remove(path.c_str());
  EXPECT_THROW((void)load_scenario_json("/no/such/scenario.json"),
               std::runtime_error);
}

TEST(ScenarioIo, TokenVocabularies) {
  for (const auto kind : device::all_devices()) {
    EXPECT_EQ(parse_device_kind_token(device_kind_token(kind)), kind);
  }
  EXPECT_EQ(parse_device_kind_token("Pixel2"), device::DeviceKind::kPixel2);
  EXPECT_THROW((void)parse_device_kind_token("mixed"), std::invalid_argument);

  for (const auto distribution : {ArrivalSpec::Distribution::kFixed,
                                  ArrivalSpec::Distribution::kUniform,
                                  ArrivalSpec::Distribution::kLogNormal}) {
    EXPECT_EQ(parse_arrival_distribution_token(
                  arrival_distribution_token(distribution)),
              distribution);
  }
  EXPECT_EQ(parse_arrival_distribution_token("log-normal"),
            ArrivalSpec::Distribution::kLogNormal);
  EXPECT_THROW((void)parse_arrival_distribution_token("poisson"),
               std::invalid_argument);
}

}  // namespace
}  // namespace fedco::scenario
