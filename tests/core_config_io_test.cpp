// ExperimentConfig <-> JSON round-trip: equality after reload (arena
// fleets included), identical seeded results, token vocabularies, strict
// unknown-key handling, load-time per_user and arrival-law validation, and
// loading from a full result document.
#include <gtest/gtest.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "core/config_io.hpp"
#include "core/result_io.hpp"
#include "golden_fingerprint.hpp"
#include "scenario/netem_profiles.hpp"
#include "scenario/scenario_io.hpp"

namespace fedco::core {
namespace {

ExperimentConfig exotic_config() {
  // Deviate from every default to make the round-trip meaningful.
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kOffline;
  cfg.num_users = 7;
  cfg.horizon_slots = 1234;
  cfg.slot_seconds = 0.5;
  cfg.seed = 987654321;
  cfg.arrival_probability = 0.0123;
  cfg.diurnal = true;
  cfg.diurnal_swing = 0.63;
  cfg.arrival_trace_path = "/tmp/some trace \"quoted\".csv";
  cfg.fixed_device = device::DeviceKind::kHikey970;
  cfg.V = 12345.5;
  cfg.lb = 321.25;
  cfg.epsilon = 0.0625;
  cfg.offline_window_slots = 250;
  cfg.offline_lb = 456.5;
  cfg.eta = 0.07;
  cfg.beta = 0.85;
  cfg.real_training = true;
  cfg.model = ModelKind::kLenet5;
  cfg.aggregation.kind = fl::AggregationKind::kDelayComp;
  cfg.aggregation.fedasync_alpha0 = 0.7;
  cfg.aggregation.fedasync_decay = 0.4;
  cfg.aggregation.delay_comp_lambda = 0.3;
  cfg.dirichlet_alpha = 0.9;
  cfg.gap_aware_lr = true;
  cfg.weight_prediction = true;
  cfg.batch_size = 13;
  cfg.dataset.classes = 5;
  cfg.dataset.channels = 1;
  cfg.dataset.height = 12;
  cfg.dataset.width = 14;
  cfg.dataset.train_per_class = 33;
  cfg.dataset.test_per_class = 9;
  cfg.dataset.noise_stddev = 0.31;
  cfg.dataset.jitter_brightness = 0.11;
  cfg.dataset.max_shift = 3;
  cfg.dataset.seed = 77;
  cfg.eval_interval_s = 111.5;
  cfg.model_bytes = 1'000'001;
  cfg.use_lte = true;
  cfg.decision_eval_seconds = 0.015;
  cfg.decision_interval_slots = 7;
  cfg.upload_drop_probability = 0.05;
  cfg.track_battery = true;
  cfg.battery.capacity_mah = 1800.5;
  cfg.battery.voltage_v = 3.7;
  cfg.battery.initial_soc = 0.95;
  cfg.battery.recharge_at_soc = 0.2;
  cfg.min_soc_to_train = 0.25;
  cfg.enable_thermal = true;
  cfg.thermal.ambient_c = 22.5;
  cfg.thermal.throttle_onset_c = 44.0;
  cfg.thermal.critical_c = 64.0;
  cfg.thermal.heating_c_per_joule = 0.07;
  cfg.thermal.cooling_fraction_per_s = 0.018;
  cfg.thermal.max_slowdown = 2.5;
  cfg.record_interval = 4;
  cfg.record_per_user_gaps = true;
  std::vector<scenario::PerUserConfig> fleet(7);
  fleet[0].device = device::DeviceKind::kNexus6;
  fleet[1].arrival_probability = 0.0042;
  fleet[2].diurnal = true;
  fleet[2].diurnal_swing = 0.55;
  fleet[2].diurnal_peak_hour = 7.25;
  fleet[3].use_lte = false;  // explicit false must survive reload
  fleet[4].join_slot = 100;
  fleet[4].leave_slot = 900;
  fleet[4].extra_windows = {{1000, 1100}, {1150, scenario::kNeverLeaves}};
  fleet[5].link_degradations = 0b101;
  fleet[5].priority = 2.5;
  // fleet[6] stays all-default ({} in JSON).
  testing::set_fleet(cfg, fleet);
  return cfg;
}

TEST(ConfigIo, RoundTripYieldsEqualConfig) {
  const ExperimentConfig original = exotic_config();
  const ExperimentConfig reloaded =
      config_from_json(config_to_json(original));
  EXPECT_TRUE(reloaded == original);
}

TEST(ConfigIo, DefaultConfigRoundTrips) {
  EXPECT_TRUE(config_from_json(config_to_json(ExperimentConfig{})) ==
              ExperimentConfig{});
}

TEST(ConfigIo, RoundTripReproducesSeededResult) {
  // The --config acceptance contract: a saved config reloads to the same
  // seeded run, bit for bit.
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kOnline;
  cfg.num_users = 6;
  cfg.horizon_slots = 800;
  cfg.arrival_probability = 0.004;
  cfg.seed = 77;
  cfg.V = 1234.5;
  const ExperimentConfig reloaded = config_from_json(config_to_json(cfg));
  ASSERT_TRUE(reloaded == cfg);
  EXPECT_EQ(testing::fingerprint(run_experiment(reloaded)),
            testing::fingerprint(run_experiment(cfg)));
}

TEST(ConfigIo, FileRoundTrip) {
  const std::string path = "/tmp/fedco_config_io_test.json";
  const ExperimentConfig original = exotic_config();
  save_config_json(path, original);
  EXPECT_TRUE(load_config_json(path) == original);
  std::remove(path.c_str());
  EXPECT_THROW((void)load_config_json("/no/such/config.json"),
               std::runtime_error);
  // Parse and validation errors name the file too.
  const std::string bad = "/tmp/fedco_config_io_test_bad.json";
  {
    std::ofstream out{bad};
    out << R"({"num_users":1,"per_user":[{"priority":-1}]})";
  }
  try {
    (void)load_config_json(bad);
    ADD_FAILURE() << "accepted a negative priority";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(bad), std::string::npos) << what;
    EXPECT_NE(what.find("per_user[0].priority"), std::string::npos) << what;
  }
  std::remove(bad.c_str());
}

TEST(ConfigIo, PartialDocumentKeepsDefaults) {
  const ExperimentConfig cfg =
      config_from_json(R"({"scheduler":"offline","num_users":3,"V":9.5})");
  EXPECT_EQ(cfg.scheduler, SchedulerKind::kOffline);
  EXPECT_EQ(cfg.num_users, 3u);
  EXPECT_EQ(cfg.V, 9.5);
  ExperimentConfig defaults;
  EXPECT_EQ(cfg.horizon_slots, defaults.horizon_slots);
  EXPECT_EQ(cfg.lb, defaults.lb);
  EXPECT_TRUE(cfg.dataset == defaults.dataset);
}

TEST(ConfigIo, UnknownKeysThrow) {
  EXPECT_THROW((void)config_from_json(R"({"horizons":100})"),
               std::invalid_argument);
  EXPECT_THROW((void)config_from_json(R"({"dataset":{"heigth":8}})"),
               std::invalid_argument);
  EXPECT_THROW((void)config_from_json(R"({"num_users":"ten"})"),
               std::invalid_argument);
  EXPECT_THROW((void)config_from_json(R"({"num_users":2.5})"),
               std::invalid_argument);
}

TEST(ConfigIo, PerUserEntriesAreStrict) {
  // per_user rides the same strictness contract as the rest of the config.
  EXPECT_THROW((void)config_from_json(R"({"per_user":{}})"),
               std::invalid_argument);  // must be an array
  EXPECT_THROW((void)config_from_json(R"({"per_user":[{"devise":"pixel2"}]})"),
               std::invalid_argument);  // typo'd key
  EXPECT_THROW((void)config_from_json(R"({"per_user":[{"device":"iphone"}]})"),
               std::invalid_argument);  // unknown device
  EXPECT_THROW(
      (void)config_from_json(R"({"per_user":[{"join_slot":"soon"}]})"),
      std::invalid_argument);
  const ExperimentConfig cfg = config_from_json(
      R"({"num_users":2,"per_user":[{},{"device":"hikey970","leave_slot":50}]})");
  ASSERT_EQ(cfg.fleet->size(), 2u);
  EXPECT_TRUE(cfg.fleet->user(0).is_default());
  EXPECT_EQ(cfg.fleet->user(1).device, device::DeviceKind::kHikey970);
  EXPECT_EQ(cfg.fleet->user(1).leave_slot, 50);
}

void rejects(const char* json, const char* needle) {
  try {
    (void)config_from_json(json);
    FAIL() << "accepted: " << json;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string{error.what()}.find(needle), std::string::npos)
        << error.what();
  }
}

// Every per_user value the driver would reject mid-run, or silently
// misread, fails at load time with the entry and field named.
TEST(ConfigIo, MalformedPerUserEntriesAreNamedAtLoad) {
  rejects(R"({"num_users":2,"per_user":[{},{"priority":-1.0}]})",
          "'per_user[1].priority' must be positive and finite");
  rejects(R"({"num_users":1,"per_user":[{"priority":0}]})",
          "'per_user[0].priority' must be positive and finite");
  rejects(R"({"num_users":1,"per_user":[{"link_degradations":4294967297}]})",
          "'per_user[0].link_degradations' sets bits outside the");
  rejects(R"({"num_users":1,"per_user":[{"join_slot":-3}]})",
          "'per_user[0].join_slot' must be non-negative");
  rejects(R"({"num_users":1,"per_user":[{"join_slot":10,"leave_slot":5}]})",
          "'per_user[0].leave_slot' must be after join_slot");
  rejects(R"({"num_users":1,"per_user":[{"leave_slot":100,
             "extra_windows":[{"join":200,"leave":200}]}]})",
          "'per_user[0].extra_windows[0]' is an empty presence window");
  rejects(R"({"num_users":1,"per_user":[{"leave_slot":100,
             "extra_windows":[{"join":50,"leave":200}]}]})",
          "'per_user[0].extra_windows[0]' must start after the previous");
  rejects(R"({"num_users":1,"per_user":[{"leave_slot":100,
             "extra_windows":[{"join":300,"leave":400},
                              {"join":200,"leave":250}]}]})",
          "'per_user[0].extra_windows[1]' must start after the previous");
  // Arrival laws: the ranges scenario::validate enforces on a spec.
  rejects(R"({"num_users":3,"per_user":[{},{},{"arrival_probability":-0.5}]})",
          "'per_user[2].arrival_probability' must be in [0, 1]");
  rejects(R"({"num_users":1,"per_user":[{"arrival_probability":4}]})",
          "'per_user[0].arrival_probability' must be in [0, 1]");
  rejects(R"({"num_users":1,"per_user":[{"diurnal_swing":-3}]})",
          "'per_user[0].diurnal_swing' must be in [0, 1]");
  rejects(R"({"num_users":1,"per_user":[{"diurnal_peak_hour":99}]})",
          "'per_user[0].diurnal_peak_hour' must be in [0, 24)");
  rejects(R"({"num_users":1,"per_user":[{"diurnal_peak_hour":24}]})",
          "'per_user[0].diurnal_peak_hour' must be in [0, 24)");
  rejects(R"({"num_users":3,"per_user":[{},{}]})",
          "'per_user' holds 2 entries but num_users is 3");
  // The length check sees the whole document, whatever its key order.
  EXPECT_EQ(
      config_from_json(R"({"per_user":[{},{}],"num_users":2})").num_users,
      2u);
}

// The fleet-wide arrival law meets the same ranges as per_user entries;
// the boundaries themselves load.
TEST(ConfigIo, OutOfRangeArrivalLawsAreNamedAtLoad) {
  rejects(R"({"arrival_probability":-0.5})",
          "'arrival_probability' must be in [0, 1]");
  rejects(R"({"arrival_probability":4})",
          "'arrival_probability' must be in [0, 1]");
  rejects(R"({"diurnal_swing":7})", "'diurnal_swing' must be in [0, 1]");
  rejects(R"({"slot_seconds":0})", "'slot_seconds' must be positive and finite");
  rejects(R"({"slot_seconds":-2})",
          "'slot_seconds' must be positive and finite");
  const ExperimentConfig edges = config_from_json(
      R"({"arrival_probability":1,"diurnal_swing":0,"slot_seconds":0.5,
          "num_users":1,"per_user":[{"arrival_probability":0,
          "diurnal_swing":1,"diurnal_peak_hour":23.99}]})");
  EXPECT_EQ(edges.arrival_probability, 1.0);
  EXPECT_EQ(edges.fleet->user(0).diurnal_peak_hour, 23.99);
}

// Run knobs the driver divides by, iterates to or hands to the knapsack
// fail at load, named, instead of mid-run (or not at all: a negative
// offline_lb used to plan nothing silently).
TEST(ConfigIo, OutOfRangeRunKnobsAreNamedAtLoad) {
  rejects(R"({"epsilon":-1})", "'epsilon' must be non-negative and finite");
  rejects(R"({"record_interval":0})", "'record_interval' must be positive");
  rejects(R"({"offline_window_slots":0})",
          "'offline_window_slots' must be positive");
  rejects(R"({"horizon_slots":0})", "'horizon_slots' must be positive");
  // Per-user slot columns are int32.
  rejects(R"({"horizon_slots":3000000000})",
          "'horizon_slots' must be at most 2^31 - 1");
  rejects(R"({"offline_lb":-5})", "'offline_lb' must be positive and finite");
  EXPECT_EQ(config_from_json(R"({"horizon_slots":2147483647})").horizon_slots,
            2147483647);
  const ExperimentConfig edges = config_from_json(
      R"({"epsilon":0,"record_interval":1,"offline_window_slots":1,
          "horizon_slots":1,"offline_lb":1e-3})");
  EXPECT_EQ(edges.epsilon, 0.0);
  EXPECT_EQ(edges.record_interval, 1);
  EXPECT_EQ(edges.offline_window_slots, 1);
  EXPECT_EQ(edges.horizon_slots, 1);
  EXPECT_EQ(edges.offline_lb, 1e-3);
}

// The Eq. (16) queue knobs and the environment probabilities meet their
// ranges at load, named; the boundaries themselves load.
TEST(ConfigIo, OutOfRangeQueueAndEnvironmentKnobsAreNamedAtLoad) {
  rejects(R"({"V":-1})", "'V' must be non-negative and finite");
  rejects(R"({"lb":-5})", "'lb' must be non-negative and finite");
  rejects(R"({"Lb":-0.5})", "'Lb' must be non-negative and finite");
  rejects(R"({"upload_drop_probability":2})",
          "'upload_drop_probability' must be in [0, 1]");
  rejects(R"({"upload_drop_probability":-1})",
          "'upload_drop_probability' must be in [0, 1]");
  rejects(R"({"min_soc_to_train":5})", "'min_soc_to_train' must be in [0, 1]");
  rejects(R"({"num_users":0})", "'num_users' must be positive");
  const ExperimentConfig edges = config_from_json(
      R"({"V":0,"lb":0,"upload_drop_probability":1,"min_soc_to_train":1,
          "num_users":1})");
  EXPECT_EQ(edges.V, 0.0);
  EXPECT_EQ(edges.lb, 0.0);
  EXPECT_EQ(edges.upload_drop_probability, 1.0);
  EXPECT_EQ(edges.min_soc_to_train, 1.0);
  EXPECT_EQ(edges.num_users, 1u);
}

// The decision knobs: a non-positive interval used to mean "every slot"
// and a negative evaluation cost was silently ignored.
TEST(ConfigIo, OutOfRangeDecisionKnobsAreNamedAtLoad) {
  rejects(R"({"decision_interval_slots":0})",
          "'decision_interval_slots' must be positive");
  rejects(R"({"decision_interval_slots":-4})",
          "'decision_interval_slots' must be positive");
  rejects(R"({"decision_eval_seconds":-1})",
          "'decision_eval_seconds' must be non-negative and finite");
  const ExperimentConfig edges = config_from_json(
      R"({"decision_interval_slots":1,"decision_eval_seconds":0})");
  EXPECT_EQ(edges.decision_interval_slots, 1);
  EXPECT_EQ(edges.decision_eval_seconds, 0.0);
}

// A NaN or non-positive step size trains nothing and a momentum of 1 or
// more never decays; both fail at load, named.
TEST(ConfigIo, OutOfRangeTrainingKnobsAreNamedAtLoad) {
  rejects(R"({"eta":0})", "'eta' must be positive and finite");
  rejects(R"({"eta":-1})", "'eta' must be positive and finite");
  rejects(R"({"beta":1})", "'beta' must be in [0, 1)");
  rejects(R"({"beta":1.5})", "'beta' must be in [0, 1)");
  rejects(R"({"beta":-0.1})", "'beta' must be in [0, 1)");
  const ExperimentConfig edges =
      config_from_json(R"({"eta":1e-9,"beta":0})");
  EXPECT_EQ(edges.eta, 1e-9);
  EXPECT_EQ(edges.beta, 0.0);
}

TEST(ConfigIo, RetiredGapEngineKeyLoadsAtEitherValueAndIsNotWritten) {
  // Every archive written before the folded engine became the only one
  // carries folded_gap_accrual (false), and before the batched decide and
  // the lazy streams became the only engines, online_batch_decide (true)
  // and pregenerate_streams (false). Each retired engine was bit-identical
  // to its survivor, so the keys select nothing now.
  for (const std::string key :
       {"folded_gap_accrual", "online_batch_decide", "pregenerate_streams"}) {
    EXPECT_TRUE(config_from_json("{\"" + key + "\":false}") ==
                ExperimentConfig{})
        << key;
    EXPECT_TRUE(config_from_json("{\"" + key + "\":true}") ==
                ExperimentConfig{})
        << key;
    EXPECT_THROW((void)config_from_json("{\"" + key + "\":1}"),
                 std::invalid_argument)
        << key;
    EXPECT_EQ(config_to_json(ExperimentConfig{}).find(key), std::string::npos)
        << key;
  }
}

TEST(ConfigIo, RetiredPlannerKeysLoadOnlyAtTheSurvivingSetting) {
  // Archives written before the planner collapse carry these keys.
  EXPECT_TRUE(config_from_json(R"({"offline_incremental_replan":true,
      "offline_parallel_plan":false,"offline_adaptive_grid":false})") ==
              ExperimentConfig{});
  EXPECT_THROW((void)config_from_json(R"({"offline_parallel_plan":true})"),
               std::invalid_argument);
  EXPECT_THROW((void)config_from_json(R"({"offline_adaptive_grid":true})"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)config_from_json(R"({"offline_incremental_replan":false})"),
      std::invalid_argument);
}

TEST(ConfigIo, ArenaConfigsSurviveSaveAndLoad) {
  // A scenario expanded into its fleet arena round-trips through JSON to
  // an equal config that replays the identical run.
  for (const char* name :
       {"commute", "congested_evenings", "vip_priority", "churn"}) {
    const scenario::ScenarioSpec spec = scenario::load_scenario_json(
        std::string{FEDCO_SCENARIOS_DIR} + "/" + name + ".json");
    ExperimentConfig base;
    base.scheduler = SchedulerKind::kOffline;
    const ExperimentConfig original = apply_scenario_arena(spec, base);
    ASSERT_TRUE(original.fleet) << name;
    const ExperimentConfig reloaded =
        config_from_json(config_to_json(original));
    ASSERT_TRUE(reloaded == original) << name;
    EXPECT_EQ(testing::fingerprint(run_experiment(reloaded)),
              testing::fingerprint(run_experiment(original)))
        << name;
  }
}

TEST(ConfigIo, PerUserRoundTripReproducesSeededResult) {
  // A heterogeneous (device-pinned + churned) config survives the JSON
  // round trip bit-for-bit, including the seeded run it produces.
  ExperimentConfig cfg;
  cfg.num_users = 5;
  cfg.horizon_slots = 700;
  cfg.arrival_probability = 0.004;
  cfg.seed = 123;
  std::vector<scenario::PerUserConfig> fleet(5);
  fleet[0].device = device::DeviceKind::kPixel2;
  fleet[1].use_lte = true;
  fleet[2].leave_slot = 350;
  fleet[3].arrival_probability = 0.01;
  testing::set_fleet(cfg, fleet);
  const ExperimentConfig reloaded = config_from_json(config_to_json(cfg));
  ASSERT_TRUE(reloaded == cfg);
  EXPECT_EQ(testing::fingerprint(run_experiment(reloaded)),
            testing::fingerprint(run_experiment(cfg)));
}

TEST(ConfigIo, OutOfRangeIntegersThrow) {
  // Integers travel as doubles; past 2^53 they silently change value, so
  // the loader rejects them instead of corrupting the config.
  EXPECT_THROW((void)config_from_json(R"({"num_users":1e300})"),
               std::invalid_argument);
  EXPECT_THROW((void)config_from_json(R"({"seed":18446744073709551615})"),
               std::invalid_argument);
  EXPECT_THROW((void)config_from_json(R"({"horizon_slots":-1e300})"),
               std::invalid_argument);
  // The 2^53 boundary itself is exact and accepted.
  EXPECT_EQ(config_from_json(R"({"seed":9007199254740992})").seed,
            9007199254740992ULL);
}

TEST(ConfigIo, NonPositiveOfflineWindowIsRejectedByTheDriver) {
  // A zero window would be a modulo-by-zero in the offline replan; the
  // driver's validate throws a named error instead.
  ExperimentConfig cfg;
  cfg.scheduler = SchedulerKind::kOffline;
  cfg.num_users = 2;
  cfg.horizon_slots = 100;
  cfg.offline_window_slots = 0;
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
  cfg.offline_window_slots = 500;
  cfg.record_interval = 0;  // t % record_interval has the same hazard
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
}

// One row per ranged field: an in-range boundary and an out-of-range value,
// a document carrying the value (`%` marks the spot) and the setter for a
// config built in code. Per-user rows set a one-user fleet.
struct RangeRow {
  const char* field;
  double boundary;
  double outside;
  const char* json;
  void (*set)(ExperimentConfig&, double);
};

void set_user(ExperimentConfig& cfg, const scenario::PerUserConfig& user) {
  cfg.num_users = 1;
  testing::set_fleet(cfg, {user});
}

std::string with_value(const char* json, double value) {
  char digits[32];
  const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  const std::string_view text = json;
  const std::size_t at = text.find('%');
  return std::string{text.substr(0, at)}
      .append(digits, end)
      .append(text.substr(at + 1));
}

const std::vector<RangeRow>& range_rows() {
  using PU = scenario::PerUserConfig;
  static const std::vector<RangeRow> rows = {
      {"num_users", 1, 0, R"({"num_users":%})",
       [](ExperimentConfig& c, double v) { c.num_users = std::size_t(v); }},
      {"horizon_slots", 2147483647, 2147483648.0, R"({"horizon_slots":%})",
       [](ExperimentConfig& c, double v) { c.horizon_slots = sim::Slot(v); }},
      {"slot_seconds", 1e-3, 0, R"({"slot_seconds":%})",
       [](ExperimentConfig& c, double v) { c.slot_seconds = v; }},
      // The longest Table II session (997 s) must span at most 2^31 - 1
      // slots, or its slot count overflows an int64 cast (at 1e-300).
      {"slot_seconds", 4.65e-7, 4.6e-7, R"({"slot_seconds":%})",
       [](ExperimentConfig& c, double v) { c.slot_seconds = v; }},
      {"arrival_probability", 1, 1.5, R"({"arrival_probability":%})",
       [](ExperimentConfig& c, double v) { c.arrival_probability = v; }},
      {"diurnal_swing", 0, -0.1, R"({"diurnal_swing":%})",
       [](ExperimentConfig& c, double v) { c.diurnal_swing = v; }},
      {"V", 0, -1, R"({"V":%})",
       [](ExperimentConfig& c, double v) { c.V = v; }},
      {"lb", 0, -1, R"({"lb":%})",
       [](ExperimentConfig& c, double v) { c.lb = v; }},
      {"epsilon", 0, -1e-9, R"({"epsilon":%})",
       [](ExperimentConfig& c, double v) { c.epsilon = v; }},
      {"offline_window_slots", 1, 0, R"({"offline_window_slots":%})",
       [](ExperimentConfig& c, double v) {
         c.offline_window_slots = sim::Slot(v);
       }},
      {"offline_lb", 1e-3, 0, R"({"offline_lb":%})",
       [](ExperimentConfig& c, double v) { c.offline_lb = v; }},
      {"eta", 1e-9, 0, R"({"eta":%})",
       [](ExperimentConfig& c, double v) { c.eta = v; }},
      {"beta", 0, 1, R"({"beta":%})",
       [](ExperimentConfig& c, double v) { c.beta = v; }},
      {"batch_size", 1, 0, R"({"batch_size":%})",
       [](ExperimentConfig& c, double v) { c.batch_size = std::size_t(v); }},
      {"dataset.classes", 1, 0, R"({"dataset":{"classes":%}})",
       [](ExperimentConfig& c, double v) {
         c.dataset.classes = std::size_t(v);
       }},
      {"dataset.channels", 1, 0, R"({"dataset":{"channels":%}})",
       [](ExperimentConfig& c, double v) {
         c.dataset.channels = std::size_t(v);
       }},
      {"dataset.height", 1, 0, R"({"dataset":{"height":%}})",
       [](ExperimentConfig& c, double v) { c.dataset.height = std::size_t(v); }},
      {"dataset.width", 1, 0, R"({"dataset":{"width":%}})",
       [](ExperimentConfig& c, double v) { c.dataset.width = std::size_t(v); }},
      {"decision_eval_seconds", 0, -1, R"({"decision_eval_seconds":%})",
       [](ExperimentConfig& c, double v) { c.decision_eval_seconds = v; }},
      {"decision_interval_slots", 1, 0, R"({"decision_interval_slots":%})",
       [](ExperimentConfig& c, double v) {
         c.decision_interval_slots = sim::Slot(v);
       }},
      {"upload_drop_probability", 1, 2, R"({"upload_drop_probability":%})",
       [](ExperimentConfig& c, double v) { c.upload_drop_probability = v; }},
      {"battery.capacity_mah", 1e-9, 0, R"({"battery":{"capacity_mah":%}})",
       [](ExperimentConfig& c, double v) { c.battery.capacity_mah = v; }},
      {"battery.voltage_v", 1e-9, -1, R"({"battery":{"voltage_v":%}})",
       [](ExperimentConfig& c, double v) { c.battery.voltage_v = v; }},
      {"battery.initial_soc", 0, 1.5, R"({"battery":{"initial_soc":%}})",
       [](ExperimentConfig& c, double v) { c.battery.initial_soc = v; }},
      {"battery.recharge_at_soc", 0, 1,
       R"({"battery":{"recharge_at_soc":%}})",
       [](ExperimentConfig& c, double v) { c.battery.recharge_at_soc = v; }},
      {"min_soc_to_train", 1, -0.5, R"({"min_soc_to_train":%})",
       [](ExperimentConfig& c, double v) { c.min_soc_to_train = v; }},
      {"thermal.throttle_onset_c", 65, 65.5,
       R"({"thermal":{"throttle_onset_c":%}})",
       [](ExperimentConfig& c, double v) { c.thermal.throttle_onset_c = v; }},
      {"thermal.heating_c_per_joule", 0, -1,
       R"({"thermal":{"heating_c_per_joule":%}})",
       [](ExperimentConfig& c, double v) {
         c.thermal.heating_c_per_joule = v;
       }},
      {"thermal.cooling_fraction_per_s", 0, -1,
       R"({"thermal":{"cooling_fraction_per_s":%}})",
       [](ExperimentConfig& c, double v) {
         c.thermal.cooling_fraction_per_s = v;
       }},
      {"thermal.max_slowdown", 1, 0.5, R"({"thermal":{"max_slowdown":%}})",
       [](ExperimentConfig& c, double v) { c.thermal.max_slowdown = v; }},
      {"thermal.max_slowdown", 100, 1e300, R"({"thermal":{"max_slowdown":%}})",
       [](ExperimentConfig& c, double v) { c.thermal.max_slowdown = v; }},
      {"record_interval", 1, 0, R"({"record_interval":%})",
       [](ExperimentConfig& c, double v) { c.record_interval = sim::Slot(v); }},
      {"per_user[0].arrival_probability", 0, -0.5,
       R"({"num_users":1,"per_user":[{"arrival_probability":%}]})",
       [](ExperimentConfig& c, double v) {
         PU u;
         u.arrival_probability = v;
         set_user(c, u);
       }},
      {"per_user[0].diurnal_swing", 1, 1.5,
       R"({"num_users":1,"per_user":[{"diurnal_swing":%}]})",
       [](ExperimentConfig& c, double v) {
         PU u;
         u.diurnal_swing = v;
         set_user(c, u);
       }},
      {"per_user[0].diurnal_peak_hour", 0, 24,
       R"({"num_users":1,"per_user":[{"diurnal_peak_hour":%}]})",
       [](ExperimentConfig& c, double v) {
         PU u;
         u.diurnal_peak_hour = v;
         set_user(c, u);
       }},
      {"per_user[0].join_slot", 0, -1,
       R"({"num_users":1,"per_user":[{"join_slot":%}]})",
       [](ExperimentConfig& c, double v) {
         PU u;
         u.join_slot = sim::Slot(v);
         set_user(c, u);
       }},
      {"per_user[0].leave_slot", 6, 5,
       R"({"num_users":1,"per_user":[{"join_slot":5,"leave_slot":%}]})",
       [](ExperimentConfig& c, double v) {
         PU u;
         u.join_slot = 5;
         u.leave_slot = sim::Slot(v);
         set_user(c, u);
       }},
      {"per_user[0].extra_windows[0]", 11, 10,
       R"({"num_users":1,"per_user":[{"leave_slot":10,
           "extra_windows":[{"join":%,"leave":20}]}]})",
       [](ExperimentConfig& c, double v) {
         PU u;
         u.leave_slot = 10;
         u.extra_windows = {{sim::Slot(v), 20}};
         set_user(c, u);
       }},
      {"per_user[0].link_degradations",
       double((1u << scenario::netem_profile_count()) - 1),
       double(1u << scenario::netem_profile_count()),
       R"({"num_users":1,"per_user":[{"link_degradations":%}]})",
       [](ExperimentConfig& c, double v) {
         PU u;
         u.link_degradations = std::uint32_t(v);
         set_user(c, u);
       }},
      {"per_user[0].priority", 1e-9, 0,
       R"({"num_users":1,"per_user":[{"priority":%}]})",
       [](ExperimentConfig& c, double v) {
         PU u;
         u.priority = v;
         set_user(c, u);
       }},
  };
  return rows;
}

// Every ranged field meets the same rule three ways: core::validate (or
// validate_user for a per_user entry) on a config built in code, the JSON
// loader, and run_experiment. The boundary itself passes the first two.
TEST(ConfigIo, EveryRangedFieldIsRejectedByValidateTheLoaderAndTheDriver) {
  constexpr std::string_view kEntry = "per_user[0].";
  for (const RangeRow& row : range_rows()) {
    SCOPED_TRACE(row.field);
    const std::string_view field = row.field;
    const bool per_user = field.starts_with(kEntry);
    const auto check = [&](const ExperimentConfig& cfg) {
      return per_user ? validate_user(cfg.fleet->user(0)) : validate(cfg);
    };

    ExperimentConfig edge;
    edge.num_users = 2;
    edge.horizon_slots = 50;
    row.set(edge, row.boundary);
    EXPECT_EQ(check(edge), std::nullopt);
    EXPECT_NO_THROW((void)config_from_json(with_value(row.json, row.boundary)))
        << with_value(row.json, row.boundary);

    ExperimentConfig bad;
    bad.num_users = 2;
    bad.horizon_slots = 50;
    row.set(bad, row.outside);
    const auto violation = check(bad);
    ASSERT_NE(violation, std::nullopt);
    EXPECT_EQ(violation->field, per_user ? field.substr(kEntry.size()) : field);
    const std::string named = std::string{"'"} + row.field + "'";
    rejects(with_value(row.json, row.outside).c_str(), named.c_str());
    try {
      (void)run_experiment(bad);
      ADD_FAILURE() << "run_experiment ran with " << row.outside;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string{error.what()}.find(named), std::string::npos)
          << error.what();
    }
  }
}

// ReadyRow::user is a uint32, and so is the user count: the fleet stops
// one short of 2^32. Checked without running a driver.
TEST(ConfigIo, UserCountStopsShortOfTwoToThe32) {
  ExperimentConfig cfg;
  cfg.num_users = 4294967295u;
  EXPECT_EQ(validate(cfg), std::nullopt);
  EXPECT_EQ(config_from_json(R"({"num_users":4294967295})").num_users,
            4294967295u);
  cfg.num_users = 4294967296u;
  const auto violation = validate(cfg);
  ASSERT_NE(violation, std::nullopt);
  EXPECT_EQ(violation->field, "num_users");
  EXPECT_EQ(violation->reason, "must be at most 2^32 - 1");
  rejects(R"({"num_users":4294967296})",
          "'num_users' must be at most 2^32 - 1");
}

// The real-training dataset shape and batch size fail at load, named,
// instead of deep in make_synth_cifar (or, for a zero batch, not at all).
TEST(ConfigIo, DegenerateTrainingShapesAreNamedAtLoad) {
  rejects(R"({"real_training":true,"model":"mlp","dataset":{"classes":0}})",
          "'dataset.classes' must be positive");
  rejects(R"({"dataset":{"height":0}})", "'dataset.height' must be positive");
  rejects(R"({"batch_size":0})", "'batch_size' must be positive");
}

// A zero capacity or a zero recharge step would leave Battery::drain
// without progress; both fail at load, named.
TEST(ConfigIo, BatteryRangesAreNamedAtLoad) {
  rejects(R"({"track_battery":true,"battery":{"capacity_mah":0}})",
          "'battery.capacity_mah' must be positive and finite");
  rejects(R"({"track_battery":true,"battery":{"recharge_at_soc":1.0}})",
          "'battery.recharge_at_soc' must be in [0, 1)");
  rejects(R"({"battery":{"voltage_v":-3.8}})",
          "'battery.voltage_v' must be positive and finite");
  rejects(R"({"battery":{"initial_soc":1.01}})",
          "'battery.initial_soc' must be in [0, 1]");
}

// The two thermal configs that used to run: a slowdown past the lag
// index's reach (the run died allocating it) and a negative cooling rate
// (the model diverged to ~1e85 C). Both fail at load, named. Non-finite
// temperatures, which JSON cannot spell, fail validate and the driver.
TEST(ConfigIo, ThermalRangesAreNamedAtLoad) {
  rejects(R"({"enable_thermal":true,"thermal":{"max_slowdown":1e300}})",
          "'thermal.max_slowdown' must be in [1, 100]");
  rejects(R"({"num_users":2,"horizon_slots":300,"enable_thermal":true,
             "thermal":{"cooling_fraction_per_s":-1}})",
          "'thermal.cooling_fraction_per_s' must be non-negative and finite");
  ExperimentConfig cfg;
  cfg.num_users = 2;
  cfg.horizon_slots = 50;
  cfg.thermal.ambient_c = std::numeric_limits<double>::infinity();
  auto violation = validate(cfg);
  ASSERT_NE(violation, std::nullopt);
  EXPECT_EQ(violation->field, "thermal.ambient_c");
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
  cfg.thermal.ambient_c = 25.0;
  cfg.thermal.throttle_onset_c = std::numeric_limits<double>::quiet_NaN();
  violation = validate(cfg);
  ASSERT_NE(violation, std::nullopt);
  EXPECT_EQ(violation->field, "thermal.throttle_onset_c");
  // max_slowdown stretches the longest session, so it tightens the
  // slot_seconds bound only while thermal is on.
  EXPECT_NO_THROW((void)config_from_json(
      R"({"slot_seconds":1e-5,"thermal":{"max_slowdown":100}})"));
  rejects(R"({"slot_seconds":1e-5,"enable_thermal":true,
             "thermal":{"max_slowdown":100}})",
          "'slot_seconds' is too small");
}

TEST(ConfigIo, LoadsFromResultDocument) {
  // result_to_json embeds the full config; feeding the whole result
  // document back reproduces the originating config.
  const ExperimentConfig cfg = [] {
    ExperimentConfig c;
    c.scheduler = SchedulerKind::kSyncSgd;
    c.num_users = 4;
    c.horizon_slots = 500;
    c.seed = 5;
    return c;
  }();
  const ExperimentResult result = run_experiment(cfg);
  const ExperimentConfig reloaded =
      config_from_json(result_to_json(cfg, result));
  EXPECT_TRUE(reloaded == cfg);
}

// ------------------------------------------------------------- pinned bytes
//
// FNV-1a hashes of the writer's output, captured before the loader and the
// writer were folded into one field table: any change to the written bytes
// (a key's spelling, order or omission rule, a number's form) fails here.

std::uint64_t hash_bytes(const std::string& text) {
  testing::Fingerprint fp;
  fp.add(text);
  return fp.value();
}

TEST(ConfigIoPinnedBytes, DefaultConfig) {
  EXPECT_EQ(hash_bytes(config_to_json(ExperimentConfig{})),
            0x9620EBC43B77A6D1ULL);
}

TEST(ConfigIoPinnedBytes, FullyPopulatedConfig) {
  // Every nested object off its defaults, outages, a trace directory, and
  // per_user entries using every override (exotic_config's fleet: both
  // extra-window forms, a degradation mask, a priority).
  ExperimentConfig cfg = exotic_config();
  cfg.arrival_trace_dir = "/tmp/fedco traces";
  cfg.arrival_streams = true;
  cfg.offline_churn_aware = true;
  cfg.online_churn_aware = true;
  cfg.outages = {{10, 20}, {300, 450}};
  EXPECT_EQ(hash_bytes(config_to_json(cfg)), 0x98718EE54CF92B5FULL);
}

TEST(ConfigIoPinnedBytes, EveryCiConfigReloadsToTheSameBytes) {
  // Each committed ci/*.json document (result and summary archives with an
  // embedded config, some carrying retired keys) loads and saves to the
  // same bytes as before the field table.
  const std::map<std::string, std::uint64_t> pinned = {
      {"churn_offline_archive.json", 0x3D8EB487D03B02E4ULL},
      {"churn_online_archive.json", 0x47238727ACE8F262ULL},
      {"offline_summary.json", 0x3D8EB487D03B02E4ULL},
      {"online_archive.json", 0xEA479D124933BF8CULL},
      {"smoke_summary.json", 0xEA479D124933BF8CULL},
  };
  const std::filesystem::path ci =
      std::filesystem::path{FEDCO_SCENARIOS_DIR}.parent_path().parent_path() /
      "ci";
  std::map<std::string, std::uint64_t> seen;
  for (const auto& entry : std::filesystem::directory_iterator{ci}) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in{entry.path()};
    std::ostringstream text;
    text << in.rdbuf();
    seen[entry.path().filename().string()] =
        hash_bytes(config_to_json(config_from_json(text.str())));
  }
  EXPECT_EQ(seen, pinned);
}

TEST(ConfigIo, SchedulerTokensAcceptBothVocabularies) {
  EXPECT_EQ(parse_scheduler_token("online"), SchedulerKind::kOnline);
  EXPECT_EQ(parse_scheduler_token("Online"), SchedulerKind::kOnline);
  EXPECT_EQ(parse_scheduler_token("sync"), SchedulerKind::kSyncSgd);
  EXPECT_EQ(parse_scheduler_token("Sync-SGD"), SchedulerKind::kSyncSgd);
  EXPECT_EQ(parse_scheduler_token("offline"), SchedulerKind::kOffline);
  EXPECT_EQ(parse_scheduler_token("Immediate"), SchedulerKind::kImmediate);
  EXPECT_THROW((void)parse_scheduler_token("onlin"), std::invalid_argument);
}

TEST(ConfigIo, DeviceAndModelTokens) {
  EXPECT_EQ(parse_device_token("mixed"), std::nullopt);
  EXPECT_EQ(parse_device_token(""), std::nullopt);
  EXPECT_EQ(parse_device_token("pixel2"), device::DeviceKind::kPixel2);
  EXPECT_THROW((void)parse_device_token("iphone"), std::invalid_argument);
  EXPECT_EQ(device_token(std::nullopt), std::string{"mixed"});
  EXPECT_EQ(device_token(device::DeviceKind::kNexus6P),
            std::string{"nexus6p"});
  EXPECT_EQ(parse_model_token("lenet5"), ModelKind::kLenet5);
  EXPECT_EQ(parse_model_token(model_token(ModelKind::kLenetSmall)),
            ModelKind::kLenetSmall);
  EXPECT_THROW((void)parse_model_token("resnet"), std::invalid_argument);
  EXPECT_EQ(parse_aggregation_token("fedasync"),
            fl::AggregationKind::kFedAsync);
  EXPECT_THROW((void)parse_aggregation_token("avg"), std::invalid_argument);
}

}  // namespace
}  // namespace fedco::core
