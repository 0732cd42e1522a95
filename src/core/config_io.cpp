#include "core/config_io.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "scenario/scenario_io.hpp"

namespace fedco::core {

namespace {

constexpr const char* kLoader = "config_io";

[[noreturn]] void reject_field(const std::string& field,
                               const std::string& why) {
  throw std::invalid_argument{std::string{kLoader} + ": '" + field + "' " +
                              why};
}

// The staleness bound loads under either spelling; a range error names the
// one the document used last (the one whose value won).
constexpr const char* kLb = "lb";
constexpr const char* kLbAlias = "Lb";

// ------------------------------------------------------------- vocabularies

constexpr util::JsonToken<SchedulerKind> kSchedulers[] = {
    {SchedulerKind::kImmediate, "immediate"},
    {SchedulerKind::kSyncSgd, "sync"},
    {SchedulerKind::kOffline, "offline"},
    {SchedulerKind::kOnline, "online"},
    // Parse-only: "Sync-SGD" is the display name documents are written with
    // (the other display names are the tokens in another case).
    {SchedulerKind::kSyncSgd, "sync-sgd"},
    {SchedulerKind::kSyncSgd, "syncsgd"},
};

constexpr util::JsonToken<ModelKind> kModels[] = {
    {ModelKind::kMlp, "mlp"},
    {ModelKind::kLenetSmall, "lenet-small"},
    {ModelKind::kLenet5, "lenet5"},
};

constexpr util::JsonToken<fl::AggregationKind> kAggregations[] = {
    {fl::AggregationKind::kReplace, "replace"},
    {fl::AggregationKind::kFedAsync, "fedasync"},
    {fl::AggregationKind::kDelayComp, "delay-comp"},
};

// ------------------------------------------------------------- field tables

using Config = ExperimentConfig;
using Aggregation = fl::AggregationConfig;
using Dataset = data::SynthCifarConfig;
using Battery = device::BatteryConfig;
using Thermal = device::ThermalConfig;
using Outage = ExperimentConfig::OutageWindow;
using PerUser = scenario::PerUserConfig;
using Window = scenario::PresenceWindow;
using util::json_field;
using util::kOmitDefault;

constexpr util::JsonField<Aggregation> kAggregationFields[] = {
    util::json_token_field<&Aggregation::kind, parse_aggregation_token,
                           aggregation_token>("kind"),
    json_field<&Aggregation::fedasync_alpha0>("fedasync_alpha0"),
    json_field<&Aggregation::fedasync_decay>("fedasync_decay"),
    json_field<&Aggregation::delay_comp_lambda>("delay_comp_lambda"),
};

constexpr util::JsonField<Dataset> kDatasetFields[] = {
    json_field<&Dataset::classes>("classes"),
    json_field<&Dataset::channels>("channels"),
    json_field<&Dataset::height>("height"),
    json_field<&Dataset::width>("width"),
    json_field<&Dataset::train_per_class>("train_per_class"),
    json_field<&Dataset::test_per_class>("test_per_class"),
    json_field<&Dataset::noise_stddev>("noise_stddev"),
    json_field<&Dataset::jitter_brightness>("jitter_brightness"),
    json_field<&Dataset::max_shift>("max_shift"),
    json_field<&Dataset::seed>("seed"),
};

constexpr util::JsonField<Battery> kBatteryFields[] = {
    json_field<&Battery::capacity_mah>("capacity_mah"),
    json_field<&Battery::voltage_v>("voltage_v"),
    json_field<&Battery::initial_soc>("initial_soc"),
    json_field<&Battery::recharge_at_soc>("recharge_at_soc"),
};

constexpr util::JsonField<Thermal> kThermalFields[] = {
    json_field<&Thermal::ambient_c>("ambient_c"),
    json_field<&Thermal::throttle_onset_c>("throttle_onset_c"),
    json_field<&Thermal::critical_c>("critical_c"),
    json_field<&Thermal::heating_c_per_joule>("heating_c_per_joule"),
    json_field<&Thermal::cooling_fraction_per_s>("cooling_fraction_per_s"),
    json_field<&Thermal::max_slowdown>("max_slowdown"),
};

constexpr util::JsonField<Outage> kOutageFields[] = {
    json_field<&Outage::start>("start"),
    json_field<&Outage::end>("end"),
};

constexpr util::JsonField<Window> kWindowFields[] = {
    json_field<&Window::join>("join"),
    json_field<&Window::leave>("leave", kOmitDefault),  // absent: never leaves
};

// A per_user entry states only what it changes (absent keys reload as the
// inherit-the-config defaults), so a mostly homogeneous 10k-user fleet
// stays compact. Its ranges are validate_user's, checked by read_per_user.
constexpr util::JsonField<PerUser> kPerUserFields[] = {
    util::json_token_field<&PerUser::device, scenario::parse_device_kind_token,
                           scenario::device_kind_token>("device",
                                                        kOmitDefault),
    json_field<&PerUser::arrival_probability>("arrival_probability",
                                              kOmitDefault),
    json_field<&PerUser::diurnal>("diurnal", kOmitDefault),
    json_field<&PerUser::diurnal_swing>("diurnal_swing", kOmitDefault),
    json_field<&PerUser::diurnal_peak_hour>("diurnal_peak_hour", kOmitDefault),
    json_field<&PerUser::use_lte>("use_lte", kOmitDefault),
    json_field<&PerUser::join_slot>("join_slot", kOmitDefault),
    json_field<&PerUser::leave_slot>("leave_slot", kOmitDefault),
    util::json_array_field<&PerUser::extra_windows, kWindowFields>(
        "extra_windows", kOmitDefault),
    {"link_degradations",
     [](const util::JsonValue& value, const util::JsonScope& scope,
        const std::string& key, PerUser& out) {
       // A mask wider than the 32-bit column cannot narrow; it names
       // profiles past the registry either way, so it is kept as all ones
       // for validate_user to reject.
       const std::uint64_t mask =
           util::json_read_uint(value, key, scope.prefix);
       out.link_degradations = static_cast<std::uint32_t>(
           std::min<std::uint64_t>(mask, UINT32_MAX));
     },
     util::json_write_member<&PerUser::link_degradations>,
     util::json_is_default<&PerUser::link_degradations>},
    json_field<&PerUser::priority>("priority", kOmitDefault),
};

/// The per_user array as a fleet arena; its length is checked by validate
/// once the whole document (whatever its key order) is read. Entries are
/// named by index, as validate_user's errors cite them.
scenario::SharedFleet read_per_user(const util::JsonValue& array,
                                    const util::JsonScope& scope) {
  if (!array.is_array()) reject_field(scope.path, "must be an array");
  std::vector<PerUser> fleet(array.as_array().size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::string where = scope.path + "[" + std::to_string(i) + "]";
    util::json_read_fields(array.as_array()[i], {kLoader, where},
                           kPerUserFields, fleet[i]);
    if (const auto bad = validate_user(fleet[i])) {
      reject_field(where + "." + bad->field, bad->reason);
    }
  }
  return std::make_shared<const scenario::FleetArena>(
      scenario::fleet_arena_from(fleet));
}

// Retired planner switches. Older archives carry them at their defaults
// (incremental on, the others off), which the one remaining planner
// reproduces; any other value is rejected by name.
template <bool kSurvivingSetting>
void read_retired_planner_switch(const util::JsonValue& value,
                                 const util::JsonScope& scope,
                                 const std::string& key, Config& /*out*/) {
  if (util::json_read_bool(value, key, scope.prefix) != kSurvivingSetting) {
    reject_field(key, "is retired; only the default planner remains");
  }
}

// Retired engine switches. folded_gap_accrual archives carry false (the
// per-slot sweep and the lazy chain); the folded engine, now the only one,
// reproduces those runs up to floating-point associativity. The scalar
// decide loop and the pregenerated stream arena were bit-identical to the
// batched pass and the lazy streams. So either value loads.
void read_retired_engine_switch(const util::JsonValue& value,
                                const util::JsonScope& scope,
                                const std::string& key, Config& /*out*/) {
  (void)util::json_read_bool(value, key, scope.prefix);
}

constexpr util::JsonField<Config> kConfigFields[] = {
    // Written as the display name ("Online", "Sync-SGD", ...), which
    // parse_scheduler_token accepts as well as the CLI tokens.
    util::json_token_field<&Config::scheduler, parse_scheduler_token,
                           scheduler_name>("scheduler"),
    json_field<&Config::num_users>("num_users"),
    json_field<&Config::horizon_slots>("horizon_slots"),
    json_field<&Config::slot_seconds>("slot_seconds"),
    json_field<&Config::seed>("seed"),
    json_field<&Config::arrival_probability>("arrival_probability"),
    json_field<&Config::diurnal>("diurnal"),
    json_field<&Config::diurnal_swing>("diurnal_swing"),
    json_field<&Config::arrival_trace_path>("arrival_trace_path"),
    json_field<&Config::arrival_trace_dir>("arrival_trace_dir", kOmitDefault),
    json_field<&Config::arrival_streams>("arrival_streams"),
    util::json_token_field<&Config::fixed_device, parse_device_token,
                           device_token>("fixed_device"),
    json_field<&Config::V>("V"),
    json_field<&Config::lb>(kLb),
    {kLbAlias, util::json_read_member<&Config::lb>},
    json_field<&Config::epsilon>("epsilon"),
    json_field<&Config::offline_window_slots>("offline_window_slots"),
    json_field<&Config::offline_lb>("offline_lb"),
    {"offline_incremental_replan", read_retired_planner_switch<true>},
    {"offline_parallel_plan", read_retired_planner_switch<false>},
    {"offline_adaptive_grid", read_retired_planner_switch<false>},
    {"folded_gap_accrual", read_retired_engine_switch},
    {"online_batch_decide", read_retired_engine_switch},
    {"pregenerate_streams", read_retired_engine_switch},
    json_field<&Config::offline_churn_aware>("offline_churn_aware"),
    json_field<&Config::online_churn_aware>("online_churn_aware"),
    json_field<&Config::eta>("eta"),
    json_field<&Config::beta>("beta"),
    json_field<&Config::real_training>("real_training"),
    util::json_token_field<&Config::model, parse_model_token, model_token>(
        "model"),
    {"aggregation",
     [](const util::JsonValue& value, const util::JsonScope& scope,
        const std::string& key, Config& out) {
       if (value.is_string()) {  // old result documents wrote only the kind
         out.aggregation.kind = parse_aggregation_token(value.as_string());
       } else {
         util::json_read_fields(value, scope.child(key), kAggregationFields,
                                out.aggregation);
       }
     },
     [](util::JsonWriter& json, const Config& in) {
       util::json_write_object(json, kAggregationFields, in.aggregation);
     }},
    json_field<&Config::dirichlet_alpha>("dirichlet_alpha"),
    json_field<&Config::gap_aware_lr>("gap_aware_lr"),
    json_field<&Config::weight_prediction>("weight_prediction"),
    json_field<&Config::batch_size>("batch_size"),
    util::json_object_field<&Config::dataset, kDatasetFields>("dataset"),
    json_field<&Config::eval_interval_s>("eval_interval_s"),
    json_field<&Config::model_bytes>("model_bytes"),
    json_field<&Config::use_lte>("use_lte"),
    json_field<&Config::decision_eval_seconds>("decision_eval_seconds"),
    json_field<&Config::decision_interval_slots>("decision_interval_slots"),
    json_field<&Config::upload_drop_probability>("upload_drop_probability"),
    json_field<&Config::track_battery>("track_battery"),
    util::json_object_field<&Config::battery, kBatteryFields>("battery"),
    json_field<&Config::min_soc_to_train>("min_soc_to_train"),
    json_field<&Config::enable_thermal>("enable_thermal"),
    util::json_object_field<&Config::thermal, kThermalFields>("thermal"),
    json_field<&Config::record_interval>("record_interval"),
    json_field<&Config::record_per_user_gaps>("record_per_user_gaps"),
    util::json_array_field<&Config::outages, kOutageFields>("outages",
                                                            kOmitDefault),
    {"per_user",
     [](const util::JsonValue& value, const util::JsonScope& scope,
        const std::string& key, Config& out) {
       out.fleet = read_per_user(value, scope.child(key));
     },
     [](util::JsonWriter& json, const Config& in) {
       json.begin_array();
       for (std::size_t i = 0; i < in.fleet->size(); ++i) {
         util::json_write_object(json, kPerUserFields, in.fleet->user(i));
       }
       json.end_array();
     },
     util::json_is_default<&Config::fleet>},
};

}  // namespace

// ------------------------------------------------------------- tokens

const char* scheduler_token(SchedulerKind kind) noexcept {
  return util::json_token(kSchedulers, kind);
}

const char* model_token(ModelKind kind) noexcept {
  return util::json_token(kModels, kind);
}

const char* aggregation_token(fl::AggregationKind kind) noexcept {
  return util::json_token(kAggregations, kind);
}

const char* device_token(
    const std::optional<device::DeviceKind>& kind) noexcept {
  // The concrete-kind vocabulary lives with the scenario layer (it is also
  // the per_user/device_mix vocabulary); "mixed" is config-level only.
  if (!kind) return "mixed";
  return scenario::device_kind_token(*kind);
}

SchedulerKind parse_scheduler_token(const std::string& name) {
  return util::json_parse_token(kSchedulers, name, "scheduler");
}

ModelKind parse_model_token(const std::string& name) {
  return util::json_parse_token(kModels, name, "model");
}

fl::AggregationKind parse_aggregation_token(const std::string& name) {
  return util::json_parse_token(kAggregations, name, "aggregation");
}

std::optional<device::DeviceKind> parse_device_token(const std::string& name) {
  const std::string token = util::ascii_lowered(name);
  if (token.empty() || token == "mixed") return std::nullopt;
  return scenario::parse_device_kind_token(token);
}

// ------------------------------------------------------------- documents

void write_config_members(util::JsonWriter& json,
                          const ExperimentConfig& config) {
  util::json_write_fields(json, kConfigFields, config);
}

std::string config_to_json(const ExperimentConfig& config) {
  util::JsonWriter json;
  util::json_write_object(json, kConfigFields, config);
  return json.str();
}

ExperimentConfig config_from_json(const std::string& text) {
  const util::JsonValue document = util::parse_json(text);
  const util::JsonValue* root = &document;
  // Accept a full result document: descend into its "config" section.
  if (const util::JsonValue* nested = document.find("config")) {
    root = nested;
  }
  ExperimentConfig config;
  util::json_read_fields(*root, {kLoader, "config", true}, kConfigFields,
                         config);
  if (const auto bad = validate(config)) {
    std::string field = bad->field;
    if (field == kLb) {
      for (const auto& [key, value] : root->as_object()) {
        if (key == kLb || key == kLbAlias) field = key;
      }
    }
    reject_field(field, bad->reason);
  }
  return config;
}

ExperimentConfig load_config_json(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"load_config_json: cannot open " + path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return config_from_json(buffer.str());
  } catch (const std::exception& error) {
    // Name the file: a parse or validation error is useless without it.
    throw std::invalid_argument{path + ": " + error.what()};
  }
}

void save_config_json(const std::string& path,
                      const ExperimentConfig& config) {
  std::ofstream out{path, std::ios::trunc};
  if (!out) throw std::runtime_error{"save_config_json: cannot open " + path};
  out << config_to_json(config) << '\n';
}

// ------------------------------------------------------------- scenarios

ExperimentConfig apply_scenario_arena(const scenario::ScenarioSpec& spec,
                                      ExperimentConfig base) {
  base.num_users = spec.num_users;
  base.horizon_slots = spec.horizon_slots;
  base.arrival_probability = spec.arrival.mean_probability;
  // The spec owns arrivals outright: a trace left over from the base
  // config (or --arrival-trace) would silently replace the spec's
  // per-user arrival processes for every user.
  base.arrival_trace_path.clear();
  // Fault subsystem: a trace-driven fleet replaces the base config's
  // arrival sources outright; outage windows ride along as the driver's
  // observational markers (presence already encodes the absence).
  base.arrival_trace_dir = spec.faults.trace_dir;
  base.outages.clear();
  for (const scenario::OutageSpec& o : spec.faults.outages) {
    base.outages.push_back({o.start_slot, o.end_slot});
  }
  base.diurnal = spec.diurnal.enabled;
  base.diurnal_swing = spec.diurnal.swing;
  base.arrival_streams = spec.stream_rng;
  // An explicit device mix supersedes a pinned fleet; the expansion
  // writes concrete per-user devices.
  if (!spec.device_mix.empty()) base.fixed_device.reset();
  // The spec owns the network tier too. A fractional share pins every
  // user explicitly in the fleet; the pure cases set the fleet-wide
  // default so lte_fraction 0.0 really is an all-WiFi fleet even over a
  // base config that had use_lte on.
  base.use_lte = spec.network.lte_fraction >= 1.0;
  base.fleet = std::make_shared<const scenario::FleetArena>(
      scenario::generate_fleet_arena(spec, base.seed));
  return base;
}

}  // namespace fedco::core
