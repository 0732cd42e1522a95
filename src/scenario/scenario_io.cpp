#include "scenario/scenario_io.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace fedco::scenario {

namespace {

constexpr const char* kLoader = "scenario";

// ------------------------------------------------------------- vocabularies

constexpr util::JsonToken<device::DeviceKind> kDevices[] = {
    {device::DeviceKind::kNexus6, "nexus6"},
    {device::DeviceKind::kNexus6P, "nexus6p"},
    {device::DeviceKind::kHikey970, "hikey970"},
    {device::DeviceKind::kPixel2, "pixel2"},
};

constexpr util::JsonToken<ArrivalSpec::Distribution> kDistributions[] = {
    {ArrivalSpec::Distribution::kFixed, "fixed"},
    {ArrivalSpec::Distribution::kUniform, "uniform"},
    {ArrivalSpec::Distribution::kLogNormal, "lognormal"},
    {ArrivalSpec::Distribution::kLogNormal, "log-normal"},  // parse-only
};

// ------------------------------------------------------------- field tables

using util::json_field;
using util::kOmitDefault;

constexpr util::JsonField<ArrivalSpec> kArrivalFields[] = {
    util::json_token_field<&ArrivalSpec::distribution,
                           parse_arrival_distribution_token,
                           arrival_distribution_token>("distribution"),
    json_field<&ArrivalSpec::mean_probability>("mean_probability"),
    json_field<&ArrivalSpec::min_probability>("min_probability"),
    json_field<&ArrivalSpec::max_probability>("max_probability"),
    json_field<&ArrivalSpec::sigma>("sigma"),
};

constexpr util::JsonField<DiurnalSpec> kDiurnalFields[] = {
    json_field<&DiurnalSpec::enabled>("enabled"),
    json_field<&DiurnalSpec::swing>("swing"),
    json_field<&DiurnalSpec::peak_hour>("peak_hour"),
    json_field<&DiurnalSpec::timezone_spread_hours>("timezone_spread_hours"),
};

constexpr util::JsonField<NetworkSpec> kNetworkFields[] = {
    json_field<&NetworkSpec::lte_fraction>("lte_fraction"),
};

constexpr util::JsonField<ChurnSpec> kChurnFields[] = {
    json_field<&ChurnSpec::churn_fraction>("churn_fraction"),
    json_field<&ChurnSpec::min_presence>("min_presence"),
    json_field<&ChurnSpec::max_presence>("max_presence"),
};

// An outage either selects users by an hour-of-day band or samples a
// fraction of the fleet; only the chosen selector is written.
constexpr util::JsonField<OutageSpec> kOutageFields[] = {
    json_field<&OutageSpec::region>("region"),
    json_field<&OutageSpec::start_slot>("start_slot"),
    json_field<&OutageSpec::end_slot>("end_slot"),
    json_field<&OutageSpec::fraction>(
        "fraction", [](const OutageSpec& o) { return o.has_band(); }),
    json_field<&OutageSpec::band_begin_hour>(
        "band_begin_hour", [](const OutageSpec& o) { return !o.has_band(); }),
    json_field<&OutageSpec::band_end_hour>(
        "band_end_hour", [](const OutageSpec& o) { return !o.has_band(); }),
};

constexpr util::JsonField<DegradationSpec> kDegradationFields[] = {
    json_field<&DegradationSpec::profile>("profile"),
    json_field<&DegradationSpec::fraction>("fraction"),
};

constexpr util::JsonField<CommuteSpec> kCommuteFields[] = {
    json_field<&CommuteSpec::fraction>("fraction"),
    json_field<&CommuteSpec::period_slots>("period_slots"),
    json_field<&CommuteSpec::on_slots>("on_slots"),
};

constexpr util::JsonField<FaultSpec> kFaultFields[] = {
    util::json_array_field<&FaultSpec::outages, kOutageFields>("outages",
                                                               kOmitDefault),
    util::json_array_field<&FaultSpec::degradations, kDegradationFields>(
        "degradations", kOmitDefault),
    util::json_object_field<&FaultSpec::commute, kCommuteFields>(
        "commute", [](const FaultSpec& f) { return !f.commute.enabled(); }),
    json_field<&FaultSpec::trace_dir>("trace_dir", kOmitDefault),
};

constexpr util::JsonField<PrioritySpec> kPriorityFields[] = {
    json_field<&PrioritySpec::vip_fraction>("vip_fraction"),
    json_field<&PrioritySpec::vip_weight>("vip_weight"),
    json_field<&PrioritySpec::default_weight>("default_weight"),
};

/// device_mix maps device tokens to fractions: {"pixel2": 0.5, ...}.
void read_device_mix(const util::JsonValue& value,
                     const util::JsonScope& /*scope*/,
                     const std::string& /*key*/, ScenarioSpec& out) {
  if (!value.is_object()) {
    throw std::invalid_argument{
        "scenario: 'device_mix' must be an object of device: fraction"};
  }
  for (const auto& [device, fraction] : value.as_object()) {
    out.device_mix.push_back(  // an unknown device throws first
        {parse_device_kind_token(device),
         util::json_read_double(fraction, "device_mix." + device, kLoader)});
  }
}

void write_device_mix(util::JsonWriter& json, const ScenarioSpec& spec) {
  json.begin_object();
  for (const DeviceMixEntry& entry : spec.device_mix) {
    json.member(device_kind_token(entry.device), entry.fraction);
  }
  json.end_object();
}

constexpr util::JsonField<ScenarioSpec> kSpecFields[] = {
    json_field<&ScenarioSpec::name>("name"),
    json_field<&ScenarioSpec::num_users>("num_users"),
    {"horizon_slots",
     [](const util::JsonValue& value, const util::JsonScope& scope,
        const std::string& key, ScenarioSpec& out) {
       // Read as unsigned: a negative horizon is a type error here, before
       // validate checks the range.
       out.horizon_slots = static_cast<sim::Slot>(
           util::json_read_uint(value, key, scope.prefix));
     },
     util::json_write_member<&ScenarioSpec::horizon_slots>},
    {"device_mix", read_device_mix, write_device_mix,
     util::json_is_default<&ScenarioSpec::device_mix>},
    util::json_object_field<&ScenarioSpec::arrival, kArrivalFields>("arrival"),
    util::json_object_field<&ScenarioSpec::diurnal, kDiurnalFields>("diurnal"),
    util::json_object_field<&ScenarioSpec::network, kNetworkFields>("network"),
    util::json_object_field<&ScenarioSpec::churn, kChurnFields>("churn"),
    util::json_object_field<&ScenarioSpec::faults, kFaultFields>(
        "faults", [](const ScenarioSpec& s) { return s.faults.empty(); }),
    // Written whenever any field deviates (not just when enabled()): a spec
    // that only changes vip_weight must still round-trip to an equal spec.
    util::json_object_field<&ScenarioSpec::priority, kPriorityFields>(
        "priority", kOmitDefault),
    json_field<&ScenarioSpec::stream_rng>("stream_rng"),
};

}  // namespace

// ------------------------------------------------------------- tokens

const char* device_kind_token(device::DeviceKind kind) noexcept {
  return util::json_token(kDevices, kind);
}

device::DeviceKind parse_device_kind_token(const std::string& name) {
  return util::json_parse_token(kDevices, name, "device");
}

const char* arrival_distribution_token(
    ArrivalSpec::Distribution distribution) noexcept {
  return util::json_token(kDistributions, distribution);
}

ArrivalSpec::Distribution parse_arrival_distribution_token(
    const std::string& name) {
  return util::json_parse_token(kDistributions, name, "arrival distribution");
}

// ------------------------------------------------------------- documents

std::string spec_to_json(const ScenarioSpec& spec) {
  util::JsonWriter json;
  util::json_write_object(json, kSpecFields, spec);
  return json.str();
}

ScenarioSpec spec_from_json(const std::string& text) {
  ScenarioSpec spec;
  util::json_read_fields(util::parse_json(text), {kLoader, "scenario", true},
                         kSpecFields, spec);
  validate(spec);
  return spec;
}

ScenarioSpec load_scenario_json(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error{"load_scenario_json: cannot open " + path};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  ScenarioSpec spec;
  try {
    spec = spec_from_json(buffer.str());
  } catch (const std::exception& error) {
    // Name the file: a parse or validation error is useless without it.
    throw std::invalid_argument{path + ": " + error.what()};
  }
  // A relative trace_dir is relative to the spec file, not the process
  // cwd — example specs ship their traces beside them.
  if (!spec.faults.trace_dir.empty()) {
    const std::filesystem::path trace{spec.faults.trace_dir};
    if (trace.is_relative()) {
      spec.faults.trace_dir =
          (std::filesystem::path{path}.parent_path() / trace).string();
    }
  }
  return spec;
}

void save_scenario_json(const std::string& path, const ScenarioSpec& spec) {
  std::ofstream out{path, std::ios::trunc};
  if (!out) {
    throw std::runtime_error{"save_scenario_json: cannot open " + path};
  }
  out << spec_to_json(spec) << '\n';
}

}  // namespace fedco::scenario
