#include "scenario/scenario_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"

namespace fedco::scenario {

namespace {

// Thin bindings of the shared util/json strict-loader helpers to this
// loader's error prefix (core/config_io binds the same helpers).

constexpr const char* kLoader = "scenario";

double read_double(const util::JsonValue& value, const std::string& key) {
  return util::json_read_double(value, key, kLoader);
}

bool read_bool(const util::JsonValue& value, const std::string& key) {
  return util::json_read_bool(value, key, kLoader);
}

const std::string& read_string(const util::JsonValue& value,
                               const std::string& key) {
  return util::json_read_string(value, key, kLoader);
}

std::uint64_t read_uint(const util::JsonValue& value, const std::string& key) {
  return util::json_read_uint(value, key, kLoader);
}

std::int64_t read_int(const util::JsonValue& value, const std::string& key) {
  return util::json_read_int(value, key, kLoader);
}

template <typename Apply>
void for_each_member(const util::JsonValue& object, const std::string& where,
                     Apply&& apply) {
  util::json_for_each_member(object, where, kLoader,
                             std::forward<Apply>(apply));
}

void read_arrival(const util::JsonValue& object, ArrivalSpec& out) {
  for_each_member(object, "arrival",
                  [&](const std::string& key, const util::JsonValue& value) {
                    if (key == "distribution") {
                      out.distribution = parse_arrival_distribution_token(
                          read_string(value, key));
                    } else if (key == "mean_probability") {
                      out.mean_probability = read_double(value, key);
                    } else if (key == "min_probability") {
                      out.min_probability = read_double(value, key);
                    } else if (key == "max_probability") {
                      out.max_probability = read_double(value, key);
                    } else if (key == "sigma") {
                      out.sigma = read_double(value, key);
                    } else {
                      return false;
                    }
                    return true;
                  });
}

void read_diurnal(const util::JsonValue& object, DiurnalSpec& out) {
  for_each_member(object, "diurnal",
                  [&](const std::string& key, const util::JsonValue& value) {
                    if (key == "enabled") {
                      out.enabled = read_bool(value, key);
                    } else if (key == "swing") {
                      out.swing = read_double(value, key);
                    } else if (key == "peak_hour") {
                      out.peak_hour = read_double(value, key);
                    } else if (key == "timezone_spread_hours") {
                      out.timezone_spread_hours = read_double(value, key);
                    } else {
                      return false;
                    }
                    return true;
                  });
}

void read_network(const util::JsonValue& object, NetworkSpec& out) {
  for_each_member(object, "network",
                  [&](const std::string& key, const util::JsonValue& value) {
                    if (key == "lte_fraction") {
                      out.lte_fraction = read_double(value, key);
                    } else {
                      return false;
                    }
                    return true;
                  });
}

void read_churn(const util::JsonValue& object, ChurnSpec& out) {
  for_each_member(object, "churn",
                  [&](const std::string& key, const util::JsonValue& value) {
                    if (key == "churn_fraction") {
                      out.churn_fraction = read_double(value, key);
                    } else if (key == "min_presence") {
                      out.min_presence = read_double(value, key);
                    } else if (key == "max_presence") {
                      out.max_presence = read_double(value, key);
                    } else {
                      return false;
                    }
                    return true;
                  });
}

void read_outage(const util::JsonValue& object, OutageSpec& out) {
  for_each_member(object, "faults.outages[]",
                  [&](const std::string& key, const util::JsonValue& value) {
                    if (key == "region") {
                      out.region = read_string(value, key);
                    } else if (key == "start_slot") {
                      out.start_slot =
                          static_cast<sim::Slot>(read_int(value, key));
                    } else if (key == "end_slot") {
                      out.end_slot =
                          static_cast<sim::Slot>(read_int(value, key));
                    } else if (key == "fraction") {
                      out.fraction = read_double(value, key);
                    } else if (key == "band_begin_hour") {
                      out.band_begin_hour = read_double(value, key);
                    } else if (key == "band_end_hour") {
                      out.band_end_hour = read_double(value, key);
                    } else {
                      return false;
                    }
                    return true;
                  });
}

void read_degradation(const util::JsonValue& object, DegradationSpec& out) {
  for_each_member(object, "faults.degradations[]",
                  [&](const std::string& key, const util::JsonValue& value) {
                    if (key == "profile") {
                      out.profile = read_string(value, key);
                    } else if (key == "fraction") {
                      out.fraction = read_double(value, key);
                    } else {
                      return false;
                    }
                    return true;
                  });
}

void read_commute(const util::JsonValue& object, CommuteSpec& out) {
  for_each_member(object, "faults.commute",
                  [&](const std::string& key, const util::JsonValue& value) {
                    if (key == "fraction") {
                      out.fraction = read_double(value, key);
                    } else if (key == "period_slots") {
                      out.period_slots =
                          static_cast<sim::Slot>(read_int(value, key));
                    } else if (key == "on_slots") {
                      out.on_slots =
                          static_cast<sim::Slot>(read_int(value, key));
                    } else {
                      return false;
                    }
                    return true;
                  });
}

void read_faults(const util::JsonValue& object, FaultSpec& out) {
  for_each_member(
      object, "faults",
      [&](const std::string& key, const util::JsonValue& value) {
        if (key == "outages") {
          if (!value.is_array()) {
            throw std::invalid_argument{
                "scenario: 'faults.outages' must be an array"};
          }
          for (const util::JsonValue& element : value.as_array()) {
            OutageSpec outage;
            read_outage(element, outage);
            out.outages.push_back(std::move(outage));
          }
        } else if (key == "degradations") {
          if (!value.is_array()) {
            throw std::invalid_argument{
                "scenario: 'faults.degradations' must be an array"};
          }
          for (const util::JsonValue& element : value.as_array()) {
            DegradationSpec degradation;
            read_degradation(element, degradation);
            out.degradations.push_back(std::move(degradation));
          }
        } else if (key == "commute") {
          read_commute(value, out.commute);
        } else if (key == "trace_dir") {
          out.trace_dir = read_string(value, key);
        } else {
          return false;
        }
        return true;
      });
}

void read_priority(const util::JsonValue& object, PrioritySpec& out) {
  for_each_member(object, "priority",
                  [&](const std::string& key, const util::JsonValue& value) {
                    if (key == "vip_fraction") {
                      out.vip_fraction = read_double(value, key);
                    } else if (key == "vip_weight") {
                      out.vip_weight = read_double(value, key);
                    } else if (key == "default_weight") {
                      out.default_weight = read_double(value, key);
                    } else {
                      return false;
                    }
                    return true;
                  });
}

void read_device_mix(const util::JsonValue& object,
                     std::vector<DeviceMixEntry>& out) {
  if (!object.is_object()) {
    throw std::invalid_argument{
        "scenario: 'device_mix' must be an object of device: fraction"};
  }
  for (const auto& [key, value] : object.as_object()) {
    DeviceMixEntry entry;
    entry.device = parse_device_kind_token(key);  // throws on unknown device
    entry.fraction = read_double(value, "device_mix." + key);
    out.push_back(entry);
  }
}

}  // namespace

// ------------------------------------------------------------- tokens

const char* device_kind_token(device::DeviceKind kind) noexcept {
  switch (kind) {
    case device::DeviceKind::kNexus6:
      return "nexus6";
    case device::DeviceKind::kNexus6P:
      return "nexus6p";
    case device::DeviceKind::kHikey970:
      return "hikey970";
    case device::DeviceKind::kPixel2:
      return "pixel2";
  }
  return "?";
}

device::DeviceKind parse_device_kind_token(const std::string& name) {
  const std::string token = util::ascii_lowered(name);
  if (token == "nexus6") return device::DeviceKind::kNexus6;
  if (token == "nexus6p") return device::DeviceKind::kNexus6P;
  if (token == "hikey970") return device::DeviceKind::kHikey970;
  if (token == "pixel2") return device::DeviceKind::kPixel2;
  throw std::invalid_argument{"unknown device '" + name + "'"};
}

const char* arrival_distribution_token(
    ArrivalSpec::Distribution distribution) noexcept {
  switch (distribution) {
    case ArrivalSpec::Distribution::kFixed:
      return "fixed";
    case ArrivalSpec::Distribution::kUniform:
      return "uniform";
    case ArrivalSpec::Distribution::kLogNormal:
      return "lognormal";
  }
  return "?";
}

ArrivalSpec::Distribution parse_arrival_distribution_token(
    const std::string& name) {
  const std::string token = util::ascii_lowered(name);
  if (token == "fixed") return ArrivalSpec::Distribution::kFixed;
  if (token == "uniform") return ArrivalSpec::Distribution::kUniform;
  if (token == "lognormal" || token == "log-normal") {
    return ArrivalSpec::Distribution::kLogNormal;
  }
  throw std::invalid_argument{"unknown arrival distribution '" + name + "'"};
}

// ------------------------------------------------------------- writing

std::string spec_to_json(const ScenarioSpec& spec) {
  util::JsonWriter json;
  json.begin_object();
  json.member("name", spec.name);
  json.member("num_users", static_cast<std::uint64_t>(spec.num_users));
  json.member("horizon_slots", static_cast<std::int64_t>(spec.horizon_slots));
  if (!spec.device_mix.empty()) {
    json.key("device_mix").begin_object();
    for (const DeviceMixEntry& entry : spec.device_mix) {
      json.member(device_kind_token(entry.device), entry.fraction);
    }
    json.end_object();
  }
  json.key("arrival").begin_object();
  json.member("distribution",
              arrival_distribution_token(spec.arrival.distribution));
  json.member("mean_probability", spec.arrival.mean_probability);
  json.member("min_probability", spec.arrival.min_probability);
  json.member("max_probability", spec.arrival.max_probability);
  json.member("sigma", spec.arrival.sigma);
  json.end_object();
  json.key("diurnal").begin_object();
  json.member("enabled", spec.diurnal.enabled);
  json.member("swing", spec.diurnal.swing);
  json.member("peak_hour", spec.diurnal.peak_hour);
  json.member("timezone_spread_hours", spec.diurnal.timezone_spread_hours);
  json.end_object();
  json.key("network").begin_object();
  json.member("lte_fraction", spec.network.lte_fraction);
  json.end_object();
  json.key("churn").begin_object();
  json.member("churn_fraction", spec.churn.churn_fraction);
  json.member("min_presence", spec.churn.min_presence);
  json.member("max_presence", spec.churn.max_presence);
  json.end_object();
  if (!spec.faults.empty()) {
    json.key("faults").begin_object();
    if (!spec.faults.outages.empty()) {
      json.key("outages").begin_array();
      for (const OutageSpec& outage : spec.faults.outages) {
        json.begin_object();
        json.member("region", outage.region);
        json.member("start_slot", static_cast<std::int64_t>(outage.start_slot));
        json.member("end_slot", static_cast<std::int64_t>(outage.end_slot));
        if (outage.has_band()) {
          json.member("band_begin_hour", outage.band_begin_hour);
          json.member("band_end_hour", outage.band_end_hour);
        } else {
          json.member("fraction", outage.fraction);
        }
        json.end_object();
      }
      json.end_array();
    }
    if (!spec.faults.degradations.empty()) {
      json.key("degradations").begin_array();
      for (const DegradationSpec& degradation : spec.faults.degradations) {
        json.begin_object();
        json.member("profile", degradation.profile);
        json.member("fraction", degradation.fraction);
        json.end_object();
      }
      json.end_array();
    }
    if (spec.faults.commute.enabled()) {
      json.key("commute").begin_object();
      json.member("fraction", spec.faults.commute.fraction);
      json.member("period_slots",
                  static_cast<std::int64_t>(spec.faults.commute.period_slots));
      json.member("on_slots",
                  static_cast<std::int64_t>(spec.faults.commute.on_slots));
      json.end_object();
    }
    if (!spec.faults.trace_dir.empty()) {
      json.member("trace_dir", spec.faults.trace_dir);
    }
    json.end_object();
  }
  // Written whenever any field deviates (not just when enabled()): a spec
  // that only changes vip_weight must still round-trip to an equal spec.
  if (spec.priority != PrioritySpec{}) {
    json.key("priority").begin_object();
    json.member("vip_fraction", spec.priority.vip_fraction);
    json.member("vip_weight", spec.priority.vip_weight);
    json.member("default_weight", spec.priority.default_weight);
    json.end_object();
  }
  json.member("stream_rng", spec.stream_rng);
  json.end_object();
  return json.str();
}

// ------------------------------------------------------------- reading

ScenarioSpec spec_from_json(const std::string& text) {
  const util::JsonValue document = util::parse_json(text);
  ScenarioSpec spec;
  for_each_member(
      document, "scenario",
      [&](const std::string& key, const util::JsonValue& value) {
        if (key == "name") {
          spec.name = read_string(value, key);
        } else if (key == "num_users") {
          spec.num_users = static_cast<std::size_t>(read_uint(value, key));
        } else if (key == "horizon_slots") {
          spec.horizon_slots =
              static_cast<sim::Slot>(read_uint(value, key));
        } else if (key == "device_mix") {
          read_device_mix(value, spec.device_mix);
        } else if (key == "arrival") {
          read_arrival(value, spec.arrival);
        } else if (key == "diurnal") {
          read_diurnal(value, spec.diurnal);
        } else if (key == "network") {
          read_network(value, spec.network);
        } else if (key == "churn") {
          read_churn(value, spec.churn);
        } else if (key == "faults") {
          read_faults(value, spec.faults);
        } else if (key == "priority") {
          read_priority(value, spec.priority);
        } else if (key == "stream_rng") {
          spec.stream_rng = read_bool(value, key);
        } else {
          return false;
        }
        return true;
      });
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
