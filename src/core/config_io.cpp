#include "core/config_io.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "scenario/scenario_io.hpp"

namespace fedco::core {

namespace {

// ------------------------------------------------------------- readers
//
// Thin bindings of the shared util/json strict-loader helpers (typed
// readers with field-qualified errors + unknown-key-rejecting dispatch)
// to this loader's error prefix; scenario/scenario_io binds the same
// helpers under its own prefix.

constexpr const char* kLoader = "config_io";

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

[[noreturn]] void reject_field(const std::string& field,
                               const std::string& why) {
  throw std::invalid_argument{"config_io: '" + field + "' " + why};
}

template <typename Apply>
void for_each_member(const util::JsonValue& object, const std::string& where,
                     Apply&& apply) {
  util::json_for_each_member(object, where, kLoader,
                             std::forward<Apply>(apply));
}

void read_aggregation(const util::JsonValue& object,
                      fl::AggregationConfig& out) {
  for_each_member(object, "aggregation",
                  [&](const std::string& key, const util::JsonValue& value) {
                    if (key == "kind") {
                      out.kind =
                          parse_aggregation_token(read_string(value, key));
                    } else if (key == "fedasync_alpha0") {
                      out.fedasync_alpha0 = read_double(value, key);
                    } else if (key == "fedasync_decay") {
                      out.fedasync_decay = read_double(value, key);
                    } else if (key == "delay_comp_lambda") {
                      out.delay_comp_lambda = read_double(value, key);
                    } else {
                      return false;
                    }
                    return true;
                  });
}

void read_dataset(const util::JsonValue& object, data::SynthCifarConfig& out) {
  for_each_member(
      object, "dataset",
      [&](const std::string& key, const util::JsonValue& value) {
        if (key == "classes") {
          out.classes = static_cast<std::size_t>(read_uint(value, key));
        } else if (key == "channels") {
          out.channels = static_cast<std::size_t>(read_uint(value, key));
        } else if (key == "height") {
          out.height = static_cast<std::size_t>(read_uint(value, key));
        } else if (key == "width") {
          out.width = static_cast<std::size_t>(read_uint(value, key));
        } else if (key == "train_per_class") {
          out.train_per_class = static_cast<std::size_t>(read_uint(value, key));
        } else if (key == "test_per_class") {
          out.test_per_class = static_cast<std::size_t>(read_uint(value, key));
        } else if (key == "noise_stddev") {
          out.noise_stddev = read_double(value, key);
        } else if (key == "jitter_brightness") {
          out.jitter_brightness = read_double(value, key);
        } else if (key == "max_shift") {
          out.max_shift = static_cast<std::size_t>(read_uint(value, key));
        } else if (key == "seed") {
          out.seed = read_uint(value, key);
        } else {
          return false;
        }
        return true;
      });
}

void read_battery(const util::JsonValue& object, device::BatteryConfig& out) {
  for_each_member(object, "battery",
                  [&](const std::string& key, const util::JsonValue& value) {
                    if (key == "capacity_mah") {
                      out.capacity_mah = read_double(value, key);
                    } else if (key == "voltage_v") {
                      out.voltage_v = read_double(value, key);
                    } else if (key == "initial_soc") {
                      out.initial_soc = read_double(value, key);
                    } else if (key == "recharge_at_soc") {
                      out.recharge_at_soc = read_double(value, key);
                    } else {
                      return false;
                    }
                    return true;
                  });
}

/// One per_user entry; its ranges are validate_user's, checked by the caller.
void read_per_user_entry(const util::JsonValue& object, const std::string& where,
                         scenario::PerUserConfig& out) {
  for_each_member(
      object, where,
      [&](const std::string& key, const util::JsonValue& value) {
        if (key == "device") {
          out.device =
              scenario::parse_device_kind_token(read_string(value, key));
        } else if (key == "arrival_probability") {
          out.arrival_probability = read_double(value, key);
        } else if (key == "diurnal") {
          out.diurnal = read_bool(value, key);
        } else if (key == "diurnal_swing") {
          out.diurnal_swing = read_double(value, key);
        } else if (key == "diurnal_peak_hour") {
          out.diurnal_peak_hour = read_double(value, key);
        } else if (key == "use_lte") {
          out.use_lte = read_bool(value, key);
        } else if (key == "join_slot") {
          out.join_slot = read_int(value, key);
        } else if (key == "leave_slot") {
          out.leave_slot = read_int(value, key);
        } else if (key == "extra_windows") {
          if (!value.is_array()) {
            reject_field(where + "." + key, "must be an array");
          }
          out.extra_windows.clear();
          for (const util::JsonValue& entry : value.as_array()) {
            scenario::PresenceWindow w;
            for_each_member(entry, where + ".extra_windows[]",
                            [&](const std::string& wkey,
                                const util::JsonValue& wvalue) {
                              if (wkey == "join") {
                                w.join = read_int(wvalue, wkey);
                              } else if (wkey == "leave") {
                                w.leave = read_int(wvalue, wkey);
                              } else {
                                return false;
                              }
                              return true;
                            });
            out.extra_windows.push_back(w);
          }
        } else if (key == "link_degradations") {
          // A mask wider than the 32-bit column cannot narrow; it names
          // profiles past the registry either way, so it is kept as all
          // ones for validate_user to reject.
          const std::uint64_t mask = read_uint(value, key);
          out.link_degradations = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(mask, UINT32_MAX));
        } else if (key == "priority") {
          out.priority = read_double(value, key);
        } else {
          return false;
        }
        return true;
      });
}

/// The per_user array as a fleet arena; its length is checked by validate
/// once the whole document (whatever its key order) is read.
scenario::SharedFleet read_per_user(const util::JsonValue& array) {
  if (!array.is_array()) reject_field("per_user", "must be an array");
  std::vector<scenario::PerUserConfig> fleet(array.as_array().size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::string where = "per_user[" + std::to_string(i) + "]";
    read_per_user_entry(array.as_array()[i], where, fleet[i]);
    if (const auto bad = validate_user(fleet[i])) {
      reject_field(where + "." + bad->field, bad->reason);
    }
  }
  return std::make_shared<const scenario::FleetArena>(
      scenario::fleet_arena_from(fleet));
}

void read_thermal(const util::JsonValue& object, device::ThermalConfig& out) {
  for_each_member(object, "thermal",
                  [&](const std::string& key, const util::JsonValue& value) {
                    if (key == "ambient_c") {
                      out.ambient_c = read_double(value, key);
                    } else if (key == "throttle_onset_c") {
                      out.throttle_onset_c = read_double(value, key);
                    } else if (key == "critical_c") {
                      out.critical_c = read_double(value, key);
                    } else if (key == "heating_c_per_joule") {
                      out.heating_c_per_joule = read_double(value, key);
                    } else if (key == "cooling_fraction_per_s") {
                      out.cooling_fraction_per_s = read_double(value, key);
                    } else if (key == "max_slowdown") {
                      out.max_slowdown = read_double(value, key);
                    } else {
                      return false;
                    }
                    return true;
                  });
}

}  // namespace

// ------------------------------------------------------------- tokens

const char* scheduler_token(SchedulerKind kind) noexcept {
  switch (kind) {
    case SchedulerKind::kImmediate:
      return "immediate";
    case SchedulerKind::kSyncSgd:
      return "sync";
    case SchedulerKind::kOffline:
      return "offline";
    case SchedulerKind::kOnline:
      return "online";
  }
  return "?";
}

const char* model_token(ModelKind kind) noexcept {
  switch (kind) {
    case ModelKind::kMlp:
      return "mlp";
    case ModelKind::kLenetSmall:
      return "lenet-small";
    case ModelKind::kLenet5:
      return "lenet5";
  }
  return "?";
}

const char* device_token(
    const std::optional<device::DeviceKind>& kind) noexcept {
  // The concrete-kind vocabulary lives with the scenario layer (it is also
  // the per_user/device_mix vocabulary); "mixed" is config-level only.
  if (!kind) return "mixed";
  return scenario::device_kind_token(*kind);
}

SchedulerKind parse_scheduler_token(const std::string& name) {
  const std::string token = util::ascii_lowered(name);
  if (token == "immediate") return SchedulerKind::kImmediate;
  if (token == "sync" || token == "sync-sgd" || token == "syncsgd") {
    return SchedulerKind::kSyncSgd;
  }
  if (token == "offline") return SchedulerKind::kOffline;
  if (token == "online") return SchedulerKind::kOnline;
  throw std::invalid_argument{"unknown scheduler '" + name + "'"};
}

ModelKind parse_model_token(const std::string& name) {
  const std::string token = util::ascii_lowered(name);
  if (token == "mlp") return ModelKind::kMlp;
  if (token == "lenet-small") return ModelKind::kLenetSmall;
  if (token == "lenet5") return ModelKind::kLenet5;
  throw std::invalid_argument{"unknown model '" + name + "'"};
}

fl::AggregationKind parse_aggregation_token(const std::string& name) {
  const std::string token = util::ascii_lowered(name);
  if (token == "replace") return fl::AggregationKind::kReplace;
  if (token == "fedasync") return fl::AggregationKind::kFedAsync;
  if (token == "delay-comp") return fl::AggregationKind::kDelayComp;
  throw std::invalid_argument{"unknown aggregation '" + name + "'"};
}

std::optional<device::DeviceKind> parse_device_token(const std::string& name) {
  const std::string token = util::ascii_lowered(name);
  if (token.empty() || token == "mixed") return std::nullopt;
  return scenario::parse_device_kind_token(token);
}

// ------------------------------------------------------------- writing

void write_config_members(util::JsonWriter& json,
                          const ExperimentConfig& config) {
  // Display name ("Online", "Sync-SGD", ...); parse_scheduler_token accepts
  // it as well as the CLI tokens.
  json.member("scheduler", scheduler_name(config.scheduler));
  json.member("num_users", static_cast<std::uint64_t>(config.num_users));
  json.member("horizon_slots",
              static_cast<std::int64_t>(config.horizon_slots));
  json.member("slot_seconds", config.slot_seconds);
  json.member("seed", config.seed);
  json.member("arrival_probability", config.arrival_probability);
  json.member("diurnal", config.diurnal);
  json.member("diurnal_swing", config.diurnal_swing);
  json.member("arrival_trace_path", config.arrival_trace_path);
  if (!config.arrival_trace_dir.empty()) {
    json.member("arrival_trace_dir", config.arrival_trace_dir);
  }
  json.member("arrival_streams", config.arrival_streams);
  json.member("fixed_device", device_token(config.fixed_device));
  json.member("V", config.V);
  json.member("lb", config.lb);
  json.member("epsilon", config.epsilon);
  json.member("offline_window_slots",
              static_cast<std::int64_t>(config.offline_window_slots));
  json.member("offline_lb", config.offline_lb);
  json.member("offline_churn_aware", config.offline_churn_aware);
  json.member("online_churn_aware", config.online_churn_aware);
  json.member("eta", config.eta);
  json.member("beta", config.beta);
  json.member("real_training", config.real_training);
  json.member("model", model_token(config.model));
  json.key("aggregation").begin_object();
  json.member("kind",
              std::string{fl::aggregation_name(config.aggregation.kind)});
  json.member("fedasync_alpha0", config.aggregation.fedasync_alpha0);
  json.member("fedasync_decay", config.aggregation.fedasync_decay);
  json.member("delay_comp_lambda", config.aggregation.delay_comp_lambda);
  json.end_object();
  json.member("dirichlet_alpha", config.dirichlet_alpha);
  json.member("gap_aware_lr", config.gap_aware_lr);
  json.member("weight_prediction", config.weight_prediction);
  json.member("batch_size", static_cast<std::uint64_t>(config.batch_size));
  json.key("dataset").begin_object();
  json.member("classes", static_cast<std::uint64_t>(config.dataset.classes));
  json.member("channels", static_cast<std::uint64_t>(config.dataset.channels));
  json.member("height", static_cast<std::uint64_t>(config.dataset.height));
  json.member("width", static_cast<std::uint64_t>(config.dataset.width));
  json.member("train_per_class",
              static_cast<std::uint64_t>(config.dataset.train_per_class));
  json.member("test_per_class",
              static_cast<std::uint64_t>(config.dataset.test_per_class));
  json.member("noise_stddev", config.dataset.noise_stddev);
  json.member("jitter_brightness", config.dataset.jitter_brightness);
  json.member("max_shift", static_cast<std::uint64_t>(config.dataset.max_shift));
  json.member("seed", config.dataset.seed);
  json.end_object();
  json.member("eval_interval_s", config.eval_interval_s);
  json.member("model_bytes", static_cast<std::uint64_t>(config.model_bytes));
  json.member("use_lte", config.use_lte);
  json.member("decision_eval_seconds", config.decision_eval_seconds);
  json.member("decision_interval_slots",
              static_cast<std::int64_t>(config.decision_interval_slots));
  json.member("upload_drop_probability", config.upload_drop_probability);
  json.member("track_battery", config.track_battery);
  json.key("battery").begin_object();
  json.member("capacity_mah", config.battery.capacity_mah);
  json.member("voltage_v", config.battery.voltage_v);
  json.member("initial_soc", config.battery.initial_soc);
  json.member("recharge_at_soc", config.battery.recharge_at_soc);
  json.end_object();
  json.member("min_soc_to_train", config.min_soc_to_train);
  json.member("enable_thermal", config.enable_thermal);
  json.key("thermal").begin_object();
  json.member("ambient_c", config.thermal.ambient_c);
  json.member("throttle_onset_c", config.thermal.throttle_onset_c);
  json.member("critical_c", config.thermal.critical_c);
  json.member("heating_c_per_joule", config.thermal.heating_c_per_joule);
  json.member("cooling_fraction_per_s", config.thermal.cooling_fraction_per_s);
  json.member("max_slowdown", config.thermal.max_slowdown);
  json.end_object();
  json.member("record_interval",
              static_cast<std::int64_t>(config.record_interval));
  json.member("record_per_user_gaps", config.record_per_user_gaps);
  if (!config.outages.empty()) {
    json.key("outages").begin_array();
    for (const ExperimentConfig::OutageWindow& o : config.outages) {
      json.begin_object();
      json.member("start", static_cast<std::int64_t>(o.start));
      json.member("end", static_cast<std::int64_t>(o.end));
      json.end_object();
    }
    json.end_array();
  }
  // Per-user scenario overrides: entries only state what they change
  // (absent keys reload as the inherit-the-config defaults), so a mostly
  // homogeneous 10k-user fleet stays compact.
  if (config.fleet) {
    json.key("per_user").begin_array();
    for (std::size_t i = 0; i < config.fleet->size(); ++i) {
      const scenario::PerUserConfig pu = config.fleet->user(i);
      json.begin_object();
      if (pu.device) {
        json.member("device", scenario::device_kind_token(*pu.device));
      }
      if (pu.arrival_probability) {
        json.member("arrival_probability", *pu.arrival_probability);
      }
      if (pu.diurnal) json.member("diurnal", *pu.diurnal);
      if (pu.diurnal_swing) json.member("diurnal_swing", *pu.diurnal_swing);
      if (pu.diurnal_peak_hour != scenario::PerUserConfig{}.diurnal_peak_hour) {
        json.member("diurnal_peak_hour", pu.diurnal_peak_hour);
      }
      if (pu.use_lte) json.member("use_lte", *pu.use_lte);
      if (pu.join_slot != 0) {
        json.member("join_slot", static_cast<std::int64_t>(pu.join_slot));
      }
      if (pu.leave_slot != scenario::kNeverLeaves) {
        json.member("leave_slot", static_cast<std::int64_t>(pu.leave_slot));
      }
      if (!pu.extra_windows.empty()) {
        json.key("extra_windows").begin_array();
        for (const scenario::PresenceWindow& w : pu.extra_windows) {
          json.begin_object();
          json.member("join", static_cast<std::int64_t>(w.join));
          if (w.leave != scenario::kNeverLeaves) {  // absent = never leaves
            json.member("leave", static_cast<std::int64_t>(w.leave));
          }
          json.end_object();
        }
        json.end_array();
      }
      if (pu.link_degradations != 0) {
        json.member("link_degradations",
                    static_cast<std::uint64_t>(pu.link_degradations));
      }
      if (pu.priority != 1.0) json.member("priority", pu.priority);
      json.end_object();
    }
    json.end_array();
  }
}

std::string config_to_json(const ExperimentConfig& config) {
  util::JsonWriter json;
  json.begin_object();
  write_config_members(json, config);
  json.end_object();
  return json.str();
}

// ------------------------------------------------------------- reading

ExperimentConfig config_from_json(const std::string& text) {
  const util::JsonValue document = util::parse_json(text);
  const util::JsonValue* root = &document;
  // Accept a full result document: descend into its "config" section.
  if (const util::JsonValue* nested = document.find("config")) {
    root = nested;
  }
  ExperimentConfig config;
  std::string lb_key = "lb";  // the staleness bound loads as "lb" or "Lb"
  for_each_member(
      *root, "config",
      [&](const std::string& key, const util::JsonValue& value) {
        if (key == "scheduler") {
          config.scheduler = parse_scheduler_token(read_string(value, key));
        } else if (key == "num_users") {
          config.num_users = static_cast<std::size_t>(read_uint(value, key));
        } else if (key == "horizon_slots") {
          config.horizon_slots = read_int(value, key);
        } else if (key == "slot_seconds") {
          config.slot_seconds = read_double(value, key);
        } else if (key == "seed") {
          config.seed = read_uint(value, key);
        } else if (key == "arrival_probability") {
          config.arrival_probability = read_double(value, key);
        } else if (key == "diurnal") {
          config.diurnal = read_bool(value, key);
        } else if (key == "diurnal_swing") {
          config.diurnal_swing = read_double(value, key);
        } else if (key == "arrival_trace_path") {
          config.arrival_trace_path = read_string(value, key);
        } else if (key == "arrival_trace_dir") {
          config.arrival_trace_dir = read_string(value, key);
        } else if (key == "arrival_streams") {
          config.arrival_streams = read_bool(value, key);
        } else if (key == "fixed_device") {
          config.fixed_device = parse_device_token(read_string(value, key));
        } else if (key == "V") {
          config.V = read_double(value, key);
        } else if (key == "lb" || key == "Lb") {
          config.lb = read_double(value, key);
          lb_key = key;
        } else if (key == "epsilon") {
          config.epsilon = read_double(value, key);
        } else if (key == "offline_window_slots") {
          config.offline_window_slots = read_int(value, key);
        } else if (key == "offline_lb") {
          config.offline_lb = read_double(value, key);
        } else if (key == "offline_incremental_replan" ||
                   key == "offline_parallel_plan" ||
                   key == "offline_adaptive_grid") {
          // Retired planner switches. Older archives carry them at the one
          // setting that survives (incremental on, the others off); any
          // other value asks for an engine that no longer exists.
          if (read_bool(value, key) != (key == "offline_incremental_replan")) {
            reject_field(key,
                         "is retired; only the incremental planner remains");
          }
        } else if (key == "folded_gap_accrual" ||
                   key == "online_batch_decide" ||
                   key == "pregenerate_streams") {
          // Retired engine switches. folded_gap_accrual archives carry
          // false (the per-slot sweep and the lazy chain); the folded
          // engine, now the only one, reproduces those runs up to
          // floating-point associativity. The scalar decide loop and the
          // pregenerated stream arena were bit-identical to the batched
          // pass and the lazy streams. So either value loads.
          (void)read_bool(value, key);
        } else if (key == "offline_churn_aware") {
          config.offline_churn_aware = read_bool(value, key);
        } else if (key == "online_churn_aware") {
          config.online_churn_aware = read_bool(value, key);
        } else if (key == "eta") {
          config.eta = read_double(value, key);
        } else if (key == "beta") {
          config.beta = read_double(value, key);
        } else if (key == "real_training") {
          config.real_training = read_bool(value, key);
        } else if (key == "model") {
          config.model = parse_model_token(read_string(value, key));
        } else if (key == "aggregation") {
          // Back-compat: old result documents wrote the kind as a string.
          if (value.is_string()) {
            config.aggregation.kind =
                parse_aggregation_token(value.as_string());
          } else {
            read_aggregation(value, config.aggregation);
          }
        } else if (key == "dirichlet_alpha") {
          config.dirichlet_alpha = read_double(value, key);
        } else if (key == "gap_aware_lr") {
          config.gap_aware_lr = read_bool(value, key);
        } else if (key == "weight_prediction") {
          config.weight_prediction = read_bool(value, key);
        } else if (key == "batch_size") {
          config.batch_size = static_cast<std::size_t>(read_uint(value, key));
        } else if (key == "dataset") {
          read_dataset(value, config.dataset);
        } else if (key == "eval_interval_s") {
          config.eval_interval_s = read_double(value, key);
        } else if (key == "model_bytes") {
          config.model_bytes = static_cast<std::size_t>(read_uint(value, key));
        } else if (key == "use_lte") {
          config.use_lte = read_bool(value, key);
        } else if (key == "decision_eval_seconds") {
          config.decision_eval_seconds = read_double(value, key);
        } else if (key == "decision_interval_slots") {
          config.decision_interval_slots = read_int(value, key);
        } else if (key == "upload_drop_probability") {
          config.upload_drop_probability = read_double(value, key);
        } else if (key == "track_battery") {
          config.track_battery = read_bool(value, key);
        } else if (key == "battery") {
          read_battery(value, config.battery);
        } else if (key == "min_soc_to_train") {
          config.min_soc_to_train = read_double(value, key);
        } else if (key == "enable_thermal") {
          config.enable_thermal = read_bool(value, key);
        } else if (key == "thermal") {
          read_thermal(value, config.thermal);
        } else if (key == "record_interval") {
          config.record_interval = read_int(value, key);
        } else if (key == "record_per_user_gaps") {
          config.record_per_user_gaps = read_bool(value, key);
        } else if (key == "per_user") {
          config.fleet = read_per_user(value);
        } else if (key == "outages") {
          if (!value.is_array()) reject_field(key, "must be an array");
          config.outages.clear();
          for (const util::JsonValue& entry : value.as_array()) {
            ExperimentConfig::OutageWindow o;
            for_each_member(entry, "outages[]",
                            [&](const std::string& okey,
                                const util::JsonValue& ovalue) {
                              if (okey == "start") {
                                o.start = read_int(ovalue, okey);
                              } else if (okey == "end") {
                                o.end = read_int(ovalue, okey);
                              } else {
                                return false;
                              }
                              return true;
                            });
            config.outages.push_back(o);
          }
        } else {
          return false;
        }
        return true;
      });
  if (const auto bad = validate(config)) {
    // Name the spelling of the staleness bound the document used.
    reject_field(bad->field == "lb" ? lb_key : bad->field, bad->reason);
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
