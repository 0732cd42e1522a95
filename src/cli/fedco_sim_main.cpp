// fedco_sim — command-line front end to the experiment driver, e.g.
//   fedco_sim --scheduler offline --users 50 --horizon 21600 --arrival-p 0.002
//   fedco_sim --scenario examples/scenarios/churn.json --replications 8
// Every flag is one row of kFlags (see src/cli/README.md): the rows parse
// the command line, print --help and name the flag behind a core::validate
// violation.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/trace_feed.hpp"
#include "core/campaign.hpp"
#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "core/result_io.hpp"
#include "obs/jsonl_writer.hpp"
#include "scenario/scenario_io.hpp"
#include "util/args.hpp"
#include "util/export.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace fedco;
using Config = core::ExperimentConfig;

/// Everything a flag sets: the config plus the settings only the CLI reads.
struct Options {
  Config config;
  std::string config_path, scenario_path, save_config_path, csv_dir;
  std::string json_path, save_result_path, save_summary_path, events_path;
  std::int64_t replications = 1, jobs = 0, events_sample = 1;
};

/// One flag: --help section, name (no "--"), metavar (nullptr: a switch,
/// whose value is optional), help sentence and binding: the config key it
/// sets as core::validate names it (nullptr: CLI-only), a parser throwing
/// std::invalid_argument, and the setting as --help prints it ("": none).
struct Binding {
  const char* field;
  void (*set)(Options& options, const std::string& value);
  std::string (*show)(const Options& options);
};
struct Flag {
  const char *section, *name, *metavar, *help;
  Binding bind;
};

/// The setting a member path names: a config field (&Config::V), a nested
/// one, or a CLI-only setting (&Options::jobs).
template <auto Member, auto... Nested, typename O>
auto& bound(O& options) {
  if constexpr (std::is_same_v<util::JsonClassOf<Member>, Config>) {
    return ((options.config.*Member) .* ... .* Nested);
  } else {
    return ((options.*Member) .* ... .* Nested);
  }
}

// The binding kind follows the setting's type: a switch (bool), a number
// (double), a path (string) or a count (any integer; a negative value
// wraps an unsigned field past its range, so core::validate still names
// the flag, as for `--users -5`). Enums are tokens, below.
template <auto... Path>
void set_bound(Options& options, const std::string& text) {
  auto& v = bound<Path...>(options);
  using T = std::remove_cvref_t<decltype(v)>;
  if constexpr (std::is_same_v<T, bool>) v = util::parse_bool(text);
  else if constexpr (std::is_same_v<T, std::string>) v = text;
  else if constexpr (std::is_floating_point_v<T>) v = util::parse_double(text);
  else v = static_cast<T>(util::parse_int(text));
}

template <auto... Path>
std::string show_bound(const Options& options) {
  const auto& v = bound<Path...>(options);
  using T = std::remove_cvref_t<decltype(v)>;
  std::string text;
  if constexpr (std::is_same_v<T, bool>) text = v ? "on" : "off";
  else if constexpr (std::is_same_v<T, std::string>) text = v;
  else if constexpr (std::is_integral_v<T>) text = std::to_string(v);
  else util::append_shortest_double(text, v);
  return text;
}

template <auto... Path>
constexpr Binding bind(const char* field = nullptr) {
  return {field, set_bound<Path...>, show_bound<Path...>};
}

/// An enum through config_io's token vocabulary.
template <auto Parse, auto Token, auto... Path>
constexpr Binding token(const char* field) {
  return {field,
          [](Options& o, const std::string& text) {
            bound<Path...>(o) = Parse(text);
          },
          [](const Options& o) -> std::string {
            return Token(bound<Path...>(o));
          }};
}

constexpr Flag kFlags[] = {
    {"Scenario", "config", "F", "load a config JSON (from --save-config or "
     "--json); other flags override it", bind<&Options::config_path>()},
    {"Scenario", "scenario", "F", "expand a ScenarioSpec JSON into a per-user "
     "fleet (see docs/scenarios.md); it owns users, horizon, arrivals and "
     "the network tier", bind<&Options::scenario_path>()},
    {"Scenario", "save-config", "F", "write the effective config as JSON and "
     "exit", bind<&Options::save_config_path>()},
    {"Scenario", "replications", "R", "run R replications (seeds "
     "seed..seed+R-1) as a campaign", bind<&Options::replications>()},
    {"Scenario", "jobs", "N", "campaign worker threads; 0 = $FEDCO_JOBS, else "
     "all cores", bind<&Options::jobs>()},
    {"Scheduling", "scheduler", "S", "online | offline | immediate | sync",
     token<core::parse_scheduler_token, core::scheduler_token,
           &Config::scheduler>("scheduler")},
    {"Scheduling", "V", "X", "online control knob", bind<&Config::V>("V")},
    {"Scheduling", "Lb", "X", "staleness bound", bind<&Config::lb>("lb")},
    {"Scheduling", "epsilon", "X", "idle gap increment per slot",
     bind<&Config::epsilon>("epsilon")},
    {"Scheduling", "decision-interval", "K", "evaluate Eq. (21) every K slots",
     bind<&Config::decision_interval_slots>("decision_interval_slots")},
    {"Scheduling", "offline-window", "K", "offline look-ahead window in slots",
     bind<&Config::offline_window_slots>("offline_window_slots")},
    {"Scheduling", "offline-Lb", "X", "offline staleness budget",
     bind<&Config::offline_lb>("offline_lb")},
    // One switch for both schemes: the field pair lets configs A/B each
    // side, but the CLI treats departure-awareness as a single mode.
    {"Scheduling", "churn-aware", nullptr, "departure-aware offline and online "
     "scheduling (see docs/algorithms.md)",
     {"offline_churn_aware",
      [](Options& o, const std::string& value) {
        o.config.offline_churn_aware = util::parse_bool(value);
        o.config.online_churn_aware = o.config.offline_churn_aware;
      },
      show_bound<&Config::offline_churn_aware>}},
    {"Workload", "users", "N", "number of devices",
     bind<&Config::num_users>("num_users")},
    {"Workload", "horizon", "N", "simulation slots (1 s each)",
     bind<&Config::horizon_slots>("horizon_slots")},
    {"Workload", "arrival-p", "X", "app arrival probability per slot, in "
     "[0, 1]", bind<&Config::arrival_probability>("arrival_probability")},
    {"Workload", "diurnal", nullptr, "modulate arrivals over a 24 h cycle",
     bind<&Config::diurnal>("diurnal")},
    {"Workload", "arrival-trace", "F", "replay a \"slot,app\" CSV usage log "
     "for every user", bind<&Config::arrival_trace_path>("arrival_trace_path")},
    {"Workload", "arrival-trace-dir", "D", "replay per-user \"slot,app\" CSV "
     "logs from D (user i: file i mod count); wins over --arrival-trace",
     bind<&Config::arrival_trace_dir>("arrival_trace_dir")},
    {"Workload", "device", "D", "pin the fleet: nexus6 | nexus6p | hikey970 | "
     "pixel2", token<core::parse_device_token, core::device_token,
                     &Config::fixed_device>("fixed_device")},
    {"Workload", "seed", "N", "RNG seed", bind<&Config::seed>("seed")},
    {"Training", "real-training", nullptr, "run the actual CNN (else "
     "scheduling-only)", bind<&Config::real_training>("real_training")},
    {"Training", "model", "M", "mlp | lenet-small | lenet5",
     token<core::parse_model_token, core::model_token, &Config::model>(
         "model")},
    {"Training", "aggregation", "A", "replace | fedasync | delay-comp",
     token<core::parse_aggregation_token, core::aggregation_token,
           &Config::aggregation, &fl::AggregationConfig::kind>(
         "aggregation.kind")},
    {"Training", "eta", "X", "SGD learning rate", bind<&Config::eta>("eta")},
    {"Training", "beta", "X", "SGD momentum", bind<&Config::beta>("beta")},
    {"Environment", "thermal", nullptr, "enable the thermal-throttling "
     "straggler model", bind<&Config::enable_thermal>("enable_thermal")},
    {"Environment", "battery", nullptr, "track per-device battery (2700 mAh)",
     bind<&Config::track_battery>("track_battery")},
    {"Environment", "min-soc", "X", "gate training below this state of "
     "charge; above 0 implies --battery",
     bind<&Config::min_soc_to_train>("min_soc_to_train")},
    {"Environment", "drop-p", "X", "upload loss probability",
     bind<&Config::upload_drop_probability>("upload_drop_probability")},
    {"Output", "csv-dir", "DIR", "export Q/H/G/accuracy traces as CSV (single "
     "run only)", bind<&Options::csv_dir>()},
    {"Output", "json", "PATH", "write the result as JSON",
     bind<&Options::json_path>()},
    {"Output", "save-result", "F", "archive the whole run, re-runnable via "
     "--config F", bind<&Options::save_result_path>()},
    {"Output", "save-summary", "F", "write the run-summary artifact (digests, "
     "counts, timing)", bind<&Options::save_summary_path>()},
    {"Observability", "events", "F", "stream per-slot JSONL events to F "
     "(single run only)", bind<&Options::events_path>()},
    {"Observability", "events-sample", "N", "emit events only on slots where "
     "t % N == 0; requires --events", bind<&Options::events_sample>()},
};

void print_help() {
  constexpr std::size_t kIndent = 25;
  constexpr std::size_t kWidth = 79;
  std::cout << "fedco_sim — energy-aware federated-learning scheduling "
               "simulator\n";
  const Options defaults;
  const char* section = "";
  for (const Flag& flag : kFlags) {
    if (std::strcmp(section, flag.section) != 0) {
      section = flag.section;
      std::cout << '\n' << section << ":\n";
    }
    std::string line = std::string{"  --"} + flag.name + " " +
                       (flag.metavar ? std::string{flag.metavar} + " " : "");
    line.resize(std::max(line.size(), kIndent), ' ');  // ends in a space
    std::string text = flag.help;
    // "(default X)" is one word, so wrapping never splits it.
    if (const std::string value = flag.bind.show(defaults); !value.empty()) {
      text += " (default\x01" + value + ")";
    }
    for (std::size_t at = 0, end = 0; at < text.size(); at = end + 1) {
      end = std::min(text.find(' ', at), text.size());
      std::string word = text.substr(at, end - at);
      std::replace(word.begin(), word.end(), '\x01', ' ');
      if (line.back() != ' ' && line.size() + 1 + word.size() > kWidth) {
        std::cout << line << '\n';
        line.assign(kIndent, ' ');
      }
      line += (line.back() == ' ' ? "" : " ") + word;
    }
    std::cout << line << '\n';
  }
  std::cout << "\nA missing or malformed value, a value out of range and an "
               "unknown option exit 2.\n";
}

/// Reject a usage error no config field can express, naming the flag.
void require_flag(bool holds, const char* flag, const char* reason) {
  if (!holds) throw std::invalid_argument{std::string{flag} + " " + reason};
}

/// CLI-only rows first (so --config loads), then the config-bound rows over
/// it; then the rules that join flags, validation, the scenario, the usage
/// rules and the preflight.
Options parse_options(const util::ArgParser& args) {
  Options options;
  for (const bool config_bound : {false, true}) {
    if (config_bound && !options.config_path.empty()) {
      options.config = core::load_config_json(options.config_path);
    }
    for (const Flag& flag : kFlags) {
      if ((flag.bind.field != nullptr) != config_bound ||
          !args.has(flag.name)) {
        continue;
      }
      const std::string value = args.get(flag.name);
      try {
        if (flag.metavar != nullptr && value.empty()) {
          throw std::invalid_argument{std::string{"needs a value ("} +
                                      flag.metavar + ")"};
        }
        flag.bind.set(options, value);
      } catch (const std::exception& error) {
        throw std::invalid_argument{std::string{"--"} + flag.name + ": " +
                                    error.what()};
      }
    }
  }

  Config& cfg = options.config;
  if (cfg.min_soc_to_train > 0.0) cfg.track_battery = true;
  // The CLI's small-image default for real LeNet-small runs; scenario files
  // carry their dataset shape explicitly, so only flag-built configs get it.
  if (options.config_path.empty() && cfg.real_training &&
      cfg.model == core::ModelKind::kLenetSmall) {
    cfg.dataset.height = cfg.dataset.width = 16;
    cfg.dataset.train_per_class = 200;
    cfg.dataset.test_per_class = 40;
  }
  // Before the scenario replaces users and horizon, so `--users 0
  // --scenario F` still fails on the flag. A field no row binds can only
  // come from a --config file, which the loader has already validated.
  if (const auto bad = core::validate(cfg)) {
    std::string named = "'" + bad->field + "'";
    for (const Flag& flag : kFlags) {
      if (flag.bind.field && bad->field == flag.bind.field) {
        named = std::string{"--"} + flag.name;
      }
    }
    throw std::invalid_argument{named + " " + bad->reason};
  }
  // Declarative scenario expansion after --seed settled (the fleet is
  // generated from the effective seed): the spec owns the population.
  if (!options.scenario_path.empty()) {
    cfg = core::apply_scenario_arena(
        scenario::load_scenario_json(options.scenario_path), cfg);
  }

  require_flag(options.replications >= 1, "--replications", "must be >= 1");
  require_flag(!options.events_path.empty() || !args.has("events-sample"),
               "--events-sample", "requires --events");
  require_flag(options.events_sample >= 1, "--events-sample", "must be >= 1");
  // Interleaving R replications into one stream would be unreadable and
  // silently streaming only the first would be worse; one run, one file.
  require_flag(options.events_path.empty() || options.replications == 1,
               "--events",
               "streams a single run; drop --replications or run the "
               "replication of interest with its own seed");
  require_flag(options.jobs >= 0, "--jobs", "must be >= 0 (0 = auto)");

  // Every row has been queried, so anything unused is a probable typo
  // (e.g. --horizons); ignoring it would run the wrong experiment.
  std::string unused;
  for (const std::string& name : args.unused()) unused += " --" + name;
  if (!unused.empty()) {
    throw std::invalid_argument{"unrecognised option" + unused +
                                " (try --help)"};
  }

  // A missing or malformed trace file or directory fails here, naming the
  // path, not in the driver (which loads the same sources again).
  (void)apps::load_trace_fleet(cfg.arrival_trace_dir, cfg.arrival_trace_path);
  return options;
}

void print_result_table(const core::ExperimentConfig& cfg,
                        const core::ExperimentResult& r,
                        const std::string& title) {
  util::TextTable table{title};
  table.set_header({"metric", "value"});
  table.add_row({"total energy (kJ)", util::TextTable::num(r.total_energy_j / 1000.0, 2)});
  table.add_row({"  training / co-run (kJ)",
                 util::TextTable::num(r.training_j / 1000.0, 2) + " / " +
                     util::TextTable::num(r.corun_j / 1000.0, 2)});
  table.add_row({"  app / idle (kJ)",
                 util::TextTable::num(r.app_j / 1000.0, 2) + " / " +
                     util::TextTable::num(r.idle_j / 1000.0, 2)});
  table.add_row({"updates (applied/dropped)",
                 std::to_string(r.total_updates) + " / " +
                     std::to_string(r.dropped_updates)});
  table.add_row({"sessions (co-run/separate)",
                 std::to_string(r.corun_sessions) + " / " +
                     std::to_string(r.separate_sessions)});
  table.add_row({"avg lag / avg gap",
                 util::TextTable::num(r.avg_lag, 2) + " / " +
                     util::TextTable::num(r.avg_gap, 3)});
  table.add_row({"avg Q / avg H", util::TextTable::num(r.avg_queue_q, 2) +
                                      " / " + util::TextTable::num(r.avg_queue_h, 1)});
  if (cfg.real_training) {
    table.add_row({"final accuracy", util::TextTable::num(r.final_accuracy, 3)});
    const double t50 = r.time_to_accuracy(0.5);
    table.add_row({"time to 50% acc (s)",
                   t50 < 0 ? "never" : util::TextTable::num(t50, 0)});
  }
  if (cfg.track_battery) {
    table.add_row({"battery cycles (fleet)",
                   util::TextTable::num(r.battery_cycles_total, 2)});
    table.add_row({"battery-gated slots",
                   std::to_string(r.battery_gated_slots)});
  }
  if (cfg.enable_thermal) {
    table.add_row({"max temp (C) / worst slowdown",
                   util::TextTable::num(r.max_temperature_c, 1) + " / " +
                       util::TextTable::num(r.worst_throttle_factor, 2)});
  }
  table.print(std::cout);
}

/// Write the result documents the options ask for, one per run; a campaign
/// of R > 1 runs writes PATH-r<k>.json for each ("-r<k>" goes before the
/// extension).
void write_results(const Options& options,
                   std::span<const core::ExperimentConfig> configs,
                   std::span<const core::ExperimentResult> results) {
  struct Document {
    const std::string& path;
    core::ResultJsonOptions format;
    const char* what;
  };
  const Document documents[] = {
      {options.json_path, {}, "result"},
      // Full resolution plus the expanded config: replays via --config.
      {options.save_result_path,
       {.trace_decimation = 1, .include_lag_gap_samples = true},
       "full result archive"},
      // No traces: small enough to commit as a tools/metrics_diff baseline.
      {options.save_summary_path,
       {.include_traces = false, .include_timing = true},
       "run summary"},
  };
  const std::size_t runs = results.size();
  for (const Document& document : documents) {
    const std::string& path = document.path;
    if (path.empty()) continue;
    const std::size_t dot = path.find_last_of("./");
    const std::size_t cut =
        dot != std::string::npos && path[dot] == '.' ? dot : path.size();
    const auto path_of = [&](std::size_t k) {
      return runs == 1 ? path
                       : path.substr(0, cut) + "-r" + std::to_string(k) +
                             path.substr(cut);
    };
    for (std::size_t k = 0; k < runs; ++k) {
      core::write_result_json(path_of(k), configs[k], results[k],
                              document.format);
    }
    std::cout << document.what << " written to " << path_of(0)
              << (runs > 1 ? " .. " + path_of(runs - 1) : "") << '\n';
  }
}

void run_replications(const Options& options) {
  const auto num = util::TextTable::num;
  const std::vector<core::ExperimentConfig> configs = core::replicate(
      options.config, static_cast<std::size_t>(options.replications));
  const core::CampaignReport report =
      core::run_campaign(configs, static_cast<std::size_t>(options.jobs));

  util::TextTable table{std::string{"fedco_sim — "} +
                        core::scheduler_name(options.config.scheduler) +
                        " × " + std::to_string(configs.size()) +
                        " replications"};
  table.set_header({"seed", "energy (kJ)", "updates", "avg lag", "avg gap"});
  util::RunningStats energy;
  util::RunningStats updates;
  for (std::size_t k = 0; k < report.results.size(); ++k) {
    const core::ExperimentResult& r = report.results[k];
    energy.add(r.total_energy_j / 1000.0);
    updates.add(static_cast<double>(r.total_updates));
    table.add_row({std::to_string(configs[k].seed),
                   num(r.total_energy_j / 1000.0, 1),
                   std::to_string(r.total_updates), num(r.avg_lag, 2),
                   num(r.avg_gap, 3)});
  }
  table.add_row({"mean +/- sd",
                 num(energy.mean(), 1) + " +/- " + num(energy.stddev(), 1),
                 num(updates.mean(), 1) + " +/- " + num(updates.stddev(), 1),
                 "", ""});
  table.print(std::cout);
  std::cout << "campaign: " << report.results.size() << " experiments on "
            << report.jobs << " jobs, " << num(report.wall_seconds, 2)
            << " s wall, " << num(report.speedup(), 2) << "x speedup\n";
  write_results(options, configs, report.results);
}

void run(const Options& options) {
  const core::ExperimentConfig& cfg = options.config;
  if (!options.save_config_path.empty()) {
    core::save_config_json(options.save_config_path, cfg);
    std::cout << "config written to " << options.save_config_path << '\n';
    return;
  }
  if (options.replications > 1) return run_replications(options);

  // The event stream is opt-in plumbing, not behaviour: hooks only observe
  // values the driver already computed, so the result is bit-identical
  // with or without them (obs_event_test pins this for every scheduler).
  std::unique_ptr<obs::JsonlEventWriter> events;
  core::RunHooks hooks;
  if (!options.events_path.empty()) {
    events = std::make_unique<obs::JsonlEventWriter>(options.events_path);
    hooks.events = events.get();
    hooks.events_sample = options.events_sample;
  }
  const core::ExperimentResult r = core::run_experiment(cfg, hooks);
  if (events != nullptr) {
    events->flush();
    std::cout << events->events_written() << " events streamed to "
              << options.events_path << '\n';
  }
  print_result_table(cfg, r, std::string{"fedco_sim — "} +
                                 core::scheduler_name(cfg.scheduler));
  write_results(options, {&cfg, 1}, {&r, 1});

  if (!options.csv_dir.empty()) {
    for (const char* name : {"Q", "H", "G", "accuracy", "server_gap"}) {
      if (const auto* series = r.traces.find(name)) {
        util::export_time_series(options.csv_dir, name, *series);
      }
    }
    std::cout << "traces exported to " << options.csv_dir << "/*.csv\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    const util::ArgParser args{argc, argv};
    if (args.has("help")) {
      print_help();
      return 0;
    }
    options = parse_options(args);
  } catch (const std::exception& error) {
    // Bad input (a flag, a file named by one, a flag combination) exits 2,
    // like a misspelled option, not as a crash; the loaders name the file.
    std::cerr << "fedco_sim: " << error.what() << '\n';
    return 2;
  }
  try {
    run(options);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "fedco_sim: " << error.what() << "\n(try --help)\n";
    return 1;
  }
}
