// fedco_sim — command-line front end to the experiment driver.
//
// Examples:
//   fedco_sim --scheduler online --V 4000 --Lb 500
//   fedco_sim --scheduler offline --users 50 --horizon 21600 --arrival-p 0.002
//   fedco_sim --config scenario.json --seed 9
//   fedco_sim --scenario examples/scenarios/heterogeneous_fleet.json
//   fedco_sim --scheduler online --replications 8 --jobs 4
//   fedco_sim --scheduler online --real-training --model lenet-small
//             --csv-dir /tmp/out   (one line)
//   fedco_sim --help
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/campaign.hpp"
#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "apps/trace_feed.hpp"
#include "core/result_io.hpp"
#include "obs/jsonl_writer.hpp"
#include "scenario/scenario_io.hpp"
#include "util/args.hpp"
#include "util/export.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace fedco;

void print_help() {
  std::cout <<
      R"(fedco_sim — energy-aware federated-learning scheduling simulator

Scenario:
  --config F           load an ExperimentConfig JSON (a file saved by
                       --save-config, or a --json result document); any
                       flag below overrides the loaded value
  --scenario F         load a declarative ScenarioSpec JSON (device mix,
                       arrival-rate distribution, timezones, LTE share,
                       churn, stream_rng, and fault injection — scheduled
                       regional outages, netem-style link-degradation
                       profiles, commute presence cycles, trace-driven
                       fleets; see examples/scenarios/ and
                       docs/scenarios.md) and
                       expand it into a per-user fleet. The spec owns
                       users/horizon/arrivals (including any
                       --arrival-trace) and the network tier, overriding
                       those flags; scheduler, training and environment
                       flags still apply. Specs with "stream_rng": true
                       sample arrivals on demand from counter-based
                       per-user streams (the 1M-user fast-setup mode)
  --save-config F      write the effective (expanded) config as JSON and
                       exit
  --replications R     run R replications (seeds seed..seed+R-1) as a
                       campaign and report mean/stddev        (default 1)
  --jobs N             campaign worker threads; 0 = $FEDCO_JOBS, else all
                       cores                                  (default 0)

Scheduling:
  --scheduler S        online | offline | immediate | sync   (default online)
  --V X                online control knob                   (default 4000)
  --Lb X               staleness bound                       (default 500)
  --epsilon X          idle gap increment per slot           (default 0.05)
  --decision-interval K  evaluate Eq.(21) every K slots      (default 1)
  --offline-window K   offline look-ahead window slots       (default 500)
  --offline-Lb X       offline staleness budget              (default 1000)
  --scalar-decide      force the per-user scalar decide() path (the
                       batched one-pass evaluation is the default and is
                       bit-identical; this exists for A/B verification)
  --churn-aware        departure-aware scheduling: the offline planner
                       drops co-runs that cannot finish before a user's
                       leave slot and deweights deferred work near
                       departures; the online rule discounts the Eq. (21)
                       staleness term by the remaining-presence fraction.
                       Off by default (the paper's churn-oblivious
                       schedulers; see docs/algorithms.md)

Workload:
  --users N            number of devices                     (default 25)
  --horizon N          simulation slots (1 s each)           (default 10800)
  --arrival-p X        app arrival probability per slot, in [0, 1]
                                                             (default 0.001)
  --diurnal            modulate arrivals over a 24 h cycle
  --arrival-trace F    replay a "slot,app" CSV usage log instead
  --arrival-trace-dir D  replay a directory of per-user "slot,app" CSV
                       logs (sorted by name; user i replays file i mod
                       file-count). Takes precedence over --arrival-trace
  --device D           pin fleet: nexus6|nexus6p|hikey970|pixel2 (default mixed)
  --seed N             RNG seed                              (default 1)

Training:
  --real-training      run the actual CNN (else scheduling-only)
  --model M            mlp | lenet-small | lenet5            (default lenet-small)
  --aggregation A      replace | fedasync | delay-comp       (default replace)
  --eta X --beta X     SGD hyper-parameters                  (default 0.05/0.9)

Environment:
  --thermal            enable the thermal-throttling straggler model
  --battery            track per-device battery (2700 mAh)
  --min-soc X          gate training below this state of charge
  --drop-p X           upload loss probability
  --csv-dir DIR        export Q/H/G/accuracy traces as CSV (single run only)
  --json PATH          write the result as JSON; with --replications R > 1,
                       one document per replication (PATH-r<k>.json)
  --save-result F      archive the complete single run as JSON: full config
                       (with the expanded per-user scenario) plus
                       undecimated traces and per-update lag/gap samples,
                       re-runnable via --config F; with --replications R > 1
                       one archive per replication (F-r<k>.json)
  --save-summary F     write the run-summary artifact (percentile digests,
                       decision/park/churn counts, wall-time phase
                       breakdown) without traces; with --replications R > 1
                       one document per replication (F-r<k>.json)

Observability:
  --events F           stream per-slot JSONL events (decisions, updates,
                       parks/wakes, joins/leaves, barrier stalls, replans)
                       to F; single run only. The emitter reads values the
                       driver already computed, so results are bit-identical
                       with events on or off (see docs/observability.md)
  --events-sample N    emit events only on slots where t % N == 0
                       (default 1 = every slot); requires --events

Unknown options are reported to stderr and exit non-zero.
)";
}

/// A --config or --scenario file that cannot be opened, parsed or
/// validated, a flag value outside its range, or a flag combination the
/// CLI cannot run: an input error (exit 2, like a misspelled option), not
/// a crash. The loaders already name the file in the message.
struct InputError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Reject a flag value outside the range config_io enforces on its field,
/// or a usage error, naming the flag.
void require_flag(bool in_range, const char* flag, const char* range) {
  if (!in_range) throw InputError{std::string{flag} + " " + range};
}

template <typename Loader>
auto load_input(Loader load, const std::string& path) {
  try {
    return load(path);
  } catch (const std::exception& error) {
    throw InputError{error.what()};
  }
}

/// Build the effective config: scenario file first (when given), then every
/// present flag overrides the corresponding field.
core::ExperimentConfig effective_config(const util::ArgParser& args) {
  core::ExperimentConfig cfg;
  const std::string config_path = args.get("config");
  if (!config_path.empty()) {
    cfg = load_input(core::load_config_json, config_path);
  }

  // Fallbacks are the current field values (never reached — has() guards
  // each call) so the defaults live in ExperimentConfig alone.
  if (args.has("scheduler")) {
    cfg.scheduler = core::parse_scheduler_token(args.get("scheduler"));
  }
  if (args.has("users")) {
    const std::int64_t users =
        args.get_int("users", static_cast<std::int64_t>(cfg.num_users));
    require_flag(users >= 1, "--users", "must be positive");
    cfg.num_users = static_cast<std::size_t>(users);
  }
  if (args.has("horizon")) {
    cfg.horizon_slots = args.get_int("horizon", cfg.horizon_slots);
    require_flag(cfg.horizon_slots > 0, "--horizon", "must be positive");
    require_flag(cfg.horizon_slots <= sim::kMaxHorizonSlots, "--horizon",
                 "must be at most 2^31 - 1");
  }
  if (args.has("arrival-p")) {
    cfg.arrival_probability =
        args.get_double("arrival-p", cfg.arrival_probability);
    require_flag(cfg.arrival_probability >= 0.0 &&
                     cfg.arrival_probability <= 1.0,
                 "--arrival-p", "must be in [0, 1]");
  }
  if (args.has("diurnal")) cfg.diurnal = args.get_bool("diurnal", cfg.diurnal);
  if (args.has("arrival-trace")) {
    cfg.arrival_trace_path = args.get("arrival-trace");
  }
  if (args.has("arrival-trace-dir")) {
    cfg.arrival_trace_dir = args.get("arrival-trace-dir");
  }
  if (args.has("device")) {
    cfg.fixed_device = core::parse_device_token(args.get("device"));
  }
  if (args.has("seed")) {
    cfg.seed = static_cast<std::uint64_t>(
        args.get_int("seed", static_cast<std::int64_t>(cfg.seed)));
  }
  if (args.has("V")) {
    cfg.V = args.get_double("V", cfg.V);
    require_flag(std::isfinite(cfg.V) && cfg.V >= 0.0, "--V",
                 "must be non-negative and finite");
  }
  if (args.has("Lb")) {
    cfg.lb = args.get_double("Lb", cfg.lb);
    require_flag(std::isfinite(cfg.lb) && cfg.lb >= 0.0, "--Lb",
                 "must be non-negative and finite");
  }
  if (args.has("epsilon")) {
    cfg.epsilon = args.get_double("epsilon", cfg.epsilon);
    require_flag(std::isfinite(cfg.epsilon) && cfg.epsilon >= 0.0, "--epsilon",
                 "must be non-negative and finite");
  }
  if (args.has("decision-interval")) {
    cfg.decision_interval_slots =
        args.get_int("decision-interval", cfg.decision_interval_slots);
    require_flag(cfg.decision_interval_slots >= 1, "--decision-interval",
                 "must be positive");
  }
  if (args.has("offline-window")) {
    cfg.offline_window_slots =
        args.get_int("offline-window", cfg.offline_window_slots);
    require_flag(cfg.offline_window_slots > 0, "--offline-window",
                 "must be positive");
  }
  if (args.has("offline-Lb")) {
    cfg.offline_lb = args.get_double("offline-Lb", cfg.offline_lb);
    require_flag(std::isfinite(cfg.offline_lb) && cfg.offline_lb > 0.0,
                 "--offline-Lb", "must be positive and finite");
  }
  if (args.has("scalar-decide")) {
    cfg.online_batch_decide = !args.get_bool("scalar-decide", false);
  }
  if (args.has("churn-aware")) {
    // One switch for both schemes: the flag pair exists so configs can
    // A/B each side independently, but the CLI treats departure-awareness
    // as a single mode.
    const bool aware = args.get_bool("churn-aware", false);
    cfg.offline_churn_aware = aware;
    cfg.online_churn_aware = aware;
  }
  if (args.has("eta")) {
    cfg.eta = args.get_double("eta", cfg.eta);
    require_flag(std::isfinite(cfg.eta) && cfg.eta > 0.0, "--eta",
                 "must be positive and finite");
  }
  if (args.has("beta")) {
    cfg.beta = args.get_double("beta", cfg.beta);
    require_flag(std::isfinite(cfg.beta) && cfg.beta >= 0.0 && cfg.beta < 1.0,
                 "--beta", "must be in [0, 1)");
  }
  if (args.has("real-training")) {
    cfg.real_training = args.get_bool("real-training", cfg.real_training);
  }
  if (args.has("model")) {
    cfg.model = core::parse_model_token(args.get("model"));
  }
  if (args.has("aggregation")) {
    cfg.aggregation.kind =
        core::parse_aggregation_token(args.get("aggregation"));
  }
  if (args.has("thermal")) {
    cfg.enable_thermal = args.get_bool("thermal", cfg.enable_thermal);
  }
  if (args.has("battery")) {
    cfg.track_battery = args.get_bool("battery", cfg.track_battery);
  }
  if (args.has("min-soc")) {
    cfg.min_soc_to_train = args.get_double("min-soc", cfg.min_soc_to_train);
    require_flag(cfg.min_soc_to_train >= 0.0 && cfg.min_soc_to_train <= 1.0,
                 "--min-soc", "must be in [0, 1]");
  }
  if (args.has("drop-p")) {
    cfg.upload_drop_probability =
        args.get_double("drop-p", cfg.upload_drop_probability);
    require_flag(cfg.upload_drop_probability >= 0.0 &&
                     cfg.upload_drop_probability <= 1.0,
                 "--drop-p", "must be in [0, 1]");
  }
  if (cfg.min_soc_to_train > 0.0) cfg.track_battery = true;
  // The CLI's small-image default for real LeNet-small runs; scenario files
  // carry their dataset shape explicitly, so only flag-built configs get it.
  if (config_path.empty() && cfg.real_training &&
      cfg.model == core::ModelKind::kLenetSmall) {
    cfg.dataset.height = 16;
    cfg.dataset.width = 16;
    cfg.dataset.train_per_class = 200;
    cfg.dataset.test_per_class = 40;
  }
  // Declarative scenario expansion last, after --seed settled (the fleet is
  // generated from the effective seed): the spec owns the population.
  const std::string scenario_path = args.get("scenario");
  if (!scenario_path.empty()) {
    cfg = core::apply_scenario_arena(
        load_input(scenario::load_scenario_json, scenario_path), cfg);
  }
  return cfg;
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

/// Insert "-r<k>" before the extension: out.json -> out-r3.json.
std::string replication_path(const std::string& path, std::size_t k) {
  const std::size_t dot = path.find_last_of('.');
  const std::size_t slash = path.find_last_of('/');
  const bool has_ext =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  const std::string suffix = "-r" + std::to_string(k);
  return has_ext ? path.substr(0, dot) + suffix + path.substr(dot)
                 : path + suffix;
}

/// The summary-artifact serialisation: percentile digests, counts and the
/// wall-time phase breakdown, no traces — small enough to commit as a CI
/// baseline and diff with tools/metrics_diff.
core::ResultJsonOptions summary_options() {
  core::ResultJsonOptions options;
  options.include_traces = false;
  options.include_lag_gap_samples = false;
  options.include_summary = true;
  options.include_timing = true;
  return options;
}

int run_replications(const core::ExperimentConfig& base, std::size_t
                     replications, std::size_t jobs,
                     const std::string& json_path,
                     const std::string& save_result_path,
                     const std::string& save_summary_path) {
  const std::vector<core::ExperimentConfig> configs =
      core::replicate(base, replications);
  const core::CampaignReport report = core::run_campaign(configs, jobs);

  util::TextTable table{std::string{"fedco_sim — "} +
                        core::scheduler_name(base.scheduler) + " × " +
                        std::to_string(replications) + " replications"};
  table.set_header({"seed", "energy (kJ)", "updates", "avg lag", "avg gap"});
  util::RunningStats energy;
  util::RunningStats updates;
  for (std::size_t k = 0; k < report.results.size(); ++k) {
    const core::ExperimentResult& r = report.results[k];
    energy.add(r.total_energy_j / 1000.0);
    updates.add(static_cast<double>(r.total_updates));
    table.add_row({std::to_string(configs[k].seed),
                   util::TextTable::num(r.total_energy_j / 1000.0, 1),
                   std::to_string(r.total_updates),
                   util::TextTable::num(r.avg_lag, 2),
                   util::TextTable::num(r.avg_gap, 3)});
  }
  table.add_row({"mean +/- sd",
                 util::TextTable::num(energy.mean(), 1) + " +/- " +
                     util::TextTable::num(energy.stddev(), 1),
                 util::TextTable::num(updates.mean(), 1) + " +/- " +
                     util::TextTable::num(updates.stddev(), 1),
                 "", ""});
  table.print(std::cout);
  std::cout << "campaign: " << report.results.size() << " experiments on "
            << report.jobs << " jobs, "
            << util::TextTable::num(report.wall_seconds, 2) << " s wall, "
            << util::TextTable::num(report.speedup(), 2) << "x speedup\n";

  if (!json_path.empty()) {
    for (std::size_t k = 0; k < report.results.size(); ++k) {
      core::write_result_json(replication_path(json_path, k), configs[k],
                              report.results[k]);
    }
    std::cout << "results written to " << replication_path(json_path, 0)
              << " .. " << replication_path(json_path, replications - 1)
              << '\n';
  }
  if (!save_result_path.empty()) {
    core::ResultJsonOptions archive;
    archive.include_traces = true;
    archive.trace_decimation = 1;
    archive.include_lag_gap_samples = true;
    for (std::size_t k = 0; k < report.results.size(); ++k) {
      core::write_result_json(replication_path(save_result_path, k),
                              configs[k], report.results[k], archive);
    }
    std::cout << "full results archived to "
              << replication_path(save_result_path, 0) << " .. "
              << replication_path(save_result_path, replications - 1) << '\n';
  }
  if (!save_summary_path.empty()) {
    for (std::size_t k = 0; k < report.results.size(); ++k) {
      core::write_result_json(replication_path(save_summary_path, k),
                              configs[k], report.results[k],
                              summary_options());
    }
    std::cout << "run summaries written to "
              << replication_path(save_summary_path, 0) << " .. "
              << replication_path(save_summary_path, replications - 1) << '\n';
  }
  return 0;
}

int run(const util::ArgParser& args) {
  const core::ExperimentConfig cfg = effective_config(args);
  const std::string save_config_path = args.get("save-config");
  const std::string json_path = args.get("json");
  const std::string save_result_path = args.get("save-result");
  const std::string save_summary_path = args.get("save-summary");
  const std::string events_path = args.get("events");
  const std::string csv_dir = args.get("csv-dir");
  const std::int64_t replications_raw = args.get_int("replications", 1);
  const std::int64_t events_sample = args.get_int("events-sample", 1);
  const std::int64_t jobs_raw = args.get_int("jobs", 0);
  require_flag(replications_raw >= 1, "--replications", "must be >= 1");
  require_flag(!events_path.empty() || !args.has("events-sample"),
               "--events-sample", "requires --events");
  require_flag(events_sample >= 1, "--events-sample", "must be >= 1");
  // Interleaving R replications into one stream would be unreadable and
  // silently streaming only the first would be worse; one run, one file.
  require_flag(events_path.empty() || replications_raw == 1, "--events",
               "streams a single run; drop --replications or run the "
               "replication of interest with its own seed");
  require_flag(jobs_raw >= 0, "--jobs", "must be >= 0 (0 = auto)");
  const auto replications = static_cast<std::size_t>(replications_raw);
  const auto jobs = static_cast<std::size_t>(jobs_raw);

  // Probable typos are fatal: every recognised option has been queried by
  // now, so anything unused was misspelled (e.g. --horizons). Silently
  // ignoring it would run the wrong experiment.
  const std::vector<std::string> unused = args.unused();
  if (!unused.empty()) {
    for (const auto& name : unused) {
      std::cerr << "fedco_sim: unrecognised option --" << name << '\n';
    }
    std::cerr << "(try --help)\n";
    return 2;
  }

  // Trace-driven fleets fail fast with a path-bearing message before the
  // driver starts: a missing directory, an empty one, or a malformed CSV
  // row is an input error (exit 2, like a misspelled option), not a crash.
  if (!cfg.arrival_trace_dir.empty()) {
    try {
      (void)apps::load_arrival_trace_dir(cfg.arrival_trace_dir);
    } catch (const std::exception& error) {
      std::cerr << "fedco_sim: " << error.what() << '\n';
      return 2;
    }
  }

  if (!save_config_path.empty()) {
    core::save_config_json(save_config_path, cfg);
    std::cout << "config written to " << save_config_path << '\n';
    return 0;
  }

  if (replications > 1) {
    return run_replications(cfg, replications, jobs, json_path,
                            save_result_path, save_summary_path);
  }

  // The event stream is opt-in plumbing, not behaviour: hooks only observe
  // values the driver already computed, so the result is bit-identical
  // with or without them (obs_event_test pins this for every scheduler).
  std::unique_ptr<obs::JsonlEventWriter> events;
  core::RunHooks hooks;
  if (!events_path.empty()) {
    events = std::make_unique<obs::JsonlEventWriter>(events_path);
    hooks.events = events.get();
    hooks.events_sample = events_sample;
  }
  const core::ExperimentResult r = core::run_experiment(cfg, hooks);
  if (events != nullptr) {
    events->flush();
    std::cout << events->events_written() << " events streamed to "
              << events_path << '\n';
  }
  print_result_table(cfg, r, std::string{"fedco_sim — "} +
                                 core::scheduler_name(cfg.scheduler));

  if (!json_path.empty()) {
    core::write_result_json(json_path, cfg, r);
    std::cout << "result written to " << json_path << '\n';
  }

  if (!save_result_path.empty()) {
    // The archival document: everything the run produced, at full
    // resolution, plus the complete config (with any expanded per-user
    // scenario) so the file alone reproduces the run via --config.
    core::ResultJsonOptions archive;
    archive.include_traces = true;
    archive.trace_decimation = 1;
    archive.include_lag_gap_samples = true;
    core::write_result_json(save_result_path, cfg, r, archive);
    std::cout << "full result archived to " << save_result_path << '\n';
  }

  if (!save_summary_path.empty()) {
    core::write_result_json(save_summary_path, cfg, r, summary_options());
    std::cout << "run summary written to " << save_summary_path << '\n';
  }

  if (!csv_dir.empty()) {
    for (const char* name : {"Q", "H", "G", "accuracy", "server_gap"}) {
      if (const auto* series = r.traces.find(name)) {
        util::export_time_series(csv_dir, name, *series);
      }
    }
    std::cout << "traces exported to " << csv_dir << "/*.csv\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args{argc, argv};
    if (args.has("help")) {
      print_help();
      return 0;
    }
    return run(args);
  } catch (const InputError& error) {
    std::cerr << "fedco_sim: " << error.what() << '\n';
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "fedco_sim: " << error.what() << "\n(try --help)\n";
    return 1;
  }
}
