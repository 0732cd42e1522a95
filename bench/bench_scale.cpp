// Large-fleet scalability bench (no paper analogue — the ROADMAP's
// production-scale axis). Sweeps scheduling-only heterogeneous fleets of
// 100 / 1k / 10k / 100k / 1M users across all four schedulers via
// core::run_campaign, and reports the simulator's throughput: slots/sec
// (simulated slots per wall-clock second), user-slots/sec (slots/sec ×
// fleet size, the per-device work rate), and the process peak RSS.
// Results are written as machine-readable BENCH_scale.json for regression
// tracking; CI runs the --smoke variant on every push, uploads the
// document as an artifact, and diffs it against the committed smoke
// baseline via tools/bench_check (see docs/performance.md).
//
// Each fleet is expanded from a ScenarioSpec (device mix across the four
// testbed models, lognormal per-user arrival rates, an LTE share) so the
// bench exercises the scenario subsystem end to end, not just the driver.
//
//   bench_scale [--jobs N] [--smoke] [--out PATH] [--seed N]
//               [--schedulers LIST] [--sizes LIST] [--repeat N]
//               [--events BOOL] [--churn-aware BOOL]
//
// Ad-hoc studies (ROADMAP campaign sweeps) can override the grid:
//   --schedulers online,offline     comma-separated scheme names
//                                   (core::parse_scheduler_token spellings)
//   --sizes 1000:2400,50000:600     comma-separated users:horizon pairs
//
// --repeat N times every fleet N times and keeps each row's best (minimum)
// wall time — the noise-robust throughput estimate the CI regression gate
// compares (runs are deterministic, so repetition changes nothing else).
//
// Online rows carry a "g_mode":"folded" tag naming the G(t) engine (the
// folded closed-form accumulators, the only one). Older baselines also
// hold "sweep" rows from the retired per-slot fleet sweep; tools/bench_check
// SKIPs rather than compares rows whose tags differ, so those rows SKIP.
//
// --events (default true) additionally re-measures every scheduler row
// with the PR 8 JSONL event emitter attached at stride 1 (every slot) and
// reports it as a separate row tagged "events": true — the emitter's
// overhead budget (<= 10% slots/s at 100k users, see
// docs/observability.md) is tracked in these rows. The stream is written
// to a temp file next to --out and deleted after each measurement.
// tools/bench_check never compares across the tag.
//
// --churn-aware (default true) adds one extra offline and one extra
// online row per fleet with the PR 10 departure-aware modes enabled
// (offline_churn_aware / online_churn_aware), tagged "churn_aware": true.
// On churn-free fleets these rows track the modes' pure overhead (the
// per-decision leave-slot consult); on the churny 1M stream fleet they
// track the departure-aware decision stream itself. tools/bench_check
// treats the tag like events: churn-aware rows only compare against
// churn-aware rows.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_common.hpp"
#include "core/config_io.hpp"
#include "obs/jsonl_writer.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace fedco;

struct FleetSize {
  std::size_t users;
  sim::Slot horizon;
};

constexpr core::SchedulerKind kAllSchedulers[] = {
    core::SchedulerKind::kImmediate, core::SchedulerKind::kSyncSgd,
    core::SchedulerKind::kOffline, core::SchedulerKind::kOnline};

/// Split a comma-separated list (empty string -> empty vector).
std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= text.size() && !text.empty()) {
    const std::size_t comma = text.find(',', begin);
    const std::string token =
        text.substr(begin, comma == std::string::npos ? comma : comma - begin);
    if (!token.empty()) out.push_back(token);
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

/// --schedulers override: comma-separated scheme names.
std::vector<core::SchedulerKind> parse_schedulers(const std::string& list) {
  std::vector<core::SchedulerKind> kinds;
  for (const std::string& token : split_list(list)) {
    kinds.push_back(core::parse_scheduler_token(token));
  }
  return kinds;
}

/// --sizes override: comma-separated users:horizon pairs ("1000:2400").
std::vector<FleetSize> parse_sizes(const std::string& list) {
  std::vector<FleetSize> sizes;
  for (const std::string& token : split_list(list)) {
    const std::size_t colon = token.find(':');
    // Digits only on both sides: stoull would silently wrap a negative
    // users count into an astronomically large fleet.
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= token.size() ||
        token.find_first_not_of("0123456789:") != std::string::npos ||
        token.find(':', colon + 1) != std::string::npos) {
      throw std::invalid_argument{
          "bench_scale: --sizes expects users:horizon pairs, got '" + token +
          "'"};
    }
    FleetSize size;
    size.users = static_cast<std::size_t>(std::stoull(token.substr(0, colon)));
    size.horizon =
        static_cast<sim::Slot>(std::stoll(token.substr(colon + 1)));
    if (size.users == 0 || size.horizon <= 0) {
      throw std::invalid_argument{
          "bench_scale: --sizes needs positive users and horizon"};
    }
    sizes.push_back(size);
  }
  return sizes;
}

/// Process-lifetime peak resident set (MiB); 0 when the platform has no
/// getrusage. ru_maxrss is a monotone high-water mark, so per-fleet rows
/// report "process peak after this fleet" (the grid runs smallest first;
/// the last row is the honest overall peak) — it cannot be attributed to
/// one fleet alone.
double process_peak_rss_mib() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
#endif
#else
  return 0.0;
#endif
}

/// Fleets at or above this size run the PR 6 stream-RNG mode: on-demand
/// counter-based arrival streams plus the SoA fleet arena, the only setup
/// path whose cost is O(events) rather than O(users x horizon). Stream
/// rows are tagged "rng": "stream" so tools/bench_check never compares
/// them against legacy-RNG baselines (different draw layout = different
/// arrival sequences = incomparable work).
constexpr std::size_t kStreamRngThreshold = 1000000;

/// The bench's heterogeneous population at a given scale.
scenario::ScenarioSpec fleet_spec(const FleetSize& size) {
  scenario::ScenarioSpec spec;
  spec.name = "scale-" + std::to_string(size.users);
  spec.num_users = size.users;
  spec.horizon_slots = size.horizon;
  spec.device_mix = {{device::DeviceKind::kNexus6, 0.25},
                     {device::DeviceKind::kNexus6P, 0.25},
                     {device::DeviceKind::kHikey970, 0.25},
                     {device::DeviceKind::kPixel2, 0.25}};
  spec.arrival.distribution = scenario::ArrivalSpec::Distribution::kLogNormal;
  spec.arrival.mean_probability = 0.002;
  spec.arrival.sigma = 0.5;
  spec.network.lte_fraction = 0.3;
  if (size.users >= kStreamRngThreshold) {
    // Mirror examples/scenarios/fleet_1m.json: the 1M row exercises the
    // full stream path — diurnal thinning and churn presence windows —
    // not just the flat-rate fast path.
    spec.stream_rng = true;
    spec.diurnal.enabled = true;
    spec.diurnal.swing = 0.8;
    spec.diurnal.timezone_spread_hours = 10.0;
    spec.churn.churn_fraction = 0.2;
    spec.churn.min_presence = 0.3;
    spec.churn.max_presence = 0.8;
  }
  return spec;
}

struct SchedulerRow {
  const char* scheduler = "";
  double seconds = 0.0;
  double slots_per_sec = 0.0;
  double user_slots_per_sec = 0.0;
  std::uint64_t updates = 0;
  double energy_kj = 0.0;
  /// Online rows only: the G(t) engine tag, always "folded" (see the file
  /// comment); bench_check SKIPs cross-engine comparisons.
  const char* g_mode = nullptr;
  /// True on rows re-measured with the JSONL event emitter attached
  /// (stride 1). Emitted in the JSON only when true, so pre-tag baselines
  /// stay comparable; bench_check never compares across the tag.
  bool events = false;
  /// True on rows measured with the PR 10 departure-aware mode on
  /// (offline_churn_aware / online_churn_aware). Same emit-only-when-true
  /// contract as events; bench_check never compares across the tag.
  bool churn_aware = false;
};

struct FleetRow {
  FleetSize size{};
  /// "legacy" (per-user forked xoshiro + pre-generated scripts) or
  /// "stream" (counter-based on-demand arrival streams). Rows measured
  /// under different RNG layouts sample different arrival sequences, so
  /// bench_check SKIPs instead of comparing them.
  const char* rng = "legacy";
  double wall_seconds = 0.0;
  double process_peak_rss_mib = 0.0;  ///< cumulative high-water mark
  std::vector<SchedulerRow> schedulers;
};

FleetRow run_fleet(const FleetSize& size,
                   const std::vector<core::SchedulerKind>& schedulers,
                   std::uint64_t seed, std::size_t jobs, std::size_t repeat,
                   bool churn_rows,
                   const std::string& events_tmp_path,
                   bench::CampaignTotals& totals) {
  core::ExperimentConfig base;
  base.seed = seed;
  // Scheduling-only (real_training stays off): the bench measures the
  // slot-loop and scheduler throughput, not the NN substrate.
  base.record_interval = 60;  // keep 10k-user trace memory modest
  const scenario::ScenarioSpec spec = fleet_spec(size);
  base = core::apply_scenario_arena(spec, base);

  std::vector<core::ExperimentConfig> configs;
  std::vector<std::uint8_t> churn_flags;  // parallel to configs
  for (const core::SchedulerKind kind : schedulers) {
    core::ExperimentConfig config = base;
    config.scheduler = kind;
    configs.push_back(config);
    churn_flags.push_back(0);
    if (churn_rows && (kind == core::SchedulerKind::kOnline ||
                       kind == core::SchedulerKind::kOffline)) {
      config.online_churn_aware = kind == core::SchedulerKind::kOnline;
      config.offline_churn_aware = kind == core::SchedulerKind::kOffline;
      configs.push_back(std::move(config));
      churn_flags.push_back(1);
    }
  }
  core::CampaignReport report = core::run_campaign(configs, jobs);
  totals.add(report);
  // Deterministic runs mean repetitions differ only in wall time; keep
  // each row's fastest (least-interfered) measurement.
  for (std::size_t rep = 1; rep < repeat; ++rep) {
    const core::CampaignReport again = core::run_campaign(configs, jobs);
    totals.add(again);
    for (std::size_t k = 0; k < configs.size(); ++k) {
      report.duration_seconds[k] =
          std::min(report.duration_seconds[k], again.duration_seconds[k]);
    }
    report.wall_seconds = std::min(report.wall_seconds, again.wall_seconds);
  }

  FleetRow row;
  row.size = size;
  row.rng = spec.stream_rng ? "stream" : "legacy";
  row.wall_seconds = report.wall_seconds;
  row.process_peak_rss_mib = process_peak_rss_mib();
  for (std::size_t k = 0; k < configs.size(); ++k) {
    const double seconds = report.duration_seconds[k];
    SchedulerRow sched;
    sched.scheduler = core::scheduler_name(configs[k].scheduler);
    sched.seconds = seconds;
    sched.slots_per_sec =
        seconds > 0.0 ? static_cast<double>(size.horizon) / seconds : 0.0;
    sched.user_slots_per_sec =
        sched.slots_per_sec * static_cast<double>(size.users);
    sched.updates = report.results[k].total_updates;
    sched.energy_kj = report.results[k].total_energy_j / 1000.0;
    if (configs[k].scheduler == core::SchedulerKind::kOnline) {
      sched.g_mode = "folded";
    }
    sched.churn_aware = churn_flags[k] != 0;
    row.schedulers.push_back(sched);
  }

  // The events-on re-measurement: the same configs, one at a time through
  // run_experiment with a stride-1 JsonlEventWriter attached, best-of
  // --repeat. Campaign workers cannot carry hooks (and sharing one sink
  // across concurrent runs would serialize them anyway), so these rows are
  // always serial direct runs — comparable to a --jobs 1 campaign, which
  // is how regression baselines are captured.
  if (!events_tmp_path.empty()) {
    for (std::size_t k = 0; k < configs.size(); ++k) {
      double best_seconds = 0.0;
      for (std::size_t rep = 0; rep < repeat; ++rep) {
        obs::JsonlEventWriter writer{events_tmp_path};
        core::RunHooks hooks;
        hooks.events = &writer;
        util::Stopwatch watch;
        const core::ExperimentResult result =
            core::run_experiment(configs[k], hooks);
        const double seconds = watch.elapsed_s();
        (void)result;
        if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
      }
      std::remove(events_tmp_path.c_str());
      SchedulerRow sched = row.schedulers[k];  // copy the tags, re-time
      sched.seconds = best_seconds;
      sched.slots_per_sec = best_seconds > 0.0
                                ? static_cast<double>(size.horizon) /
                                      best_seconds
                                : 0.0;
      sched.user_slots_per_sec =
          sched.slots_per_sec * static_cast<double>(size.users);
      sched.events = true;
      row.schedulers.push_back(sched);
    }
  }
  return row;
}

void print_fleet(const FleetRow& row) {
  util::TextTable table{"bench_scale — " + std::to_string(row.size.users) +
                        " users × " + std::to_string(row.size.horizon) +
                        " slots"};
  table.set_header({"scheduler", "wall (s)", "slots/s", "user-slots/s",
                    "updates", "energy (kJ)"});
  for (const SchedulerRow& sched : row.schedulers) {
    std::string name =
        sched.g_mode == nullptr
            ? std::string{sched.scheduler}
            : std::string{sched.scheduler} + " (" + sched.g_mode + ")";
    if (sched.churn_aware) name += " +churn";
    if (sched.events) name += " +events";
    table.add_row({name, util::TextTable::num(sched.seconds, 3),
                   util::TextTable::num(sched.slots_per_sec, 0),
                   util::TextTable::num(sched.user_slots_per_sec, 0),
                   std::to_string(sched.updates),
                   util::TextTable::num(sched.energy_kj, 1)});
  }
  table.print(std::cout);
  std::cout << "process peak RSS after this fleet: "
            << util::TextTable::num(row.process_peak_rss_mib, 1) << " MiB\n\n";
}

void write_json(const std::string& path, bool smoke, std::size_t jobs,
                std::uint64_t seed, const std::vector<FleetRow>& rows) {
  util::JsonWriter json;
  json.begin_object();
  json.member("bench", "scale");
  json.member("smoke", smoke);
  json.member("jobs", static_cast<std::uint64_t>(jobs));
  // With jobs > 1 the per-scheduler durations were measured while sibling
  // experiments shared cores, so their slots/sec include worker
  // contention; regression baselines should be captured at --jobs 1.
  json.member("timing", jobs <= 1 ? "serial" : "concurrent");
  json.member("seed", seed);
  json.key("fleets").begin_array();
  for (const FleetRow& row : rows) {
    json.begin_object();
    json.member("num_users", static_cast<std::uint64_t>(row.size.users));
    json.member("horizon_slots", static_cast<std::int64_t>(row.size.horizon));
    json.member("rng", row.rng);
    json.member("wall_seconds", row.wall_seconds);
    json.member("process_peak_rss_mib", row.process_peak_rss_mib);
    json.key("schedulers").begin_array();
    for (const SchedulerRow& sched : row.schedulers) {
      json.begin_object();
      json.member("scheduler", sched.scheduler);
      json.member("seconds", sched.seconds);
      json.member("slots_per_sec", sched.slots_per_sec);
      json.member("user_slots_per_sec", sched.user_slots_per_sec);
      json.member("updates", sched.updates);
      json.member("energy_kj", sched.energy_kj);
      if (sched.g_mode != nullptr) {
        json.member("g_mode", sched.g_mode);
      }
      if (sched.events) {
        json.member("events", true);
      }
      if (sched.churn_aware) {
        json.member("churn_aware", true);
      }
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream out{path, std::ios::trunc};
  if (!out) throw std::runtime_error{"bench_scale: cannot open " + path};
  out << json.str() << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args{argc, argv};
    const auto jobs = static_cast<std::size_t>(args.get_int("jobs", 0));
    const bool smoke = args.get_bool("smoke", false);
    const std::string out_path = args.get("out", "BENCH_scale.json");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const auto repeat =
        static_cast<std::size_t>(std::max<std::int64_t>(args.get_int("repeat", 1), 1));
    const bool events = args.get_bool("events", true);
    const bool churn_rows = args.get_bool("churn-aware", true);
    const std::string events_tmp_path =
        events ? out_path + ".events.tmp.jsonl" : std::string{};

    // The smoke grid is small enough for CI's every-push run (time-capped
    // by the workflow) but each row is sized to take tens of milliseconds:
    // the regression gate (tools/bench_check) compares row timings, and
    // millisecond rows are all jitter. The full grid is the
    // 100/1k/10k/100k/1M headline (100k is the event-driven driver's
    // flagship row; 1M is the stream-RNG + SoA-arena row — see
    // docs/performance.md). --sizes/--schedulers override either for
    // ad-hoc studies.
    std::vector<FleetSize> sizes =
        smoke ? std::vector<FleetSize>{{5000, 1000},
                                       {10000, 600},
                                       {1000000, 60}}
              : std::vector<FleetSize>{{100, 7200},
                                       {1000, 2400},
                                       {10000, 600},
                                       {100000, 600},
                                       {1000000, 600}};
    if (args.has("sizes")) sizes = parse_sizes(args.get("sizes"));
    std::vector<core::SchedulerKind> schedulers(std::begin(kAllSchedulers),
                                                std::end(kAllSchedulers));
    if (args.has("schedulers")) {
      schedulers = parse_schedulers(args.get("schedulers"));
    }
    if (sizes.empty() || schedulers.empty()) {
      throw std::invalid_argument{
          "bench_scale: --sizes/--schedulers must not be empty"};
    }

    bench::CampaignTotals totals;
    std::vector<FleetRow> rows;
    for (const FleetSize& size : sizes) {
      rows.push_back(run_fleet(size, schedulers, seed, jobs, repeat, churn_rows,
                               events_tmp_path, totals));
      print_fleet(rows.back());
    }
    bench::log_campaign(totals);
    write_json(out_path, smoke, totals.jobs, seed, rows);
    std::cout << "scalability results written to " << out_path << '\n';
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "bench_scale: " << error.what() << '\n';
    return 1;
  }
}
