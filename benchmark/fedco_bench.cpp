// fedco_bench: the repository benchmark (see benchmark/README.md).
//
// One binary, three roles:
//   harness     The parent process. It runs every measured run as a fresh
//               child (fork/exec of itself, one child at a time), times it
//               from spawn to exit, reads that child's own peak RSS from
//               wait4, checks the outputs, and prints every metric with its
//               unit.
//   child       One workload run, or the layer cases. A workload child
//               calls the library the way fedco_sim composes it
//               (load_scenario_json -> apply_scenario_arena ->
//               run_experiment, or run_campaign with one job) with every
//               setting at its default, and reports raw measurements on
//               stdout as "m <key> <value>" and "s <span>" lines.
//   comparator  --compare BASE CAND: one verdict per (workload, metric).
//
// Metric names, units, directions and bounds come from BENCHMARK.json at
// the repository root, so that file is the one list of what is reported.
//
//   fedco_bench --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//   fedco_bench [--seed S] [--smoke] [--out FILE]       every workload
//   fedco_bench --compare BASE CAND                     BASE/CAND: file or dir

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/arrival_stream.hpp"
#include "core/campaign.hpp"
#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "core/gap_accrual.hpp"
#include "core/knapsack.hpp"
#include "core/offline_planner.hpp"
#include "core/online_scheduler.hpp"
#include "device/profiles.hpp"
#include "obs/jsonl_writer.hpp"
#include "scenario/scenario_io.hpp"
#include "scenario/spec.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stream_rng.hpp"

namespace {

using namespace fedco;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

const std::string kOutDir = "build/benchmark";
const std::string kWorkloadDir = "benchmark/workloads";
const std::string kBenchmarkJson = "BENCHMARK.json";

constexpr std::size_t kFullRepeats = 5;    // timed repeats per workload, full mode
constexpr std::size_t kSmokeRepeats = 2;
constexpr std::size_t kMinRepeats = 3;     // single-workload mode floor
constexpr std::size_t kSmokeSeeds = 4;
constexpr std::size_t kSmokeUsers = 2000;
constexpr sim::Slot kSmokeHorizon = 1800;
constexpr int kLayerReps = 5;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Results of work the compiler must not discard.
volatile std::uint64_t g_sink = 0;
void consume(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  g_sink = g_sink ^ bits;
}

// ------------------------------------------------------------------ stats

/// Median and quartiles; the quartiles are Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method), so the
/// spread printed here is the spread other tooling computes from the same
/// samples.
struct Quartiles {
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
};

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::int64_t>(v.size());
  q.p50 = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n < 2) {
    q.p25 = q.p75 = q.p50;
    return q;
  }
  const auto cut = [&](std::int64_t i) {
    const std::int64_t m = n + 1;
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  q.p25 = cut(1);
  q.p75 = cut(3);
  return q;
}

/// Nearest-rank percentile (q in (0, 1]) of a non-empty sample.
double nearest_rank(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// -------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  std::string spec;  ///< file under benchmark/workloads/
  std::vector<core::SchedulerKind> schedulers;
  std::size_t seeds;  ///< replications per scheduler: seeds S .. S+seeds-1
  bool events;        ///< measured runs stream a stride-1 JSONL event file
};

const std::vector<Workload>& workloads() {
  using core::SchedulerKind;
  static const std::vector<Workload> all = {
      {"paper_sweep",
       "paper.json",
       {SchedulerKind::kImmediate, SchedulerKind::kSyncSgd,
        SchedulerKind::kOffline, SchedulerKind::kOnline},
       128,
       false},
      {"fleet_100k", "fleet_100k.json", {SchedulerKind::kOnline}, 1, true},
      {"fleet_1m_online", "fleet_1m.json", {SchedulerKind::kOnline}, 1, false},
      {"fleet_1m_offline", "fleet_1m.json", {SchedulerKind::kOffline}, 1,
       false},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument{"unknown workload '" + name + "'"};
}

/// The scheduler whose outcomes the simulated end-to-end metrics report:
/// the paper's online rule on paper_sweep, the only one elsewhere.
core::SchedulerKind primary_scheduler(const Workload& w) {
  return w.schedulers.size() == 1 ? w.schedulers.front()
                                  : core::SchedulerKind::kOnline;
}

std::size_t seed_count(const Workload& w, bool smoke) {
  return smoke ? std::min(w.seeds, kSmokeSeeds) : w.seeds;
}

// ------------------------------------------------------------------ child

/// In-memory spans: name, start, end (seconds since the child started) and
/// the span that caused it. Aggregated spans carry a phase's total time
/// laid out from their parent's start; their duration is exact, their
/// position is not.
struct Span {
  int parent = -1;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  bool aggregated = false;
};

class SpanLog {
 public:
  int open(const std::string& name, int parent) {
    spans_.push_back({parent, name, now_s(), 0.0, false});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Ends span `id` now and returns its duration.
  double close(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_s = now_s();
    return span.end_s - span.start_s;
  }
  void add_aggregated(const std::string& name, int parent, double start_s,
                      double duration_s) {
    spans_.push_back({parent, name, start_s, start_s + duration_s, true});
  }
  [[nodiscard]] const Span& at(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }
  void print() const {
    for (const Span& s : spans_) {
      std::printf("s %d %d %.9f %.9f %s\n", s.parent, s.aggregated ? 1 : 0,
                  s.start_s, s.end_s, s.name.c_str());
    }
  }

 private:
  [[nodiscard]] double now_s() const { return seconds_since(t0_); }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

void report(const std::string& key, double value) {
  std::printf("m %s %.17g\n", key.c_str(), value);
}

/// EventSink decorator timing every call into the wrapped sink: the traced
/// pass's aggregated obs.emit span.
class TimingSink final : public obs::EventSink {
 public:
  explicit TimingSink(obs::EventSink& inner) : inner_(inner) {}
  TimingSink(const TimingSink&) = delete;
  TimingSink& operator=(const TimingSink&) = delete;

  void emit(const obs::Event& event) override {
    const auto start = Clock::now();
    inner_.emit(event);
    busy_ += Clock::now() - start;
    ++events_;
  }
  void flush() override {
    const auto start = Clock::now();
    inner_.flush();
    busy_ += Clock::now() - start;
  }
  [[nodiscard]] double busy_s() const {
    return std::chrono::duration<double>(busy_).count();
  }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

 private:
  obs::EventSink& inner_;
  Clock::duration busy_{};
  std::uint64_t events_ = 0;
};

std::uint64_t count_lines(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::vector<char> buf(1 << 20);
  std::uint64_t lines = 0;
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    lines += static_cast<std::uint64_t>(
        std::count(buf.data(), buf.data() + in.gcount(), '\n'));
  }
  return lines;
}

/// Event-stream totals over a child's runs.
struct EventTotals {
  double events = 0.0;  ///< emitted, as counted by the sink
  double lines = 0.0;   ///< lines found in the files
  double bytes = 0.0;
  double emit_s = 0.0;  ///< traced runs only
};

/// Simulated outcomes, summed per scheduler under "sim.<scheduler>.*". The
/// harness requires these to repeat bit for bit across every run of a
/// workload, traced or not.
void add_outcomes(std::map<std::string, double>& sims,
                  const core::ExperimentConfig& c,
                  const core::ExperimentResult& r) {
  const std::string p =
      std::string{"sim."} + core::scheduler_token(c.scheduler) + ".";
  const core::RunSummary& s = r.summary;
  const std::pair<const char*, double> values[] = {
      {"energy_j", r.total_energy_j},
      {"training_j", r.training_j},
      {"corun_j", r.corun_j},
      {"app_j", r.app_j},
      {"idle_j", r.idle_j},
      {"network_j", r.network_j},
      {"overhead_j", r.overhead_j},
      {"updates", static_cast<double>(r.total_updates)},
      {"dropped", static_cast<double>(r.dropped_updates)},
      {"corun_sessions", static_cast<double>(r.corun_sessions)},
      {"separate_sessions", static_cast<double>(r.separate_sessions)},
      {"avg_lag", r.avg_lag},
      {"avg_gap", r.avg_gap},
      {"avg_queue_q", r.avg_queue_q},
      {"avg_queue_h", r.avg_queue_h},
      {"decisions_scheduled", static_cast<double>(s.decisions_scheduled)},
      {"decisions_idle", static_cast<double>(s.decisions_idle)},
      {"parks", static_cast<double>(s.parks)},
      {"wakes", static_cast<double>(s.wakes)},
      {"joins", static_cast<double>(s.joins)},
      {"leaves", static_cast<double>(s.leaves)},
      {"barrier_stall_slots", static_cast<double>(s.barrier_stall_slots)},
      {"replans", static_cast<double>(s.replans)},
  };
  for (const auto& [name, value] : values) sims[p + name] += value;
}

/// Eq. (10): the state components sum to the total within 1e-9 relative,
/// and every energy is finite and non-negative.
bool energy_balanced(const core::ExperimentResult& r) {
  const double parts[] = {r.training_j, r.corun_j,   r.app_j,
                          r.idle_j,     r.network_j, r.overhead_j};
  double sum = 0.0;
  for (const double part : parts) {
    if (!std::isfinite(part) || part < 0.0) return false;
    sum += part;
  }
  if (!std::isfinite(r.total_energy_j) || r.total_energy_j < 0.0) return false;
  return std::abs(sum - r.total_energy_j) <=
         1e-9 * std::max(std::abs(r.total_energy_j), 1e-300);
}

int run_workload_child(const Workload& w, std::uint64_t seed, bool smoke,
                       bool traced) {
  SpanLog spans;
  const int root = spans.open("child", -1);

  int id = spans.open("load", root);
  scenario::ScenarioSpec spec =
      scenario::load_scenario_json(kWorkloadDir + "/" + w.spec);
  if (smoke) {
    spec.num_users = std::min(spec.num_users, kSmokeUsers);
    spec.horizon_slots = std::min(spec.horizon_slots, kSmokeHorizon);
  }
  report("load_s", spans.close(id));

  id = spans.open("expand", root);
  core::ExperimentConfig base;
  base.seed = seed;
  base = core::apply_scenario_arena(spec, base);
  report("expand_s", spans.close(id));

  std::vector<core::ExperimentConfig> configs;
  for (const core::SchedulerKind kind : w.schedulers) {
    base.scheduler = kind;
    for (core::ExperimentConfig& c :
         core::replicate(base, seed_count(w, smoke))) {
      configs.push_back(std::move(c));
    }
  }

  std::vector<core::ExperimentResult> results;
  EventTotals ev;
  const std::string events_path =
      kOutDir + "/events-" + std::to_string(::getpid()) + ".jsonl";
  const auto run_start = Clock::now();
  if (!traced && configs.size() > 1) {
    id = spans.open("run_campaign", root);
    core::CampaignReport campaign = core::run_campaign(configs, 1);
    spans.close(id);
    results = std::move(campaign.results);
  } else {
    // The traced pass always streams events, through the timing decorator;
    // the untraced pass streams only on workloads whose runs do.
    const bool stream = traced || w.events;
    for (const core::ExperimentConfig& c : configs) {
      std::optional<obs::JsonlEventWriter> writer;
      std::optional<TimingSink> timing;
      core::RunHooks hooks;
      if (stream) {
        writer.emplace(events_path);
        hooks.events = &*writer;
        if (traced) hooks.events = &timing.emplace(*writer);
      }
      id = spans.open("run_experiment", root);
      results.push_back(core::run_experiment(c, hooks));
      spans.close(id);
      double emit_s = 0.0;
      if (stream) {
        writer->flush();
        ev.events += static_cast<double>(
            traced ? timing->events() : writer->events_written());
        if (traced) emit_s = timing->busy_s();
        timing.reset();
        writer.reset();
        ev.emit_s += emit_s;
        ev.lines += static_cast<double>(count_lines(events_path));
        ev.bytes += static_cast<double>(fs::file_size(events_path));
        fs::remove(events_path);
      }
      if (traced) {
        // The driver's own phase split, attached under the run's span.
        const core::RunSummary::Timing& t = results.back().summary.timing;
        double at = spans.at(id).start_s;
        for (const auto& [name, s] :
             {std::pair{"driver.setup", t.setup_s},
              {"driver.events", t.events_s},
              {"driver.decide", t.decide_s},
              {"driver.record", t.record_s},
              {"driver.finalize", t.finalize_s}}) {
          spans.add_aggregated(name, id, at, s);
          at += s;
        }
        spans.add_aggregated("obs.emit", id, spans.at(id).start_s, emit_s);
      }
    }
  }
  report("run_wall_s", seconds_since(run_start));

  std::map<std::string, double> sims;
  double user_slots = 0.0;
  core::RunSummary::Timing sum;
  double scheduled = 0.0;
  double idle = 0.0;
  double parks = 0.0;
  double replans = 0.0;
  double eq10_failed = 0.0;
  std::vector<double> run_ms;
  for (std::size_t k = 0; k < configs.size(); ++k) {
    const core::ExperimentConfig& c = configs[k];
    const core::ExperimentResult& r = results[k];
    add_outcomes(sims, c, r);
    if (!energy_balanced(r)) ++eq10_failed;
    user_slots += static_cast<double>(c.num_users) *
                  static_cast<double>(c.horizon_slots);
    const core::RunSummary& s = r.summary;
    sum.setup_s += s.timing.setup_s;
    sum.events_s += s.timing.events_s;
    sum.decide_s += s.timing.decide_s;
    sum.record_s += s.timing.record_s;
    sum.finalize_s += s.timing.finalize_s;
    sum.total_s += s.timing.total_s;
    scheduled += static_cast<double>(s.decisions_scheduled);
    idle += static_cast<double>(s.decisions_idle);
    parks += static_cast<double>(s.parks);
    replans += static_cast<double>(s.replans);
    run_ms.push_back(s.timing.total_s * 1e3);
  }
  report("seeds", static_cast<double>(seed_count(w, smoke)));
  report("user_slots", user_slots);
  report("driver.setup_s", sum.setup_s);
  report("driver.events_s", sum.events_s);
  report("driver.decide_s", sum.decide_s);
  report("driver.record_s", sum.record_s);
  report("driver.finalize_s", sum.finalize_s);
  report("driver.total_s", sum.total_s);
  report("driver.scheduled", scheduled);
  report("driver.idle", idle);
  report("driver.parks", parks);
  report("driver.replans", replans);
  report("campaign.run_p50_ms", nearest_rank(run_ms, 0.50));
  report("campaign.run_p95_ms", nearest_rank(run_ms, 0.95));
  report("obs.events", ev.events);
  report("obs.bytes", ev.bytes);
  report("obs.emit_s", ev.emit_s);
  report("check.eq10_failed", eq10_failed);
  report("check.event_lines_failed", ev.lines == ev.events ? 0.0 : 1.0);
  if (w.schedulers.size() == 4) {
    // Sec. VII ordering of mean energy: offline <= online < sync < immediate.
    const auto energy = [&](const char* token) {
      return sims[std::string{"sim."} + token + ".energy_j"];
    };
    const bool ordered = energy("offline") <= energy("online") &&
                         energy("online") < energy("sync") &&
                         energy("sync") < energy("immediate");
    report("check.order_failed", ordered ? 0.0 : 1.0);
  }
  for (const auto& [key, value] : sims) report(key, value);
  spans.close(root);
  if (traced) spans.print();
  return 0;
}

// ------------------------------------------------------------ layer cases

/// Times `body` (which performs `ops` operations) kLayerReps times and
/// reports each repetition's ns per operation under `key`.
template <typename Body>
void time_case(const std::string& key, double ops, Body&& body) {
  for (int rep = 0; rep < kLayerReps; ++rep) {
    const auto start = Clock::now();
    body(rep);
    report(key, seconds_since(start) * 1e9 / ops);
  }
}

/// The per-user arrival law the driver derives for a stream-mode fleet
/// (experiment.cpp's setup), for users of the 1M spec.
std::vector<apps::ArrivalStreamParams> arrival_laws(
    const core::ExperimentConfig& c) {
  std::vector<apps::ArrivalStreamParams> laws;
  for (std::size_t i = 0; i < c.num_users; ++i) {
    const scenario::PerUserConfig pu = c.fleet->user(i);
    laws.push_back({pu.arrival_probability.value_or(c.arrival_probability),
                    pu.diurnal.value_or(c.diurnal),
                    pu.diurnal_swing.value_or(c.diurnal_swing),
                    pu.diurnal_peak_hour, c.slot_seconds});
  }
  return laws;
}

std::vector<core::KnapsackItem> knapsack_items(util::Rng& rng, std::size_t n) {
  std::vector<core::KnapsackItem> items(n);
  for (core::KnapsackItem& item : items) {
    item.value = rng.uniform(10.0, 200.0);
    item.weight = rng.uniform(0.05, 5.0);
  }
  return items;
}

const device::DeviceProfile& any_device(util::Rng& rng) {
  return device::profile(
      static_cast<device::DeviceKind>(rng.uniform_int(device::kDeviceKinds)));
}

int run_layers_child(std::uint64_t seed) {
  util::Rng rng{seed};
  const core::ExperimentConfig defaults;
  const scenario::ScenarioSpec spec_1m =
      scenario::load_scenario_json(kWorkloadDir + "/fleet_1m.json");

  {  // scenario: SoA fleet expansion of the 1M spec at 100k users.
    scenario::ScenarioSpec spec = spec_1m;
    spec.num_users = 100'000;
    time_case("layer.scenario.fleet_arena.ns_per_user", 100'000.0,
              [&](int rep) {
                const scenario::FleetArena arena =
                    scenario::generate_fleet_arena(spec, seed + rep);
                consume(static_cast<double>(arena.column_count()));
              });
  }

  {  // util / apps: the counter-based RNG and the arrival cursor.
    util::StreamRng stream{util::stream_key(
        seed, 0, static_cast<std::uint64_t>(apps::StreamConcern::kArrivals))};
    constexpr std::size_t kDraws = 4'000'000;
    time_case("layer.util.stream_rng.uniform_ns", kDraws, [&](int) {
      double acc = 0.0;
      for (std::size_t k = 0; k < kDraws; ++k) acc += stream.uniform();
      consume(acc);
    });

    scenario::ScenarioSpec spec = spec_1m;
    spec.num_users = 1000;
    core::ExperimentConfig c = defaults;
    c.seed = seed;
    c = core::apply_scenario_arena(spec, c);
    const std::vector<apps::ArrivalStreamParams> laws = arrival_laws(c);
    constexpr sim::Slot kEnd = 200'000;
    const auto walk = [&] {
      double calls = 0.0;
      for (std::size_t i = 0; i < laws.size(); ++i) {
        const std::uint64_t key = util::stream_key(
            seed, i, static_cast<std::uint64_t>(apps::StreamConcern::kArrivals));
        apps::ArrivalCursor cursor =
            apps::stream_arrivals_begin(laws[i], key, 0, kEnd);
        while (cursor.at != apps::ArrivalCursor::kNoArrival) {
          apps::stream_arrivals_next(laws[i], cursor, kEnd);
          calls += 1.0;
        }
      }
      return calls;
    };
    // The walk is deterministic: count its calls once, untimed.
    const double nexts = walk();
    time_case("layer.apps.arrival_cursor.next_ns", nexts,
              [&](int) { consume(walk()); });
  }

  {  // core: the knapsack DP (Algorithm 1), cold and incremental.
    constexpr std::size_t kItems = 5000;
    constexpr std::size_t kGrid = 1000;
    const std::vector<core::KnapsackItem> items = knapsack_items(rng, kItems);
    double capacity = 0.0;
    for (const core::KnapsackItem& item : items) capacity += item.weight;
    capacity *= 0.25;
    const double cells = static_cast<double>(kItems * kGrid);
    time_case("layer.core.knapsack.cold_ns_per_cell", cells, [&](int) {
      core::KnapsackSolver solver;
      consume(solver.solve(items, capacity, kGrid).total_value);
    });

    // A replan whose last tenth of items changed since the previous window.
    core::KnapsackSolver solver;
    std::vector<core::KnapsackItem> window = items;
    (void)solver.solve(window, capacity, kGrid);
    time_case("layer.core.knapsack.incremental_ns_per_cell", cells,
              [&](int rep) {
                for (std::size_t k = kItems - kItems / 10; k < kItems; ++k) {
                  window[k].value = items[k].value + 1.0 + rep;
                }
                consume(solver.solve(window, capacity, kGrid).total_value);
                report("layer.core.knapsack.prefix_reuse",
                       static_cast<double>(solver.last_prefix_reused()) /
                           static_cast<double>(kItems));
              });
  }

  {  // core: the Lemma 1 lag-bound index, window-planner query shape.
    constexpr std::size_t kUsers = 100'000;
    std::vector<core::UserWindow> users(kUsers);
    for (core::UserWindow& u : users) {
      const device::DeviceProfile& dev = any_device(rng);
      u.begin = 0.0;
      if (rng.bernoulli(0.6)) {
        u.app_arrival = static_cast<double>(rng.uniform_int(std::int64_t{0}, 499));
        u.duration = dev.app(static_cast<device::AppKind>(
                                 rng.uniform_int(device::kAppKinds)))
                         .corun_time_s;
      } else {
        u.app_arrival = u.begin;
        u.duration = dev.train_time_s;
      }
    }
    const core::LagBoundIndex index{users};
    time_case("layer.core.lag_bound_index.query_ns", kUsers, [&](int) {
      std::size_t acc = 0;
      for (std::size_t i = 0; i < kUsers; ++i) acc += index.bound(i);
      consume(static_cast<double>(acc));
    });
  }

  {  // core: one default offline window plan over 10k ready users.
    constexpr std::size_t kUsers = 10'000;
    std::vector<core::OfflineUserInput> users(kUsers);
    for (core::OfflineUserInput& u : users) {
      u.dev = &any_device(rng);
      u.current_gap = rng.uniform(0.0, 5.0);
      if (rng.bernoulli(0.5)) {
        u.next_arrival = rng.uniform_int(std::int64_t{0},
                                         defaults.offline_window_slots - 1);
        u.arrival_app =
            static_cast<device::AppKind>(rng.uniform_int(device::kAppKinds));
      }
      u.momentum_norm = rng.uniform(1.5, 12.0);
    }
    const core::OfflinePlannerConfig config =
        core::make_planner_config(defaults);
    time_case("layer.core.offline_planner.plan_ns_per_user", kUsers,
              [&](int) {
                core::OfflinePlanner planner{config};
                consume(planner.plan(0, users).knapsack.total_value);
              });
  }

  {  // core: the batched Eq. (21) evaluation.
    constexpr std::size_t kUsers = 1 << 18;
    constexpr int kPasses = 4;
    const core::OnlineScheduler online{core::OnlineSchedulerConfig{
        defaults.V, defaults.lb, defaults.epsilon, defaults.slot_seconds,
        defaults.eta, defaults.beta}};
    std::vector<double> p_schedule(kUsers), p_idle(kUsers), gap(kUsers),
        lag(kUsers), norm(kUsers);
    for (std::size_t i = 0; i < kUsers; ++i) {
      const device::DeviceProfile& dev = any_device(rng);
      p_schedule[i] = dev.train_power_w;
      p_idle[i] = dev.idle_power_w;
      gap[i] = rng.uniform(0.0, 5.0);
      lag[i] = static_cast<double>(rng.uniform_int(std::int64_t{0}, 200));
      norm[i] = rng.uniform(1.5, 12.0);
    }
    time_case("layer.core.online.decide_ns",
              static_cast<double>(kUsers) * kPasses, [&](int rep) {
                std::size_t scheduled = 0;
                for (int pass = 0; pass < kPasses; ++pass) {
                  const double q = 1000.0 * (pass + rep);
                  const double h = 1e5 * (pass + 1);
                  for (std::size_t i = 0; i < kUsers; ++i) {
                    scheduled += online.decide_batched(
                                     p_schedule[i], p_idle[i], gap[i], lag[i],
                                     norm[i], q, h) ==
                                 device::Decision::kSchedule;
                  }
                }
                consume(static_cast<double>(scheduled));
              });
  }

  {  // core: folded gap accrual mode transitions.
    constexpr std::size_t kUsers = 100'000;
    constexpr int kPasses = 10;
    core::FoldedGapAccrual folded;
    folded.init(kUsers, defaults.epsilon);
    time_case("layer.core.gap_accrual.transition_ns",
              static_cast<double>(kUsers) * kPasses, [&](int rep) {
                for (int pass = 0; pass < kPasses; ++pass) {
                  const std::int64_t t = 1 + pass + rep * kPasses;
                  for (std::size_t i = 0; i < kUsers; ++i) {
                    folded.attach_accrue(i, 0.05 * static_cast<double>(i % 7),
                                         t);
                  }
                  consume(folded.sum(t));
                  for (std::size_t i = 0; i < kUsers; ++i) {
                    folded.detach_accrue(i);
                  }
                }
              });
  }

  {  // obs: the JSONL writer on a decision/update/park/wake mix.
    constexpr std::size_t kEvents = 200'000;
    const std::string path =
        kOutDir + "/layer-events-" + std::to_string(::getpid()) + ".jsonl";
    time_case("layer.obs.jsonl.emit_ns", kEvents, [&](int) {
      obs::JsonlEventWriter writer{path};
      for (std::size_t k = 0; k < kEvents; ++k) {
        const auto slot = static_cast<std::int64_t>(k / 64);
        const auto user = static_cast<std::int64_t>(k % 100'000);
        switch (k % 4) {
          case 0: writer.emit(obs::Event::decision(slot, user, k % 3 == 0)); break;
          case 1: writer.emit(obs::Event::update(slot, user, 37, 0.75)); break;
          case 2: writer.emit(obs::Event::park(slot, user, slot + 40)); break;
          default: writer.emit(obs::Event::wake(slot, user)); break;
        }
      }
      writer.flush();
    });
    fs::remove(path);
  }
  return 0;
}

// ---------------------------------------------------------------- harness

struct ChildRun {
  bool ok = false;
  std::string error;
  double wall_s = 0.0;
  double rss_mib = 0.0;
  std::map<std::string, std::vector<double>> m;
  std::vector<Span> spans;

  [[nodiscard]] double get(const std::string& key) const {
    const auto it = m.find(key);
    if (it == m.end() || it->second.empty()) {
      throw std::runtime_error{"child did not report '" + key + "'"};
    }
    return it->second.front();
  }
};

void parse_child_output(const std::string& text, ChildRun& run) {
  std::istringstream lines{text};
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream in{line};
    std::string tag;
    in >> tag;
    if (tag == "m") {
      std::string key;
      double value = 0.0;
      in >> key >> value;
      run.m[key].push_back(value);
    } else if (tag == "s") {
      int aggregated = 0;
      Span span;
      in >> span.parent >> aggregated >> span.start_s >> span.end_s;
      std::getline(in >> std::ws, span.name);
      span.aggregated = aggregated != 0;
      run.spans.push_back(std::move(span));
    }
  }
}

/// Runs this binary as a fresh child with `args`; times it from spawn to
/// exit and reads its own peak RSS from wait4.
ChildRun spawn_child(const std::vector<std::string>& args) {
  ChildRun run;
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error{std::string{"pipe2: "} + std::strerror(errno)};
  }
  std::vector<char*> argv;
  static char self[] = "fedco_bench";
  argv.push_back(self);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  std::cout.flush();
  std::fflush(nullptr);
  const auto start = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error{std::string{"fork: "} + std::strerror(errno)};
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  ::close(fds[1]);
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  run.wall_s = seconds_since(start);
  run.rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    run.ok = true;
  } else {
    run.error = WIFEXITED(status)
                    ? "exit code " + std::to_string(WEXITSTATUS(status))
                    : "signal " + std::to_string(WTERMSIG(status));
  }
  parse_child_output(out, run);
  return run;
}

struct Options {
  std::optional<std::string> workload;  ///< single-workload mode
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< BENCHMARK.json's run_seconds
  bool trace = false;
  bool smoke = false;
  std::string out = kOutDir + "/results.json";
};

std::vector<std::string> child_args(const std::string& what,
                                    const Options& opt, bool traced) {
  std::vector<std::string> args = {"--child", what, "--seed",
                                   std::to_string(opt.seed)};
  if (opt.smoke) args.emplace_back("--smoke");
  if (traced) args.emplace_back("--traced");
  return args;
}

/// Every child run of one workload, in the order they ran.
struct WorkloadRuns {
  const Workload* w = nullptr;
  std::vector<ChildRun> runs;
  std::vector<std::size_t> timed;      ///< untraced measured repeats
  std::optional<std::size_t> traced;   ///< the traced pass
  std::size_t failed = 0;
};

void launch(WorkloadRuns& wr, const Options& opt, bool traced,
            const char* role) {
  wr.runs.push_back(spawn_child(child_args(wr.w->name, opt, traced)));
  std::cerr << "fedco_bench: " << wr.w->name << ' ' << role << ' '
            << wr.runs.back().wall_s << " s\n";
}

/// Output checks: exit status, the child's own checks (Eq. 10 balance,
/// event line counts, the Sec. VII energy ordering), and every simulated
/// outcome bit-equal to the workload's first run — which also holds the
/// traced (events-on) run to the untraced one. Prints each failure.
void check_runs(WorkloadRuns& wr) {
  const ChildRun* reference = nullptr;
  for (std::size_t i = 0; i < wr.runs.size(); ++i) {
    const ChildRun& run = wr.runs[i];
    std::string why;
    if (!run.ok) {
      why = run.error;
    } else {
      for (const auto& [key, values] : run.m) {
        if (key.rfind("check.", 0) == 0 && values.front() != 0.0) {
          why = key;
          break;
        }
      }
      if (why.empty() && reference == nullptr) reference = &run;
      if (why.empty()) {
        for (const auto& [key, values] : reference->m) {
          if (key.rfind("sim.", 0) != 0) continue;
          const auto it = run.m.find(key);
          if (it == run.m.end() || it->second != values) {
            why = "outcome " + key + " differs from the first run";
            break;
          }
        }
      }
    }
    if (!why.empty()) {
      ++wr.failed;
      std::cerr << "fedco_bench: check failed: " << wr.w->name << " run " << i
                << ": " << why << '\n';
    }
  }
}

// ---------------------------------------------------------------- metrics

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;
  std::optional<double> bound;  ///< end-to-end metrics only
  bool absolute = false;        ///< bound in points, not a share of the base
};

struct BenchmarkDef {
  std::vector<MetricDef> end_to_end;
  std::vector<MetricDef> per_layer;
};

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot read " + path};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

BenchmarkDef load_benchmark_def() {
  const util::JsonValue doc = util::parse_json(read_file(kBenchmarkJson));
  BenchmarkDef def;
  const auto read = [&](const char* section, std::vector<MetricDef>& out) {
    const util::JsonValue* list = doc.find(section);
    if (list == nullptr) {
      throw std::runtime_error{kBenchmarkJson + ": missing " + section};
    }
    for (const util::JsonValue& m : list->as_array()) {
      MetricDef d{m.find("name")->as_string(), m.find("unit")->as_string(),
                  m.find("better")->as_string(), std::nullopt, false};
      if (const util::JsonValue* bound = m.find("bound")) {
        d.bound = bound->as_number();
      }
      out.push_back(std::move(d));
    }
  };
  read("end_to_end", def.end_to_end);
  read("per_layer", def.per_layer);
  return def;
}

/// End-to-end metrics reported beside BENCHMARK.json's list but kept out
/// of it: energy_saving_pct exists only on paper_sweep, and
/// failed_runs_pct is 0 on a healthy run. Both carry absolute bounds
/// (percentage points) in --compare.
const std::vector<MetricDef>& extra_metrics() {
  static const std::vector<MetricDef> extras = {
      {"energy_saving_pct", "%", "higher", 1.0, true},
      {"failed_runs_pct", "%", "lower", 0.0, true},
  };
  return extras;
}

struct Row {
  std::string workload;
  std::string metric;
  std::string unit;
  std::string better;
  std::vector<double> samples;
};

/// The value a single-workload run reports for a row. Host-time metrics
/// report their best child: on a shared host, interference only ever slows
/// a child down, in slow periods of several seconds that can cover most of
/// a run's children (benchmark/results/spread.md), so the fastest child is
/// the steadiest estimate of the program's own cost. Everything else
/// reports its median.
double run_value(const Row& row) {
  const bool host_time = row.metric == "wall_s" || row.metric == "setup_s" ||
                         row.metric == "user_slots_per_s";
  if (!host_time) return quartiles(row.samples).p50;
  const auto [lo, hi] =
      std::minmax_element(row.samples.begin(), row.samples.end());
  return row.better == "lower" ? *lo : *hi;
}

/// One sample per timed run (or per layer-case repetition); `fn` maps a
/// child's report to the metric value.
template <typename Fn>
std::vector<double> per_timed(const WorkloadRuns& wr, Fn&& fn) {
  std::vector<double> values;
  for (const std::size_t i : wr.timed) {
    if (wr.runs[i].ok) values.push_back(fn(wr.runs[i]));
  }
  return values;
}

std::map<std::string, std::vector<double>> end_to_end_values(
    const WorkloadRuns& wr) {
  const Workload& w = *wr.w;
  const std::string p =
      std::string{"sim."} + core::scheduler_token(primary_scheduler(w)) + ".";
  // Simulated outcomes are per seed: paper_sweep reports the mean over its
  // replications.
  const auto mean = [&](const ChildRun& r, const char* name) {
    return r.get(p + name) / r.get("seeds");
  };
  std::map<std::string, std::vector<double>> v;
  v["wall_s"] = per_timed(wr, [](const ChildRun& r) { return r.wall_s; });
  v["setup_s"] = per_timed(wr, [](const ChildRun& r) {
    return r.get("load_s") + r.get("expand_s") + r.get("driver.setup_s");
  });
  v["user_slots_per_s"] = per_timed(wr, [](const ChildRun& r) {
    return r.get("user_slots") /
           (r.get("driver.total_s") - r.get("driver.setup_s"));
  });
  v["peak_rss_mib"] =
      per_timed(wr, [](const ChildRun& r) { return r.rss_mib; });
  v["energy_kj"] = per_timed(
      wr, [&](const ChildRun& r) { return mean(r, "energy_j") / 1000.0; });
  v["updates"] =
      per_timed(wr, [&](const ChildRun& r) { return mean(r, "updates"); });
  v["avg_lag"] =
      per_timed(wr, [&](const ChildRun& r) { return mean(r, "avg_lag"); });
  if (w.schedulers.size() > 1) {
    v["energy_saving_pct"] = per_timed(wr, [](const ChildRun& r) {
      return 100.0 * (1.0 - r.get("sim.online.energy_j") /
                                r.get("sim.immediate.energy_j"));
    });
  }
  v["failed_runs_pct"] = {
      wr.runs.empty() ? 100.0
                      : 100.0 * static_cast<double>(wr.failed) /
                            static_cast<double>(wr.runs.size())};
  return v;
}

std::map<std::string, std::vector<double>> per_layer_values(
    const WorkloadRuns& wr, const ChildRun* layers) {
  std::map<std::string, std::vector<double>> v;
  const auto timed = [&](const char* name, auto fn) {
    v[name] = per_timed(wr, fn);
  };
  timed("scenario.expand_s",
        [](const ChildRun& r) { return r.get("expand_s"); });
  for (const char* phase : {"setup", "events", "decide", "record", "finalize"}) {
    const std::string key = std::string{"driver."} + phase + "_s";
    v["core." + key] =
        per_timed(wr, [&](const ChildRun& r) { return r.get(key); });
  }
  timed("core.driver.unattributed_s", [](const ChildRun& r) {
    return r.get("driver.total_s") - r.get("driver.setup_s") -
           r.get("driver.events_s") - r.get("driver.decide_s") -
           r.get("driver.record_s") - r.get("driver.finalize_s");
  });
  const auto evals = [](const ChildRun& r) {
    return r.get("driver.scheduled") + r.get("driver.idle");
  };
  timed("core.driver.decide_evals", evals);
  timed("core.driver.decide_ns_per_eval", [&](const ChildRun& r) {
    return evals(r) > 0 ? r.get("driver.decide_s") * 1e9 / evals(r) : 0.0;
  });
  timed("core.driver.decide_yield", [&](const ChildRun& r) {
    return evals(r) > 0 ? r.get("driver.scheduled") / evals(r) : 0.0;
  });
  timed("core.driver.parks",
        [](const ChildRun& r) { return r.get("driver.parks"); });
  timed("core.offline.replans",
        [](const ChildRun& r) { return r.get("driver.replans"); });
  timed("core.campaign.overhead_s", [](const ChildRun& r) {
    return r.get("run_wall_s") - r.get("driver.total_s");
  });
  timed("core.campaign.run_p50_ms",
        [](const ChildRun& r) { return r.get("campaign.run_p50_ms"); });
  timed("core.campaign.run_p95_ms",
        [](const ChildRun& r) { return r.get("campaign.run_p95_ms"); });

  if (wr.traced && wr.runs[*wr.traced].ok) {
    const ChildRun& t = wr.runs[*wr.traced];
    const double events = t.get("obs.events");
    v["obs.events"] = {events};
    v["obs.bytes"] = {t.get("obs.bytes")};
    v["obs.emit_ns_per_event"] = {events > 0 ? t.get("obs.emit_s") * 1e9 / events
                                             : 0.0};
    const std::vector<double> walls =
        per_timed(wr, [](const ChildRun& r) { return r.wall_s; });
    if (!walls.empty()) {
      v["trace.overhead_pct"] = {100.0 * (t.wall_s / quartiles(walls).p50 - 1.0)};
    }
  }
  if (layers != nullptr && layers->ok) {
    for (const auto& [key, values] : layers->m) {
      if (key.rfind("layer.", 0) == 0) v[key.substr(6)] = values;
    }
  }
  return v;
}

std::vector<Row> make_rows(const std::string& workload,
                           const std::vector<MetricDef>& defs,
                           std::map<std::string, std::vector<double>> values) {
  std::vector<Row> rows;
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    if (it == values.end() || it->second.empty()) continue;
    rows.push_back({workload, d.name, d.unit, d.better, std::move(it->second)});
  }
  return rows;
}

void print_row(const Row& row) {
  const Quartiles q = quartiles(row.samples);
  std::printf("%s %s %.6g %s (%.6g %.6g %zu)\n", row.workload.c_str(),
              row.metric.c_str(), q.p50, row.unit.c_str(), q.p25, q.p75,
              row.samples.size());
}

std::string row_json(const Row& row) {
  const Quartiles q = quartiles(row.samples);
  util::JsonWriter json;
  json.begin_object()
      .member("workload", row.workload)
      .member("metric", row.metric)
      .member("unit", row.unit)
      .member("median", q.p50)
      .member("p25", q.p25)
      .member("p75", q.p75)
      .member("n", static_cast<std::uint64_t>(row.samples.size()));
  json.key("samples").begin_array();
  for (const double s : row.samples) json.value(s);
  json.end_array().end_object();
  return json.str();
}

void write_text(const std::string& path, const std::string& text) {
  if (const fs::path parent = fs::path{path}.parent_path(); !parent.empty()) {
    fs::create_directories(parent);
  }
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << text;
  if (!out) throw std::runtime_error{"cannot write " + path};
}

void write_results(const std::string& path, const Options& opt,
                   const std::vector<Row>& rows) {
  std::string text = "{\"seed\": " + std::to_string(opt.seed) +
                     ", \"smoke\": " + (opt.smoke ? "true" : "false") +
                     ", \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    text += "  " + row_json(rows[i]) + (i + 1 < rows.size() ? ",\n" : "\n");
  }
  text += "]}\n";
  write_text(path, text);
}

/// Self time: the span's duration minus the part of its interval that its
/// children cover.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      covered[static_cast<std::size_t>(s.parent)].emplace_back(
          std::max(s.start_s, p.start_s), std::min(s.end_s, p.end_s));
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    double cover = 0.0;
    double reach = -1e300;
    for (const auto& [lo, hi] : iv) {
      const double from = std::max(lo, reach);
      if (hi > from) cover += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (spans[i].end_s - spans[i].start_s) - cover;
  }
  return self;
}

void write_trace(const std::string& path, const Options& opt,
                 const std::vector<WorkloadRuns>& all) {
  util::JsonWriter json;
  json.begin_object().member("seed", opt.seed);
  json.key("workloads").begin_object();
  for (const WorkloadRuns& wr : all) {
    if (!wr.traced) continue;
    const ChildRun& t = wr.runs[*wr.traced];
    const std::vector<double> self = self_times(t.spans);
    json.key(wr.w->name).begin_object();
    json.key("self_s_by_name").begin_object();
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      by_name[t.spans[i].name] += self[i];
    }
    for (const auto& [name, s] : by_name) json.member(name, s);
    json.end_object();
    json.key("spans").begin_array();
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      json.begin_object()
          .member("id", static_cast<std::int64_t>(i))
          .member("parent", static_cast<std::int64_t>(s.parent))
          .member("name", s.name)
          .member("start_s", s.start_s)
          .member("end_s", s.end_s)
          .member("self_s", self[i])
          .member("aggregated", s.aggregated)
          .end_object();
    }
    json.end_array().end_object();
  }
  json.end_object().end_object();
  write_text(path, json.str() + "\n");
}

/// One workload, measured for `opt.seconds` (at least kMinRepeats timed
/// runs); with --trace 1, plus the traced pass and the layer cases. Ends
/// with the one-line JSON result, whose values come from run_value. There
/// is no warm-up run here: every run is a fresh process, the first child of
/// a run times like the others, and the time goes to timed repeats instead.
int run_single(const Options& opt) {
  const BenchmarkDef def = load_benchmark_def();
  WorkloadRuns wr;
  wr.w = &find_workload(*opt.workload);
  const auto start = Clock::now();
  while (wr.timed.size() < kMinRepeats || seconds_since(start) < opt.seconds) {
    launch(wr, opt, false, "timed");
    wr.timed.push_back(wr.runs.size() - 1);
  }
  std::optional<ChildRun> layers;
  if (opt.trace) {
    launch(wr, opt, true, "traced");
    wr.traced = wr.runs.size() - 1;
    std::cerr << "fedco_bench: layer cases\n";
    layers = spawn_child(child_args("layers", opt, false));
  }
  check_runs(wr);
  std::size_t attempted = wr.runs.size();
  std::size_t failed = wr.failed;
  if (layers) {
    ++attempted;
    if (!layers->ok) {
      ++failed;
      std::cerr << "fedco_bench: layer cases failed: " << layers->error << '\n';
    }
  }

  const std::vector<MetricDef>& defs = opt.trace ? def.per_layer : def.end_to_end;
  const std::vector<Row> rows =
      make_rows(wr.w->name, defs,
                opt.trace ? per_layer_values(wr, layers ? &*layers : nullptr)
                          : end_to_end_values(wr));
  for (const Row& row : rows) print_row(row);
  if (opt.trace) write_trace(kOutDir + "/trace.json", opt, {wr});

  util::JsonWriter json;
  json.begin_object()
      .member("correct", failed == 0 && rows.size() == defs.size())
      .member("attempted", static_cast<std::uint64_t>(attempted))
      .member("failed", static_cast<std::uint64_t>(failed));
  json.key("metrics").begin_object();
  for (const Row& row : rows) {
    json.key(row.metric)
        .begin_object()
        .member("value", run_value(row))
        .member("unit", row.unit)
        .end_object();
  }
  json.end_object().end_object();
  std::cout << json.str() << std::endl;
  return 0;
}

/// Every workload: one discarded warm-up each, then the timed repeats
/// interleaved round-robin (so drift spreads evenly over workloads), then
/// one traced pass each and the layer cases once.
int run_all(const Options& opt) {
  const BenchmarkDef def = load_benchmark_def();
  std::vector<WorkloadRuns> all;
  for (const Workload& w : workloads()) all.push_back({&w, {}, {}, {}, 0});
  for (WorkloadRuns& wr : all) launch(wr, opt, false, "warm-up");
  const std::size_t repeats = opt.smoke ? kSmokeRepeats : kFullRepeats;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (WorkloadRuns& wr : all) {
      launch(wr, opt, false, "timed");
      wr.timed.push_back(wr.runs.size() - 1);
    }
  }
  for (WorkloadRuns& wr : all) {
    launch(wr, opt, true, "traced");
    wr.traced = wr.runs.size() - 1;
  }
  std::cerr << "fedco_bench: layer cases\n";
  const ChildRun layers = spawn_child(child_args("layers", opt, false));
  for (WorkloadRuns& wr : all) check_runs(wr);

  std::vector<MetricDef> e2e = def.end_to_end;
  e2e.insert(e2e.end(), extra_metrics().begin(), extra_metrics().end());
  std::vector<Row> rows;
  std::size_t failed = layers.ok ? 0 : 1;
  for (const WorkloadRuns& wr : all) {
    failed += wr.failed;
    for (Row& row : make_rows(wr.w->name, e2e, end_to_end_values(wr))) {
      rows.push_back(std::move(row));
    }
  }
  for (const WorkloadRuns& wr : all) {
    for (Row& row :
         make_rows(wr.w->name, def.per_layer, per_layer_values(wr, &layers))) {
      rows.push_back(std::move(row));
    }
  }
  for (const Row& row : rows) print_row(row);
  write_results(opt.out, opt, rows);
  write_trace(kOutDir + "/trace.json", opt, all);
  std::cout << "results written to " << opt.out << "; spans to " << kOutDir
            << "/trace.json\n";
  if (!layers.ok) std::cerr << "fedco_bench: layer cases failed: " << layers.error << '\n';
  return failed == 0 ? 0 : 1;
}

// ------------------------------------------------------------- comparator

/// One side of a comparison for one (workload, metric): a single results
/// file contributes its samples; a directory of results files contributes
/// one median per file (the alternating-pairs protocol).
struct Side {
  std::vector<double> samples;
  std::vector<double> per_file;  ///< file medians, in file-name order
};

std::map<std::pair<std::string, std::string>, Side> load_side(
    const std::string& path) {
  std::vector<fs::path> files;
  if (fs::is_directory(path)) {
    for (const auto& entry : fs::directory_iterator{path}) {
      if (entry.path().extension() == ".json") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
  } else {
    files.emplace_back(path);
  }
  if (files.empty()) throw std::runtime_error{"no results in " + path};
  std::map<std::pair<std::string, std::string>, Side> side;
  for (const fs::path& file : files) {
    const util::JsonValue doc = util::parse_json(read_file(file.string()));
    for (const util::JsonValue& row : doc.find("rows")->as_array()) {
      Side& s = side[{row.find("workload")->as_string(),
                      row.find("metric")->as_string()}];
      s.per_file.push_back(row.find("median")->as_number());
      if (files.size() == 1) {
        for (const util::JsonValue& v : row.find("samples")->as_array()) {
          s.samples.push_back(v.as_number());
        }
      }
    }
  }
  if (files.size() > 1) {
    for (auto& [key, s] : side) s.samples = s.per_file;
  }
  return side;
}

/// Verdict for one bounded metric: unresolved when either side's spread
/// exceeds the bound (unless every candidate sample beats every base
/// sample), worse or better when the median moved by more than the bound,
/// unchanged otherwise. With per-file medians on both sides, also the
/// number of pairs the candidate won.
std::string verdict(const MetricDef& d, const Side& b, const Side& c,
                    double worsening) {
  const bool lower = d.better == "lower";
  const auto spread = [&](const std::vector<double>& samples) {
    const Quartiles q = quartiles(samples);
    const double width = q.p75 - q.p25;
    return d.absolute ? width : (q.p50 != 0.0 ? width / std::abs(q.p50) : 0.0);
  };
  const auto [b_lo, b_hi] = std::minmax_element(b.samples.begin(), b.samples.end());
  const auto [c_lo, c_hi] = std::minmax_element(c.samples.begin(), c.samples.end());
  const bool separated = lower ? *c_hi < *b_lo : *c_lo > *b_hi;
  std::string v;
  if (std::max(spread(b.samples), spread(c.samples)) > *d.bound && !separated) {
    v = "unresolved";
  } else if (worsening > *d.bound) {
    v = "worse";
  } else if (worsening < -*d.bound) {
    v = "better";
  } else {
    v = "unchanged";
  }
  if (b.per_file.size() > 1 && b.per_file.size() == c.per_file.size()) {
    std::size_t wins = 0;
    for (std::size_t i = 0; i < b.per_file.size(); ++i) {
      const double delta = c.per_file[i] - b.per_file[i];
      wins += lower ? delta < 0.0 : delta > 0.0;
    }
    v += " (wins " + std::to_string(wins) + "/" +
         std::to_string(b.per_file.size()) + ")";
  }
  return v;
}

int run_compare(const std::string& base_path, const std::string& cand_path) {
  const BenchmarkDef def = load_benchmark_def();
  std::vector<MetricDef> metrics = def.end_to_end;
  metrics.insert(metrics.end(), extra_metrics().begin(), extra_metrics().end());
  metrics.insert(metrics.end(), def.per_layer.begin(), def.per_layer.end());
  const auto base = load_side(base_path);
  const auto cand = load_side(cand_path);
  std::vector<std::string> names;
  for (const auto& [key, side] : base) {
    if (names.empty() || names.back() != key.first) names.push_back(key.first);
  }

  std::size_t worse = 0;
  std::size_t unresolved = 0;
  std::printf("%-18s %-38s %14s %14s %9s  %s\n", "workload", "metric", "base",
              "cand", "change", "verdict");
  for (const std::string& workload : names) {
    for (const MetricDef& d : metrics) {
      const auto b = base.find({workload, d.name});
      const auto c = cand.find({workload, d.name});
      if (b == base.end() || c == cand.end()) continue;
      const double mb = quartiles(b->second.samples).p50;
      const double mc = quartiles(c->second.samples).p50;
      // Change in points for absolute-bound metrics, else as a share of the
      // base median; `worsening` is positive when the metric got worse.
      const double change =
          d.absolute ? mc - mb : (mc - mb) / (mb != 0.0 ? std::abs(mb) : 1.0);
      const double worsening = d.better == "lower" ? change : -change;
      const std::string v =
          d.bound ? verdict(d, b->second, c->second, worsening) : "-";
      worse += v.rfind("worse", 0) == 0;
      unresolved += v.rfind("unresolved", 0) == 0;
      std::printf("%-18s %-38s %14.6g %14.6g %+8.2f%s  %s\n", workload.c_str(),
                  d.name.c_str(), mb, mc, d.absolute ? change : 100.0 * change,
                  d.absolute ? "pt" : "%", v.c_str());
    }
  }
  std::printf("%zu worse, %zu unresolved\n", worse, unresolved);
  return worse + unresolved == 0 ? 0 : 1;
}

// ------------------------------------------------------------------- main

[[noreturn]] void usage_error(const std::string& message) {
  throw std::invalid_argument{message +
                              "\nusage: fedco_bench [--workload W] [--seed S] "
                              "[--seconds N] [--trace 0|1] [--smoke] "
                              "[--out FILE] | --compare BASE CAND"};
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || text[0] == '-') {
    usage_error(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return value;
}

int run_main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  Options opt;
  std::optional<std::string> child;
  bool traced = false;
  std::vector<std::string> compare;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage_error(a + " needs a value");
      return args[++i];
    };
    if (a == "--workload") {
      opt.workload = next();
      (void)find_workload(*opt.workload);
    } else if (a == "--seed") {
      opt.seed = parse_uint(a, next());
    } else if (a == "--seconds") {
      opt.seconds = static_cast<double>(parse_uint(a, next()));
    } else if (a == "--trace") {
      const std::string& v = next();
      if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--out") {
      opt.out = next();
    } else if (a == "--compare") {
      compare.push_back(next());
      compare.push_back(next());
    } else if (a == "--child") {
      child = next();
    } else if (a == "--traced") {
      traced = true;
    } else {
      usage_error("unknown argument '" + a + "'");
    }
  }
  if (child) {
    if (*child == "layers") return run_layers_child(opt.seed);
    return run_workload_child(find_workload(*child), opt.seed, opt.smoke,
                              traced);
  }
  if (!compare.empty()) return run_compare(compare[0], compare[1]);
  ::setenv("FEDCO_JOBS", "1", 1);
  fs::create_directories(kOutDir);
  return opt.workload ? run_single(opt) : run_all(opt);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "fedco_bench: " << error.what() << '\n';
    return 2;
  }
}
