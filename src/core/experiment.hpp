// Full-system experiment driver: devices + app arrivals + federated training
// + one of four schedulers, advanced slot by slot. Every evaluation figure
// and table in the paper is regenerated by configuring and running this
// driver (see DESIGN.md §4 for the index). The Eq. (12) gaps and their sum
// G(t) come from one engine for every scheduler: the folded closed-form
// accumulators of core/gap_accrual.hpp, O(1) per slot.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/synth_cifar.hpp"
#include "device/battery.hpp"
#include "device/dvfs.hpp"
#include "device/profiles.hpp"
#include "fl/aggregation.hpp"
#include "scenario/fleet.hpp"
#include "sim/clock.hpp"
#include "sim/trace.hpp"
#include "util/stats.hpp"

namespace fedco::obs {
class EventSink;
}

namespace fedco::core {

/// The four compared schemes (Sec. VII-B).
enum class SchedulerKind {
  kImmediate,  ///< train as soon as ready, ignore apps (energy upper bound)
  kSyncSgd,    ///< FedAvg with a round barrier [2]
  kOffline,    ///< windowed knapsack oracle (Sec. IV)
  kOnline,     ///< Lyapunov drift-plus-penalty (Sec. V)
};

[[nodiscard]] const char* scheduler_name(SchedulerKind kind) noexcept;

/// Model architecture for real-training experiments.
enum class ModelKind { kMlp, kLenetSmall, kLenet5 };

struct ExperimentConfig {
  SchedulerKind scheduler = SchedulerKind::kOnline;
  std::size_t num_users = 25;
  sim::Slot horizon_slots = 10800;  ///< 3 hours at 1 s slots
  double slot_seconds = 1.0;
  std::uint64_t seed = 1;

  /// App arrivals: Bernoulli per slot (paper: 0.001), optionally modulated
  /// by a diurnal cycle.
  double arrival_probability = 0.001;
  bool diurnal = false;
  double diurnal_swing = 0.8;
  /// When non-empty, replay a measured usage log instead: a CSV of
  /// "slot,app" rows (apps::load_arrival_trace_csv, sorted by slot) that
  /// every user replays — a one-file apps::TraceFleet.
  std::string arrival_trace_path;
  /// Trace-driven fleet (scenario faults.trace_dir): a directory of
  /// per-user "slot,app" CSV logs; user i replays file i mod file-count
  /// (sorted by name, see apps::load_arrival_trace_dir). Takes precedence
  /// over arrival_trace_path. Combines with arrival_streams (see there);
  /// only the scenario layer rejects trace_dir together with stream_rng.
  std::string arrival_trace_dir;

  /// Counter-based arrival streams (apps/arrival_stream.hpp): sample each
  /// user's arrivals on demand from a stream keyed on (seed, user) instead
  /// of pre-generating a full-horizon script per user. Setup becomes
  /// O(arrival events) instead of O(users x horizon) — the 1M-user mode.
  /// Changes the RNG layout (per-user streams replace the master-fork
  /// chain), so trajectories differ from the legacy default; the
  /// stream-parity goldens pin this mode. Under an arrival trace the trace
  /// supplies the arrivals, but the streams still key each user's device
  /// pick and runtime draws: a trace holding a user's materialized stream
  /// replays the lazy run exactly (the tests' stream oracle).
  bool arrival_streams = false;

  /// Device fleet: by default each user uniformly picks one of the four
  /// testbed devices; set `fixed_device` to pin every user to one model.
  std::optional<device::DeviceKind> fixed_device;

  /// Per-user overrides (the scenario subsystem, see src/scenario/):
  /// device kind, arrival process, network tier, presence window, link
  /// degradations and priority, packed into shared SoA columns (O(1)
  /// allocations per concern, see scenario::FleetArena). Null = the
  /// homogeneous fleet above; otherwise it must hold exactly `num_users`
  /// entries (usually produced by scenario::generate_fleet_arena). Default
  /// entries change nothing — a fleet of all-default overrides runs
  /// bit-identically to a null fleet (golden-parity guarded). config_io
  /// serializes it as the "per_user" array, and operator== compares it by
  /// per-user content.
  scenario::SharedFleet fleet;

  /// Online scheduler knobs (Sec. V).
  double V = 4000.0;
  double lb = 500.0;
  double epsilon = 0.05;

  /// Offline planner knobs (Sec. IV / VII: 500 s look-ahead, Lb = 1000).
  sim::Slot offline_window_slots = 500;
  double offline_lb = 1000.0;

  /// Churn-aware offline planning (docs/algorithms.md §"Churn- and
  /// priority-aware modes"): drop knapsack (user, window) pairs whose
  /// co-run would end after the user's known departure, and deweight
  /// deferred work by the fraction of the window the user remains present.
  /// Off by default — the oblivious plan of every committed golden.
  bool offline_churn_aware = false;

  /// Churn-aware online rule: discount the Eq. (21) H(t)·gap pressure by a
  /// remaining-presence factor — a user whose departure precedes the end of
  /// a training session it would start feels proportionally less staleness
  /// pressure (scalar and batched paths, identical arithmetic). The
  /// Eq. (15)/(16) queue updates are untouched, so the conservation
  /// invariants hold unchanged. Off by default — the oblivious rule of
  /// every committed golden.
  bool online_churn_aware = false;

  /// Learning dynamics (shared by Eq. (4) and the real optimizer).
  double eta = 0.05;
  double beta = 0.9;

  /// Real federated training on SynthCIFAR. When false, the driver runs the
  /// scheduling/energy simulation with the synthetic momentum-norm model —
  /// sufficient (and fast) for the energy/queue figures 4 and 6(a).
  bool real_training = false;
  ModelKind model = ModelKind::kLenetSmall;
  /// Async aggregation rule (paper default: pure replacement). FedAsync and
  /// delay-compensated aggregation are the staleness-mitigation baselines
  /// the paper cites ([10], [11]); compared in bench_ablation.
  fl::AggregationConfig aggregation{};

  /// Label-skewed non-IID partitioning: 0 = equal IID split (the paper's
  /// setting), > 0 = symmetric Dirichlet(alpha) label shares per user.
  double dirichlet_alpha = 0.0;

  /// Client-side staleness mitigations (the [30]-[32] line of work):
  /// gap_aware_lr scales the client's learning rate by 1/(1 + gap) where
  /// gap is the distance between the adopted global model and the client's
  /// last upload; weight_prediction adopts the Eq. (3) linear prediction of
  /// theta_{t+tau} instead of the raw download.
  bool gap_aware_lr = false;
  bool weight_prediction = false;
  std::size_t batch_size = 20;  ///< Sec. VI: batches of 20
  data::SynthCifarConfig dataset{};
  double eval_interval_s = 200.0;

  /// Network model exchange (Sec. VI: ~2.5 MB model over HTTP). When
  /// real_training is false the nominal paper size is used.
  std::size_t model_bytes = 2'500'000;
  bool use_lte = false;

  /// Per-decision evaluation time of the online controller; accounted as
  /// Table III overhead energy when > 0.
  double decision_eval_seconds = 0.0;

  /// Scheduling granularity (Sec. VII "Energy Overhead"): the online
  /// controller evaluates Eq. (21) only every `decision_interval_slots`
  /// slots; ready users idle in between. 1 = every slot (the paper's
  /// default). Coarser intervals cut decision overhead but can miss
  /// co-running opportunities shorter than the interval.
  sim::Slot decision_interval_slots = 1;

  /// Failure injection: probability that a completed training session's
  /// upload is lost after retries (the Android kernel killing the background
  /// process, or the transfer failing). The local epoch's energy is spent
  /// but no update reaches the server; the client re-enters the queue.
  double upload_drop_probability = 0.0;

  /// Battery model (Sec. VI JobScheduler conditions: "device status (idling
  /// or charging)"). When track_battery is set, each user's Eq. (10) energy
  /// drains a per-device battery (opportunistic recharge below 15 % SoC);
  /// training is gated off while SoC < min_soc_to_train.
  bool track_battery = false;
  device::BatteryConfig battery{};
  double min_soc_to_train = 0.0;

  /// Thermal throttling (the paper's straggler mechanism, Sec. I): each
  /// device carries a lumped thermal model fed by its Eq. (10) power draw;
  /// a training session started while hot is elongated by the throttle
  /// factor. Off by default (the paper's Table II durations already include
  /// steady-state effects).
  bool enable_thermal = false;
  device::ThermalConfig thermal{};

  /// Scheduled regional outages (scenario faults.outages), resolved to
  /// slot windows. Purely observational at the driver level: the affected
  /// users' presence windows already encode the absence (the scenario
  /// layer subtracts outages at fleet generation); the driver only emits
  /// an obs kOutage event when a window opens. Results are identical with
  /// or without this list populated.
  struct OutageWindow {
    sim::Slot start = 0;
    sim::Slot end = 0;

    friend bool operator==(const OutageWindow&, const OutageWindow&) = default;
  };
  std::vector<OutageWindow> outages;

  /// Trace recording granularity (slots between samples); gap traces per
  /// user are recorded only when record_per_user_gaps is set.
  sim::Slot record_interval = 10;
  bool record_per_user_gaps = false;

  /// Field-wise equality; used by the config_io JSON round-trip contract.
  friend bool operator==(const ExperimentConfig&,
                         const ExperimentConfig&) = default;
};

/// A value outside its range: the field as config_io names it
/// ("battery.capacity_mah", "extra_windows[1]") and the rule it breaks.
struct ConfigViolation {
  std::string field;
  std::string reason;
};

/// The one statement of every ExperimentConfig range: the first violation
/// in field order, or nullopt. The JSON loader, the CLI (after its flags)
/// and run_experiment all call it. Per-user entries are checked by
/// validate_user instead, inside the per-user loops the loader and the
/// driver already make, so a 1M-user fleet is not walked twice.
[[nodiscard]] std::optional<ConfigViolation> validate(
    const ExperimentConfig& config);
[[nodiscard]] std::optional<ConfigViolation> validate_user(
    const scenario::PerUserConfig& user);

/// One (lag, gap) observation per applied update (Fig. 5a lower subplot).
struct LagGapSample {
  double time_s = 0.0;
  std::uint64_t lag = 0;
  double gap = 0.0;
  std::size_t user = 0;
};

/// Percentile/count digest of one run — the `--save-summary` artifact and
/// the "summary" block of result documents (docs/observability.md).
/// Everything here is derived from values the driver computes anyway, so
/// the digest is deterministic in config.seed — except `timing`, which is
/// wall-clock and therefore excluded from --save-result archives (the
/// byte-identical replay contract) and from golden fingerprints.
struct RunSummary {
  // Percentiles of the per-slot queue observables Q(t) / H(t).
  util::Percentiles queue_q;
  util::Percentiles queue_h;
  // Percentiles over applied updates (lag in update counts, gap in Eq. 12
  // units) and over per-user total energy (J).
  util::Percentiles lag;
  util::Percentiles gap;
  util::Percentiles user_energy_j;

  // Decision/lifecycle counts — the event stream's totals, maintained
  // unconditionally (events on or off).
  std::uint64_t decisions_scheduled = 0;  ///< training sessions started
  std::uint64_t decisions_idle = 0;       ///< decide outcomes that idled
  std::uint64_t parks = 0;   ///< idle decisions parked past the next slot
  std::uint64_t wakes = 0;   ///< parked users re-entering the decision set
  std::uint64_t joins = 0;   ///< presence window entries
  std::uint64_t leaves = 0;  ///< presence window exits
  std::uint64_t barrier_stall_slots = 0;  ///< slots a sync barrier waited
  std::uint64_t replans = 0;              ///< offline plan-window recomputes

  /// Wall-time phase breakdown (steady_clock seconds). The driver reads
  /// the clock only at the end of a phase that did work: events laps when
  /// it dispatched or emitted an event or the slot hook replanned or ran a
  /// sync round, decide when it had rows, and record never laps itself —
  /// the next slot's first lap (or the run's last) closes it. So an empty
  /// phase's few nanoseconds land in the next phase that laps, and a quiet
  /// slot counts as record_s. A run with no due event and no hook work
  /// reports events_s == 0 exactly. The phases sum to at most total_s.
  struct Timing {
    double setup_s = 0.0;     ///< fleet/scheduler construction
    double events_s = 0.0;    ///< calendar drain + scheduler hooks
    double decide_s = 0.0;    ///< decision batches incl. session starts
    double record_s = 0.0;    ///< queue/gap accounting, traces, eval, quiet slots
    /// Settle (catch-up, meter and battery sums, final evaluation), the
    /// driver's teardown, then the digest (percentiles, server_gap).
    double finalize_s = 0.0;
    double total_s = 0.0;     ///< whole run_experiment call
  } timing;
};

struct ExperimentResult {
  // Energy (J), summed over all users; Eq. (10) state breakdown.
  double total_energy_j = 0.0;
  double training_j = 0.0;
  double corun_j = 0.0;
  double app_j = 0.0;
  double idle_j = 0.0;
  double network_j = 0.0;
  double overhead_j = 0.0;

  // Queue statistics (Fig. 4 b-d).
  double avg_queue_q = 0.0;
  double avg_queue_h = 0.0;
  double final_queue_q = 0.0;
  double final_queue_h = 0.0;

  // Update/staleness statistics.
  std::uint64_t total_updates = 0;
  std::uint64_t dropped_updates = 0;
  std::uint64_t corun_sessions = 0;
  std::uint64_t separate_sessions = 0;
  double avg_lag = 0.0;
  double avg_gap = 0.0;
  std::vector<LagGapSample> lag_gap_samples;

  // Learning statistics (real training only).
  double final_accuracy = 0.0;
  double final_loss = 0.0;

  // Battery statistics (when track_battery is enabled).
  double battery_cycles_total = 0.0;     ///< equivalent full cycles, summed
  std::size_t battery_recharges = 0;     ///< opportunistic recharges, summed
  std::uint64_t battery_gated_slots = 0; ///< ready slots blocked by low SoC

  // Thermal statistics (when enable_thermal is set).
  double max_temperature_c = 0.0;
  double worst_throttle_factor = 1.0;
  std::uint64_t throttled_sessions = 0;

  /// Named traces: "Q", "H", "G" (queue/gap sums), "accuracy", "loss",
  /// "server_gap" (per-update), "gap_user<i>" when enabled.
  sim::TraceRecorder traces;

  /// Percentile/count digest (always filled; summary.timing is the only
  /// non-deterministic member). NOT part of golden fingerprints.
  RunSummary summary;

  /// First time (s) the accuracy trace reaches `threshold`; < 0 if never.
  [[nodiscard]] double time_to_accuracy(double threshold) const;
};

/// Out-of-band run instrumentation. Hooks observe a run without entering
/// the config: they never alter RNG draws, decisions, or results (an
/// events-on run is fingerprint-identical to events-off — pinned by
/// tests/obs_event_test.cpp), and they are deliberately NOT serialized
/// into config/result archives.
struct RunHooks {
  /// Event stream destination; null disables emission entirely (the
  /// zero-cost default — the driver then skips all event formatting).
  /// Not owned; must outlive the run_experiment call.
  obs::EventSink* events = nullptr;
  /// Emit only events of slots with t % events_sample == 0 (>= 1). A
  /// sampled stream is a pure filter of the full stream.
  sim::Slot events_sample = 1;
};

/// Run one experiment to completion. Deterministic in config.seed. Throws
/// std::invalid_argument naming any field validate(_user) rejects.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// As above, with observability hooks attached (same result bit for bit).
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config,
                                              const RunHooks& hooks);

/// The per-user driver state of a run of `config` once set up (its driver
/// is built, not stepped), in bytes per user: `hot`, the block every user
/// carries, and `side`, the columns its modes switch on (battery, thermal,
/// real training, an offline look-ahead, multi-window presence). Lazy
/// streams read each user's arrival law from the config or the fleet arena
/// and hold none. Throws as run_experiment does.
struct UserStateBytes {
  std::size_t hot = 0;
  std::size_t side = 0;
};
[[nodiscard]] UserStateBytes user_state_bytes(const ExperimentConfig& config);

}  // namespace fedco::core
