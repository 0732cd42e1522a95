#include "core/experiment.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "apps/arrival.hpp"
#include "apps/arrival_stream.hpp"
#include "apps/trace_feed.hpp"
#include "core/gap_accrual.hpp"
#include "core/scheduler.hpp"
#include "data/partition.hpp"
#include "device/power_model.hpp"
#include "fl/client.hpp"
#include "fl/server.hpp"
#include "fl/staleness.hpp"
#include "net/link.hpp"
#include "nn/serialize.hpp"
#include "nn/zoo.hpp"
#include "obs/events.hpp"
#include "scenario/netem_profiles.hpp"
#include "util/stats.hpp"
#include "util/stream_rng.hpp"
#include "util/timer.hpp"

namespace fedco::core {

const char* scheduler_name(SchedulerKind kind) noexcept {
  switch (kind) {
    case SchedulerKind::kImmediate:
      return "Immediate";
    case SchedulerKind::kSyncSgd:
      return "Sync-SGD";
    case SchedulerKind::kOffline:
      return "Offline";
    case SchedulerKind::kOnline:
      return "Online";
  }
  return "?";
}

double ExperimentResult::time_to_accuracy(double threshold) const {
  const auto* acc = traces.find("accuracy");
  if (acc == nullptr) return -1.0;
  return acc->first_crossing(threshold);
}

namespace {

enum class Phase { kReady, kTraining, kBarrier, kTransferring };

/// Per-user classification for the gap dynamics of one slot (Eq. 12):
/// absent users neither accrue nor contribute to G(t), training users
/// contribute their (frozen) gap, everyone else accrues epsilon first.
enum GapMode : unsigned char { kGapAbsent = 0, kGapTraining = 1, kGapAccrue = 2 };

/// One independent reader over a user's arrival sequence. The driver runs
/// three per user (live session, replay session, scheduler oracle), each at
/// its own position. `at` is the next unconsumed arrival (the kNoArrival
/// sentinel compares greater than every reachable slot, so `feed.at <= t`
/// loops need no exhaustion flag) regardless of the backing store: a slice
/// of the driver's shared script arena (index) or a lazy counter-based
/// arrival stream (stream) — the driver's feed_init/feed_next dispatch on
/// the user's arrival source.
struct Feed {
  static constexpr sim::Slot kNoArrival = std::numeric_limits<sim::Slot>::max();
  sim::Slot at = kNoArrival;
  device::AppKind app{};
  std::size_t index = 0;       ///< script mode: next arena event
  apps::ArrivalCursor stream;  ///< stream mode: iteration state
};

struct UserState {
  // Field order is deliberate: the per-slot decision path (consider/decide)
  // touches only this first block — keeping it inside one cache line is
  // worth ~2x on 10k-user online fleets whose UserState working set spills
  // out of L2.
  Phase phase = Phase::kReady;
  device::DeviceKind dev_kind{};
  /// Counted in the scheduler's arrival stream A(t) but not yet served —
  /// lets a mid-backlog departure drain the queue exactly once.
  bool in_backlog = false;
  /// Currently included in the driver's active_present_ counter (present
  /// and not at the barrier). Kept as a membership bit so same-slot event
  /// chains (a transfer draining exactly on its leave slot) can never
  /// double-count a transition.
  bool active_counted = false;
  bool training_corun = false;
  device::AppKind train_app = device::AppKind::kMap;
  sim::Slot phase_end = 0;
  /// Presence window [join, leave): churned users are absent outside it.
  sim::Slot join = 0;
  sim::Slot leave = scenario::kNeverLeaves;
  /// Slot of the live machine's next unconsumed arrival (mirror of
  /// live_sess.feed.at) — lets the every-slot decide path skip the session
  /// machine without touching the cold feed state.
  sim::Slot live_next_arrival = std::numeric_limits<sim::Slot>::max();
  const device::DeviceProfile* dev = nullptr;

  // Driver-owned foreground-session timeline. Replaces the old per-slot
  // AppSessionTracker ticks bit for bit: with a deterministic arrival feed
  // a session's whole future is determined, so the machine is advanced on
  // demand. Two copies of the same deterministic machine run at different
  // times: `live` answers reads at the current slot, `replay` paces the
  // lazy accrual (historical states must not be contaminated by future
  // arrivals). Both agree on every slot both have passed; the only
  // external mutation — the co-run extension in start_training — is
  // applied to both while they are synchronized.
  struct SessionMachine {
    device::AppKind app{};
    sim::Slot end = 0;  ///< first slot the current app is off screen
    Feed feed;          ///< next arrival this machine has not consumed
  };
  SessionMachine live_sess;
  SessionMachine replay_sess;

  /// Lazy-accrual watermark: energy/battery/thermal state reflects every
  /// slot through `synced` (-1 = nothing applied yet; gaps are evaluated in
  /// closed form instead, see gap_at). Between events the
  /// per-slot accrual sequence is replayed verbatim when the user is next
  /// touched, so batched catch-up is bit-identical to the eager slot loop.
  sim::Slot synced = -1;

  const net::Link* link = nullptr;  ///< per-user network tier (wifi/lte)
  std::uint64_t version_at_download = 0;
  std::vector<float> downloaded_params;  ///< kept only for kDelayComp
  std::vector<float> last_upload;        ///< kept only for gap_aware_lr
  std::unique_ptr<fl::FlClient> client;
  device::EnergyMeter meter;
  device::Battery battery{};
  double battery_drained_j = 0.0;  ///< meter total already drained
  device::ThermalModel thermal{};
  util::Rng rng{0};

  // Arrival source. Stream mode (stream_params != nullptr): feeds iterate
  // the counter-based stream keyed by arrival_key over [join, arrivals_end).
  // Script mode: feeds read the half-open slice [script_begin, script_end)
  // of the driver's shared script arena — per-user vectors are gone; one
  // arena allocation serves the whole fleet.
  const apps::ArrivalStreamParams* stream_params = nullptr;
  std::uint64_t arrival_key = 0;
  sim::Slot arrivals_end = 0;  ///< stream mode: min(horizon, leave)
  std::size_t script_begin = 0;
  std::size_t script_end = 0;
  /// Multi-window presence (commute patterns, outage recovery): the
  /// remaining windows after [join, leave), as the half-open slice
  /// [next_window, windows_end) of the driver's extra_windows_ pool.
  /// When the active window's leave fires, the next window is loaded into
  /// join/leave and its events armed (see advance_window).
  std::uint32_t next_window = 0;
  std::uint32_t windows_end = 0;
  /// Stream-mode oracle window cursor + its current window's arrival end.
  /// Independent of next_window: the scheduler's look-ahead may run ahead
  /// of presence, and the oracle never rewinds (see oracle_advance_window).
  std::uint32_t oracle_win = 0;
  sim::Slot oracle_end = 0;
  Feed oracle;  ///< next_arrival_between's reader (scheduler look-ahead)
};

/// Fenwick (binary-indexed) tree counting in-flight training end slots —
/// the expected_lag index. count_le(end) returns exactly the integer the
/// historical sorted-vector upper_bound produced, but insert/erase are
/// O(log cap) instead of O(n) memmoves, which dominated large-fleet event
/// processing.
class TrainingEndIndex {
 public:
  void init(sim::Slot cap) {
    cap_ = cap;
    tree_.assign(static_cast<std::size_t>(cap) + 2, 0);
  }

  void add(sim::Slot end, std::int32_t delta) noexcept {
    for (std::size_t i = pos(end); i < tree_.size(); i += i & (~i + 1)) {
      tree_[i] = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(tree_[i]) + delta);
    }
  }

  /// Number of indexed ends <= `end`.
  [[nodiscard]] std::size_t count_le(sim::Slot end) const noexcept {
    std::size_t sum = 0;
    for (std::size_t i = pos(end); i > 0; i -= i & (~i + 1)) sum += tree_[i];
    return sum;
  }

 private:
  [[nodiscard]] std::size_t pos(sim::Slot end) const noexcept {
    const sim::Slot clamped = end < 0 ? 0 : (end > cap_ ? cap_ : end);
    return static_cast<std::size_t>(clamped) + 1;
  }

  sim::Slot cap_ = 0;
  std::vector<std::uint32_t> tree_;
};

nn::Network make_model(ModelKind kind, const data::SynthCifarConfig& data_cfg,
                       util::Rng& rng) {
  switch (kind) {
    case ModelKind::kMlp:
      return nn::make_mlp(
          data_cfg.channels * data_cfg.height * data_cfg.width, 64,
          data_cfg.classes, rng);
    case ModelKind::kLenetSmall:
      return nn::make_lenet_small(data_cfg.classes, rng);
    case ModelKind::kLenet5:
      return nn::make_lenet5(data_cfg.classes, rng);
  }
  throw std::invalid_argument{"make_model: unknown kind"};
}

/// Scheme-agnostic event-driven slot driver. All scheduling-policy logic
/// lives behind the core::Scheduler strategy (src/core/schedulers/); the
/// driver advances devices, app sessions, energy meters, the gap dynamics,
/// and the parameter server, and implements the SchedulerContext view
/// strategies consume.
///
/// Unlike the original slot loop — which touched every user every slot —
/// the driver keeps a min-heap of per-user next-event slots (session/phase
/// ends, arrival cursors, presence-window joins/leaves) and only touches a
/// user when its state can actually change. Idle-state quantities (energy,
/// battery, thermal) are accrued lazily from the per-user `synced`
/// watermark: when an event or a read touches a user, the elapsed slots are
/// replayed with exactly the per-slot operation sequence of the eager loop,
/// so every observable stays bit-identical (the golden FNV fingerprint
/// suites pin this). Gaps and G(t) come from the folded closed-form engine
/// (FoldedGapAccrual), touched only at Eq. 12 class transitions. See
/// docs/performance.md for the full model.
class Driver final : public SchedulerContext, private Scheduler::DecisionSink {
 public:
  Driver(const ExperimentConfig& cfg, const RunHooks& hooks)
      : cfg_(cfg),
        clock_(cfg.slot_seconds),
        master_rng_(cfg.seed),
        wifi_link_(net::wifi_link()),
        lte_link_(net::lte_link()),
        events_(hooks.events),
        events_every_(hooks.events_sample) {
    if (events_every_ < 1) {
      throw std::invalid_argument{"run_experiment: events_sample must be >= 1"};
    }
    if (cfg.num_users == 0) throw std::invalid_argument{"run_experiment: 0 users"};
    if (cfg.horizon_slots <= 0) {
      throw std::invalid_argument{"run_experiment: empty horizon"};
    }
    if (cfg.horizon_slots > sim::kMaxHorizonSlots) {
      // The folded-accrual anchors are an int32 column (bounded by the
      // horizon). The config and scenario loaders reject such horizons
      // with the file and field named; this guards configs built in code.
      throw std::invalid_argument{"run_experiment: horizon exceeds 2^31 - 1 slots"};
    }
    if (cfg.record_interval <= 0) {
      throw std::invalid_argument{
          "run_experiment: record_interval must be positive"};
    }
    if (cfg.fleet && cfg.fleet->size() != cfg.num_users) {
      throw std::invalid_argument{
          "run_experiment: fleet must hold num_users entries"};
    }
    // Presence windows are validated per user inside setup_users (one
    // arena read per user instead of a second full pass).
    model_bytes_ = cfg.model_bytes;
    scheduler_ = make_scheduler(cfg_);
    charges_overhead_ = scheduler_->charges_decision_overhead();
    // The battery gate is evaluated (and counted) per ready user per slot,
    // so when it can fire, ready users cannot be parked.
    gate_ready_hot_ = cfg_.track_battery && cfg_.min_soc_to_train > 0.0;
    event_buckets_.resize(static_cast<std::size_t>(cfg_.horizon_slots));
    queue_q_samples_.reserve(static_cast<std::size_t>(cfg_.horizon_slots));
    queue_h_samples_.reserve(static_cast<std::size_t>(cfg_.horizon_slots));
    // Outage markers are observational only (the presence windows already
    // encode the absence); sorted by start so step() can walk them with a
    // single cursor.
    outages_ = cfg_.outages;
    std::sort(outages_.begin(), outages_.end(),
              [](const ExperimentConfig::OutageWindow& a,
                 const ExperimentConfig::OutageWindow& b) {
                return a.start < b.start;
              });
    setup_training();
    setup_lag_index();
    setup_users();
    scheduler_->on_experiment_begin(*this);
  }

  ExperimentResult run() {
    for (sim::Slot t = 0; t < cfg_.horizon_slots; ++t) {
      step(t);
    }
    return finalize();
  }

  // ------------------------------------------------- SchedulerContext

  [[nodiscard]] const ExperimentConfig& config() const noexcept override {
    return cfg_;
  }

  [[nodiscard]] std::size_t num_users() const noexcept override {
    return users_.size();
  }

  [[nodiscard]] bool user_ready(std::size_t user) const override {
    return users_[user].phase == Phase::kReady;
  }

  [[nodiscard]] bool user_at_barrier(std::size_t user) const override {
    return users_[user].phase == Phase::kBarrier;
  }

  [[nodiscard]] bool user_present(std::size_t user,
                                  sim::Slot t) const override {
    return present(users_[user], t);
  }

  [[nodiscard]] std::size_t barrier_count() const noexcept override {
    return barrier_count_;
  }

  [[nodiscard]] std::size_t active_present_count() const noexcept override {
    return active_present_;
  }

  [[nodiscard]] const device::DeviceProfile& user_device(
      std::size_t user) const override {
    return *users_[user].dev;
  }

  [[nodiscard]] std::optional<device::AppKind> user_app(
      std::size_t user) override {
    // Materialize this user's live session through the current slot (the
    // eager driver ticked every session before any read at slot t). The
    // replay machine is untouched, so lazy accrual stays exact.
    UserState& u = users_[user];
    advance_live(u, cur_);
    return cur_ < u.live_sess.end ? std::optional{u.live_sess.app}
                                  : std::nullopt;
  }

  [[nodiscard]] double user_gap(std::size_t user) const override {
    // Gap state as of the end of slot t-1, exactly what the eager loop's
    // decide/replan phase observed.
    return gap_at(user, cur_ - 1);
  }

  [[nodiscard]] double momentum_norm() const override {
    return cfg_.real_training ? server_->momentum_norm()
                              : momentum_model_.momentum_norm();
  }

  [[nodiscard]] double expected_lag(std::size_t user,
                                    device::AppStatus status,
                                    device::AppKind app,
                                    sim::Slot t) const override {
    return expected_lag(users_[user], status, app, t);
  }

  [[nodiscard]] sim::Slot user_leave_slot(std::size_t user) const override {
    return users_[user].leave;
  }

  [[nodiscard]] double user_priority(std::size_t user) const override {
    return priority_.empty() ? 1.0 : priority_[user];
  }

  [[nodiscard]] sim::Slot training_end_slot(std::size_t user,
                                            device::AppStatus status,
                                            device::AppKind app,
                                            sim::Slot t) const override {
    // Same duration table (and the same indexing) the expected_lag lookahead
    // uses, so the scalar and batched paths see one end-slot arithmetic.
    const UserState& u = users_[user];
    return t + lag_slots_[static_cast<std::size_t>(u.dev_kind)]
                         [status == device::AppStatus::kApp
                              ? static_cast<std::size_t>(app)
                              : device::kAppKinds];
  }

  [[nodiscard]] double lag_count_at(sim::Slot end_slot) const override {
    return cached_lag_count(end_slot, cur_);
  }

  double recheck_gap(std::uint32_t user) override {
    // A due entry's gap is the previous slot's closed form, written to the
    // record, unless this user's schedule earlier in the batch rewrote it.
    if (user == last_scheduled_) return gap_[user];
    gap_[user] = fold_.eval(user, cur_ - 1);
    return gap_[user];
  }

  [[nodiscard]] std::optional<apps::ScriptedArrivals::Event>
  next_arrival_between(std::size_t user, sim::Slot from,
                       sim::Slot until) override {
    UserState& u = users_[user];
    if (u.stream_params != nullptr) {
      // Lazy stream mode: the oracle walks presence windows itself (see
      // oracle_advance_window) — the pregenerated arena concatenates every
      // window, so the script branch below crosses boundaries for free,
      // and the lazy oracle must match it look-ahead for look-ahead.
      if (u.oracle.at == Feed::kNoArrival) oracle_advance_window(u);
      while (u.oracle.at < from) {
        apps::stream_arrivals_next(*u.stream_params, u.oracle.stream,
                                   u.oracle_end);
        u.oracle.at = u.oracle.stream.at;
        u.oracle.app = u.oracle.stream.app;
        if (u.oracle.at == Feed::kNoArrival) oracle_advance_window(u);
      }
    } else {
      while (u.oracle.at < from) feed_next(u.oracle, u);
    }
    if (u.oracle.at < until) {
      return apps::ScriptedArrivals::Event{u.oracle.at, u.oracle.app};
    }
    return std::nullopt;
  }

  /// Stream-mode oracle look-ahead across presence windows. The oracle's
  /// window cursor is deliberately independent of the presence cursor
  /// (next_window): a scheduler may peek into windows the user has not
  /// entered yet, and — like its script-mode counterpart — the oracle only
  /// ever moves forward, so presence advances must not reposition it.
  void oracle_advance_window(UserState& u) {
    while (u.oracle.at == Feed::kNoArrival && u.oracle_win < u.windows_end) {
      const scenario::PresenceWindow w = extra_windows_[u.oracle_win++];
      const sim::Slot end = std::min(cfg_.horizon_slots, w.leave);
      if (w.join >= end) continue;
      u.oracle.stream = apps::stream_arrivals_begin(*u.stream_params,
                                                    u.arrival_key, w.join, end);
      u.oracle.at = u.oracle.stream.at;
      u.oracle.app = u.oracle.stream.app;
      u.oracle_end = end;
    }
  }

  void aggregate_round(sim::Slot t) override {
    const double now_s = static_cast<double>(t) * cfg_.slot_seconds;
    if (cfg_.real_training) {
      const fl::UpdateReceipt receipt = server_->aggregate_sync();
      record_update(users_.size(), now_s, receipt.lag, receipt.gradient_gap);
    } else {
      ++synthetic_version_;
      momentum_model_.on_global_update();
      record_update(users_.size(), now_s, 0,
                    fl::gradient_gap(cfg_.eta, cfg_.beta, 1.0,
                                     momentum_model_.momentum_norm()));
    }
    // Only users parked at the barrier join the next round's transfer; a
    // barrier-parked user that churned out while waiting skips the
    // download and parks (its upload was staged before it left), and
    // absent users are left alone. Homogeneous fleets have every user at
    // the barrier here, so this matches the historical transfer-everyone
    // behaviour bit for bit.
    for (std::size_t i = 0; i < users_.size(); ++i) {
      UserState& u = users_[i];
      if (u.phase != Phase::kBarrier) continue;
      catch_up(i, t - 1);
      --barrier_count_;
      if (in_window(u, t)) {
        begin_transfer(i, t);
      } else {
        u.phase = Phase::kReady;
        set_mode(i, t);
      }
      sync_active(i, t);
    }
  }

  void note_replan(sim::Slot t, std::size_t items,
                   std::size_t scheduled) override {
    ++result_.summary.replans;
    if (slot_sampled_) {
      events_->emit(obs::Event::replan(t, static_cast<std::int64_t>(items),
                                       static_cast<std::int64_t>(scheduled)));
    }
  }

 private:
  // ----------------------------------------------------------- events

  enum class EventType : unsigned char {
    kJoin = 0,      ///< presence window opens (arrival into A(t))
    kPhaseEnd = 1,  ///< training or transfer completes
    kLeave = 2,     ///< presence window closes (backlog drain)
    kWake = 3,      ///< a parked ready user is due a scheduling decision
  };

  struct Event {
    std::uint32_t user;
    EventType type;
  };

  /// Same-slot events replay the eager driver's per-user iteration order:
  /// user-major, then join -> phase end -> leave (the order the old loop
  /// checked them for each user) with wakes last. Applied within one
  /// calendar bucket — the slot is the bucket index.
  struct EventBefore {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.user != b.user) return a.user < b.user;
      return static_cast<unsigned char>(a.type) <
             static_cast<unsigned char>(b.type);
    }
  };

  void push_event(sim::Slot slot, std::size_t user, EventType type) {
    if (slot >= cfg_.horizon_slots) return;  // the eager loop never got there
    event_buckets_[static_cast<std::size_t>(slot)].push_back(
        Event{static_cast<std::uint32_t>(user), type});
  }

  // ------------------------------------------------------------- setup

  void setup_training() {
    if (!cfg_.real_training) return;
    dataset_ = data::make_synth_cifar(cfg_.dataset);
    util::Rng model_rng = master_rng_.fork();
    prototype_ = make_model(cfg_.model, cfg_.dataset, model_rng);
    server_.emplace(prototype_->flatten_params(), cfg_.eta, cfg_.beta,
                    cfg_.aggregation);
    model_bytes_ = nn::encoded_size(prototype_->param_count());
  }

  void setup_lag_index() {
    // Largest slot any training session can end at: horizon-1 plus the
    // longest (possibly thermally-elongated) duration. Ends past the cap
    // clamp to it — always strictly above every reachable query slot, so
    // counts are unaffected.
    double max_duration_s = 0.0;
    lag_slots_.resize(device::kDeviceKinds);
    for (std::size_t k = 0; k < device::kDeviceKinds; ++k) {
      const auto kind = static_cast<device::DeviceKind>(k);
      const device::DeviceProfile& dev = device::profile(kind);
      for (std::size_t a = 0; a < device::kAppKinds; ++a) {
        const auto app = static_cast<device::AppKind>(a);
        const double corun_s = device::training_duration_s(
            dev, device::AppStatus::kApp, app);
        lag_slots_[k][a] = clock_.slots_for_seconds(corun_s);
        max_duration_s = std::max(max_duration_s, corun_s);
      }
      const double separate_s = device::training_duration_s(
          dev, device::AppStatus::kNoApp, device::AppKind::kMap);
      lag_slots_[k][device::kAppKinds] = clock_.slots_for_seconds(separate_s);
      max_duration_s = std::max(max_duration_s, separate_s);
    }
    if (cfg_.enable_thermal) {
      max_duration_s *= std::max(cfg_.thermal.max_slowdown, 1.0);
    }
    training_ends_.init(cfg_.horizon_slots +
                        clock_.slots_for_seconds(max_duration_s) + 2);
  }

  void setup_users() {
    users_.resize(cfg_.num_users);
    hot_.reserve(cfg_.num_users);  // untouched capacity costs no memory
    gap_.assign(cfg_.num_users, 0.0);
    // Everyone starts absent; the set_mode(i, 0) below performs the real
    // slot-0 classification and the initial accumulator attach.
    gap_mode_.assign(cfg_.num_users, kGapAbsent);
    fold_.init(cfg_.num_users, cfg_.epsilon);
    data::Partition partition;
    if (cfg_.real_training) {
      util::Rng part_rng = master_rng_.fork();
      partition = cfg_.dirichlet_alpha > 0.0
                      ? data::partition_dirichlet(dataset_.train, cfg_.num_users,
                                                  cfg_.dirichlet_alpha, part_rng)
                      : data::partition_iid(dataset_.train.size(),
                                            cfg_.num_users, part_rng);
    }
    const nn::SgdConfig sgd{cfg_.eta, cfg_.beta, 0.0, 0.0};
    // Stream mode: arrivals, device picks, and runtime draws come from
    // counter-based streams keyed on (seed, user, concern) — no per-user
    // master forks, so user i's state is independent of fleet size and
    // construction order. Lazy unless pregenerate_streams materializes the
    // streams into the script arena (bit-identical by construction — the
    // parity battery's A/B switch). A replayed trace is already a script.
    const bool stream_mode = cfg_.arrival_streams &&
                             cfg_.arrival_trace_path.empty() &&
                             cfg_.arrival_trace_dir.empty();
    const bool lazy_streams = stream_mode && !cfg_.pregenerate_streams;
    if (lazy_streams) stream_params_.resize(cfg_.num_users);
    for (std::size_t i = 0; i < cfg_.num_users; ++i) {
      UserState& u = users_[i];
      const scenario::PerUserConfig pu = user_overrides(i);
      if (pu.join_slot < 0 || pu.leave_slot <= pu.join_slot) {
        throw std::invalid_argument{
            "run_experiment: per_user presence window is empty"};
      }
      if (cfg_.arrival_streams) {
        u.rng = util::Rng{util::stream_key(
            cfg_.seed, i,
            static_cast<std::uint64_t>(apps::StreamConcern::kRuntime))};
      } else {
        u.rng = master_rng_.fork();
      }
      // Device assignment is owned by the scenario layer: an explicit
      // per-user kind wins draw-free; otherwise assign_device makes the
      // classic uniform pick (or honours fixed_device) — from the user's
      // dedicated device stream in stream mode, from u.rng legacy.
      device::DeviceKind kind;
      if (pu.device) {
        kind = *pu.device;
      } else if (cfg_.arrival_streams) {
        util::Rng dev_rng{util::stream_key(
            cfg_.seed, i,
            static_cast<std::uint64_t>(apps::StreamConcern::kDevice))};
        kind = scenario::assign_device(cfg_.fixed_device, dev_rng);
      } else {
        kind = scenario::assign_device(cfg_.fixed_device, u.rng);
      }
      u.dev = &device::profile(kind);
      u.dev_kind = kind;
      u.link = pu.use_lte.value_or(cfg_.use_lte) ? &lte_link_ : &wifi_link_;
      u.join = pu.join_slot;
      u.leave = pu.leave_slot;
      if (!pu.extra_windows.empty()) {
        // Multi-window presence: windows must be strictly ascending and
        // non-empty, each join strictly after the previous leave (touching
        // windows must be merged by the producer — a join landing on the
        // leave slot would push into the event bucket being drained).
        sim::Slot prev_leave = pu.leave_slot;
        for (const scenario::PresenceWindow& w : pu.extra_windows) {
          if (w.join <= prev_leave || w.leave <= w.join) {
            throw std::invalid_argument{
                "run_experiment: per_user extra presence windows must be "
                "ascending, disjoint, and non-empty"};
          }
          prev_leave = w.leave;
        }
        u.next_window = static_cast<std::uint32_t>(extra_windows_.size());
        extra_windows_.insert(extra_windows_.end(), pu.extra_windows.begin(),
                              pu.extra_windows.end());
        u.windows_end = static_cast<std::uint32_t>(extra_windows_.size());
      }
      if (pu.link_degradations != 0) {
        if (degrade_mask_.empty()) degrade_mask_.assign(cfg_.num_users, 0);
        degrade_mask_[i] = pu.link_degradations;
        degrade_union_ |= pu.link_degradations;
      }
      if (pu.priority != 1.0) {
        if (priority_.empty()) priority_.assign(cfg_.num_users, 1.0);
        priority_[i] = pu.priority;
      }
      u.battery = device::Battery{cfg_.battery};
      u.thermal = device::ThermalModel{cfg_.thermal};
      if (stream_mode) {
        const apps::ArrivalStreamParams params{
            pu.arrival_probability.value_or(cfg_.arrival_probability),
            pu.diurnal.value_or(cfg_.diurnal),
            pu.diurnal_swing.value_or(cfg_.diurnal_swing),
            pu.diurnal_peak_hour, cfg_.slot_seconds};
        u.arrival_key = util::stream_key(
            cfg_.seed, i,
            static_cast<std::uint64_t>(apps::StreamConcern::kArrivals));
        u.arrivals_end = std::min(cfg_.horizon_slots, u.leave);
        if (lazy_streams) {
          stream_params_[i] = params;
          u.stream_params = &stream_params_[i];
        } else {
          u.script_begin = script_arena_.size();
          const auto events = apps::materialize_stream(
              params, u.arrival_key, u.join, u.arrivals_end);
          script_arena_.insert(script_arena_.end(), events.begin(),
                               events.end());
          // Multi-window users: materialize every later window too — the
          // arena slice holds all windows' events in slot order, so the
          // script feeds cross window boundaries without re-positioning
          // (the lazy path re-inits its cursors at each window advance;
          // stream cursors are from-independent, so both paths see the
          // same events).
          for (std::uint32_t w = u.next_window; w < u.windows_end; ++w) {
            const scenario::PresenceWindow win = extra_windows_[w];
            const sim::Slot end = std::min(cfg_.horizon_slots, win.leave);
            if (win.join >= end) continue;
            const auto more = apps::materialize_stream(params, u.arrival_key,
                                                       win.join, end);
            script_arena_.insert(script_arena_.end(), more.begin(),
                                 more.end());
          }
          u.script_end = script_arena_.size();
        }
      } else {
        generate_script(u, pu);
      }
      // One positioning walk per user: a feed (script index or stream
      // cursor) is a complete position, so the other two are copies.
      feed_init(u.live_sess.feed, u);
      u.replay_sess.feed = u.live_sess.feed;
      u.oracle = u.live_sess.feed;
      u.oracle_win = u.next_window;
      u.oracle_end = u.arrivals_end;
      u.live_next_arrival = u.live_sess.feed.at;
      u.phase = Phase::kReady;
      u.in_backlog = u.join == 0;
      set_mode(i, 0);
      if (u.join > 0) push_event(u.join, i, EventType::kJoin);
      if (u.leave < cfg_.horizon_slots) push_event(u.leave, i, EventType::kLeave);
      if (u.join == 0) {
        u.active_counted = true;
        ++active_present_;
        hot_.push_back(make_row(static_cast<std::uint32_t>(i), 0));
      }
      if (cfg_.real_training) {
        std::vector<std::size_t> shard = partition[i];
        u.client = std::make_unique<fl::FlClient>(
            static_cast<std::uint32_t>(i), dataset_.train.subset(shard),
            *prototype_, sgd, u.rng());
      }
    }
    // A(0): every user present from slot 0 (historically all num_users).
    double initial = 0.0;
    for (const UserState& u : users_) initial += u.join == 0 ? 1.0 : 0.0;
    pending_arrivals_ = initial;
  }

  /// The per-user override source: the fleet arena when present, the
  /// identity override for a homogeneous fleet.
  [[nodiscard]] scenario::PerUserConfig user_overrides(std::size_t i) const {
    if (cfg_.fleet) return cfg_.fleet->user(i);
    return scenario::PerUserConfig{};
  }

  /// Legacy script generation, appended to the shared arena as the slice
  /// [u.script_begin, u.script_end). Draw-for-draw the historical per-user
  /// vector build: the full-horizon Bernoulli walk runs even for churned
  /// users (identical RNG consumption across presence windows) and the app
  /// draw fires on every arrival; only in-window events are stored.
  void generate_script(UserState& u, const scenario::PerUserConfig& pu) {
    u.script_begin = script_arena_.size();
    // Storage filter: only events inside one of the user's presence
    // windows reach the arena (the RNG walk below still runs full-horizon
    // — identical draw consumption across presence shapes).
    const auto in_any_window = [&pu](sim::Slot t) {
      if (t >= pu.join_slot && t < pu.leave_slot) return true;
      for (const scenario::PresenceWindow& w : pu.extra_windows) {
        if (t >= w.join && t < w.leave) return true;
      }
      return false;
    };
    if (!cfg_.arrival_trace_dir.empty()) {
      // Trace-driven fleet: each user replays its own CSV from the trace
      // directory (loaded once, shared across users).
      if (trace_fleet_.empty()) {
        trace_fleet_ = apps::load_arrival_trace_dir(cfg_.arrival_trace_dir);
      }
      const auto index = static_cast<std::size_t>(&u - users_.data());
      for (const apps::ScriptedArrivals::Event& e :
           trace_fleet_.events_for_user(index)) {
        if (in_any_window(e.at)) script_arena_.push_back(e);
      }
    } else if (!cfg_.arrival_trace_path.empty()) {
      if (trace_events_.empty()) {
        trace_events_ = apps::load_arrival_trace_csv(cfg_.arrival_trace_path);
      }
      for (const apps::ScriptedArrivals::Event& e : trace_events_) {
        if (in_any_window(e.at)) script_arena_.push_back(e);
      }
    } else {
      const double p =
          pu.arrival_probability.value_or(cfg_.arrival_probability);
      const bool diurnal_on = pu.diurnal.value_or(cfg_.diurnal);
      const apps::DiurnalArrivals diurnal{
          p, pu.diurnal_swing.value_or(cfg_.diurnal_swing), cfg_.slot_seconds,
          pu.diurnal_peak_hour};
      // One uniform draw per slot, exactly rng.bernoulli's; the diurnal
      // curve is evaluated only for draws under its peak (fires()).
      for (sim::Slot t = 0; t < cfg_.horizon_slots; ++t) {
        const double draw = u.rng.uniform();
        if (diurnal_on ? diurnal.fires(t, draw) : draw < p) {
          const device::AppKind app = apps::random_app(u.rng);
          if (in_any_window(t)) script_arena_.push_back({t, app});
        }
      }
    }
    u.script_end = script_arena_.size();
  }

  // ------------------------------------------------------------- feeds

  /// Position a feed at the user's first arrival.
  void feed_init(Feed& f, const UserState& u) {
    if (u.stream_params != nullptr) {
      f.stream = apps::stream_arrivals_begin(*u.stream_params, u.arrival_key,
                                             u.join, u.arrivals_end);
      f.at = f.stream.at;  // kNoArrival sentinels are the same value
      f.app = f.stream.app;
    } else {
      f.index = u.script_begin;
      if (f.index < u.script_end) {
        f.at = script_arena_[f.index].at;
        f.app = script_arena_[f.index].app;
      } else {
        f.at = Feed::kNoArrival;
      }
    }
  }

  /// Advance a feed to the user's next arrival (kNoArrival when exhausted).
  void feed_next(Feed& f, const UserState& u) {
    if (u.stream_params != nullptr) {
      apps::stream_arrivals_next(*u.stream_params, f.stream, u.arrivals_end);
      f.at = f.stream.at;
      f.app = f.stream.app;
    } else {
      ++f.index;
      if (f.index < u.script_end) {
        f.at = script_arena_[f.index].at;
        f.app = script_arena_[f.index].app;
      } else {
        f.at = Feed::kNoArrival;
      }
    }
  }

  // ------------------------------------------------------------- per slot

  void step(sim::Slot t) {
    cur_ = t;
    // Event emission this slot? One branch when events are off; emission
    // sites read only values the driver computed anyway, which is what
    // keeps events-on runs fingerprint-identical to events-off.
    slot_sampled_ = events_ != nullptr && t % events_every_ == 0;
    // Fault markers: outage-window openings and netem phase edges are
    // event-stream annotations only — presence windows and the per-transfer
    // link effect already encode the behaviour, so results are identical
    // with events on or off.
    while (next_outage_ < outages_.size() && outages_[next_outage_].start <= t) {
      if (slot_sampled_ && outages_[next_outage_].start == t) {
        events_->emit(obs::Event::outage(
            t, static_cast<std::int64_t>(next_outage_),
            outages_[next_outage_].end));
      }
      ++next_outage_;
    }
    if (degrade_union_ != 0 && events_ != nullptr) {
      const double hour =
          std::fmod(static_cast<double>(t) * cfg_.slot_seconds, 86400.0) /
          3600.0;
      const std::uint32_t bits =
          scenario::netem_active_bits(degrade_union_, hour);
      if (bits != link_bits_) {
        if (slot_sampled_) {
          events_->emit(obs::Event::link_phase(
              t, static_cast<std::int64_t>(bits),
              static_cast<std::int64_t>(link_bits_)));
        }
        link_bits_ = bits;
      }
    }
    slot_arrivals_ = pending_arrivals_;
    pending_arrivals_ = 0.0;
    slot_served_ = 0.0;
    slot_departed_ = 0.0;
    decide_scratch_.clear();
    left_ready_.clear();
    watch_.start();

    // 1. Events due this slot, drained in the eager loop's per-user order.
    //    The bucket is sorted once, L1-resident, instead of sifting a
    //    fleet-sized binary heap per event. Handlers never push for the
    //    current slot (every phase lasts >= 1 slot; wakes are strictly
    //    future), so an index loop over the sorted prefix is exhaustive —
    //    asserted below. The bucket's storage is released after its one and
    //    only drain.
    std::vector<Event>& bucket = event_buckets_[static_cast<std::size_t>(t)];
    const std::size_t due_events = bucket.size();
    std::sort(bucket.begin(), bucket.end(), EventBefore{});
    for (std::size_t k = 0; k < due_events; ++k) {
      // A sparse ascending stride; every event but a wake transitions.
      if (k + 4 < due_events && bucket[k + 4].type != EventType::kWake) {
        prefetch_user(bucket[k + 4].user);
      }
      dispatch(bucket[k], t);
    }
    assert(bucket.size() == due_events);
    std::vector<Event>().swap(bucket);

    // 2. Strategy slot hook: the sync barrier aggregates here (O(1) via the
    //    barrier/active counters), the offline oracle replans its window.
    scheduler_->on_slot_begin(t, *this);

    // Users still parked at the barrier after the aggregation hook are
    // waiting on stragglers — a barrier stall slot.
    if (barrier_count_ > 0) {
      ++result_.summary.barrier_stall_slots;
      if (slot_sampled_) {
        events_->emit(obs::Event::stall(
            t, static_cast<std::int64_t>(barrier_count_),
            static_cast<std::int64_t>(active_present_)));
      }
    }
    result_.summary.timing.events_s += watch_.lap_s();

    // 3. Scheduling decisions for ready, present users that are due one:
    //    the hot set (consulted every slot) merged with users that became
    //    ready, joined, or reached their parking horizon this slot.
    decide_ready(t);
    result_.summary.timing.decide_s += watch_.lap_s();

    // 4. Gap accumulation (Eq. 12 idle branch) and queue updates: G(t) from
    //    the folded accumulators, O(1) per slot whatever the fleet size.
    //    (Energy accrues lazily — see catch_up.)
    const double sum_gaps = fold_.sum(t);
    scheduler_->on_slot_end(slot_arrivals_, slot_served_ + slot_departed_,
                            sum_gaps);
    queue_q_stats_.add(scheduler_->queue_q());
    queue_h_stats_.add(scheduler_->queue_h());
    // Full per-slot series (not just the running mean) so finalize can
    // digest Q/H into the summary percentiles.
    queue_q_samples_.push_back(scheduler_->queue_q());
    queue_h_samples_.push_back(scheduler_->queue_h());

    // 5. Traces.
    if (t % cfg_.record_interval == 0) {
      const double now_s = static_cast<double>(t) * cfg_.slot_seconds;
      result_.traces.record("Q", now_s, scheduler_->queue_q());
      result_.traces.record("H", now_s, scheduler_->queue_h());
      result_.traces.record("G", now_s, sum_gaps);
      if (cfg_.record_per_user_gaps) {
        for (std::size_t i = 0; i < users_.size(); ++i) {
          // End-of-slot-t values, the ones G(t) summed.
          result_.traces.record("gap_user" + std::to_string(i), now_s,
                                gap_at(i, t));
        }
      }
    }

    // 6. Periodic accuracy evaluation.
    if (cfg_.real_training) {
      const double now_s = static_cast<double>(t) * cfg_.slot_seconds;
      if (now_s >= next_eval_s_) {
        evaluate(now_s);
        next_eval_s_ += cfg_.eval_interval_s;
      }
    }
    result_.summary.timing.record_s += watch_.lap_s();
  }

  void dispatch(const Event& e, sim::Slot t) {
    UserState& u = users_[e.user];
    switch (e.type) {
      case EventType::kJoin:
        // Eager check: t > 0 && join == t && leave > t (join events are
        // only pushed for join > 0).
        if (u.join == t && u.leave > t) {
          catch_up(e.user, t - 1);
          // Ready users enter A(t) now; a user re-joining with a training
          // session or transfer still in flight is counted by
          // transfer_done's in-window branch instead (one arrival per
          // served request — never both).
          if (u.phase == Phase::kReady) {
            slot_arrivals_ += 1.0;
            u.in_backlog = true;
          }
          sync_active(e.user, t);  // a ready user entered its window
          set_mode(e.user, t);
          if (u.phase == Phase::kReady) decide_scratch_.push_back(e.user);
          ++result_.summary.joins;
          if (slot_sampled_) events_->emit(obs::Event::join(t, e.user));
        }
        break;
      case EventType::kPhaseEnd:
        if (u.phase == Phase::kTraining && t >= u.phase_end) {
          complete_training(e.user, t);
        } else if (u.phase == Phase::kTransferring && t >= u.phase_end) {
          transfer_done(e.user, t);
        }
        break;
      case EventType::kLeave: {
        catch_up(e.user, t - 1);
        if (u.phase == Phase::kReady) {
          // The hot-set fast path below relies on this record: a ready
          // user can only stop being decidable mid-run through its leave
          // event, so hot members outside this (ascending, per-slot) list
          // are screened without touching their state.
          left_ready_.push_back(e.user);
          if (u.in_backlog) {
            slot_departed_ += 1.0;
            u.in_backlog = false;
          }
        }
        // In-flight (training/transferring) users stay present and drain;
        // ready users drop out of the active count now (unless a same-slot
        // phase end already dropped them). Barrier users were never
        // counted as active.
        sync_active(e.user, t);
        set_mode(e.user, t);
        ++result_.summary.leaves;
        if (slot_sampled_) events_->emit(obs::Event::leave(t, e.user));
        advance_window(e.user, t);
        break;
      }
      case EventType::kWake:
        decide_scratch_.push_back(e.user);  // guards applied in decide_ready
        ++result_.summary.wakes;
        if (slot_sampled_) events_->emit(obs::Event::wake(t, e.user));
        break;
    }
  }

  /// Multi-window presence: after a window's leave event, load the user's
  /// next commute/recovery window and arm its join/leave events. Lazy
  /// stream feeds are re-positioned from the new window's start (stream
  /// cursors agree regardless of their starting slot, so this is
  /// bit-identical to one continuous pass); script feeds keep scanning the
  /// shared arena, which already holds every window's events in slot order.
  void advance_window(std::size_t index, sim::Slot t) {
    UserState& u = users_[index];
    if (u.next_window == u.windows_end || u.leave != t) return;
    // Drain the retiring window's remaining arrivals (all strictly before
    // the leave slot) through the live machine before repositioning its
    // feed: the lazy re-init below skips past them, so consuming them now
    // keeps the session state identical between the lazy and pregenerated
    // stream paths (the replay machine was drained by the leave event's
    // catch_up).
    advance_live(u, t);
    const scenario::PresenceWindow w = extra_windows_[u.next_window++];
    u.join = w.join;
    u.leave = w.leave;
    if (u.stream_params != nullptr) {
      u.arrivals_end = std::min(cfg_.horizon_slots, u.leave);
      feed_init(u.live_sess.feed, u);
      u.replay_sess.feed = u.live_sess.feed;
      // The oracle is NOT re-initialized here: its look-ahead may already
      // be past this window, and the script-mode oracle (whose arena spans
      // every window) never rewinds either.
      u.live_next_arrival = u.live_sess.feed.at;
    }
    push_event(u.join, index, EventType::kJoin);
    if (u.leave < cfg_.horizon_slots) {
      push_event(u.leave, index, EventType::kLeave);
    }
  }

  void transfer_done(std::size_t index, sim::Slot t) {
    UserState& u = users_[index];
    catch_up(index, t - 1);
    u.phase = Phase::kReady;
    if (in_window(u, t)) {
      scheduler_->on_user_ready(index, t, *this);
      slot_arrivals_ += 1.0;
      u.in_backlog = true;
      decide_scratch_.push_back(static_cast<std::uint32_t>(index));
    }
    sync_active(index, t);  // out-of-window: drained out after its leave
    set_mode(index, t);
  }

  /// Consult the strategy for every due ready user in ascending user order
  /// — exactly the users the eager per-slot decision loop would have
  /// touched with a non-idle outcome possible. The consult is one
  /// decide_batch() call over ReadyRows: the driver merges the hot rows
  /// with users that became ready, joined, or woke, screens them (phase,
  /// presence, battery gate) into `due_`, the strategy evaluates them in
  /// order, and each outcome comes back through the DecisionSink (a
  /// schedule is applied before the next row is evaluated, preserving the
  /// scalar loop's intra-slot expected_lag coupling bit for bit). Users
  /// whose strategy promises kIdle until a future slot are parked on a
  /// kWake event instead of being re-consulted every slot.
  void decide_ready(sim::Slot t) {
    if (hot_.empty() && decide_scratch_.empty()) return;
    due_.clear();
    gated_.clear();
    // Sized up front: a push_back reallocation would hold two copies.
    due_.reserve(hot_.size() + decide_scratch_.size());
    constexpr std::size_t kAhead = 8;
    const std::size_t hot_count = hot_.size();
    std::size_t a = 0;
    std::size_t b = 0;
    std::size_t gone = 0;
    while (a < hot_count || b < decide_scratch_.size()) {
      if (b >= decide_scratch_.size() ||
          (a < hot_count && hot_[a].user < decide_scratch_[b])) {
        if (a + kAhead < hot_count && t >= hot_[a + kAhead].app_until) {
          prefetch_user(hot_[a + kAhead].user);
        }
        ReadyRow& row = hot_[a++];
        // Hot fast path: a hot member was ready and in-window last slot
        // and can only have lost either through its leave event this slot
        // (recorded in left_ready_, ascending) — nothing else flips a
        // ready user before the decide phase. Screening via that list
        // skips the per-user state touch: the row carries what the batch
        // reads, and its session fields are re-derived only once the slot
        // reaches app_until. The battery gate screens every member.
        while (gone < left_ready_.size() && left_ready_[gone] < row.user) ++gone;
        if (gate_ready_hot_ ? !admit(row.user, t)
                            : gone < left_ready_.size() &&
                                  left_ready_[gone] == row.user) {
          continue;
        }
        if (t >= row.app_until) refresh_row(row, t);
        route(row);
      } else {
        // Wakes touch nothing before this merge (joins and transfers did).
        if (b + kAhead < decide_scratch_.size()) {
          prefetch_user(decide_scratch_[b + kAhead]);
        }
        const std::uint32_t i = decide_scratch_[b++];
        if (admit(i, t)) route(make_row(i, t));
      }
    }
    hot_.clear();  // fully merged; the batch's idle rows refill it
    last_scheduled_ = std::numeric_limits<std::uint32_t>::max();
    if (!due_.empty()) {
      scheduler_->decide_batch(due_.data(), due_.size(), t, *this, *this);
    }
    // Gated rows stay hot, re-sorted into the ascending order the next
    // slot's merge assumes (the scalar loop produced it by interleaving).
    if (!gated_.empty()) {
      hot_.insert(hot_.end(), gated_.begin(), gated_.end());
      std::sort(hot_.begin(), hot_.end(),
                [](const auto& x, const auto& y) { return x.user < y.user; });
    }
  }

  [[nodiscard]] bool admit(std::uint32_t i, sim::Slot t) const {
    return users_[i].phase == Phase::kReady && in_window(users_[i], t);
  }

  /// The scheme-agnostic battery guard, applied per admitted row before
  /// the strategy sees the batch. Screening user B ahead of applying user
  /// A's decision is order-safe: the gate reads only B's own (independent)
  /// accrual state, and the shared statistics it touches are commutative
  /// counts/maxima.
  void route(const ReadyRow& row) {
    // JobScheduler battery condition (Sec. VI): no training below the
    // configured state of charge. Scheme-agnostic, so gated in the driver
    // before the strategy is consulted — and re-checked every slot, so
    // gated users stay hot. Reading the SoC needs the accrual materialized;
    // without the gate armed, ready users skip the per-slot catch-up
    // entirely and their idle span replays in one batch at schedule time.
    if (gate_ready_hot_) {
      catch_up(row.user, cur_ - 1);
      if (users_[row.user].battery.soc() < cfg_.min_soc_to_train) {
        ++result_.battery_gated_slots;
        gated_.push_back(row);
        return;
      }
    }
    // A user hot and woken by a stale wake reaches the batch twice
    // (ROADMAP's double-schedule bug), as adjacent copies: both are flagged
    // kRecheck for good, as after the first outcome the gap fields may not
    // describe the user.
    due_.push_back(row);
    if (due_.size() > 1 && due_[due_.size() - 2].user == row.user) {
      due_[due_.size() - 2].flags |= ReadyRow::kRecheck;
      due_.back().flags |= ReadyRow::kRecheck;
    }
  }

  /// A fresh row for user i at slot t. A user outside the accruing class
  /// (reachable only through a double entry) is flagged kRecheck.
  [[nodiscard]] ReadyRow make_row(std::uint32_t i, sim::Slot t) {
    ReadyRow row{fold_.base(i), fold_.anchor(i), i, 0,
                 static_cast<std::uint8_t>(users_[i].dev_kind), 0, 0};
    if (gap_mode_[i] != kGapAccrue) row.flags = ReadyRow::kRecheck;
    refresh_row(row, t);
    return row;
  }

  /// Re-derive a row's session fields at slot t, as user_app does. Slots
  /// clamp to int32: all reachable ones are below the bounded horizon.
  void refresh_row(ReadyRow& row, sim::Slot t) {
    UserState& u = users_[row.user];
    advance_live(u, t);
    const bool app_on = t < u.live_sess.end;
    row.app = static_cast<std::uint8_t>(
        app_on ? static_cast<std::size_t>(u.live_sess.app) : device::kAppKinds);
    row.app_until = static_cast<std::int32_t>(
        std::min<sim::Slot>(app_on ? u.live_sess.end : u.live_next_arrival,
                            std::numeric_limits<std::int32_t>::max()));
  }

  /// Prefetch the UserState lines a transition of user i touches: the
  /// first 8 (phase, both session machines, watermark, meter). Prefetching
  /// all ~10 plus the gap-engine cells measured slower on the 1M fleet.
  void prefetch_user(std::uint32_t i) const {
    const char* p = reinterpret_cast<const char*>(&users_[i]);
    for (int line = 0; line < 8; ++line) __builtin_prefetch(p + 64 * line);
  }

  // ------------------------------------------------------ DecisionSink

  void schedule(std::size_t k) override {
    const std::uint32_t i = due_[k].user;
    UserState& u = users_[i];
    catch_up(i, cur_ - 1);
    // Materialize the live session through the decision slot (the scalar
    // loop did this before consulting decide(); deferring it to the apply
    // point is invisible — the machine is lazy and monotone).
    advance_live(u, cur_);
    start_training(i, cur_);
    slot_served_ += 1.0;
    u.in_backlog = false;
    ++result_.summary.decisions_scheduled;
    last_scheduled_ = i;
    if (slot_sampled_) {
      events_->emit(obs::Event::decision(cur_, i, u.training_corun));
    }
  }

  void idle(std::size_t from, std::size_t to, sim::Slot until) override {
    result_.summary.decisions_idle += to - from;
    if (!gate_ready_hot_ && until > cur_ + 1) {
      for (std::size_t k = from; k < to; ++k) {
        const std::uint32_t i = due_[k].user;
        push_event(until, i, EventType::kWake);  // parked
        ++result_.summary.parks;
        if (slot_sampled_) events_->emit(obs::Event::park(cur_, i, until));
      }
    } else {
      hot_.insert(hot_.end(), due_.begin() + static_cast<std::ptrdiff_t>(from),
                  due_.begin() + static_cast<std::ptrdiff_t>(to));
    }
  }

  void prefetch(std::size_t k) override { prefetch_user(due_[k].user); }

  // ------------------------------------------------------------- presence

  /// Inside the scenario presence window this slot?
  [[nodiscard]] static bool in_window(const UserState& u, sim::Slot t) noexcept {
    return t >= u.join && t < u.leave;
  }

  /// Simulated this slot? In-window users always; a user that left with a
  /// training session or model transfer in flight drains it before going
  /// absent. A departed user parked at the sync round barrier is NOT
  /// simulated — it burns nothing while waiting on stragglers (its staged
  /// upload still joins the round; see aggregate_round).
  [[nodiscard]] static bool present(const UserState& u, sim::Slot t) noexcept {
    return in_window(u, t) || u.phase == Phase::kTraining ||
           u.phase == Phase::kTransferring;
  }

  /// Move user i to its Eq. 12 accumulator class at slot t — the only
  /// place the G(t) accumulators are touched, which is what makes the slot
  /// O(transitions). The caller has already written the transition's gap
  /// value into gap_[i] (the frozen gradient gap before a training freeze,
  /// 0.0 after an applied update, the surviving gap after a dropped
  /// upload); accrue attachments start their closed form from it. A
  /// training user is re-frozen on every call, so its contribution is
  /// always the gap column as it stands, even when a second start_training
  /// in the same session rewrote it.
  void set_mode(std::size_t i, sim::Slot t) {
    const UserState& u = users_[i];
    const unsigned char mode =
        u.phase == Phase::kTraining
            ? kGapTraining
            : (present(u, t) ? kGapAccrue : kGapAbsent);
    const unsigned char old = gap_mode_[i];
    if (old == mode && mode != kGapTraining) return;
    if (old == kGapAccrue) {
      if (mode == kGapAbsent) {
        // Pin the departing user's final value: absent rows are read
        // straight from the column (user_gap, per-user traces).
        gap_[i] = fold_.eval(i, t - 1);
      }
      fold_.detach_accrue(i);
    } else if (old == kGapTraining) {
      fold_.detach_frozen(i);
    }
    if (mode == kGapAccrue) {
      fold_.attach_accrue(i, gap_[i], t);
    } else if (mode == kGapTraining) {
      fold_.attach_frozen(i, gap_[i]);
    }
    gap_mode_[i] = mode;
  }

  /// Reconcile the user's membership in active_present_ (present users not
  /// at the barrier) with its current phase/presence. Called after every
  /// phase transition and presence edge; idempotent, so overlapping
  /// same-slot events (phase end + leave) count each transition once.
  void sync_active(std::size_t i, sim::Slot t) {
    UserState& u = users_[i];
    const bool now = u.phase != Phase::kBarrier && present(u, t);
    if (now != u.active_counted) {
      u.active_counted = now;
      if (now) {
        ++active_present_;
      } else {
        --active_present_;
      }
    }
  }

  // ------------------------------------------------------- lazy accrual

  /// Advance the live machine through slot `t`, consulting the hot-block
  /// arrival mirror first so slots without arrivals never touch the feed.
  void advance_live(UserState& u, sim::Slot t) {
    if (t < u.live_next_arrival) return;
    advance_session(u.live_sess, u, t);
    u.live_next_arrival = u.live_sess.feed.at;
  }

  /// Advance one of the user's foreground-session machines through slot
  /// `t`, consuming feed arrivals exactly as the per-slot tick did: an
  /// arrival while an app runs is absorbed; otherwise it starts a session
  /// lasting the device's measured Table II co-run time.
  void advance_session(UserState::SessionMachine& m, const UserState& u,
                       sim::Slot t) {
    while (m.feed.at <= t) {
      if (m.feed.at >= m.end) {
        m.app = m.feed.app;
        const double duration_s = u.dev->app(m.feed.app).corun_time_s;
        m.end = m.feed.at + static_cast<sim::Slot>(
                                std::ceil(duration_s / clock_.slot_seconds()));
      }
      feed_next(m.feed, u);
    }
  }

  /// Replay the per-slot accrual sequence for every slot in (u.synced, upto]
  /// — the bit-exact equivalent of the eager loop's energy/battery/thermal
  /// bookkeeping for a span in which the user's phase and presence
  /// are constant (guaranteed: both only change through events, which catch
  /// up before mutating). The session timeline segments the span; each
  /// segment accrues a constant per-slot energy quantum.
  void catch_up(std::size_t index, sim::Slot upto) {
    UserState& u = users_[index];
    if (u.synced >= upto) return;
    if (gap_mode_[index] == kGapAbsent) {
      u.synced = upto;  // absent users burn nothing and never tick
      return;
    }
    const bool training = u.phase == Phase::kTraining;
    const device::Decision decision =
        training ? device::Decision::kSchedule : device::Decision::kIdle;
    const bool overhead = charges_overhead_ &&
                          cfg_.decision_eval_seconds > 0.0 &&
                          u.phase == Phase::kReady;
    const bool slow = cfg_.track_battery || cfg_.enable_thermal || overhead;
    sim::Slot s = u.synced + 1;
    while (s <= upto) {
      advance_session(u.replay_sess, u, s);
      const bool app_on = s < u.replay_sess.end;
      sim::Slot seg_end;
      if (app_on) {
        seg_end = std::min(upto, u.replay_sess.end - 1);
      } else {
        const sim::Slot next_arrival = u.replay_sess.feed.at;
        seg_end = next_arrival > upto ? upto : next_arrival - 1;
      }
      const device::AppStatus status =
          app_on ? device::AppStatus::kApp : device::AppStatus::kNoApp;
      const device::AppKind app = app_on ? u.replay_sess.app : u.train_app;
      if (!slow) {
        u.meter.accrue_repeat(*u.dev, decision, status, app, cfg_.slot_seconds,
                              seg_end - s + 1);
      } else {
        for (sim::Slot k = s; k <= seg_end; ++k) {
          u.meter.accrue(*u.dev, decision, status, app, cfg_.slot_seconds);
          if (overhead) {
            u.meter.accrue_decision_overhead(*u.dev,
                                             cfg_.decision_eval_seconds);
          }
          if (cfg_.track_battery) {
            const double delta = u.meter.total_j() - u.battery_drained_j;
            u.battery_drained_j = u.meter.total_j();
            u.battery.drain(delta);
          }
          if (cfg_.enable_thermal) {
            u.thermal.step(device::power_w(*u.dev, decision, status, app),
                           cfg_.slot_seconds);
            result_.max_temperature_c =
                std::max(result_.max_temperature_c, u.thermal.temperature_c());
          }
        }
      }
      s = seg_end + 1;
    }
    u.synced = upto;
  }

  /// Gap of user i at the end of slot s, for every gap read (user_gap,
  /// per-user traces): accruing users evaluate their closed form, everyone
  /// else holds the value in the column.
  [[nodiscard]] double gap_at(std::size_t i, sim::Slot s) const {
    return gap_mode_[i] == kGapAccrue ? fold_.eval(i, s) : gap_[i];
  }

  // ------------------------------------------------------------- decisions

  /// Server-side lag estimate l_{d_i}: how many currently-training users
  /// will apply an update while `u` would be training (Algorithm 2, line 4).
  /// Answered from the sorted end-slot index of in-flight sessions
  /// (training_ends_) in O(log n) instead of an O(n) fleet scan — the same
  /// count bit for bit (`u` is never in the index when this is called), but
  /// it keeps 10k-user online fleets out of O(n^2) per slot.
  double expected_lag(const UserState& u, device::AppStatus status,
                      device::AppKind app, sim::Slot t) const {
    // Duration-in-slots precomputed per (device, co-run context): the same
    // training_duration_s/slots_for_seconds values, evaluated once.
    const sim::Slot slots =
        lag_slots_[static_cast<std::size_t>(u.dev_kind)]
                  [status == device::AppStatus::kApp
                       ? static_cast<std::size_t>(app)
                       : device::kAppKinds];
    return cached_lag_count(t + slots, t);
  }

  /// Memoized Fenwick prefix count behind expected_lag/lag_count_at: within
  /// one slot the fleet asks for only a handful of distinct end slots
  /// (device kinds x co-run contexts), so counts are cached until the next
  /// index mutation. The memo returns the stored integer — bit-identical by
  /// construction.
  [[nodiscard]] double cached_lag_count(sim::Slot end, sim::Slot t) const {
    if (lag_cache_slot_ != t || lag_cache_version_ != lag_index_version_) {
      lag_cache_slot_ = t;
      lag_cache_version_ = lag_index_version_;
      lag_cache_.clear();
    }
    for (const auto& [cached_end, count] : lag_cache_) {
      if (cached_end == end) return static_cast<double>(count);
    }
    const std::size_t count = training_ends_.count_le(end);
    lag_cache_.emplace_back(end, count);
    return static_cast<double>(count);
  }

  /// Keep the expected_lag index in sync with kTraining phase transitions.
  void index_training_start(sim::Slot end) {
    training_ends_.add(end, +1);
    ++lag_index_version_;
  }

  void index_training_finish(sim::Slot end) {
    training_ends_.add(end, -1);
    ++lag_index_version_;
  }

  // ------------------------------------------------------------- lifecycle

  void start_training(std::size_t index, sim::Slot t) {
    UserState& u = users_[index];
    // Caller guarantees accrual through t-1; bring the replay machine to t
    // so both session machines agree (required before the co-run extension
    // below mutates them).
    assert(u.synced == t - 1);
    advance_session(u.replay_sess, u, t);
    assert(u.replay_sess.feed.at == u.live_sess.feed.at &&
           u.replay_sess.end == u.live_sess.end);
    const bool app_on = t < u.live_sess.end;
    const device::AppStatus status =
        app_on ? device::AppStatus::kApp : device::AppStatus::kNoApp;
    u.training_corun = status == device::AppStatus::kApp;
    u.train_app = app_on ? u.live_sess.app : device::AppKind::kMap;
    double duration = device::training_duration_s(*u.dev, status, u.train_app);
    if (cfg_.enable_thermal) {
      const double factor = u.thermal.throttle_factor();
      duration *= factor;
      result_.worst_throttle_factor =
          std::max(result_.worst_throttle_factor, factor);
      if (factor > 1.01) ++result_.throttled_sessions;
    }
    if (u.training_corun) {
      // System model: the app covers the co-scheduled training task
      // (extend the session to the training duration if it is shorter) —
      // applied to both machines while they are synchronized.
      const sim::Slot needed = clock_.slots_for_seconds(duration);
      if (needed > u.live_sess.end - t) u.live_sess.end = t + needed;
      u.replay_sess.end = u.live_sess.end;
      ++result_.corun_sessions;
    } else {
      ++result_.separate_sessions;
    }
    gap_[index] = fl::gradient_gap(
        cfg_.eta, cfg_.beta, expected_lag(u, status, u.train_app, t),
        momentum_norm());
    u.phase = Phase::kTraining;
    u.phase_end = t + std::max<sim::Slot>(clock_.slots_for_seconds(duration), 1);
    if (cfg_.real_training) {
      const fl::GlobalModel snapshot = server_->download();
      std::vector<float> adopted = snapshot.params;
      if (cfg_.weight_prediction) {
        // Adopt the Eq. (3) prediction of where the global model will be by
        // the time this session's update lands (lag steps of decayed
        // server-side momentum).
        const double lag =
            expected_lag(u, status, u.train_app, t);
        std::vector<float> predicted;
        fl::predict_weights(adopted, server_->momentum_estimate(), cfg_.eta,
                            cfg_.beta, lag, predicted);
        adopted = std::move(predicted);
      }
      if (cfg_.gap_aware_lr && !u.last_upload.empty()) {
        double gap_sq = 0.0;
        for (std::size_t i = 0; i < adopted.size(); ++i) {
          const double d = static_cast<double>(adopted[i]) -
                           static_cast<double>(u.last_upload[i]);
          gap_sq += d * d;
        }
        const double gap = std::sqrt(gap_sq);
        u.client->set_learning_rate(cfg_.eta / (1.0 + gap));
      }
      u.client->load_global(adopted);
      u.version_at_download = snapshot.version;
      if (cfg_.aggregation.kind == fl::AggregationKind::kDelayComp) {
        u.downloaded_params = std::move(adopted);  // corrector's base point
      }
    } else {
      u.version_at_download = synthetic_version_;
    }
    index_training_start(u.phase_end);
    push_event(u.phase_end, index, EventType::kPhaseEnd);
    set_mode(index, t);
  }

  void complete_training(std::size_t index, sim::Slot t) {
    UserState& u = users_[index];
    catch_up(index, t - 1);
    index_training_finish(u.phase_end);
    const double now_s = static_cast<double>(t) * cfg_.slot_seconds;
    // Failure injection: the upload is lost (killed background process or
    // exhausted transfer retries). Energy was spent; no update lands. The
    // accumulated gap persists — the user is now genuinely stale. Barrier
    // schemes are exempt: their server re-requests lost uploads (see
    // Scheduler::reliable_uploads), so they are modelled as reliable.
    if (!scheduler_->reliable_uploads() &&
        cfg_.upload_drop_probability > 0.0 &&
        u.rng.bernoulli(cfg_.upload_drop_probability)) {
      ++result_.dropped_updates;
      begin_transfer(index, t);
      return;
    }
    if (cfg_.real_training) {
      const fl::LocalEpochResult epoch =
          u.client->train_local_epoch(cfg_.batch_size);
      (void)epoch;
      if (scheduler_->uses_round_barrier()) {
        server_->stage_sync(u.client->upload());
        park_at_barrier(index, t);
        return;  // lag/gap settle at the aggregation barrier
      }
      std::vector<float> uploaded = u.client->upload();
      const fl::UpdateReceipt receipt = server_->submit_async(
          uploaded, u.version_at_download, u.downloaded_params);
      if (cfg_.gap_aware_lr) u.last_upload = std::move(uploaded);
      record_update(index, now_s, receipt.lag, receipt.gradient_gap);
    } else {
      if (scheduler_->uses_round_barrier()) {
        park_at_barrier(index, t);
        return;
      }
      const std::uint64_t lag = synthetic_version_ - u.version_at_download;
      const double gap = fl::gradient_gap(cfg_.eta, cfg_.beta,
                                          static_cast<double>(lag),
                                          momentum_model_.momentum_norm());
      ++synthetic_version_;
      momentum_model_.on_global_update();
      record_update(index, now_s, lag, gap);
    }
    gap_[index] = 0.0;
    scheduler_->on_update_applied(index, t);
    begin_transfer(index, t);
  }

  void park_at_barrier(std::size_t index, sim::Slot t) {
    UserState& u = users_[index];
    gap_[index] = 0.0;
    scheduler_->on_update_applied(index, t);
    u.phase = Phase::kBarrier;
    ++barrier_count_;
    sync_active(index, t);
    set_mode(index, t);
  }

  void record_update(std::size_t user, double now_s, std::uint64_t lag,
                     double gap) {
    ++result_.total_updates;
    lag_sum_ += static_cast<double>(lag);
    gap_sum_ += gap;
    result_.lag_gap_samples.push_back({now_s, lag, gap, user});
    if (slot_sampled_) {
      // user == users_.size() is the sync-round sentinel: the aggregated
      // round's receipt, not one user's — streamed as u = -1.
      events_->emit(obs::Event::update(
          cur_,
          user == users_.size() ? -1 : static_cast<std::int64_t>(user),
          static_cast<std::int64_t>(lag), gap));
    }
    // Recorded once per applied update — hot on big fleets, so the series
    // lookup is resolved once (map nodes are stable across insertions).
    if (server_gap_series_ == nullptr) {
      server_gap_series_ = &result_.traces.series("server_gap");
    }
    server_gap_series_->add(now_s, gap);
  }

  void begin_transfer(std::size_t index, sim::Slot t) {
    UserState& u = users_[index];
    // Upload the local model, then download the fresh global copy, over
    // the user's own network tier — degraded by the user's active netem
    // phases when a fault profile covers this hour of day.
    const auto transfer_pair = [&](const net::Link& link) {
      const net::TransferResult up = link.transfer(model_bytes_, u.rng);
      const net::TransferResult down = link.transfer(model_bytes_, u.rng);
      result_.network_j += up.energy_j + down.energy_j;
      return up.duration_s + down.duration_s;
    };
    double seconds;
    const std::uint32_t mask =
        degrade_mask_.empty() ? 0u : degrade_mask_[index];
    const scenario::NetemEffect eff =
        mask == 0 ? scenario::NetemEffect{}
                  : scenario::netem_effect(
                        mask, std::fmod(static_cast<double>(t) *
                                            cfg_.slot_seconds,
                                        86400.0) /
                                  3600.0);
    if (eff.active) {
      net::LinkConfig lc = u.link->config();
      lc.loss_probability =
          std::clamp(lc.loss_probability * eff.loss_mult, 0.0, 1.0);
      lc.latency_ms *= eff.latency_mult;
      lc.bandwidth_mbps *= eff.bandwidth_mult;
      seconds = transfer_pair(net::Link{lc});
    } else {
      seconds = transfer_pair(*u.link);
    }
    u.phase = Phase::kTransferring;
    u.phase_end = t + std::max<sim::Slot>(clock_.slots_for_seconds(seconds), 1);
    push_event(u.phase_end, index, EventType::kPhaseEnd);
    set_mode(index, t);
  }

  void evaluate(double now_s) {
    const fl::EvalResult eval = fl::evaluate_params(
        *prototype_, server_->download().params, dataset_.test);
    result_.traces.record("accuracy", now_s, eval.accuracy);
    result_.traces.record("loss", now_s, eval.loss);
    result_.final_accuracy = eval.accuracy;
    result_.final_loss = eval.loss;
  }

  // ------------------------------------------------------------- finalize

  ExperimentResult finalize() {
    watch_.start();
    // Materialize every outstanding lazy span through the last slot the
    // eager loop would have accrued.
    for (std::size_t i = 0; i < users_.size(); ++i) {
      catch_up(i, cfg_.horizon_slots - 1);
    }
    std::vector<double> user_energy;
    user_energy.reserve(users_.size());
    for (const UserState& u : users_) {
      result_.total_energy_j += u.meter.total_j();
      result_.training_j += u.meter.training_j();
      result_.corun_j += u.meter.corun_j();
      result_.app_j += u.meter.app_j();
      result_.idle_j += u.meter.idle_j();
      result_.overhead_j += u.meter.overhead_j();
      user_energy.push_back(u.meter.total_j());
      if (cfg_.track_battery) {
        result_.battery_cycles_total += u.battery.equivalent_cycles();
        result_.battery_recharges += u.battery.recharge_count();
      }
    }
    result_.total_energy_j += result_.network_j;
    // Summary percentile digests (docs/observability.md): per-slot queue
    // observables, per-applied-update lag/gap, per-user energy.
    result_.summary.queue_q = util::percentiles(queue_q_samples_);
    result_.summary.queue_h = util::percentiles(queue_h_samples_);
    {
      std::vector<double> lags;
      std::vector<double> gaps;
      lags.reserve(result_.lag_gap_samples.size());
      gaps.reserve(result_.lag_gap_samples.size());
      for (const LagGapSample& s : result_.lag_gap_samples) {
        lags.push_back(static_cast<double>(s.lag));
        gaps.push_back(s.gap);
      }
      result_.summary.lag = util::percentiles(lags);
      result_.summary.gap = util::percentiles(gaps);
    }
    result_.summary.user_energy_j = util::percentiles(user_energy);
    result_.avg_queue_q = queue_q_stats_.mean();
    result_.avg_queue_h = queue_h_stats_.mean();
    result_.final_queue_q = scheduler_->queue_q();
    result_.final_queue_h = scheduler_->queue_h();
    if (result_.total_updates > 0) {
      result_.avg_lag = lag_sum_ / static_cast<double>(result_.total_updates);
      result_.avg_gap = gap_sum_ / static_cast<double>(result_.total_updates);
    }
    if (cfg_.real_training) {
      evaluate(static_cast<double>(cfg_.horizon_slots) * cfg_.slot_seconds);
    }
    if (events_ != nullptr) events_->flush();
    result_.summary.timing.finalize_s = watch_.lap_s();
    return std::move(result_);
  }

  ExperimentConfig cfg_;
  sim::Clock clock_;
  util::Rng master_rng_;
  std::unique_ptr<Scheduler> scheduler_;
  net::Link wifi_link_;
  net::Link lte_link_;
  fl::SyntheticMomentumModel momentum_model_;
  /// End slots of users currently in kTraining (the expected_lag index;
  /// see index_training_start/finish).
  TrainingEndIndex training_ends_;
  std::uint64_t lag_index_version_ = 0;
  mutable std::vector<std::pair<sim::Slot, std::size_t>> lag_cache_;
  mutable sim::Slot lag_cache_slot_ = -1;
  mutable std::uint64_t lag_cache_version_ = 0;
  /// [device kind][app or kAppKinds for no-app] -> training duration in
  /// slots (the expected_lag lookahead).
  std::vector<std::array<sim::Slot, device::kAppKinds + 1>> lag_slots_;

  data::SynthCifar dataset_;
  std::optional<nn::Network> prototype_;
  std::optional<fl::ParameterServer> server_;
  std::size_t model_bytes_ = 2'500'000;

  std::vector<UserState> users_;
  /// Per-user scheduling weights (VIP classes). Left unallocated for the
  /// common all-1.0 fleet — user_priority answers 1.0 without a table.
  std::vector<double> priority_;
  /// Per-user gap values g_i (Eq. 12): exact for non-accruing users;
  /// accruing users read fold_ instead.
  std::vector<double> gap_;
  /// GapMode byte per user: its Eq. 12 accumulator class.
  std::vector<unsigned char> gap_mode_;
  /// Folded-accrual engine: closed-form per-user gaps and the O(1) G(t)
  /// accumulators.
  FoldedGapAccrual fold_;
  std::vector<apps::ScriptedArrivals::Event> trace_events_;  ///< CSV replay
  /// Trace-driven fleet (cfg.arrival_trace_dir): loaded once on first use.
  apps::TraceFleet trace_fleet_;
  /// Flat pool of every user's later presence windows (commute cycles,
  /// outage recovery); UserState addresses its slice by index.
  std::vector<scenario::PresenceWindow> extra_windows_;
  /// Per-user netem-profile bitmasks (scenario degradations). Left empty
  /// when no user is degraded, so the fault-free begin_transfer path costs
  /// one empty() check.
  std::vector<std::uint32_t> degrade_mask_;
  std::uint32_t degrade_union_ = 0;  ///< OR of every user's mask
  std::uint32_t link_bits_ = 0;      ///< last emitted active-phase bits
  /// Outage markers sorted by start (observability only; see step()).
  std::vector<ExperimentConfig::OutageWindow> outages_;
  std::size_t next_outage_ = 0;
  /// Fleet-shared arrival-script storage: every script-mode user's events
  /// live here as the slice [script_begin, script_end) — one allocation for
  /// the whole fleet instead of one vector per user. Indices (not
  /// pointers), so growth during setup is safe.
  std::vector<apps::ScriptedArrivals::Event> script_arena_;
  /// Lazy stream mode: per-user arrival laws; UserState::stream_params
  /// points into this (sized once before the user loop, never reallocated).
  std::vector<apps::ArrivalStreamParams> stream_params_;

  /// Calendar event queue: one bucket per slot (push_event drops slots past
  /// the horizon, so the index is always in range). See the step() drain.
  std::vector<std::vector<Event>> event_buckets_;
  /// Rows of the ready users consulted every slot (ascending user). The
  /// merge consumes them into due_; the batch's idle outcomes refill it.
  std::vector<ReadyRow> hot_;
  std::vector<ReadyRow> due_;     ///< this slot's batch for decide_batch
  std::vector<ReadyRow> gated_;   ///< battery-gated rows (stay in hot_)
  std::vector<std::uint32_t> decide_scratch_;  ///< became ready/woke this slot
  std::vector<std::uint32_t> left_ready_;      ///< ready users that left this slot
  /// User of the batch's latest schedule() (recheck_gap); reset per batch.
  std::uint32_t last_scheduled_ = 0;
  std::size_t barrier_count_ = 0;    ///< users parked at the sync barrier
  std::size_t active_present_ = 0;   ///< present users not at the barrier
  bool charges_overhead_ = false;
  bool gate_ready_hot_ = false;
  sim::Slot cur_ = 0;
  double slot_arrivals_ = 0.0;
  double slot_served_ = 0.0;
  double slot_departed_ = 0.0;

  double pending_arrivals_ = 0.0;
  std::uint64_t synthetic_version_ = 0;
  double next_eval_s_ = 0.0;
  double lag_sum_ = 0.0;
  double gap_sum_ = 0.0;
  util::RunningStats queue_q_stats_;
  util::RunningStats queue_h_stats_;
  /// Full per-slot Q/H series for the summary percentiles (reserved to the
  /// horizon in the ctor; 16 bytes per slot).
  std::vector<double> queue_q_samples_;
  std::vector<double> queue_h_samples_;
  /// Observability hooks (RunHooks): the attached sink (null = off) and
  /// the slot-sampling stride; slot_sampled_ is the per-slot gate every
  /// emission site checks.
  obs::EventSink* events_ = nullptr;
  sim::Slot events_every_ = 1;
  bool slot_sampled_ = false;
  /// Phase lap timer behind summary.timing (steady_clock; excluded from
  /// fingerprints and --save-result archives).
  util::Stopwatch watch_;
  ExperimentResult result_;
  util::TimeSeries* server_gap_series_ = nullptr;  ///< see record_update
};

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  return run_experiment(config, RunHooks{});
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                const RunHooks& hooks) {
  util::Stopwatch total;
  util::Stopwatch phase;
  Driver driver{config, hooks};
  const double setup_s = phase.lap_s();
  ExperimentResult result = driver.run();
  result.summary.timing.setup_s = setup_s;
  result.summary.timing.total_s = total.elapsed_s();
  return result;
}

}  // namespace fedco::core
