// The pluggable scheduling-strategy interface.
//
// The experiment driver (core/experiment.cpp) advances a scheme-agnostic
// slot loop — devices, app arrivals, queues, energy meters, and the
// parameter server — and delegates every scheme-specific decision to a
// `Scheduler` implementation living in src/core/schedulers/. The four
// schemes the paper compares (Sec. VII-B) each implement this interface:
//
//   immediate  — train as soon as ready (energy upper bound)
//   sync_sgd   — FedAvg round barrier [2]
//   offline    — windowed knapsack oracle (Sec. IV, Algorithm 1)
//   online     — Lyapunov drift-plus-penalty (Sec. V, Algorithm 2)
//
// Contract (the §6 determinism contract extends to strategies):
//  * A strategy must be deterministic in the experiment config — it may
//    keep arbitrary scheme-owned state but must not consume driver RNG
//    streams or depend on wall-clock/thread identity.
//  * Hooks are invoked in a fixed per-slot order: completions (including
//    `on_user_ready` for users finishing their transfer) -> `on_slot_begin`
//    -> one `decide` per due ready user in user-index order (delivered as
//    a single `decide_batch` call over ReadyRows whose default
//    implementation is exactly that scalar loop) -> energy/gap accounting
//    -> `on_slot_end`.
//  * `queue_q`/`queue_h` are sampled once per slot after `on_slot_end` and
//    must be cheap; schemes without Lyapunov queues report 0.
//  * The driver is event-driven (DESIGN.md §9): per-user state read through
//    the context accessors is materialized lazily on access, so a strategy
//    must never assume the driver refreshed the whole fleet this slot —
//    fleet-wide conclusions come from the O(1) counters (barrier_count,
//    active_present_count). A ready user whose decide() returned kIdle is
//    only re-consulted at ready_parked_until(); strategies that can promise
//    an idle span (a cached window plan, a decision interval) return a
//    future slot there to take per-slot work off the driver's hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "apps/arrival.hpp"
#include "core/experiment.hpp"
#include "core/gap_accrual.hpp"
#include "device/power_model.hpp"
#include "device/profiles.hpp"
#include "sim/clock.hpp"

namespace fedco::core {

/// One due ready user as the decide batch receives it: a packed copy of
/// everything Eq. (21) reads, kept by the driver across slots (the gap
/// fields never move while the user stays ready; the session fields are
/// re-derived at `app_until`). 24 bytes: ~800k rows at slot 0 of 1M users.
struct ReadyRow {
  double gap_base = 0.0;        ///< folded-gap base (FoldedGapAccrual)
  std::int32_t gap_anchor = 0;  ///< folded-gap anchor slot
  std::uint32_t user = 0;
  /// First slot `app` may stop holding (int32-clamped): the session end
  /// while an app is on screen (arrivals absorbed), else the next arrival.
  std::int32_t app_until = 0;
  std::uint8_t device = 0;  ///< device::DeviceKind
  std::uint8_t app = 0;     ///< AppKind on screen, or kAppKinds for none

  /// Gap g_i (Eq. 12) at the end of slot `s`: FoldedGapAccrual::eval's
  /// closed form on the row's copy of its columns.
  [[nodiscard]] double gap(std::int64_t s, double epsilon) const noexcept {
    return folded_gap(gap_base, gap_anchor, s, epsilon);
  }
};
static_assert(sizeof(ReadyRow) == 24, "ReadyRow must stay 24 bytes");

/// The driver-side view a strategy sees. Implemented by the experiment
/// driver; exposes read access to per-user simulation state plus the two
/// services a scheme may request (the sync aggregation round and the
/// offline oracle's arrival look-ahead).
class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;

  [[nodiscard]] virtual std::size_t num_users() const noexcept = 0;

  /// Is the user idle and eligible for a scheduling decision this slot?
  [[nodiscard]] virtual bool user_ready(std::size_t user) const = 0;
  /// Is the user inside its scenario presence window this slot (or still
  /// draining in-flight work)? Homogeneous fleets: always true. Schemes
  /// must not wait on (or plan for) absent users — a churned-out user at a
  /// round barrier would otherwise deadlock the round.
  [[nodiscard]] virtual bool user_present(std::size_t user,
                                          sim::Slot t) const = 0;
  /// Users currently parked at the synchronous round barrier — maintained
  /// incrementally by the driver, O(1) per slot (the event-driven
  /// replacement for scanning the fleet each slot).
  [[nodiscard]] virtual std::size_t barrier_count() const noexcept = 0;
  /// Present users NOT at the barrier (idle, training, or transferring) as
  /// of the current slot — the sync barrier's stragglers, O(1).
  [[nodiscard]] virtual std::size_t active_present_count() const noexcept = 0;
  [[nodiscard]] virtual const device::DeviceProfile& user_device(
      std::size_t user) const = 0;
  /// Foreground app currently on screen, if any. Non-const: the driver
  /// materializes the user's lazy session machine through the current slot
  /// on access.
  [[nodiscard]] virtual std::optional<device::AppKind> user_app(
      std::size_t user) = 0;
  /// Accumulated gradient gap g_i (Eq. 12) of the user, as of the end of
  /// the previous slot.
  [[nodiscard]] virtual double user_gap(std::size_t user) const = 0;
  /// Server-side momentum norm ||v_t|| (real or synthetic model).
  [[nodiscard]] virtual double momentum_norm() const = 0;
  /// End of the user's current presence window (scenario::kNeverLeaves for
  /// homogeneous fleets and never-churning users).
  [[nodiscard]] virtual sim::Slot user_leave_slot(std::size_t user) const = 0;
  /// Scheduling weight of the user (PerUserConfig::priority; 1.0 =
  /// standard).
  [[nodiscard]] virtual double user_priority(std::size_t user) const = 0;
  /// End slot of a training session started at `t` in the given app
  /// context — t + the user's Table II duration in slots, the query point
  /// of lag_count_at.
  [[nodiscard]] virtual sim::Slot training_end_slot(std::size_t user,
                                                    device::AppStatus status,
                                                    device::AppKind app,
                                                    sim::Slot t) const = 0;

  /// Server lag estimate l_{d_i} (Algorithm 2, line 4) for a session ending
  /// at `end_slot` (a training_end_slot() answer): the memoized count of
  /// in-flight training sessions ending at or before it. Ask only for a
  /// user being considered for scheduling — the index would count the
  /// asker's own session if it were mid-training. Must be read per user
  /// AFTER earlier users' schedule() outcomes were applied (a schedule
  /// invalidates the memo) — the scalar loop's intra-slot coupling. Within
  /// one decide batch the count never decreases: schedules only add
  /// training ends, and completions run in the events phase.
  [[nodiscard]] virtual double lag_count_at(sim::Slot end_slot) const = 0;

  /// Offline-oracle service: the user's first scripted app arrival in
  /// [from, until), advancing the oracle cursor past stale entries. Only
  /// for a scheme whose looks_ahead() is true.
  [[nodiscard]] virtual std::optional<apps::ArrivalEvent>
  next_arrival_between(std::size_t user, sim::Slot from, sim::Slot until) = 0;

  /// Sync-SGD service: aggregate the staged round now and send every user
  /// into the model transfer phase. Only meaningful when all users are at
  /// the barrier.
  virtual void aggregate_round(sim::Slot t) = 0;

  /// Observability tap for scheme-side events: the offline scheme reports
  /// each plan-window recompute here (`items` users entered the window
  /// knapsack, `scheduled` received a non-defer plan). The driver counts
  /// it into the run summary and forwards it to an attached event stream;
  /// write-only instrumentation — the default ignores it, and strategies
  /// must never branch on any effect of calling it (the events-on ≡
  /// events-off contract).
  virtual void note_replan(sim::Slot t, std::size_t items,
                           std::size_t scheduled) {
    (void)t;
    (void)items;
    (void)scheduled;
  }
};

/// One scheduling strategy. Strategies own their scheme state (window
/// plans, Lyapunov queues, ...) and are constructed per experiment run via
/// make_scheduler(); see the file comment for the hook ordering contract.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual SchedulerKind kind() const noexcept = 0;
  [[nodiscard]] const char* name() const noexcept {
    return scheduler_name(kind());
  }

  /// Called once, after the driver created all users, before slot 0.
  virtual void on_experiment_begin(SchedulerContext& ctx) { (void)ctx; }

  /// Called every slot after completions were processed and before any
  /// decide() call: the place for barrier aggregation and window replans.
  virtual void on_slot_begin(sim::Slot t, SchedulerContext& ctx) {
    (void)t;
    (void)ctx;
  }

  /// Called when `user` finishes its model transfer and becomes ready.
  virtual void on_user_ready(std::size_t user, sim::Slot t,
                             SchedulerContext& ctx) {
    (void)user;
    (void)t;
    (void)ctx;
  }

  /// The per-user scheduling decision for a ready user (the driver applies
  /// scheme-agnostic gating — e.g. the battery SoC condition — first).
  [[nodiscard]] virtual device::Decision decide(std::size_t user, sim::Slot t,
                                                SchedulerContext& ctx) = 0;

  /// Driver-owned outcome sink for decide_batch(). Rows are addressed by
  /// batch position; every row is reported exactly once, in order.
  class DecisionSink {
   public:
    virtual ~DecisionSink() = default;
    /// Apply a kSchedule decision for rows[k] now: the driver starts the
    /// training session before the strategy evaluates the next row, so
    /// later evaluations observe it through lag_count_at — exactly the
    /// scalar loop's intra-slot coupling.
    virtual void schedule(std::size_t k) = 0;
    /// Record kIdle for rows[from, to), parked until `until` — exactly what
    /// ready_parked_until(row.user, t) returns (t + 1 keeps the row hot).
    /// One call per run of idle rows: screened rows cost no call.
    virtual void idle(std::size_t from, std::size_t to, sim::Slot until) = 0;
    /// Hint that rows[k] is about to be evaluated exactly (and likely
    /// scheduled): the driver may prefetch its state. Changes no outcome.
    virtual void prefetch(std::size_t k) { (void)k; }
  };

  /// Batched decision pass: one call per slot covering every due ready
  /// user as a ReadyRow (strictly ascending user order, one row per user,
  /// already driver-gated), replacing the per-user decide() consult. The
  /// contract is strict sequential equivalence — the sink must receive
  /// exactly the decisions the scalar decide() loop would produce, with
  /// sink.schedule() invoked before the next row is evaluated. The default
  /// implementation IS that scalar loop, so immediate, sync_sgd and
  /// offline are untouched; the online scheme overrides it with the
  /// one-pass Sec. V-A evaluation.
  virtual void decide_batch(const ReadyRow* rows, std::size_t count,
                            sim::Slot t, SchedulerContext& ctx,
                            DecisionSink& sink) {
    for (std::size_t k = 0; k < count; ++k) {
      if (decide(rows[k].user, t, ctx) == device::Decision::kSchedule) {
        sink.schedule(k);
      } else {
        sink.idle(k, k + 1, ready_parked_until(rows[k].user, t));
      }
    }
  }

  /// Called when an update from `user` was applied to the global model
  /// (for the barrier scheme: when the user's upload was staged).
  virtual void on_update_applied(std::size_t user, sim::Slot t) {
    (void)user;
    (void)t;
  }

  /// End-of-slot bookkeeping: A(t) users became ready, b(t) were scheduled,
  /// G(t) is the summed per-user gap (the Eq. 15/16 inputs). Called every
  /// slot with the exact G(t), whatever the strategy.
  virtual void on_slot_end(double arrivals, double served, double sum_gaps) {
    (void)arrivals;
    (void)served;
    (void)sum_gaps;
  }

  // ------------------------------------------------------ policy traits

  /// Parking promise for the event-driven driver. Called after decide()
  /// returned kIdle for a ready `user` at slot `t`: the strategy guarantees
  /// decide(user, s) == kIdle for every slot t < s < returned slot, no
  /// matter how driver state evolves. The driver then skips the user until
  /// that slot. The default (t + 1) promises nothing — the user stays on
  /// the every-slot hot path.
  [[nodiscard]] virtual sim::Slot ready_parked_until(std::size_t user,
                                                     sim::Slot t) const {
    (void)user;
    return t + 1;
  }

  /// Do completed sessions park at a round barrier (FedAvg) instead of
  /// submitting asynchronously?
  [[nodiscard]] virtual bool uses_round_barrier() const noexcept {
    return false;
  }

  /// Are uploads exempt from failure injection? (The sync server re-requests
  /// lost uploads rather than deadlocking its barrier.)
  [[nodiscard]] virtual bool reliable_uploads() const noexcept {
    return false;
  }

  /// Is per-slot decision-evaluation energy charged to ready users
  /// (Table III overhead accounting)?
  [[nodiscard]] virtual bool charges_decision_overhead() const noexcept {
    return false;
  }

  /// Does the scheme read SchedulerContext::next_arrival_between? Only then
  /// does the driver keep a look-ahead cursor per user.
  [[nodiscard]] virtual bool looks_ahead() const noexcept { return false; }

  // ------------------------------------------------------ observables

  /// Actual queue backlog Q(t); 0 for schemes without Lyapunov queues.
  [[nodiscard]] virtual double queue_q() const noexcept { return 0.0; }
  /// Virtual staleness queue H(t); 0 for schemes without Lyapunov queues.
  [[nodiscard]] virtual double queue_h() const noexcept { return 0.0; }
};

/// Instantiate the strategy for config.scheduler. The config must pass
/// validate; run_experiment, the only caller, checks it first.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    const ExperimentConfig& config);

}  // namespace fedco::core
