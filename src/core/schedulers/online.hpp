// Online scheduling: the distributed Lyapunov drift-plus-penalty rule of
// Algorithm 2 / Eq. (21). The strategy owns the OnlineScheduler (queue
// state + decision rule) and feeds it per-user inputs assembled from the
// driver context; the driver stays scheme-agnostic. The per-slot consults
// arrive through decide_batch — the paper's centralized Sec. V-A variant:
// one pass over the due ReadyRows, slot-invariant terms hoisted, an exact
// idle screen settling most rows without a lag lookup. Decisions are
// bit-identical to the per-user decide() loop (same arithmetic, same
// order, same intra-slot coupling through the DecisionSink);
// core_batch_engine_test holds the two against each other.
#pragma once

#include <array>
#include <vector>

#include "core/online_scheduler.hpp"
#include "core/scheduler.hpp"

namespace fedco::core {

class OnlineLyapunovScheduler final : public Scheduler {
 public:
  explicit OnlineLyapunovScheduler(const ExperimentConfig& config)
      : online_({config.V, config.lb, config.epsilon, config.slot_seconds,
                 config.eta, config.beta}),
        decision_interval_slots_(config.decision_interval_slots),
        churn_aware_(config.online_churn_aware) {
    // Eq. (10) power levels of the two candidate actions, precomputed per
    // (device kind, foreground app | no-app): the same device::power_w
    // values decide() derives per call, evaluated once. Column kAppKinds
    // is the no-app state (decide() passes kMap there, matching
    // app.value_or in the scalar path).
    for (std::size_t k = 0; k < device::kDeviceKinds; ++k) {
      const device::DeviceProfile& dev =
          device::profile(static_cast<device::DeviceKind>(k));
      for (std::size_t a = 0; a <= device::kAppKinds; ++a) {
        const device::AppStatus status = a < device::kAppKinds
                                             ? device::AppStatus::kApp
                                             : device::AppStatus::kNoApp;
        const device::AppKind app = a < device::kAppKinds
                                        ? static_cast<device::AppKind>(a)
                                        : device::AppKind::kMap;
        power_[k * kColumns + a] = {
            device::power_w(dev, device::Decision::kSchedule, status, app),
            device::power_w(dev, device::Decision::kIdle, status, app)};
      }
    }
  }

  [[nodiscard]] SchedulerKind kind() const noexcept override {
    return SchedulerKind::kOnline;
  }

  [[nodiscard]] device::Decision decide(std::size_t user, sim::Slot t,
                                        SchedulerContext& ctx) override;

  /// The batched Sec. V-A pass (see the file comment).
  void decide_batch(const ReadyRow* rows, std::size_t count, sim::Slot t,
                    SchedulerContext& ctx, DecisionSink& sink) override;

  void on_experiment_begin(SchedulerContext& ctx) override {
    // Priority weights are static for a run; one scan decides whether the
    // hot decision loops consult them at all — all-1.0 fleets never pay a
    // per-user virtual call for a term that is the exact identity.
    has_priority_ = false;
    for (std::size_t i = 0; i < ctx.num_users(); ++i) {
      if (ctx.user_priority(i) != 1.0) {
        has_priority_ = true;
        break;
      }
    }
  }

  /// ||v_t|| is constant across one slot's decide() calls (global updates
  /// land during completion events, before on_slot_begin), so it is read
  /// once per slot instead of once per ready user.
  void on_slot_begin(sim::Slot t, SchedulerContext& ctx) override {
    (void)t;
    momentum_norm_ = ctx.momentum_norm();
  }

  void on_slot_end(double arrivals, double served, double sum_gaps) override {
    online_.update_queues(arrivals, served, sum_gaps);
  }

  /// Coarsened scheduling granularity: between evaluation slots decide()
  /// returns kIdle without reading any state, so ready users can be parked
  /// until the next multiple of the decision interval.
  [[nodiscard]] sim::Slot ready_parked_until(std::size_t user,
                                             sim::Slot t) const override {
    (void)user;
    if (decision_interval_slots_ <= 1) return t + 1;
    return (t / decision_interval_slots_ + 1) * decision_interval_slots_;
  }

  [[nodiscard]] bool charges_decision_overhead() const noexcept override {
    return true;
  }

  [[nodiscard]] double queue_q() const noexcept override {
    return online_.queues().q();
  }
  [[nodiscard]] double queue_h() const noexcept override {
    return online_.queues().h();
  }

 private:
  static constexpr std::size_t kColumns = device::kAppKinds + 1;
  static constexpr std::size_t kClasses = device::kDeviceKinds * kColumns;

  struct PowerPair {
    double schedule = 0.0;
    double idle = 0.0;
  };

  /// Per-slot state of one (device, app column) class, built on the
  /// class's first row in a batch — O(classes met) per slot.
  struct ClassSlot {
    sim::Slot slot = -1;  ///< slot this entry was built for
    sim::Slot end = 0;    ///< training_end_slot of a session started now
    OnlineScheduler::IdleScreen screen;  ///< at the slot-start lag
  };

  /// The Eq. (21) H(t) discount/boost of one user: priority weight times —
  /// under online_churn_aware — the remaining-presence fraction of a
  /// session started now (1 when it completes before the departure, the
  /// completed fraction otherwise). One definition shared by the scalar
  /// and batched paths so the two compute the identical double product.
  [[nodiscard]] double h_scale_for(SchedulerContext& ctx, std::size_t user,
                                   sim::Slot t, sim::Slot end) const {
    double scale = has_priority_ ? ctx.user_priority(user) : 1.0;
    if (churn_aware_) {
      const sim::Slot leave = ctx.user_leave_slot(user);
      if (leave != scenario::kNeverLeaves && end > t) {
        const sim::Slot remaining = leave > t ? leave - t : 0;
        const sim::Slot need = end - t;
        if (remaining < need) {
          scale *= static_cast<double>(remaining) / static_cast<double>(need);
        }
      }
    }
    return scale;
  }

  OnlineScheduler online_;
  sim::Slot decision_interval_slots_;
  bool churn_aware_;
  /// Any user with a priority weight != 1.0? (see on_experiment_begin)
  bool has_priority_ = false;
  double momentum_norm_ = 0.0;  ///< per-slot cache (see on_slot_begin)
  /// [device kind * kColumns + app column] -> Eq. (10) power levels.
  std::array<PowerPair, kClasses> power_{};
  std::array<ClassSlot, kClasses> class_slots_{};
  /// decide_batch scratch: positions of the rows left for exact evaluation.
  std::vector<std::uint32_t> candidates_;
};

}  // namespace fedco::core
