// The distributed online scheduler (Algorithm 2): per-slot, per-user
// drift-plus-penalty minimisation
//
//   alpha_i(t) = argmin  V*P_i(t) - Q(t)*b_i(t) + H(t)*g_i(t, t+tau_i)
//
// specialised into the no-staleness branch (Eq. 22) when H(t)*g == 0 and the
// with-staleness branch (Eq. 23) otherwise. Each user's evaluation is O(1);
// the server only supplies the lag estimate (privacy discussion, Sec. V-A).
#pragma once

#include <cmath>
#include <vector>

#include "core/queues.hpp"
#include "device/power_model.hpp"
#include "fl/staleness.hpp"

namespace fedco::core {

struct OnlineSchedulerConfig {
  double V = 4000.0;        ///< energy-vs-staleness control knob
  double lb = 500.0;        ///< staleness bound Lb (virtual-queue service)
  double epsilon = 0.05;    ///< per-slot idle gap increment (Eq. 12)
  double slot_seconds = 1.0;
  double eta = 0.05;        ///< learning rate (Eq. 4)
  double beta = 0.9;        ///< momentum coefficient (Eq. 4)
};

/// Everything a user needs to evaluate Eq. (21) for itself at slot t.
struct OnlineDecisionInput {
  device::AppStatus app_status = device::AppStatus::kNoApp;
  device::AppKind app = device::AppKind::kMap;  ///< valid when app_status==kApp
  double current_gap = 0.0;     ///< accumulated g_i(t-1, t+tau-1)
  double expected_lag = 0.0;    ///< l_{d_i} supplied by the server
  double momentum_norm = 0.0;   ///< ||v_t||_2
  /// Per-user discount/boost on the H(t) staleness term: the churn-aware
  /// remaining-presence factor times the user's priority weight. 1.0 (the
  /// default) is the exact identity — h * 1.0 == h bit for bit, so
  /// oblivious runs stay on the committed goldens.
  double h_scale = 1.0;
};

/// Detailed outcome of one decision evaluation (exposed for tests/benches).
struct OnlineDecisionOutcome {
  device::Decision decision = device::Decision::kIdle;
  double cost_schedule = 0.0;
  double cost_idle = 0.0;
  double gap_if_scheduled = 0.0;  ///< Eq. (4) value used on the schedule branch
};

class OnlineScheduler {
 public:
  explicit OnlineScheduler(OnlineSchedulerConfig config)
      : config_(config), queues_(config.lb) {}

  /// Evaluate Eq. (21) for one user given the current queue backlogs
  /// (the distributed implementation of Algorithm 2: each user computes
  /// this locally from its own app status plus the server-supplied lag).
  [[nodiscard]] OnlineDecisionOutcome decide(
      const device::DeviceProfile& dev, const OnlineDecisionInput& input) const;

  /// Batched core of decide() for the one-pass Sec. V-A evaluation: the
  /// caller hoists the slot-invariant queue backlogs and precomputes the
  /// two candidate power levels (the same device::power_w values decide()
  /// derives per call), and this evaluates Eq. (21) with arithmetic
  /// identical to decide() — the batched-vs-scalar golden suite pins the
  /// two paths to the same fingerprints.
  [[nodiscard]] device::Decision decide_batched(double p_schedule,
                                                double p_idle,
                                                double current_gap,
                                                double expected_lag,
                                                double momentum_norm, double q,
                                                double h) const {
    return evaluate(p_schedule, p_idle, current_gap, expected_lag,
                    momentum_norm, q, h)
        .decision;
  }

  /// One slot's schedule-cost floor for a (device, app) class: the Eq. (21)
  /// inputs that do not vary per user, with Eq. (4)'s gap at `lag_floor`.
  struct IdleScreen {
    double p_schedule = 0.0;
    double p_idle = 0.0;
    double q = 0.0;
    double gap_if_scheduled = 0.0;  ///< |eta|*amp(lag_floor)*||v||
    double lag_floor = 0.0;
  };
  [[nodiscard]] IdleScreen idle_screen(double p_schedule, double p_idle,
                                       double lag_floor, double momentum_norm,
                                       double q) const {
    return {p_schedule, p_idle, q, gap_if_scheduled(lag_floor, momentum_norm),
            lag_floor};
  }

  /// The exact idle screen: true proves decide_batched() returns kIdle for
  /// a user with `current_gap` and weight `h` at EVERY integral lag in
  /// [lag_floor, lag_floor + reach]; false means "evaluate exactly". Why
  /// (docs/algorithms.md §3):
  ///  * Both costs are evaluate()'s own helpers on the same doubles; the
  ///    idle cost ignores the lag; a NaN fails the strict comparison.
  ///  * The schedule cost V*P_s*tau - Q + h*(|eta|*amp(lag)*||v||) does not
  ///    decrease as amp grows: each step is a sum or a round-to-nearest
  ///    product by a factor >= 0 (|eta|, ||v||, and h, checked here), and
  ///    IEEE rounding is monotone.
  ///  * libm's pow is not assumed monotone: the amp memo is checked entry
  ///    by entry as it grows, and the screen fires only when every lag
  ///    through lag_floor + reach lies in the checked nondecreasing prefix.
  /// The batch passes the slot-start lag and the earlier candidates' count:
  /// lags only grow within a batch, by at most one per schedule.
  [[nodiscard]] bool screened_idle(const IdleScreen& s, double current_gap,
                                   double h, std::size_t reach) const {
    return h >= 0.0 && amplification_nondecreasing(s.lag_floor, reach) &&
           idle_cost(s.p_idle, current_gap, h) <
               schedule_cost(s.p_schedule, s.gap_if_scheduled, s.q, h);
  }

  /// End-of-slot queue update (server side of Algorithm 2).
  void update_queues(double arrivals, double served, double sum_gaps) noexcept {
    queues_.step(arrivals, served, sum_gaps);
  }

  [[nodiscard]] const LyapunovQueues& queues() const noexcept { return queues_; }
  [[nodiscard]] const OnlineSchedulerConfig& config() const noexcept {
    return config_;
  }

  void reset() noexcept { queues_.reset(); }

 private:
  /// Eq. (4) momentum amplification (1 - beta^lag) / (1 - beta), memoized
  /// for integral lags. Server lag estimates are counts, so decide() —
  /// called once per ready user per slot — would otherwise spend most of
  /// its time in std::pow. The cache stores the exact values
  /// fl::momentum_amplification returns (same call, same arguments), so
  /// decisions are bit-identical with or without a hit.
  [[nodiscard]] double amplification(double lag) const;

  static constexpr double kMaxCachedLag = 1 << 20;  ///< ~8 MiB memo ceiling

  /// Is the memo nondecreasing over the integral lags [0, lag_floor +
  /// reach]? Extends (and so checks) the memo through that lag first.
  [[nodiscard]] bool amplification_nondecreasing(double lag_floor,
                                                 std::size_t reach) const {
    const auto first = static_cast<std::size_t>(lag_floor);
    if (!(lag_floor >= 0.0 && lag_floor < kMaxCachedLag) ||
        static_cast<double>(first) != lag_floor) {
      return false;
    }
    if (first + reach >= amp_checked_) {
      (void)amplification(static_cast<double>(first + reach));
    }
    return first + reach < amp_checked_;
  }

  // The pieces of Eq. (21), shared by evaluate() and the idle screen.
  /// Gap realised by scheduling now: the Eq. (4) closed form with the lag
  /// the server expects over this user's training duration (the
  /// amplification factor memoized — bit-identical to fl::gradient_gap).
  [[nodiscard]] double gap_if_scheduled(double lag, double momentum) const {
    return std::abs(config_.eta) * amplification(lag) * std::abs(momentum);
  }
  /// Eq. (23); when h == 0 this degenerates to the Eq. (22) branch.
  [[nodiscard]] double schedule_cost(double p_schedule, double gap, double q,
                                     double h) const {
    return config_.V * p_schedule * config_.slot_seconds - q + h * gap;
  }
  /// Idling accumulates epsilon onto the gap (Eq. 12).
  [[nodiscard]] double idle_cost(double p_idle, double gap, double h) const {
    return config_.V * p_idle * config_.slot_seconds +
           h * (gap + config_.epsilon);
  }

  /// The Eq. (21)/(22)/(23) evaluation both decide() and decide_batched()
  /// share — one definition so the scalar and batched paths cannot drift.
  [[nodiscard]] OnlineDecisionOutcome evaluate(double p_schedule,
                                               double p_idle,
                                               double current_gap,
                                               double expected_lag,
                                               double momentum_norm, double q,
                                               double h) const {
    OnlineDecisionOutcome out;
    out.gap_if_scheduled = gap_if_scheduled(expected_lag, momentum_norm);
    out.cost_schedule = schedule_cost(p_schedule, out.gap_if_scheduled, q, h);
    out.cost_idle = idle_cost(p_idle, current_gap, h);
    out.decision = out.cost_schedule <= out.cost_idle
                       ? device::Decision::kSchedule
                       : device::Decision::kIdle;
    return out;
  }

  OnlineSchedulerConfig config_;
  LyapunovQueues queues_;
  mutable std::vector<double> amp_cache_;  ///< index = integral lag
  /// Length of the memo prefix checked nondecreasing (the screen's
  /// precondition); stops growing at the first decreasing step.
  mutable std::size_t amp_checked_ = 0;
};

}  // namespace fedco::core
