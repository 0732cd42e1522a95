#include "core/schedulers/online.hpp"

namespace fedco::core {

device::Decision OnlineLyapunovScheduler::decide(std::size_t user, sim::Slot t,
                                                 SchedulerContext& ctx) {
  // Coarsened scheduling granularity (Sec. VII "Energy Overhead"): between
  // evaluation slots the device stays idle.
  if (decision_interval_slots_ > 1 && t % decision_interval_slots_ != 0) {
    return device::Decision::kIdle;
  }
  OnlineDecisionInput input;
  const auto app = ctx.user_app(user);
  input.app_status = app ? device::AppStatus::kApp : device::AppStatus::kNoApp;
  input.app = app.value_or(device::AppKind::kMap);
  input.current_gap = ctx.user_gap(user);
  input.momentum_norm = momentum_norm_;  // constant within a slot, see hpp
  const sim::Slot end =
      ctx.training_end_slot(user, input.app_status, input.app, t);
  input.expected_lag = ctx.lag_count_at(end);
  if (churn_aware_ || has_priority_) {
    input.h_scale = h_scale_for(ctx, user, t, end);
  }
  return online_.decide(ctx.user_device(user), input).decision;
}

void OnlineLyapunovScheduler::decide_batch(const ReadyRow* rows,
                                           std::size_t count, sim::Slot t,
                                           SchedulerContext& ctx,
                                           DecisionSink& sink) {
  // The parking promise is uniform across the batch (ready_parked_until
  // ignores the user), so it is computed once and every idle run is
  // reported with one sink call.
  const sim::Slot parked_until =
      decision_interval_slots_ <= 1
          ? t + 1
          : (t / decision_interval_slots_ + 1) * decision_interval_slots_;
  // Off-interval slots short-circuit the whole batch: the scalar decide()
  // returns kIdle for every user without reading any state.
  if (decision_interval_slots_ > 1 && t % decision_interval_slots_ != 0) {
    sink.idle(0, count, parked_until);
    return;
  }
  // Slot-invariant terms, hoisted once: the queue backlogs only move at
  // on_slot_end and ||v_t|| is the on_slot_begin cache, so these are the
  // same doubles the scalar path re-reads per user.
  const double q = online_.queues().q();
  const double h = online_.queues().h();
  const double momentum = momentum_norm_;
  const double epsilon = online_.config().epsilon;
  const bool scaled = churn_aware_ || has_priority_;
  // Same h * scale product as the scalar path's queues_.h() * h_scale —
  // the batch matches decide() in the churn/VIP modes too, and the screen
  // weighs both costs with the value the evaluation uses.
  const auto h_eff = [&](const ReadyRow& row, const ClassSlot& cls) {
    return scaled ? h * h_scale_for(ctx, row.user, t, cls.end) : h;
  };

  // Pass 1, the idle screen (OnlineScheduler::screened_idle): a row whose
  // idle cost is below its class's schedule cost at the slot-start lag
  // idles at every lag up to that lag plus the candidates before it (only
  // candidates can be scheduled, each adding at most one). Other rows are
  // candidates; the first kAhead are prefetched here.
  constexpr std::size_t kAhead = 4;
  candidates_.clear();
  for (std::size_t k = 0; k < count; ++k) {
    const ReadyRow& row = rows[k];
    const std::size_t c = row.device * kColumns + row.app;
    ClassSlot& cls = class_slots_[c];
    if (cls.slot != t) {
      const bool app_on = row.app < device::kAppKinds;
      cls.slot = t;
      cls.end = ctx.training_end_slot(
          row.user, app_on ? device::AppStatus::kApp : device::AppStatus::kNoApp,
          app_on ? static_cast<device::AppKind>(row.app) : device::AppKind::kMap,
          t);
      cls.screen = online_.idle_screen(power_[c].schedule, power_[c].idle,
                                       ctx.lag_count_at(cls.end), momentum, q);
    }
    if (!online_.screened_idle(cls.screen, row.gap(t - 1, epsilon),
                               h_eff(row, cls), candidates_.size())) {
      if (candidates_.size() < kAhead) sink.prefetch(k);
      candidates_.push_back(static_cast<std::uint32_t>(k));
    }
  }

  // Pass 2: the candidates, in order, each reading the lag after every
  // earlier schedule was applied (the intra-slot coupling); the screened
  // runs between them are reported idle in one call each.
  std::size_t next = 0;  // first row not yet reported
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    if (c + kAhead < candidates_.size()) sink.prefetch(candidates_[c + kAhead]);
    const std::size_t k = candidates_[c];
    if (next < k) sink.idle(next, k, parked_until);
    next = k + 1;
    const ReadyRow& row = rows[k];
    const ClassSlot& cls = class_slots_[row.device * kColumns + row.app];
    if (online_.decide_batched(cls.screen.p_schedule, cls.screen.p_idle,
                               row.gap(t - 1, epsilon),
                               ctx.lag_count_at(cls.end), momentum, q,
                               h_eff(row, cls)) ==
        device::Decision::kSchedule) {
      sink.schedule(k);
    } else {
      sink.idle(k, k + 1, parked_until);
    }
  }
  if (next < count) sink.idle(next, count, parked_until);
}

}  // namespace fedco::core
