// Foreground application arrival processes.
//
// The paper's evaluation draws one app arrival per user with probability
// 0.001 per 1-second slot, uniformly choosing among the 8 profiled apps.
// The diurnal process additionally modulates the rate over a 24-hour cycle
// (Sec. VIII: "adapt to different diurnal and nocturnal application usage
// patterns"), used by the extension example/bench.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "device/profiles.hpp"
#include "sim/clock.hpp"
#include "util/rng.hpp"

namespace fedco::apps {

/// One application occurrence.
struct AppArrival {
  device::AppKind app{};
};

/// Interface: at each slot, does a new app session begin for this user?
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  /// Returns the arrival (if any) at slot `t`. Called once per slot.
  virtual std::optional<AppArrival> poll(sim::Slot t, util::Rng& rng) = 0;
  [[nodiscard]] virtual std::unique_ptr<ArrivalProcess> clone() const = 0;
};

/// Bernoulli(p) arrival per slot with a uniformly random app (the paper's
/// evaluation setting; p = 0.001 for "an average of 1 app arrival every
/// 1000 s").
class BernoulliArrivals final : public ArrivalProcess {
 public:
  explicit BernoulliArrivals(double probability) noexcept
      : probability_(probability) {}

  std::optional<AppArrival> poll(sim::Slot t, util::Rng& rng) override;
  [[nodiscard]] std::unique_ptr<ArrivalProcess> clone() const override {
    return std::make_unique<BernoulliArrivals>(*this);
  }

  [[nodiscard]] double probability() const noexcept { return probability_; }

 private:
  double probability_;
};

/// Sinusoidally modulated Bernoulli process with a 24-hour period: rate
/// peaks in the evening and bottoms out at night. mean_probability is the
/// 24-hour average; swing in [0,1] scales the peak-to-trough amplitude.
class DiurnalArrivals final : public ArrivalProcess {
 public:
  DiurnalArrivals(double mean_probability, double swing,
                  double slot_seconds = 1.0, double peak_hour = 20.0) noexcept;

  std::optional<AppArrival> poll(sim::Slot t, util::Rng& rng) override;
  [[nodiscard]] std::unique_ptr<ArrivalProcess> clone() const override {
    return std::make_unique<DiurnalArrivals>(*this);
  }

  /// Instantaneous probability at slot `t` (exposed for tests).
  [[nodiscard]] double probability_at(sim::Slot t) const noexcept;

  /// The peak of probability_at over all slots, clamped to [0,1]: no slot's
  /// probability exceeds it (the envelope the legacy walk rejects against
  /// and the stream path thins from).
  [[nodiscard]] double peak_probability() const noexcept { return peak_; }

  /// Whether a uniform `draw` in [0,1) is an arrival at slot `t` — exactly
  /// `draw < probability_at(t)`, but the curve is evaluated only for draws
  /// under peak_probability(). One draw per slot, like rng.bernoulli.
  [[nodiscard]] bool fires(sim::Slot t, double draw) const noexcept {
    return draw < peak_ && draw < probability_at(t);
  }

 private:
  double mean_probability_;
  double swing_;
  double slot_seconds_;
  double peak_hour_;
  double peak_;
};

/// Deterministic scripted arrivals for tests and the offline-oracle bench:
/// fires the given app at each listed slot.
class ScriptedArrivals final : public ArrivalProcess {
 public:
  struct Event {
    sim::Slot at;
    device::AppKind app;
  };
  explicit ScriptedArrivals(std::vector<Event> events);

  std::optional<AppArrival> poll(sim::Slot t, util::Rng& rng) override;
  [[nodiscard]] std::unique_ptr<ArrivalProcess> clone() const override {
    return std::make_unique<ScriptedArrivals>(*this);
  }

 private:
  std::vector<Event> events_;  // sorted by slot
  std::size_t cursor_ = 0;
};

/// Uniformly random app kind.
[[nodiscard]] device::AppKind random_app(util::Rng& rng) noexcept;

/// Parse an app name ("Map", "Tiktok", ... as printed by app_name) into its
/// kind; returns false on an unknown name.
[[nodiscard]] bool parse_app_name(std::string_view name, device::AppKind& out) noexcept;

/// Load a usage trace from CSV with rows "slot,app" (app by name or numeric
/// index). Line 1 is skipped as a header only when its slot column reads
/// "slot", in any case. Real deployments can replay measured usage logs
/// through ScriptedArrivals with this. Throws std::runtime_error on I/O
/// failure and std::invalid_argument on malformed rows.
[[nodiscard]] std::vector<ScriptedArrivals::Event> load_arrival_trace_csv(
    const std::string& path);

}  // namespace fedco::apps
