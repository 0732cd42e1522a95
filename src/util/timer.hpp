// Lightweight wall-clock phase timers for the driver's run-summary
// breakdown. steady_clock only (monotonic; immune to NTP steps); a lap is
// one now() call, 20-40 ns on x86-64 Linux's vDSO TSC clock. That is not
// free at millions of slots, so the driver laps only where a phase did
// work (see RunSummary::Timing). Timings feed
// ExperimentResult::summary.timing, which is excluded from golden
// fingerprints and from --save-result archives, so they can never perturb
// determinism contracts.
#pragma once

#include <chrono>

namespace fedco::util {

/// Accumulates elapsed seconds across start()/stop() pairs into named
/// phase buckets owned by the caller.
class Stopwatch {
 public:
  using Clock = std::chrono::steady_clock;

  /// (Re)arms the watch at now.
  void start() noexcept { t0_ = Clock::now(); }

  /// Seconds since the last start()/lap(); re-arms at now.
  double lap_s() noexcept {
    const Clock::time_point t1 = Clock::now();
    const double s = std::chrono::duration<double>(t1 - t0_).count();
    t0_ = t1;
    return s;
  }

  /// Seconds since the last start()/lap() without re-arming.
  [[nodiscard]] double elapsed_s() const noexcept {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

 private:
  Clock::time_point t0_ = Clock::now();
};

}  // namespace fedco::util
