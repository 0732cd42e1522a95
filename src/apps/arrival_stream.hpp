// On-demand per-user arrival streams over counter-based RNG.
//
// The legacy setup path pre-generates every user's full-horizon arrival
// script with one Bernoulli draw per slot: O(users × horizon) RNG calls
// before the first slot runs, which at 1M users × 600 slots is 600M draws
// spent mostly on empty slots. This module samples the same per-slot
// Bernoulli arrival process event by event instead:
//
//   - gaps between candidate slots come from the geometric inverse CDF
//     (one draw per *arrival-rate event*, not per slot), and
//   - diurnal modulation is applied by Lewis–Shedler thinning: candidates
//     fire at the peak rate p_max and survive with probability
//     p(t) / p_max, which preserves the exact per-slot law
//     P(arrival at t) = p(t) with slot-independence intact.
//
// Streams draw from util::StreamRng keyed on (seed, user, concern), so a
// user's usage pattern is a pure function of the experiment seed and the
// user index: construction order, presence windows, and what any other
// user did never perturb it, and a lazily consumed stream is bit-identical
// to the same stream materialized up front (the stream-parity test battery
// pins this).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "apps/arrival.hpp"
#include "device/profiles.hpp"
#include "sim/clock.hpp"
#include "util/stream_rng.hpp"

namespace fedco::apps {

/// Per-(user, concern) stream identifiers hashed into util::stream_key.
/// Values are stable across releases: changing one re-keys every stream and
/// invalidates the stream-mode goldens.
enum class StreamConcern : std::uint64_t {
  kArrivals = 0,  ///< arrival gaps, diurnal thinning, app picks
  kDevice = 1,    ///< mixed-fleet device assignment
  kRuntime = 2,   ///< transfer retries, upload drops, client seeding
};

/// The arrival law of one user: a per-slot Bernoulli draw at
/// `probability`, uniform over the 8 apps, and when `diurnal` is set
/// sinusoidally modulated with a 24-hour period — the rate peaks at
/// `peak_hour` and bottoms out twelve hours later at the same 24-hour mean;
/// `swing` in [0,1] scales the peak-to-trough amplitude. Both the driver's
/// legacy per-slot walk and the stream cursor read this one type.
struct ArrivalStreamParams {
  double probability = 0.0;  ///< mean per-slot arrival probability
  bool diurnal = false;
  double swing = 0.0;         ///< read clamped to [0,1]
  double peak_hour = 20.0;
  double slot_seconds = 1.0;  ///< a non-positive length reads as 1 s

  /// Instantaneous per-slot probability: the diurnal curve clamped to
  /// [0,1] when diurnal, the flat rate otherwise.
  [[nodiscard]] double probability_at(sim::Slot t) const noexcept;

  /// The envelope: the peak of probability_at over all slots, clamped to
  /// [0,1]. No slot's probability exceeds it (see the proof in the .cpp),
  /// so the legacy walk may reject against it and the stream path thins
  /// from it.
  [[nodiscard]] double max_probability() const noexcept;

  /// Whether a uniform `draw` in [0,1) is an arrival at slot `t` — exactly
  /// `draw < probability_at(t)`, but the curve is evaluated only for draws
  /// under `peak`, which must be max_probability(); a per-slot walk hoists
  /// it, so the envelope is evaluated once per user. One draw per slot,
  /// like rng.bernoulli.
  [[nodiscard]] bool fires(sim::Slot t, double draw,
                           double peak) const noexcept {
    return draw < peak && draw < probability_at(t);
  }
};

/// Iteration state over one user's arrival stream. {rng.counter, scan} is
/// the complete position, so a cursor can be copied, compared against an
/// independently created twin, or re-created from scratch at any point.
struct ArrivalCursor {
  /// Sentinel "no further arrival" slot; compares greater than every real
  /// slot so `cursor.at <= t` loops terminate without a separate flag.
  static constexpr sim::Slot kNoArrival = std::numeric_limits<sim::Slot>::max();

  util::StreamRng rng;
  sim::Slot scan = 0;              ///< next unexamined candidate slot
  sim::Slot at = kNoArrival;       ///< current arrival (kNoArrival = exhausted)
  device::AppKind app{};
};

/// Open the stream identified by `key` and position the cursor at the first
/// arrival in [from, end). Candidates are always generated from slot 0 —
/// the usage pattern exists independently of the presence window, exactly
/// like the legacy path that generates the full horizon and then filters to
/// the window — so two cursors over the same stream agree regardless of
/// `from`.
[[nodiscard]] ArrivalCursor stream_arrivals_begin(
    const ArrivalStreamParams& params, std::uint64_t key, sim::Slot from,
    sim::Slot end);

/// Advance to the next arrival strictly after the current one (the first
/// arrival at slot >= cursor.scan, < end). Sets cursor.at = kNoArrival when
/// the stream is exhausted.
void stream_arrivals_next(const ArrivalStreamParams& params,
                          ArrivalCursor& cursor, sim::Slot end);

/// Materialize every arrival of the stream in [from, end) as a script.
/// Byte-for-byte the events a lazy cursor over the same (key, from, end)
/// would yield — what the tests' stream oracle replays as a trace.
[[nodiscard]] std::vector<ArrivalEvent> materialize_stream(
    const ArrivalStreamParams& params, std::uint64_t key, sim::Slot from,
    sim::Slot end);

}  // namespace fedco::apps
