#include "apps/arrival_stream.hpp"

#include <algorithm>
#include <cmath>

namespace fedco::apps {

double ArrivalStreamParams::probability_at(sim::Slot t) const noexcept {
  if (!diurnal) return probability;
  constexpr double kSecondsPerDay = 86400.0;
  const double seconds = slot_seconds > 0.0 ? slot_seconds : 1.0;
  const double hour =
      std::fmod(static_cast<double>(t) * seconds, kSecondsPerDay) / 3600.0;
  const double phase = (hour - peak_hour) / 24.0 * 2.0 * 3.14159265358979323846;
  const double factor = 1.0 + std::clamp(swing, 0.0, 1.0) * std::cos(phase);
  return std::clamp(probability * factor, 0.0, 1.0);
}

double ArrivalStreamParams::max_probability() const noexcept {
  if (!diurnal) return std::clamp(probability, 0.0, 1.0);
  // The envelope is exact under IEEE monotone rounding, so fires() may
  // reject against it without changing a single outcome:
  //   - the swing is clamped to [0,1] and cos <= 1, so swing*cos <= swing,
  //     then 1 + swing*cos <= 1 + swing, then p*f <= p*(1 + swing) for
  //     p >= 0 (each step is a monotone rounded operation);
  //   - for p < 0 both sides clamp to 0;
  //   - a NaN anywhere compares false on both sides.
  return std::clamp(probability * (1.0 + std::clamp(swing, 0.0, 1.0)), 0.0,
                    1.0);
}

void stream_arrivals_next(const ArrivalStreamParams& params,
                          ArrivalCursor& cursor, sim::Slot end) {
  const double p_max = params.max_probability();
  if (p_max <= 0.0) {
    cursor.at = ArrivalCursor::kNoArrival;
    return;
  }
  while (cursor.scan < end) {
    // Geometric inverse CDF: with u in (0,1], gap = floor(log u / log(1-p))
    // has P(gap >= k) = (1-p)^k — each slot is a candidate independently
    // with probability p_max, but only candidates cost a draw.
    const double u = 1.0 - cursor.rng.uniform();  // (0, 1]
    double gap = 0.0;
    if (p_max < 1.0) gap = std::floor(std::log(u) / std::log1p(-p_max));
    // Compare in double before casting: a tiny p_max can produce gaps far
    // beyond Slot range, and (end - scan) always fits a double exactly at
    // simulation scale.
    if (gap >= static_cast<double>(end - cursor.scan)) break;
    const sim::Slot candidate = cursor.scan + static_cast<sim::Slot>(gap);
    cursor.scan = candidate + 1;
    if (params.diurnal) {
      // Lewis–Shedler thinning: survive with p(t)/p_max, restoring the
      // instantaneous rate from the constant envelope.
      const double accept = params.probability_at(candidate) / p_max;
      if (!(cursor.rng.uniform() < accept)) continue;
    }
    cursor.at = candidate;
    cursor.app =
        static_cast<device::AppKind>(cursor.rng.uniform_int(device::kAppKinds));
    return;
  }
  cursor.at = ArrivalCursor::kNoArrival;
}

ArrivalCursor stream_arrivals_begin(const ArrivalStreamParams& params,
                                    std::uint64_t key, sim::Slot from,
                                    sim::Slot end) {
  ArrivalCursor cursor;
  cursor.rng = util::StreamRng{key};
  cursor.scan = 0;
  do {
    stream_arrivals_next(params, cursor, end);
  } while (cursor.at != ArrivalCursor::kNoArrival && cursor.at < from);
  return cursor;
}

std::vector<ArrivalEvent> materialize_stream(
    const ArrivalStreamParams& params, std::uint64_t key, sim::Slot from,
    sim::Slot end) {
  std::vector<ArrivalEvent> events;
  for (ArrivalCursor cursor = stream_arrivals_begin(params, key, from, end);
       cursor.at != ArrivalCursor::kNoArrival;
       stream_arrivals_next(params, cursor, end)) {
    events.push_back({cursor.at, cursor.app});
  }
  return events;
}

}  // namespace fedco::apps
