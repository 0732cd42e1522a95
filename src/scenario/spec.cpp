#include "scenario/spec.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <numeric>
#include <stdexcept>

#include "scenario/netem_profiles.hpp"

namespace fedco::scenario {

namespace {

/// Salt so fleet expansion never shares a stream with the experiment
/// driver's master RNG (both start from the same user-facing seed).
constexpr std::uint64_t kFleetSeedSalt = 0xF1EE7C0DE5CEA21FULL;

/// One range a spec must hold, in the shape of core/validate.cpp's rows; a
/// broken rule throws "scenario: <field> <reason>".
struct Rule {
  const char* field;
  bool holds;
  const char* reason;
};

void require_all(std::initializer_list<Rule> rules) {
  for (const Rule& rule : rules) {
    if (rule.holds) continue;
    throw std::invalid_argument{std::string{"scenario: "} + rule.field + " " +
                                rule.reason};
  }
}

constexpr const char* kPositive = "must be positive";
constexpr const char* kUnitInterval = "must be in [0, 1]";

bool unit(double v) { return v >= 0.0 && v <= 1.0; }
bool hour(double v) { return v >= 0.0 && v < 24.0; }

/// Largest-remainder apportionment of `n` users over the mix fractions:
/// exact floors first, then the leftover seats go to the largest fractional
/// remainders (ties broken by mix order). Deterministic, no RNG.
std::vector<device::DeviceKind> apportion_devices(
    const std::vector<DeviceMixEntry>& mix, std::size_t n) {
  std::vector<std::size_t> counts(mix.size(), 0);
  std::vector<double> remainders(mix.size(), 0.0);
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < mix.size(); ++k) {
    const double exact = mix[k].fraction * static_cast<double>(n);
    counts[k] = static_cast<std::size_t>(std::floor(exact));
    remainders[k] = exact - std::floor(exact);
    assigned += counts[k];
  }
  std::vector<std::size_t> order(mix.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return remainders[a] > remainders[b];
  });
  for (std::size_t k = 0; assigned < n; ++k) {
    ++counts[order[k % order.size()]];
    ++assigned;
  }
  std::vector<device::DeviceKind> assignment;
  assignment.reserve(n);
  for (std::size_t k = 0; k < mix.size(); ++k) {
    assignment.insert(assignment.end(), counts[k], mix[k].device);
  }
  return assignment;
}

[[nodiscard]] double wrap_hour(double hour) noexcept {
  hour = std::fmod(hour, 24.0);
  return hour < 0.0 ? hour + 24.0 : hour;
}

/// Hour-of-day band membership, [begin, end) wrapping past midnight when
/// begin > end (same convention as NetemPhase::active_at).
[[nodiscard]] bool in_hour_band(double hour, double begin, double end) noexcept {
  if (begin <= end) return hour >= begin && hour < end;
  return hour >= begin || hour < end;
}

}  // namespace

void validate(const ScenarioSpec& spec) {
  const ArrivalSpec& a = spec.arrival;
  const DiurnalSpec& d = spec.diurnal;
  const ChurnSpec& c = spec.churn;
  const FaultSpec& f = spec.faults;
  const CommuteSpec& commute = f.commute;
  const PrioritySpec& p = spec.priority;
  using enum ArrivalSpec::Distribution;
  require_all({
      {"num_users", spec.num_users > 0, kPositive},
      {"horizon_slots", spec.horizon_slots > 0, kPositive},
      {"horizon_slots", spec.horizon_slots <= sim::kMaxHorizonSlots,
       "must be at most 2^31 - 1"},
      {"arrival.mean_probability", unit(a.mean_probability), kUnitInterval},
      {"arrival",
       a.distribution != kUniform || (a.min_probability >= 0.0 &&
                                      a.min_probability <= a.max_probability &&
                                      a.max_probability <= 1.0),
       "uniform bounds need 0 <= min <= max <= 1"},
      {"arrival.sigma", a.distribution != kLogNormal || a.sigma >= 0.0,
       "must be non-negative"},
      {"arrival.mean_probability",
       a.distribution != kLogNormal || a.mean_probability > 0.0,
       "must be positive for lognormal rates"},
      {"diurnal.swing", unit(d.swing), kUnitInterval},
      {"diurnal.peak_hour", hour(d.peak_hour), "must be in [0, 24)"},
      {"diurnal.timezone_spread_hours",
       d.timezone_spread_hours >= 0.0 && d.timezone_spread_hours <= 24.0,
       "must be in [0, 24]"},
      {"network.lte_fraction", unit(spec.network.lte_fraction), kUnitInterval},
      {"churn.churn_fraction", unit(c.churn_fraction), kUnitInterval},
      {"churn",
       c.churn_fraction == 0.0 ||
           (c.min_presence > 0.0 && c.min_presence <= c.max_presence &&
            c.max_presence <= 1.0),
       "presence needs 0 < min_presence <= max_presence <= 1"},
      {"commute.fraction", unit(commute.fraction), kUnitInterval},
      {"commute",
       !commute.enabled() ||
           (commute.period_slots > 0 && commute.on_slots > 0 &&
            commute.on_slots < commute.period_slots),
       "needs 0 < on_slots < period_slots"},
      {"faults.trace_dir", f.trace_dir.empty() || !spec.stream_rng,
       "is incompatible with stream_rng"},
      {"priority.vip_fraction", unit(p.vip_fraction), kUnitInterval},
      {"priority.vip_weight", p.vip_weight > 0.0, kPositive},
      {"priority.default_weight", p.default_weight > 0.0, kPositive},
  });

  const std::vector<DeviceMixEntry>& mix = spec.device_mix;
  double mix_sum = 0.0;
  for (const DeviceMixEntry& entry : mix) {
    const auto same = [&](const DeviceMixEntry& e) {
      return e.device == entry.device;
    };
    require_all({{"device_mix fractions", unit(entry.fraction), kUnitInterval},
                 {"device_mix", std::count_if(mix.begin(), mix.end(), same) < 2,
                  "lists a device twice"}});
    mix_sum += entry.fraction;
  }
  require_all({{"device_mix fractions",
                mix.empty() || std::abs(mix_sum - 1.0) <= 1e-6,
                "must sum to 1"}});

  for (const OutageSpec& o : f.outages) {
    require_all({
        {"outage region", !o.region.empty(), "must be non-empty"},
        {"outage slots", o.start_slot >= 0 && o.end_slot >= 0,
         "must be non-negative"},
        {"outage window", o.start_slot < o.end_slot,
         "is empty (needs start_slot < end_slot)"},
        {"outage band hours",
         !o.has_band() || (hour(o.band_begin_hour) && hour(o.band_end_hour)),
         "must be in [0, 24)"},
        {"outage", o.has_band() || (o.fraction > 0.0 && o.fraction <= 1.0),
         "needs fraction in (0, 1] or a band_begin_hour/band_end_hour pair"},
    });
  }
  for (std::size_t i = 0; i < f.outages.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (f.outages[i].region != f.outages[j].region) continue;
      require_all({{"outage windows for the same region",
                    f.outages[i].start_slot >= f.outages[j].end_slot ||
                        f.outages[j].start_slot >= f.outages[i].end_slot,
                    "overlap"}});
    }
  }

  for (const DegradationSpec& dg : f.degradations) {
    if (find_netem_profile(dg.profile) == nullptr) {
      throw std::invalid_argument{"scenario: unknown degradation profile '" +
                                  dg.profile + "'"};
    }
    require_all({{"degradation fraction",
                  dg.fraction > 0.0 && dg.fraction <= 1.0,
                  "must be in (0, 1]"}});
  }
}

std::vector<PerUserConfig> generate_fleet(const ScenarioSpec& spec,
                                          std::uint64_t seed) {
  return fleet_from(generate_fleet_arena(spec, seed));
}

FleetArena generate_fleet_arena(const ScenarioSpec& spec,
                                std::uint64_t seed) {
  validate(spec);
  const std::size_t n = spec.num_users;
  FleetArena fleet{n};

  // One forked stream per concern: enabling churn never perturbs device
  // assignment, widening the device mix never re-rolls arrival rates, etc.
  util::Rng root{seed ^ kFleetSeedSalt};
  util::Rng device_rng = root.fork();
  util::Rng arrival_rng = root.fork();
  util::Rng tz_rng = root.fork();
  util::Rng net_rng = root.fork();
  util::Rng churn_rng = root.fork();
  // Fault-concern streams. Forked after the five legacy streams (root is
  // never drawn from directly), so fault-free specs expand bit-identically
  // to pre-fault fleets — the fault goldens pin this.
  util::Rng commute_rng = root.fork();
  util::Rng outage_rng = root.fork();
  util::Rng degrade_rng = root.fork();
  // VIP-selection stream. Forked after every earlier concern for the same
  // reason: priority-free specs expand bit-identically to pre-priority
  // fleets — the priority goldens pin this.
  util::Rng priority_rng = root.fork();

  if (!spec.device_mix.empty()) {
    std::vector<device::DeviceKind> assignment =
        apportion_devices(spec.device_mix, n);
    device_rng.shuffle(assignment);  // decorrelate device from user index
    for (std::size_t i = 0; i < n; ++i) fleet.set_device(i, assignment[i]);
  }

  switch (spec.arrival.distribution) {
    case ArrivalSpec::Distribution::kFixed:
      break;  // every user inherits the config's homogeneous rate
    case ArrivalSpec::Distribution::kUniform:
      for (std::size_t i = 0; i < n; ++i) {
        fleet.set_arrival_probability(
            i, arrival_rng.uniform(spec.arrival.min_probability,
                                   spec.arrival.max_probability));
      }
      break;
    case ArrivalSpec::Distribution::kLogNormal: {
      // Mean-preserving lognormal: mean * exp(sigma z - sigma^2 / 2) has
      // expectation `mean`; clamping to [0, 1] truncates the (rare) tail
      // above a certain-arrival-per-slot rate.
      const double sigma = spec.arrival.sigma;
      for (std::size_t i = 0; i < n; ++i) {
        const double rate = spec.arrival.mean_probability *
                            std::exp(sigma * arrival_rng.normal() -
                                     0.5 * sigma * sigma);
        fleet.set_arrival_probability(i, std::clamp(rate, 0.0, 1.0));
      }
      break;
    }
  }

  // Per-user diurnal phases are only materialised when they deviate from
  // the ArrivalStreamParams default (peak 20.0, no spread); the on/off flag
  // and the swing stay config-level (apply_scenario sets them).
  if (spec.diurnal.enabled && (spec.diurnal.timezone_spread_hours > 0.0 ||
                               spec.diurnal.peak_hour != 20.0)) {
    const double spread = spec.diurnal.timezone_spread_hours;
    for (std::size_t i = 0; i < n; ++i) {
      const double shift =
          spread > 0.0 ? tz_rng.uniform(-spread / 2.0, spread / 2.0) : 0.0;
      fleet.set_diurnal_peak_hour(i, wrap_hour(spec.diurnal.peak_hour + shift));
    }
  }

  if (spec.network.lte_fraction > 0.0) {
    const auto lte_users = static_cast<std::size_t>(std::llround(
        spec.network.lte_fraction * static_cast<double>(n)));
    std::vector<bool> on_lte(n, false);
    std::fill(on_lte.begin(),
              on_lte.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(lte_users, n)),
              true);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    net_rng.shuffle(order);
    // A non-zero fraction pins every user's tier explicitly, so the result
    // is independent of the base config's use_lte.
    for (std::size_t i = 0; i < n; ++i) fleet.set_use_lte(order[i], on_lte[i]);
  }

  if (spec.churn.churn_fraction > 0.0) {
    const auto churners = static_cast<std::size_t>(std::llround(
        spec.churn.churn_fraction * static_cast<double>(n)));
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    churn_rng.shuffle(order);
    for (std::size_t k = 0; k < std::min(churners, n); ++k) {
      const double presence = churn_rng.uniform(spec.churn.min_presence,
                                                spec.churn.max_presence);
      const auto length = std::max<sim::Slot>(
          1, static_cast<sim::Slot>(std::llround(
                 presence * static_cast<double>(spec.horizon_slots))));
      const sim::Slot latest_join = spec.horizon_slots - length;
      const sim::Slot join =
          latest_join > 0 ? churn_rng.uniform_int(0, latest_join) : 0;
      fleet.set_presence(order[k], join, join + length);
    }
  }

  const FaultSpec& faults = spec.faults;

  // Commute membership and per-user cycle phase offsets.
  std::vector<sim::Slot> commute_offset;  // -1 = not a commuter
  if (faults.commute.enabled()) {
    commute_offset.assign(n, sim::Slot{-1});
    const auto commuters = static_cast<std::size_t>(std::llround(
        faults.commute.fraction * static_cast<double>(n)));
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    commute_rng.shuffle(order);
    for (std::size_t k = 0; k < std::min(commuters, n); ++k) {
      commute_offset[order[k]] =
          commute_rng.uniform_int(0, faults.commute.period_slots - 1);
    }
  }

  // Outage group membership: band outages select by the user's diurnal
  // peak hour (the timezone proxy tz_rng spread across the fleet);
  // fraction outages draw a seeded shuffle per outage.
  std::vector<std::uint8_t> outage_member;  // [outage * n + user]
  if (!faults.outages.empty()) {
    outage_member.assign(n * faults.outages.size(), 0);
    for (std::size_t o = 0; o < faults.outages.size(); ++o) {
      const OutageSpec& out = faults.outages[o];
      if (out.has_band()) {
        for (std::size_t i = 0; i < n; ++i) {
          if (in_hour_band(fleet.user(i).diurnal_peak_hour,
                           out.band_begin_hour, out.band_end_hour)) {
            outage_member[o * n + i] = 1;
          }
        }
      } else {
        const auto count = static_cast<std::size_t>(std::llround(
            out.fraction * static_cast<double>(n)));
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), 0);
        outage_rng.shuffle(order);
        for (std::size_t k = 0; k < std::min(count, n); ++k) {
          outage_member[o * n + order[k]] = 1;
        }
      }
    }
  }

  // Resolve each affected user's presence-window list: churn window ->
  // intersect with commute cycles -> subtract outage windows -> merge
  // touching windows. The first window lands in join_slot/leave_slot, the
  // rest in the shared extra-window pool.
  if (faults.commute.enabled() || !faults.outages.empty()) {
    std::vector<PresenceWindow> windows;
    std::vector<PresenceWindow> next;
    for (std::size_t i = 0; i < n; ++i) {
      const PerUserConfig base = fleet.user(i);
      windows.clear();
      if (!commute_offset.empty() && commute_offset[i] >= 0) {
        for (sim::Slot start = commute_offset[i]; start < spec.horizon_slots;
             start += faults.commute.period_slots) {
          const sim::Slot join = std::max(start, base.join_slot);
          const sim::Slot leave =
              std::min(start + faults.commute.on_slots, base.leave_slot);
          if (join < leave) windows.push_back({join, leave});
        }
      } else {
        windows.push_back({base.join_slot, base.leave_slot});
      }
      for (std::size_t o = 0; o < faults.outages.size(); ++o) {
        if (outage_member[o * n + i] == 0) continue;
        const OutageSpec& out = faults.outages[o];
        next.clear();
        for (const PresenceWindow& w : windows) {
          if (out.end_slot <= w.join || out.start_slot >= w.leave) {
            next.push_back(w);
            continue;
          }
          if (w.join < out.start_slot) next.push_back({w.join, out.start_slot});
          if (out.end_slot < w.leave) next.push_back({out.end_slot, w.leave});
        }
        windows.swap(next);
      }
      // Merge touching windows (leave == next join is an identity split)
      // and drop windows starting at/after the horizon: unreachable, and
      // dropping them guarantees every stored window's kJoin/kLeave events
      // land inside the driver's calendar.
      next.clear();
      for (const PresenceWindow& w : windows) {
        if (w.join >= spec.horizon_slots) continue;
        if (!next.empty() && w.join <= next.back().leave) {
          next.back().leave = std::max(next.back().leave, w.leave);
        } else {
          next.push_back(w);
        }
      }
      windows.swap(next);
      if (windows.empty()) {
        // Outages swallowed the whole presence: a join at the horizon keeps
        // the window non-empty for the driver while covering no slot.
        fleet.set_presence(i, spec.horizon_slots, kNeverLeaves);
      } else {
        if (windows[0].join != 0 || windows[0].leave != kNeverLeaves) {
          fleet.set_presence(i, windows[0].join, windows[0].leave);
        }
        if (windows.size() > 1) {
          fleet.set_extra_windows(
              i, {windows.begin() + 1, windows.end()});
        }
      }
    }
  }

  // Link-degradation profile attachment: one seeded shuffle per profile
  // entry; a fraction of 1 skips the draw (every user gets the bit).
  if (!faults.degradations.empty()) {
    std::vector<std::uint32_t> mask(n, 0);
    for (const DegradationSpec& dg : faults.degradations) {
      const int bit = netem_profile_index(dg.profile);  // validated above
      if (dg.fraction >= 1.0) {
        for (std::size_t i = 0; i < n; ++i) mask[i] |= 1u << bit;
      } else {
        const auto count = static_cast<std::size_t>(std::llround(
            dg.fraction * static_cast<double>(n)));
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), 0);
        degrade_rng.shuffle(order);
        for (std::size_t k = 0; k < std::min(count, n); ++k) {
          mask[order[k]] |= 1u << bit;
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (mask[i] != 0) fleet.set_link_degradations(i, mask[i]);
    }
  }

  // VIP class assignment: a seeded shuffle picks the VIP set, everyone
  // else gets default_weight. set_priority only fires for weights != 1.0,
  // so a spec with vip_fraction 0 and default_weight 1 allocates nothing.
  if (spec.priority.enabled()) {
    const auto vips = static_cast<std::size_t>(std::llround(
        spec.priority.vip_fraction * static_cast<double>(n)));
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    priority_rng.shuffle(order);
    for (std::size_t k = 0; k < n; ++k) {
      const double weight = k < std::min(vips, n)
                                ? spec.priority.vip_weight
                                : spec.priority.default_weight;
      if (weight != 1.0) fleet.set_priority(order[k], weight);
    }
  }

  return fleet;
}

}  // namespace fedco::scenario
