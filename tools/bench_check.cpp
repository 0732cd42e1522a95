// Throughput-regression gate over bench_scale's machine-readable output.
//
// Compares a freshly measured BENCH_scale(.json) document against a
// committed baseline. One identity rule decides which rows compare: a
// row's identity is its fleet's users and horizon, its scheduler, and
// every other non-metric field the row or its fleet carries (the "rng"
// layout, the online "g_mode" engine, "events", "churn_aware", and any tag
// a later bench adds). Metrics are the measured numbers listed in
// kMetrics. For every baseline row with an identical candidate row, the
// candidate's slots_per_sec must not fall more than --max-regression-pct
// below the baseline's. A baseline row without an identical partner
// prints SKIP and a candidate row without one prints NEW: a changed tag
// is a mode change (different work per slot), not a regression, and the
// baseline must be recaptured to start tracking it. CI runs this against
// the committed smoke baseline on every push, so an accidental O(n)
// regression in the event-driven driver fails loudly instead of rotting
// silently.
//
// The gate also watches memory: each fleet row carries the process peak
// RSS high-water mark after that fleet, and a candidate fleet whose
// process_peak_rss_mib grows more than --max-rss-growth-pct above the
// identical baseline fleet's fails. This is what catches a footprint
// regression in the 1M-user SoA arenas (an accidental per-user vector
// re-introduction would triple the row's RSS long before it breaks a
// timing gate).
//
// Baselines are machine-specific: recapture them (bench_scale --smoke
// --jobs 1) when the reference hardware changes, and compare only serial
// ("timing": "serial") documents — concurrent timings include worker
// contention.
//
//   bench_check --baseline PATH --candidate PATH [--max-regression-pct N]
//               [--max-rss-growth-pct N]
//
// Exit code: 0 = within tolerance, 1 = regression, 2 = usage/parse error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/args.hpp"
#include "util/json.hpp"

namespace {

using fedco::util::JsonValue;

/// Fields that are measurements; every other field is identity.
constexpr const char* kMetrics[] = {
    "wall_seconds", "process_peak_rss_mib", "schedulers",
    "seconds",      "slots_per_sec",        "user_slots_per_sec",
    "updates",      "energy_kj"};

/// Fields already spelled out in a row's display name.
constexpr const char* kNamed[] = {"num_users", "horizon_slots", "scheduler"};

bool listed(const std::string& key, const auto& names) {
  return std::find(std::begin(names), std::end(names), key) != std::end(names);
}

/// A row or fleet as the gate sees it: an identity string (every
/// non-metric field, sorted by key) plus the one metric it gates.
struct Entry {
  std::string identity;
  std::string name;
  double metric = 0.0;
};

struct Doc {
  std::vector<Entry> rows;    ///< metric = slots_per_sec
  std::vector<Entry> fleets;  ///< metric = process_peak_rss_mib (0 = none)
};

std::string scalar_text(const JsonValue& value) {
  if (value.is_string()) return value.as_string();
  if (value.is_bool()) return value.as_bool() ? "true" : "false";
  if (value.is_number()) {
    const double number = value.as_number();
    if (number == std::floor(number) && std::fabs(number) < 9.0e15) {
      return std::to_string(static_cast<long long>(number));
    }
    std::string text;
    fedco::util::append_shortest_double(text, number);
    return text;
  }
  throw std::runtime_error{"bench_check: identity fields must be scalars"};
}

/// "key=value" for each non-metric member of `object`, appended to `tags`.
void collect_tags(const JsonValue& object,
                  std::vector<std::pair<std::string, std::string>>& tags) {
  for (const auto& [key, value] : object.as_object()) {
    if (!listed(key, kMetrics)) tags.emplace_back(key, scalar_text(value));
  }
}

/// Identity + display name of a tag set: "<users> users x <horizon> slots"
/// (plus " / <scheduler>" for rows) and the remaining tags in brackets.
Entry entry_of(std::vector<std::pair<std::string, std::string>> tags) {
  std::sort(tags.begin(), tags.end());
  Entry entry;
  std::string users, horizon, scheduler, extra;
  for (const auto& [key, value] : tags) {
    entry.identity += key + "=" + value + ";";
    if (key == "num_users") users = value;
    if (key == "horizon_slots") horizon = value;
    if (key == "scheduler") scheduler = value;
    if (!listed(key, kNamed)) {
      extra += (extra.empty() ? "" : " ") + key + "=" + value;
    }
  }
  entry.name = users + " users x " + horizon + " slots" +
               (scheduler.empty() ? "" : " / " + scheduler) +
               (extra.empty() ? "" : " [" + extra + "]");
  return entry;
}

JsonValue load(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"bench_check: cannot open " + path};
  std::ostringstream text;
  text << in.rdbuf();
  return fedco::util::parse_json(text.str());
}

Doc entries_of(const JsonValue& doc, const std::string& path) {
  const JsonValue* fleets = doc.find("fleets");
  if (fleets == nullptr || !fleets->is_array()) {
    throw std::runtime_error{"bench_check: " + path + " has no fleets array"};
  }
  if (const JsonValue* timing = doc.find("timing");
      timing != nullptr && timing->as_string() != "serial") {
    std::fprintf(stderr,
                 "bench_check: warning: %s was measured with --jobs > 1; "
                 "concurrent slots/sec include worker contention\n",
                 path.c_str());
  }
  Doc out;
  for (const JsonValue& fleet : fleets->as_array()) {
    const JsonValue* schedulers = fleet.find("schedulers");
    if (fleet.find("num_users") == nullptr ||
        fleet.find("horizon_slots") == nullptr || schedulers == nullptr) {
      throw std::runtime_error{"bench_check: malformed fleet row in " + path};
    }
    std::vector<std::pair<std::string, std::string>> fleet_tags;
    collect_tags(fleet, fleet_tags);
    Entry stat = entry_of(fleet_tags);
    stat.name += " / peak RSS";
    if (const JsonValue* rss = fleet.find("process_peak_rss_mib")) {
      stat.metric = rss->as_number();
    }
    out.fleets.push_back(std::move(stat));
    for (const JsonValue& sched : schedulers->as_array()) {
      const JsonValue* slots = sched.find("slots_per_sec");
      if (sched.find("scheduler") == nullptr || slots == nullptr) {
        throw std::runtime_error{"bench_check: malformed scheduler row in " +
                                 path};
      }
      std::vector<std::pair<std::string, std::string>> tags = fleet_tags;
      collect_tags(sched, tags);
      Entry row = entry_of(std::move(tags));
      row.metric = slots->as_number();
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

const Entry* match(const std::vector<Entry>& entries, const Entry& key) {
  for (const Entry& entry : entries) {
    if (entry.identity == key.identity) return &entry;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const fedco::util::ArgParser args{argc, argv};
    const std::string baseline_path = args.get("baseline");
    const std::string candidate_path = args.get("candidate");
    const double max_regression_pct =
        args.get_double("max-regression-pct", 20.0);
    const double max_rss_growth_pct =
        args.get_double("max-rss-growth-pct", 50.0);
    if (baseline_path.empty() || candidate_path.empty()) {
      std::fprintf(stderr,
                   "usage: bench_check --baseline PATH --candidate PATH "
                   "[--max-regression-pct N] [--max-rss-growth-pct N]\n");
      return 2;
    }

    const Doc baseline = entries_of(load(baseline_path), baseline_path);
    const Doc candidate = entries_of(load(candidate_path), candidate_path);

    std::size_t compared = 0;
    std::size_t regressions = 0;
    for (const Entry& base : baseline.rows) {
      const Entry* cand = match(candidate.rows, base);
      if (cand == nullptr) {
        std::printf("SKIP  %s: no identical row in candidate (a changed tag "
                    "is a mode change, not a regression)\n",
                    base.name.c_str());
        continue;
      }
      ++compared;
      const double change_pct =
          base.metric > 0.0 ? (cand->metric / base.metric - 1.0) * 100.0 : 0.0;
      const bool regressed = change_pct < -max_regression_pct;
      std::printf("%s  %s: baseline %.0f -> candidate %.0f slots/s (%+.1f%%)\n",
                  regressed ? "FAIL" : "OK  ", base.name.c_str(), base.metric,
                  cand->metric, change_pct);
      if (regressed) ++regressions;
    }
    for (const Entry& cand : candidate.rows) {
      if (match(baseline.rows, cand) == nullptr) {
        std::printf("NEW   %s: no baseline row (recapture the baseline to "
                    "start tracking it)\n",
                    cand.name.c_str());
      }
    }
    // Memory gate: per-fleet peak-RSS growth under the same identity rule.
    // Fleets without a measurement (platforms lacking getrusage report 0)
    // SKIP like rows without a partner.
    for (const Entry& base : baseline.fleets) {
      if (base.metric <= 0.0) continue;
      const Entry* cand = match(candidate.fleets, base);
      if (cand == nullptr || cand->metric <= 0.0) {
        std::printf("SKIP  %s: no identical candidate measurement\n",
                    base.name.c_str());
        continue;
      }
      ++compared;
      const double growth_pct = (cand->metric / base.metric - 1.0) * 100.0;
      const bool regressed = growth_pct > max_rss_growth_pct;
      std::printf("%s  %s: baseline %.1f -> candidate %.1f MiB (%+.1f%%)\n",
                  regressed ? "FAIL" : "OK  ", base.name.c_str(), base.metric,
                  cand->metric, growth_pct);
      if (regressed) ++regressions;
    }
    if (compared == 0) {
      std::fprintf(stderr,
                   "bench_check: no comparable rows between %s and %s\n",
                   baseline_path.c_str(), candidate_path.c_str());
      return 2;
    }
    if (regressions > 0) {
      std::fprintf(stderr,
                   "bench_check: %zu of %zu rows regressed beyond tolerance "
                   "(timing -%.0f%%, RSS +%.0f%%)\n",
                   regressions, compared, max_regression_pct,
                   max_rss_growth_pct);
      return 1;
    }
    std::printf("bench_check: %zu rows within tolerance of baseline\n",
                compared);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_check: %s\n", error.what());
    return 2;
  }
}
