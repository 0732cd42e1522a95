#include "apps/arrival.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace fedco::apps {

device::AppKind random_app(util::Rng& rng) noexcept {
  return static_cast<device::AppKind>(rng.uniform_int(device::kAppKinds));
}

std::optional<AppArrival> BernoulliArrivals::poll(sim::Slot /*t*/,
                                                  util::Rng& rng) {
  if (!rng.bernoulli(probability_)) return std::nullopt;
  return AppArrival{random_app(rng)};
}

DiurnalArrivals::DiurnalArrivals(double mean_probability, double swing,
                                 double slot_seconds, double peak_hour) noexcept
    : mean_probability_(mean_probability),
      swing_(std::clamp(swing, 0.0, 1.0)),
      slot_seconds_(slot_seconds > 0.0 ? slot_seconds : 1.0),
      peak_hour_(peak_hour),
      // The envelope is exact under IEEE monotone rounding, so fires() may
      // reject against it without changing a single outcome:
      //   - swing_ is clamped to [0,1] and cos <= 1, so swing_*cos <= swing_,
      //     then 1 + swing_*cos <= 1 + swing_, then p*f <= p*(1 + swing_)
      //     for p >= 0 (each step is a monotone rounded operation);
      //   - for p < 0 both sides clamp to 0;
      //   - a NaN anywhere compares false on both sides.
      peak_(std::clamp(mean_probability * (1.0 + swing_), 0.0, 1.0)) {}

double DiurnalArrivals::probability_at(sim::Slot t) const noexcept {
  constexpr double kSecondsPerDay = 86400.0;
  const double hour =
      std::fmod(static_cast<double>(t) * slot_seconds_, kSecondsPerDay) / 3600.0;
  const double phase = (hour - peak_hour_) / 24.0 * 2.0 * 3.14159265358979323846;
  const double factor = 1.0 + swing_ * std::cos(phase);
  return std::clamp(mean_probability_ * factor, 0.0, 1.0);
}

std::optional<AppArrival> DiurnalArrivals::poll(sim::Slot t, util::Rng& rng) {
  if (!fires(t, rng.uniform())) return std::nullopt;
  return AppArrival{random_app(rng)};
}

ScriptedArrivals::ScriptedArrivals(std::vector<Event> events)
    : events_(std::move(events)) {
  std::sort(events_.begin(), events_.end(),
            [](const Event& a, const Event& b) { return a.at < b.at; });
}

bool parse_app_name(std::string_view name, device::AppKind& out) noexcept {
  for (const auto kind : device::all_apps()) {
    if (device::app_name(kind) == name) {
      out = kind;
      return true;
    }
  }
  return false;
}

std::vector<ScriptedArrivals::Event> load_arrival_trace_csv(
    const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"load_arrival_trace_csv: cannot open " + path};
  std::vector<ScriptedArrivals::Event> events;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    const auto comma = line.find(',');
    if (comma == std::string::npos) {
      throw std::invalid_argument{"load_arrival_trace_csv: line " +
                                  std::to_string(line_number) + " has no comma"};
    }
    const std::string slot_text = line.substr(0, comma);
    std::string app_text = line.substr(comma + 1);
    // Trim whitespace/CR.
    while (!app_text.empty() &&
           (app_text.back() == '\r' || app_text.back() == ' ')) {
      app_text.pop_back();
    }
    // Slots must be whole non-negative numbers: a sign, stray characters
    // ("12x"), or anything stoll would silently truncate is a malformed
    // row, and an over-range value would wrap into a bogus slot. Blank
    // padding (spaces or tabs, e.g. spreadsheet exports) is fine.
    const auto begin = slot_text.find_first_not_of(" \t");
    const auto finish = slot_text.find_last_not_of(" \t");
    const std::string trimmed =
        begin == std::string::npos ? std::string{}
                                   : slot_text.substr(begin, finish - begin + 1);
    // Line 1 is a header only when its slot column is named "slot" (in any
    // case); any other first line is data, so a malformed one fails.
    if (line_number == 1 && util::ascii_lowered(trimmed) == "slot") continue;
    if (trimmed.empty() ||
        trimmed.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument{
          "load_arrival_trace_csv: bad slot '" + trimmed + "' at line " +
          std::to_string(line_number) + " (slots are non-negative integers)"};
    }
    sim::Slot slot = 0;
    try {
      slot = std::stoll(trimmed);
    } catch (const std::exception&) {
      throw std::invalid_argument{
          "load_arrival_trace_csv: slot out of range at line " +
          std::to_string(line_number)};
    }
    device::AppKind app{};
    if (!parse_app_name(app_text, app)) {
      // Fall back to a numeric app index.
      try {
        const auto index = static_cast<std::size_t>(std::stoul(app_text));
        if (index >= device::kAppKinds) throw std::out_of_range{"app index"};
        app = static_cast<device::AppKind>(index);
      } catch (const std::exception&) {
        throw std::invalid_argument{
            "load_arrival_trace_csv: unknown app '" + app_text + "' at line " +
            std::to_string(line_number)};
      }
    }
    events.push_back({slot, app});
  }
  return events;
}

std::optional<AppArrival> ScriptedArrivals::poll(sim::Slot t, util::Rng& /*rng*/) {
  // Skip any events missed by a coarse caller.
  while (cursor_ < events_.size() && events_[cursor_].at < t) ++cursor_;
  if (cursor_ < events_.size() && events_[cursor_].at == t) {
    return AppArrival{events_[cursor_++].app};
  }
  return std::nullopt;
}

}  // namespace fedco::apps
