#include "apps/arrival.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/json.hpp"

namespace fedco::apps {

device::AppKind random_app(util::Rng& rng) noexcept {
  return static_cast<device::AppKind>(rng.uniform_int(device::kAppKinds));
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

namespace {

/// `text` without leading and trailing blanks (spaces and tabs, as
/// spreadsheet exports pad columns).
std::string_view trim_blanks(std::string_view text) noexcept {
  const auto begin = text.find_first_not_of(" \t");
  if (begin == std::string_view::npos) return {};
  return text.substr(begin, text.find_last_not_of(" \t") - begin + 1);
}

/// Parse a whole non-negative number: digits only, so a sign, a fraction
/// or stray characters ("12x") never truncate into a bogus value. Returns
/// false on malformed text; `overflow` reports a value past int64.
bool parse_whole(std::string_view text, std::int64_t& out, bool& overflow) {
  overflow = false;
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string_view::npos) {
    return false;
  }
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, out);
  overflow = ec == std::errc::result_out_of_range;
  return ec == std::errc{} && end == last;
}

}  // namespace

std::vector<ArrivalEvent> load_arrival_trace_csv(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    throw std::runtime_error{"load_arrival_trace_csv: " + path +
                             " is a directory, not a trace file"};
  }
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"load_arrival_trace_csv: cannot open " + path};
  const auto malformed = [&path](const std::string& what,
                                 std::size_t line_number) {
    return std::invalid_argument{"load_arrival_trace_csv: " + what +
                                 " at line " + std::to_string(line_number) +
                                 " in " + path};
  };
  std::vector<ArrivalEvent> events;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF
    if (line.empty() || line[0] == '#') continue;
    const auto comma = line.find(',');
    if (comma == std::string::npos) throw malformed("no comma", line_number);
    const std::string_view slot_text =
        trim_blanks(std::string_view{line}.substr(0, comma));
    const std::string_view app_text =
        trim_blanks(std::string_view{line}.substr(comma + 1));
    // Line 1 is a header only when its slot column is named "slot" (in any
    // case); any other first line is data, so a malformed one fails.
    if (line_number == 1 &&
        util::ascii_lowered(std::string{slot_text}) == "slot") {
      continue;
    }
    sim::Slot slot = 0;
    bool overflow = false;
    if (!parse_whole(slot_text, slot, overflow)) {
      if (overflow) throw malformed("slot out of range", line_number);
      throw malformed("bad slot '" + std::string{slot_text} +
                          "' (slots are non-negative integers)",
                      line_number);
    }
    // An app is a name or a whole index in [0, 8), by the slot's rule.
    device::AppKind app{};
    std::int64_t index = 0;
    if (!parse_app_name(app_text, app)) {
      if (!parse_whole(app_text, index, overflow) ||
          index >= static_cast<std::int64_t>(device::kAppKinds)) {
        throw malformed("unknown app '" + std::string{app_text} + "'",
                        line_number);
      }
      app = static_cast<device::AppKind>(index);
    }
    events.push_back({slot, app});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ArrivalEvent& a, const ArrivalEvent& b) {
                     return a.at < b.at;
                   });
  return events;
}

}  // namespace fedco::apps
