#include "util/args.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <type_traits>

namespace fedco::util {

namespace {

/// Parses the whole of `text` with std::stoll or std::strtod. A subnormal
/// is a value, as it is to the JSON loader (std::stod would reject it:
/// strtod flags it with ERANGE); overflow and underflow to zero stay out
/// of range.
template <typename T>
T parse_number(const std::string& text, const char* expected) {
  if (text.empty()) throw std::invalid_argument{"needs a value"};
  const std::string got =
      std::string{"expects "} + expected + ", got '" + text + "'";
  std::size_t consumed = 0;
  bool in_range = true;
  T value{};
  if constexpr (std::is_integral_v<T>) {
    try {
      value = std::stoll(text, &consumed);
    } catch (const std::out_of_range&) {
      in_range = false;
    } catch (const std::invalid_argument&) {
    }
  } else {
    errno = 0;
    char* end = nullptr;
    value = std::strtod(text.c_str(), &end);
    consumed = static_cast<std::size_t>(end - text.c_str());
    in_range = errno != ERANGE || (std::isfinite(value) && value != 0.0);
  }
  if (!in_range) throw std::invalid_argument{got + " (out of range)"};
  if (consumed == text.size()) return value;
  throw std::invalid_argument{got};
}

template <typename T>
T parse_flag(const std::string& name, const std::string& value,
             T (*parse)(const std::string&)) {
  try {
    return parse(value);
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument{"--" + name + ": " + error.what()};
  }
}

}  // namespace

std::int64_t parse_int(const std::string& text) {
  return parse_number<std::int64_t>(text, "an integer");
}

double parse_double(const std::string& text) {
  return parse_number<double>(text, "a number");
}

bool parse_bool(const std::string& text) {
  if (text.empty() || text == "1" || text == "true" || text == "yes" ||
      text == "on") {
    return true;
  }
  if (text == "0" || text == "false" || text == "no" || text == "off") {
    return false;
  }
  throw std::invalid_argument{"expects a boolean, got '" + text + "'"};
}

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("---", 0) == 0) {
      throw std::invalid_argument{"ArgParser: malformed option " + token};
    }
    if (token.rfind("--", 0) != 0) {
      throw std::invalid_argument{"ArgParser: '" + token +
                                  "' follows no option"};
    }
    const std::string body = token.substr(2);
    if (body.empty()) {
      throw std::invalid_argument{"ArgParser: empty option name"};
    }
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // Look ahead: a following token that is not an option is this
    // option's value.
    if (i + 1 < argc && std::string{argv[i + 1]}.rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "";
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  touched_[name] = true;
  return options_.contains(name);
}

std::string ArgParser::get(const std::string& name,
                           const std::string& fallback) const {
  touched_[name] = true;
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  return has(name) ? parse_flag(name, get(name), parse_double) : fallback;
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  return has(name) ? parse_flag(name, get(name), parse_int) : fallback;
}

std::vector<std::string> ArgParser::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : options_) {
    const auto it = touched_.find(name);
    if (it == touched_.end() || !it->second) out.push_back(name);
  }
  return out;
}

}  // namespace fedco::util
