// Minimal command-line argument parser for the fedco_sim CLI and examples.
// Supports --key value, --key=value, and bare --flag forms.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fedco::util {

/// Whole-string value parsers shared with fedco_sim's flag table. Empty
/// text, trailing junk and a value out of range throw std::invalid_argument
/// saying what was expected; the caller prefixes the flag's name.
[[nodiscard]] std::int64_t parse_int(const std::string& text);
[[nodiscard]] double parse_double(const std::string& text);
/// Empty text (a bare switch), 1, true, yes and on are true; 0, false, no
/// and off are false.
[[nodiscard]] bool parse_bool(const std::string& text);

class ArgParser {
 public:
  /// Parses argv[1..argc). Throws std::invalid_argument on a malformed
  /// option (e.g. "---x" or a value-looking token with no option).
  ArgParser(int argc, const char* const* argv);

  /// Was --name present (with or without a value)?
  [[nodiscard]] bool has(const std::string& name) const;

  /// String value of --name, or `fallback` when absent. A flag given
  /// without a value yields the empty string.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const;

  /// Numeric accessors: `fallback` when --name is absent; a present value
  /// goes through parse_*, and a failure (an empty value too) throws
  /// std::invalid_argument "--name: <why>".
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;

  /// Option names seen but never queried via has/get*; used to report
  /// probable typos.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> options_;
  mutable std::map<std::string, bool> touched_;
};

}  // namespace fedco::util
