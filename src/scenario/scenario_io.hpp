// ScenarioSpec <-> JSON round-trip.
//
// Scenario files are the declarative front door of the scenario subsystem:
// `fedco_sim --scenario fleet.json` loads a spec, expands it with
// generate_fleet, and runs it. Like config_io, loading is strict about keys
// (an unknown key throws — it is almost always a typo) but lenient about
// omissions: absent keys keep their ScenarioSpec defaults, so scenario
// files only state what they change. save/load round-trips to an
// operator== equal spec (doubles in shortest-round-trip form); both walk
// one field table per JSON object (util::JsonField).
#pragma once

#include <string>

#include "scenario/spec.hpp"

namespace fedco::scenario {

/// Token vocabulary for concrete device kinds ("nexus6", "nexus6p",
/// "hikey970", "pixel2"); shared with core::config_io, whose "mixed"
/// pseudo-token (the no-pin fleet) stays config-level.
[[nodiscard]] const char* device_kind_token(device::DeviceKind kind) noexcept;
[[nodiscard]] device::DeviceKind parse_device_kind_token(
    const std::string& name);

/// Arrival-distribution tokens ("fixed", "uniform", "lognormal").
[[nodiscard]] const char* arrival_distribution_token(
    ArrivalSpec::Distribution distribution) noexcept;
[[nodiscard]] ArrivalSpec::Distribution parse_arrival_distribution_token(
    const std::string& name);

[[nodiscard]] std::string spec_to_json(const ScenarioSpec& spec);

/// Parse a spec from a JSON document. Unknown keys throw
/// std::invalid_argument; the parsed spec is validated before returning.
[[nodiscard]] ScenarioSpec spec_from_json(const std::string& text);

/// File variants; throw std::runtime_error when the file cannot be opened.
/// load_scenario_json prefixes parse and validation errors with the path.
[[nodiscard]] ScenarioSpec load_scenario_json(const std::string& path);
void save_scenario_json(const std::string& path, const ScenarioSpec& spec);

}  // namespace fedco::scenario
