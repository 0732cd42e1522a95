// ExperimentConfig <-> JSON round-trip.
//
// Scenario files let one saved JSON document reproduce an experiment
// exactly: `fedco_sim --config scenario.json` loads a config, and a config
// saved by save_config_json reloads to an operator== equal config (doubles
// are written in shortest-round-trip form), hence the same seeded result.
// That includes the per-user fleet: it is written as the "per_user" array
// and reloads into an arena that compares equal by per-user content.
// result_io embeds the same full config object in every result document,
// so a dumped result can be fed straight back to --config.
//
// Loading is strict about keys (an unknown key throws — it is almost
// always a typo) but lenient about omissions: absent keys keep their
// ExperimentConfig defaults, so scenario files only state what they change.
// Load and save walk one field table per JSON object (util::JsonField), so
// each key is spelled once.
#pragma once

#include <optional>
#include <string>

#include "core/experiment.hpp"
#include "scenario/spec.hpp"
#include "util/json.hpp"

namespace fedco::core {

// Enum <-> token vocabularies, shared with the CLI flag parsers.
[[nodiscard]] const char* scheduler_token(SchedulerKind kind) noexcept;
[[nodiscard]] const char* model_token(ModelKind kind) noexcept;
[[nodiscard]] const char* aggregation_token(fl::AggregationKind kind) noexcept;
[[nodiscard]] const char* device_token(
    const std::optional<device::DeviceKind>& kind) noexcept;

/// Parse tokens; throw std::invalid_argument on unknown names. The
/// scheduler parser accepts both the CLI tokens ("online", "sync") and the
/// display names result documents print ("Online", "Sync-SGD").
[[nodiscard]] SchedulerKind parse_scheduler_token(const std::string& name);
[[nodiscard]] ModelKind parse_model_token(const std::string& name);
[[nodiscard]] fl::AggregationKind parse_aggregation_token(
    const std::string& name);
/// "mixed" (or empty) means the per-user random fleet -> nullopt.
[[nodiscard]] std::optional<device::DeviceKind> parse_device_token(
    const std::string& name);

/// Append the full config as members of the currently-open JSON object
/// (used by config_to_json and by result_io's "config" section).
void write_config_members(util::JsonWriter& json,
                          const ExperimentConfig& config);

[[nodiscard]] std::string config_to_json(const ExperimentConfig& config);

/// Parse a config from a JSON document: either a bare config object or any
/// document with a "config" member (e.g. a result_io dump). Unknown keys
/// throw std::invalid_argument, as does any value core::validate rejects
/// (the message is `config_io: '<field>' <reason>`; a per_user array whose
/// length differs from num_users is one) or a "per_user" entry
/// core::validate_user rejects (the field reads `per_user[i].<field>`).
[[nodiscard]] ExperimentConfig config_from_json(const std::string& text);

/// File variants; throw std::runtime_error when the file cannot be opened.
/// load_config_json prefixes parse and validation errors with the path.
[[nodiscard]] ExperimentConfig load_config_json(const std::string& path);
void save_config_json(const std::string& path, const ExperimentConfig& config);

/// Overlay a declarative scenario onto a base config (the CLI's
/// `--scenario` path). The spec owns the population outright: num_users,
/// horizon_slots, the arrival processes (the base rate, diurnal shape,
/// and any arrival trace are replaced — a leftover trace would silently
/// override the spec's per-user rates), and the network-tier mix; then
/// generate_fleet_arena(spec, base.seed) fills config.fleet (O(1)
/// allocations per override concern, the 1M-user expansion path).
/// Everything else (scheduler, training, environment knobs) stays with
/// `base`, so scenario files compose with ordinary flags/config files. The
/// expanded config is self-contained: saving it (or any result document
/// embedding it) writes the fleet as the "per_user" array and reproduces
/// the run without the spec.
[[nodiscard]] ExperimentConfig apply_scenario_arena(
    const scenario::ScenarioSpec& spec, ExperimentConfig base);

}  // namespace fedco::core
