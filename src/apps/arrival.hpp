// Foreground application arrivals: the event a usage script holds, and the
// measured usage logs such scripts are loaded from.
//
// The paper's evaluation draws one app arrival per user with probability
// 0.001 per 1-second slot, uniformly choosing among the 8 profiled apps;
// that law (with its optional diurnal modulation) is
// apps::ArrivalStreamParams in arrival_stream.hpp.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "device/profiles.hpp"
#include "sim/clock.hpp"
#include "util/rng.hpp"

namespace fedco::apps {

/// One scripted app arrival: `app` comes to the foreground at slot `at`.
struct ArrivalEvent {
  sim::Slot at;
  device::AppKind app;
};

/// Uniformly random app kind.
[[nodiscard]] device::AppKind random_app(util::Rng& rng) noexcept;

/// Parse an app name ("Map", "Tiktok", ... as printed by app_name) into its
/// kind; returns false on an unknown name.
[[nodiscard]] bool parse_app_name(std::string_view name, device::AppKind& out) noexcept;

/// Load a usage trace from CSV with rows "slot,app" and return its events
/// sorted by slot (rows at the same slot keep their file order). Both
/// columns may be padded with spaces or tabs; a slot is a whole
/// non-negative number, an app is a name or a whole index in [0, 8).
/// Line 1 is skipped as a header only when its slot column reads "slot",
/// in any case. Throws std::runtime_error naming the path when it cannot
/// be opened or is a directory, and std::invalid_argument naming the line
/// and the path for a malformed row.
[[nodiscard]] std::vector<ArrivalEvent> load_arrival_trace_csv(
    const std::string& path);

}  // namespace fedco::apps
