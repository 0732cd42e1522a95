// Trace-driven fleet arrivals: measured "slot,app" usage logs (the
// load_arrival_trace_csv format) replayed as the fleet's arrival source,
// beside the per-user arrival law (legacy scripts or stream cursors). A
// single file (every user replays it) or a directory of per-user files is
// loaded as one TraceFleet; the driver copies each user's events (filtered
// to their presence windows) into the shared script arena and replays them
// through the script feed, so a trace-driven run is deterministic and
// RNG-free on the arrival axis.
#pragma once

#include <string>
#include <vector>

#include "apps/arrival.hpp"

namespace fedco::apps {

/// Loaded usage traces, one slot-sorted event list per file, in file-name
/// order so assignment is stable across platforms. User i replays file
/// i mod file-count.
class TraceFleet {
 public:
  TraceFleet() = default;
  explicit TraceFleet(std::vector<std::vector<ArrivalEvent>> per_file)
      : per_file_(std::move(per_file)) {}

  [[nodiscard]] bool empty() const noexcept { return per_file_.empty(); }
  [[nodiscard]] std::size_t file_count() const noexcept {
    return per_file_.size();
  }

  /// The (slot-ascending) events user `user` replays.
  [[nodiscard]] const std::vector<ArrivalEvent>& events_for_user(
      std::size_t user) const {
    return per_file_[user % per_file_.size()];
  }

 private:
  std::vector<std::vector<ArrivalEvent>> per_file_;
};

/// Load every *.csv under `dir` (sorted by name) through
/// load_arrival_trace_csv. Throws std::runtime_error naming the path when
/// the directory is missing or contains no CSV traces, and propagates
/// load_arrival_trace_csv's errors for each file.
[[nodiscard]] TraceFleet load_arrival_trace_dir(const std::string& dir);

/// The configured trace source: the directory when `dir` is set (it wins),
/// else the single file `path` as a one-file fleet every user replays,
/// else an empty fleet. Throws as the loaders do.
[[nodiscard]] TraceFleet load_trace_fleet(const std::string& dir,
                                          const std::string& path);

}  // namespace fedco::apps
