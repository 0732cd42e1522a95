// The stream oracle: a lazy-stream run replayed through the script feed.
//
// With arrival_streams on, the driver samples each user's arrivals lazily
// from a counter-based stream and re-seeks its cursors at every presence
// window. The oracle materializes the same streams up front
// (apps::materialize_stream, one call per presence window), writes user i's
// events to u%08zu.csv — zero-padded, so the trace loader's name order
// hands user i file i — and reruns the config with that directory as its
// arrival_trace_dir. arrival_streams stays on, so the device picks and
// runtime draws keep their stream keys: only the arrival feed differs, and
// the traced run must reproduce the lazy one bit for bit. Its guard blanks
// one user's file with an arrival and requires the traced run to change,
// so a driver that ignored the trace (lazy against lazy) cannot pass.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "apps/arrival_stream.hpp"
#include "core/experiment.hpp"
#include "golden_fingerprint.hpp"
#include "util/stream_rng.hpp"

namespace fedco::testing {

/// Run `lazy` (stream arrivals, no trace) with its arrivals replayed from
/// a trace directory of its own materialized streams.
inline core::ExperimentResult run_stream_oracle(
    const core::ExperimentConfig& lazy, const core::RunHooks& hooks = {}) {
  namespace fs = std::filesystem;
  if (!lazy.arrival_streams || !lazy.arrival_trace_path.empty() ||
      !lazy.arrival_trace_dir.empty()) {
    throw std::logic_error{"run_stream_oracle: needs a lazy stream config"};
  }
  // Unique per process and call: suites run concurrently under ctest -j.
  static int calls = 0;
  const fs::path dir =
      fs::temp_directory_path() /
      ("fedco_stream_oracle_" + std::to_string(::getpid()) + "_" +
       std::to_string(calls++));
  fs::remove_all(dir);
  fs::create_directories(dir);
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{dir};
  fs::path busy;  // the first file that holds an arrival

  for (std::size_t i = 0; i < lazy.num_users; ++i) {
    const scenario::PerUserConfig pu =
        lazy.fleet ? lazy.fleet->user(i) : scenario::PerUserConfig{};
    const apps::ArrivalStreamParams params{
        pu.arrival_probability.value_or(lazy.arrival_probability),
        pu.diurnal.value_or(lazy.diurnal),
        pu.diurnal_swing.value_or(lazy.diurnal_swing), pu.diurnal_peak_hour,
        lazy.slot_seconds};
    const std::uint64_t key = util::stream_key(
        lazy.seed, i,
        static_cast<std::uint64_t>(apps::StreamConcern::kArrivals));
    char name[32];
    std::snprintf(name, sizeof name, "u%08zu.csv", i);
    std::ofstream out{dir / name};
    const auto write = [&](sim::Slot join, sim::Slot leave) {
      const sim::Slot end = std::min(lazy.horizon_slots, leave);
      if (join >= end) return;
      for (const apps::ArrivalEvent& e :
           apps::materialize_stream(params, key, join, end)) {
        out << e.at << ',' << static_cast<unsigned>(e.app) << '\n';
        if (busy.empty()) busy = dir / name;
      }
    };
    write(pu.join_slot, pu.leave_slot);
    for (const scenario::PresenceWindow& w : pu.extra_windows) {
      write(w.join, w.leave);
    }
    if (!out) throw std::runtime_error{"run_stream_oracle: cannot write"};
  }

  core::ExperimentConfig traced = lazy;
  traced.arrival_trace_dir = dir.string();
  core::ExperimentResult result = core::run_experiment(traced, hooks);
  // Guard against comparing lazy with lazy: without one user's arrivals
  // the traced run must differ, or the trace did not drive it.
  if (busy.empty()) {
    ADD_FAILURE() << "the stream oracle's config has no arrival to replay";
  } else {
    std::ofstream{busy, std::ios::trunc};
    EXPECT_NE(fingerprint(core::run_experiment(traced)), fingerprint(result))
        << "the stream oracle's run did not replay its trace";
  }
  return result;
}

}  // namespace fedco::testing
