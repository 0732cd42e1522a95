// Shared campaign plumbing for the sweep benches.
//
// Every campaign-ported bench accepts `--jobs N` (0 = the FEDCO_JOBS
// environment variable, else all hardware threads — see
// core::resolve_jobs, which lets CI pin core counts fleet-wide) and ends
// with a standard log line: experiments run, wall-clock, and the realised
// speedup vs serial execution (sum of per-experiment runtimes / wall).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "core/campaign.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace fedco::bench {

/// Parse --jobs (default 0 = resolve via FEDCO_JOBS / hardware threads).
/// A malformed command line (a bare or non-numeric --jobs, a stray value)
/// exits 2 with the parser's message instead of escaping main.
inline std::size_t jobs_from_args(int argc, char** argv) {
  try {
    const util::ArgParser args{argc, argv};
    return static_cast<std::size_t>(args.get_int("jobs", 0));
  } catch (const std::invalid_argument& error) {
    std::cerr << argv[0] << ": " << error.what() << '\n';
    std::exit(2);
  }
}

/// Accumulates campaign reports across a bench's sweeps so multi-campaign
/// benches (the ablations) can log one grand total.
struct CampaignTotals {
  std::size_t experiments = 0;
  std::size_t jobs = 1;
  double wall_seconds = 0.0;
  double serial_seconds = 0.0;

  void add(const core::CampaignReport& report) noexcept {
    experiments += report.results.size();
    jobs = report.jobs;
    wall_seconds += report.wall_seconds;
    serial_seconds += report.serial_seconds;
  }

  [[nodiscard]] double speedup() const noexcept {
    return wall_seconds > 0.0 ? serial_seconds / wall_seconds : 1.0;
  }
};

inline void log_campaign(const CampaignTotals& totals) {
  std::cout << "\ncampaign: " << totals.experiments << " experiments on "
            << totals.jobs << " jobs, "
            << util::TextTable::num(totals.wall_seconds, 2) << " s wall ("
            << util::TextTable::num(totals.serial_seconds, 2)
            << " s serial work, " << util::TextTable::num(totals.speedup(), 2)
            << "x speedup vs --jobs 1)\n";
}

inline void log_campaign(const core::CampaignReport& report) {
  CampaignTotals totals;
  totals.add(report);
  log_campaign(totals);
}

}  // namespace fedco::bench
