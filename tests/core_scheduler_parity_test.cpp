// Golden-parity suite for the Scheduler strategy refactor.
//
// The golden constants below were captured from the pre-refactor monolithic
// driver (the PR 2 baseline, where all four schemes were interleaved
// `switch (cfg.scheduler)` branches inside core::run_experiment) on the
// scenario grid of tests/golden_fingerprint.hpp. Each refactored
// core::Scheduler must reproduce those runs bit-for-bit: the fingerprint
// hashes every scalar, every trace sample, and every lag/gap sample of the
// result, so a single flipped bit anywhere in a run fails the suite.
//
// The constants are IEEE-754 bit patterns produced on the reference
// x86-64/libstdc++ toolchain; a different platform's libm may legitimately
// differ in the last ulp. The suite therefore also cross-checks refactored
// determinism (same config -> same fingerprint) which must hold everywhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "golden_fingerprint.hpp"

namespace fedco::core {
namespace {

struct Golden {
  const char* scenario;
  SchedulerKind kind;
  std::uint64_t fingerprint;
};

// Captured from the pre-refactor driver (see file comment).
constexpr Golden kGoldens[] = {
    {"plain", SchedulerKind::kImmediate, 0x369B93CFCA6AE7BCULL},
    {"plain", SchedulerKind::kSyncSgd, 0x32F8E6AE5384235EULL},
    {"plain", SchedulerKind::kOffline, 0xC3AA71D40BCCF80EULL},
    {"plain", SchedulerKind::kOnline, 0xA7C03C2A1CBB6B6FULL},
    {"environment", SchedulerKind::kImmediate, 0xA848E61725314841ULL},
    {"environment", SchedulerKind::kSyncSgd, 0xC7376D02EE30649FULL},
    {"environment", SchedulerKind::kOffline, 0x9F74B4FFFEBA04DCULL},
    {"environment", SchedulerKind::kOnline, 0xF0FDB88851D78D25ULL},
    {"real-training", SchedulerKind::kImmediate, 0x7526B579AF24F071ULL},
    {"real-training", SchedulerKind::kSyncSgd, 0xE0F4E847A7018B39ULL},
    {"real-training", SchedulerKind::kOffline, 0x68395AAC25AEA39FULL},
    {"real-training", SchedulerKind::kOnline, 0xB9F4DB3D95F10D52ULL},
};

ExperimentConfig scenario_config(const char* name, SchedulerKind kind) {
  for (const auto& scenario : testing::parity_scenarios()) {
    if (std::string_view{scenario.name} == name) {
      ExperimentConfig cfg = scenario.config;
      cfg.scheduler = kind;
      return cfg;
    }
  }
  throw std::logic_error{"unknown parity scenario"};
}

TEST(SchedulerParity, RefactoredSchedulersMatchPreRefactorGoldens) {
  for (const Golden& golden : kGoldens) {
    const ExperimentConfig cfg =
        scenario_config(golden.scenario, golden.kind);
    const ExperimentResult result = run_experiment(cfg);
    EXPECT_EQ(testing::fingerprint(result), golden.fingerprint)
        << golden.scenario << " / " << scheduler_name(golden.kind);
  }
}

TEST(SchedulerParity, FingerprintIsDeterministic) {
  // The §6 contract independent of the golden platform: re-running the
  // same config yields the same fingerprint (every scalar, trace sample,
  // and lag/gap sample bit-identical).
  for (const auto kind : {SchedulerKind::kImmediate, SchedulerKind::kSyncSgd,
                          SchedulerKind::kOffline, SchedulerKind::kOnline}) {
    const ExperimentConfig cfg = scenario_config("plain", kind);
    EXPECT_EQ(testing::fingerprint(run_experiment(cfg)),
              testing::fingerprint(run_experiment(cfg)))
        << scheduler_name(kind);
  }
}

TEST(SchedulerParity, FingerprintSeparatesSchemes) {
  // Sanity on the hash itself: the four schemes produce four distinct
  // fingerprints on the same scenario (no accidental collisions/constants).
  std::vector<std::uint64_t> prints;
  for (const auto kind : {SchedulerKind::kImmediate, SchedulerKind::kSyncSgd,
                          SchedulerKind::kOffline, SchedulerKind::kOnline}) {
    prints.push_back(
        testing::fingerprint(run_experiment(scenario_config("plain", kind))));
  }
  for (std::size_t i = 0; i < prints.size(); ++i) {
    for (std::size_t j = i + 1; j < prints.size(); ++j) {
      EXPECT_NE(prints[i], prints[j]);
    }
  }
}

}  // namespace
}  // namespace fedco::core
