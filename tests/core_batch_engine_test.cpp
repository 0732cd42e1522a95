// Batched hot-path engine parity: the batched online decide is
// bit-identical to the scalar reference path (golden-fingerprint
// cross-checks over the parity scenario grid). The incremental offline
// replan's equivalence to a cold solve is a solver-level property in
// core_knapsack_test. See docs/algorithms.md for the map of which test
// guards which hot-path algorithm.
#include <gtest/gtest.h>

#include "golden_fingerprint.hpp"

namespace fedco::core {
namespace {

constexpr SchedulerKind kAllKinds[] = {
    SchedulerKind::kImmediate, SchedulerKind::kSyncSgd, SchedulerKind::kOffline,
    SchedulerKind::kOnline};

TEST(BatchEngine, BatchedDecideMatchesScalarForAllSchemes) {
  // The decide_batch contract is strict sequential equivalence with the
  // per-user decide() loop. Flipping online_batch_decide must not move a
  // single bit of any observable, for any scheme (only the online scheme
  // overrides the hook; the others exercise the base-class fallback).
  for (const auto& scenario : testing::parity_scenarios()) {
    for (const SchedulerKind kind : kAllKinds) {
      ExperimentConfig batched = scenario.config;
      batched.scheduler = kind;
      batched.online_batch_decide = true;
      ExperimentConfig scalar = batched;
      scalar.online_batch_decide = false;
      EXPECT_EQ(testing::fingerprint(run_experiment(batched)),
                testing::fingerprint(run_experiment(scalar)))
          << scenario.name << " / " << scheduler_name(kind);
    }
  }
}

}  // namespace
}  // namespace fedco::core
