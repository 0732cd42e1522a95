// Churn-aware / VIP-priority golden battery (departure- and priority-aware
// scheduling).
//
// Three scheduling modes — departure-aware planning (offline_churn_aware +
// online_churn_aware), VIP priority weights (the spec's priority block), and
// the two combined — each pinned as a golden FNV fingerprint under all four
// schedulers, plus the contracts that make the modes safe to ship:
//
//   1. Oblivious runs stay bit-identical to the pre-churn-aware goldens:
//      the Oblivious suite re-runs the scenario_stream_parity "stream-churn"
//      battery (fingerprints pinned in PR 6) with both flags at their false
//      defaults and no priority block, proving the new code paths (the
//      priority RNG fork, the SchedulerContext accessors, the h_scale
//      plumbing) never perturb an oblivious run.
//   2. A priority block with vip_fraction 0 and weight 1 is the exact
//      identity — same fingerprints as no block at all.
//   3. Immediate and Sync-SGD have no weighted objective, so their VIP
//      fingerprints coincide with their no-priority fingerprints (priority
//      only reorders work for the two paper schemes that optimise).
//
// Like the other golden suites, the pinned constants are IEEE-754 bit
// patterns from the reference x86-64/libstdc++ toolchain. Re-pin after an
// intentional change with
//   FEDCO_REGEN_GOLDENS=1 ./scenario_priority_test
// and paste the printed table (see tests/README.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/config_io.hpp"
#include "golden_fingerprint.hpp"
#include "scenario/spec.hpp"

namespace fedco::core {
namespace {

bool regen_mode() {
  const char* regen = std::getenv("FEDCO_REGEN_GOLDENS");
  return regen != nullptr && regen[0] != '\0' && regen[0] != '0';
}

ExperimentConfig base_config(SchedulerKind kind) {
  ExperimentConfig cfg;
  cfg.scheduler = kind;
  cfg.seed = 42;
  cfg.record_interval = 60;
  return cfg;
}

/// The scenario_stream_parity "stream-churn" fleet, field for field: 40% of
/// users churn with presence fractions in [0.25, 0.75], so departures are
/// frequent enough for the churn-aware modes to bite. Reusing the PR-6 fleet
/// makes the oblivious row directly comparable to the pinned pre-churn-aware
/// constants (and gives the PR description its energy/lag tradeoff).
scenario::ScenarioSpec churn_fleet_spec() {
  scenario::ScenarioSpec spec;
  spec.num_users = 60;
  spec.horizon_slots = 2400;
  spec.arrival.distribution = scenario::ArrivalSpec::Distribution::kLogNormal;
  spec.arrival.mean_probability = 0.004;
  spec.arrival.sigma = 0.6;
  spec.churn.churn_fraction = 0.4;
  spec.churn.min_presence = 0.25;
  spec.churn.max_presence = 0.75;
  spec.stream_rng = true;
  return spec;
}

/// The three battery modes over the shared churn fleet.
ExperimentConfig battery_config(const std::string& name, SchedulerKind kind) {
  ExperimentConfig base = base_config(kind);
  scenario::ScenarioSpec spec = churn_fleet_spec();
  if (name == "churn-aware") {
    base.offline_churn_aware = true;
    base.online_churn_aware = true;
    return apply_scenario_arena(spec, base);
  }
  if (name == "vip") {
    spec.priority.vip_fraction = 0.25;
    spec.priority.vip_weight = 4.0;
    return apply_scenario_arena(spec, base);
  }
  if (name == "vip-churn-aware") {
    spec.priority.vip_fraction = 0.25;
    spec.priority.vip_weight = 4.0;
    base.offline_churn_aware = true;
    base.online_churn_aware = true;
    return apply_scenario_arena(spec, base);
  }
  throw std::logic_error{"unknown priority battery scenario"};
}

struct PriorityGolden {
  const char* scenario;
  SchedulerKind kind;
  std::uint64_t fingerprint;
};

// Captured from the initial churn-/priority-aware implementation (PR 10)
// with FEDCO_REGEN_GOLDENS=1.
// Note the immediate/sync rows: they equal the PR-6 stream-churn constants
// in every mode — the PriorityInvariance suite below pins that coincidence
// as a contract rather than an accident.
constexpr PriorityGolden kPriorityGoldens[] = {
    {"churn-aware", SchedulerKind::kImmediate, 0x16112152BA2F85D0ULL},
    {"churn-aware", SchedulerKind::kSyncSgd, 0x95D831B433286C93ULL},
    {"churn-aware", SchedulerKind::kOffline, 0x3D64BA616CF8F5B0ULL},
    {"churn-aware", SchedulerKind::kOnline, 0x58D1B41AF6BF42C6ULL},
    {"vip", SchedulerKind::kImmediate, 0x16112152BA2F85D0ULL},
    {"vip", SchedulerKind::kSyncSgd, 0x95D831B433286C93ULL},
    {"vip", SchedulerKind::kOffline, 0xBFCC286633B4090FULL},
    {"vip", SchedulerKind::kOnline, 0x5B2C94EC2432DA6CULL},
    {"vip-churn-aware", SchedulerKind::kImmediate, 0x16112152BA2F85D0ULL},
    {"vip-churn-aware", SchedulerKind::kSyncSgd, 0x95D831B433286C93ULL},
    {"vip-churn-aware", SchedulerKind::kOffline, 0xD4353DB7C3D3C732ULL},
    {"vip-churn-aware", SchedulerKind::kOnline, 0x89C0F41600A4787CULL},
};

TEST(PriorityGoldens, EveryModeIsPinned) {
  for (const PriorityGolden& golden : kPriorityGoldens) {
    const ExperimentConfig cfg = battery_config(golden.scenario, golden.kind);
    const std::uint64_t fp = testing::fingerprint(run_experiment(cfg));
    if (regen_mode()) {
      std::printf("    {\"%s\", SchedulerKind::k%s, 0x%016llXULL},\n",
                  golden.scenario,
                  std::string{scheduler_name(golden.kind)} == "Sync-SGD"
                      ? "SyncSgd"
                      : scheduler_name(golden.kind),
                  static_cast<unsigned long long>(fp));
      continue;
    }
    EXPECT_EQ(fp, golden.fingerprint)
        << golden.scenario << " / " << scheduler_name(golden.kind);
  }
}

// ---------------------------------------------------------------------------
// Oblivious runs stay bit-identical to the pre-churn-aware goldens.
// ---------------------------------------------------------------------------

// Pinned constants copied verbatim from kStreamGoldens in
// tests/scenario_stream_parity_test.cpp (captured in PR 6, four releases
// before the churn-aware modes existed).
constexpr PriorityGolden kPreChurnAwareGoldens[] = {
    {"stream-churn", SchedulerKind::kImmediate, 0x16112152BA2F85D0ULL},
    {"stream-churn", SchedulerKind::kSyncSgd, 0x95D831B433286C93ULL},
    {"stream-churn", SchedulerKind::kOffline, 0xB6C6307825615535ULL},
    {"stream-churn", SchedulerKind::kOnline, 0xE99F24234EB9FA40ULL},
};

TEST(Oblivious, DefaultFlagsMatchPreChurnAwareGoldens) {
  for (const PriorityGolden& golden : kPreChurnAwareGoldens) {
    const ExperimentConfig cfg =
        apply_scenario_arena(churn_fleet_spec(), base_config(golden.kind));
    EXPECT_FALSE(cfg.offline_churn_aware);
    EXPECT_FALSE(cfg.online_churn_aware);
    EXPECT_EQ(testing::fingerprint(run_experiment(cfg)), golden.fingerprint)
        << scheduler_name(golden.kind);
  }
}

TEST(Oblivious, DisabledPriorityBlockIsTheExactIdentity) {
  // vip_fraction 0 with weight 1 assigns nothing: the spec round-trips the
  // block but the fleet carries no weights and no scheduler sees one.
  for (const PriorityGolden& golden : kPreChurnAwareGoldens) {
    scenario::ScenarioSpec spec = churn_fleet_spec();
    spec.priority.vip_fraction = 0.0;
    spec.priority.vip_weight = 4.0;  // irrelevant with no VIPs
    EXPECT_FALSE(spec.priority.enabled());
    const ExperimentConfig cfg =
        apply_scenario_arena(spec, base_config(golden.kind));
    EXPECT_EQ(testing::fingerprint(run_experiment(cfg)), golden.fingerprint)
        << scheduler_name(golden.kind);
  }
}

// ---------------------------------------------------------------------------
// Schemes without a weighted objective are priority-invariant.
// ---------------------------------------------------------------------------

TEST(PriorityInvariance, ImmediateAndSyncIgnoreVipWeights) {
  // Immediate trains whenever ready and Sync-SGD waits on its barrier —
  // neither optimises a weighted objective, so a VIP fleet must produce
  // exactly the oblivious fingerprint (the weights exist, the schedulers
  // never read them). Offline/online are expected to differ; the battery
  // pins their VIP fingerprints above.
  for (const SchedulerKind kind :
       {SchedulerKind::kImmediate, SchedulerKind::kSyncSgd}) {
    const std::uint64_t base = testing::fingerprint(
        run_experiment(apply_scenario_arena(churn_fleet_spec(), base_config(kind))));
    const std::uint64_t vip =
        testing::fingerprint(run_experiment(battery_config("vip", kind)));
    EXPECT_EQ(vip, base) << scheduler_name(kind);
  }
}

TEST(PriorityInvariance, WeightedSchedulersReactToVipWeights) {
  // The counterpart guard: if offline/online ever stopped folding the
  // weight into their objective, the VIP goldens would silently collapse
  // onto the base constants and the battery above would keep passing after
  // a regen. Pin the *difference* too.
  for (const SchedulerKind kind :
       {SchedulerKind::kOffline, SchedulerKind::kOnline}) {
    const std::uint64_t base = testing::fingerprint(
        run_experiment(apply_scenario_arena(churn_fleet_spec(), base_config(kind))));
    const std::uint64_t vip =
        testing::fingerprint(run_experiment(battery_config("vip", kind)));
    EXPECT_NE(vip, base) << scheduler_name(kind);
  }
}

TEST(ChurnAware, FlagsChangeOfflineAndOnlineSchedules) {
  // Same guard for the churn-aware flags: on this fleet (40% churners) the
  // departure-aware plans must actually diverge from the oblivious ones.
  for (const SchedulerKind kind :
       {SchedulerKind::kOffline, SchedulerKind::kOnline}) {
    const std::uint64_t oblivious = testing::fingerprint(
        run_experiment(apply_scenario_arena(churn_fleet_spec(), base_config(kind))));
    const std::uint64_t aware = testing::fingerprint(
        run_experiment(battery_config("churn-aware", kind)));
    EXPECT_NE(aware, oblivious) << scheduler_name(kind);
  }
}

}  // namespace
}  // namespace fedco::core
