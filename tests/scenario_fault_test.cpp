// Fault-injection golden battery (scenario faults subsystem).
//
// Four fault features — scheduled regional outages, netem-style link
// degradation profiles, commute presence cycles, and trace-driven fleets —
// each pinned as a golden FNV fingerprint under all four schedulers, the
// single usage log every user replays (arrival_trace_path) pinned the same
// way with arrival_streams off and on, plus the two contracts that make the
// subsystem safe to ship:
//
//   1. Fault-free specs are bit-identical to the pre-fault goldens: the
//      FaultFree suite re-runs the scenario_stream_parity "stream-churn"
//      battery against the fingerprints pinned in PR 6, proving the fault
//      machinery (extra RNG forks, presence-window splitting, the degraded
//      begin_transfer path) never perturbs a spec with no faults block.
//   2. Events-on runs of fault scenarios are fingerprint-identical to
//      events-off runs, and the stream carries the new outage/link-phase
//      markers alongside the join/leave churn the faults induce.
//
// Like the other golden suites, the pinned constants are IEEE-754 bit
// patterns from the reference x86-64/libstdc++ toolchain. Re-pin after an
// intentional change with
//   FEDCO_REGEN_GOLDENS=1 ./scenario_fault_test
// and paste the printed table (see tests/README.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "golden_fingerprint.hpp"
#include "obs/events.hpp"
#include "scenario/netem_profiles.hpp"
#include "scenario/spec.hpp"

namespace fedco::core {
namespace {

bool regen_mode() {
  const char* regen = std::getenv("FEDCO_REGEN_GOLDENS");
  return regen != nullptr && regen[0] != '\0' && regen[0] != '0';
}

constexpr SchedulerKind kAllSchedulers[] = {
    SchedulerKind::kImmediate, SchedulerKind::kSyncSgd, SchedulerKind::kOffline,
    SchedulerKind::kOnline};

ExperimentConfig base_config(SchedulerKind kind) {
  ExperimentConfig cfg;
  cfg.scheduler = kind;
  cfg.seed = 42;
  cfg.record_interval = 60;
  return cfg;
}

/// A temp directory of small per-user "slot,app" traces, written once per
/// process (the trace-driven golden replays it; contents are pinned here,
/// not on disk, so the golden cannot drift with the repo's example files).
const std::string& trace_dir() {
  static const std::string dir = [] {
    const std::filesystem::path root =
        std::filesystem::temp_directory_path() / "fedco_fault_traces";
    std::filesystem::create_directories(root);
    const struct {
      const char* file;
      const char* body;
    } traces[] = {
        {"a.csv", "slot,app\n30,Map\n200,Youtube\n500,News\n900,Tiktok\n"
                  "1400,Zoom\n2000,CandyCrush\n"},
        {"b.csv", "slot,app\n80,Etrade\n350,Angrybird\n700,Map\n1100,Youtube\n"
                  "1700,News\n2200,Zoom\n"},
        {"c.csv", "slot,app\n10,Tiktok\n260,Zoom\n600,CandyCrush\n1000,Etrade\n"
                  "1500,Map\n2100,Youtube\n"},
    };
    for (const auto& t : traces) {
      std::ofstream out{root / t.file, std::ios::trunc};
      out << t.body;
    }
    return root.string();
  }();
  return dir;
}

/// The four fault-feature battery scenarios, one per tentpole feature.
ExperimentConfig battery_config(const std::string& name, SchedulerKind kind) {
  ExperimentConfig base = base_config(kind);
  scenario::ScenarioSpec spec;
  spec.num_users = 40;
  spec.horizon_slots = 2400;
  spec.arrival.distribution = scenario::ArrivalSpec::Distribution::kUniform;
  spec.arrival.min_probability = 0.002;
  spec.arrival.max_probability = 0.006;
  spec.arrival.mean_probability = 0.004;
  if (name == "fault-outage") {
    spec.diurnal.enabled = true;
    spec.diurnal.swing = 0.6;
    spec.diurnal.timezone_spread_hours = 10.0;
    scenario::OutageSpec band;
    band.region = "apac_evening";
    band.start_slot = 600;
    band.end_slot = 900;
    band.band_begin_hour = 16.0;
    band.band_end_hour = 2.0;  // wraps past midnight
    scenario::OutageSpec sampled;
    sampled.region = "sampled_quarter";
    sampled.start_slot = 1500;
    sampled.end_slot = 1700;
    sampled.fraction = 0.25;
    spec.faults.outages = {band, sampled};
    return apply_scenario_arena(spec, base);
  }
  if (name == "fault-degrade") {
    spec.network.lte_fraction = 0.4;
    spec.faults.degradations = {{"evening_congestion", 0.5},
                                {"cell_brownout", 0.3}};
    // 60 s slots: the 2400-slot horizon spans 40 h of day time, so both
    // profiles' phases open and close inside the run.
    base.slot_seconds = 60.0;
    return apply_scenario_arena(spec, base);
  }
  if (name == "fault-commute") {
    spec.churn.churn_fraction = 0.2;
    spec.churn.min_presence = 0.3;
    spec.churn.max_presence = 0.8;
    spec.faults.commute.fraction = 0.6;
    spec.faults.commute.period_slots = 600;
    spec.faults.commute.on_slots = 350;
    return apply_scenario_arena(spec, base);
  }
  if (name == "fault-trace") {
    spec.num_users = 12;
    spec.faults.trace_dir = trace_dir();
    return apply_scenario_arena(spec, base);
  }
  throw std::logic_error{"unknown fault battery scenario"};
}

struct FaultGolden {
  const char* scenario;
  SchedulerKind kind;
  std::uint64_t fingerprint;
};

// Captured from the initial fault-subsystem implementation (PR 9) with
// FEDCO_REGEN_GOLDENS=1. The fault-outage and fault-commute Offline rows
// were re-pinned when the decide batch became one row per user: a stale
// wake used to start a second session for a user already in the batch.
constexpr FaultGolden kFaultGoldens[] = {
    {"fault-outage", SchedulerKind::kImmediate, 0x2C8A7D67396331A7ULL},
    {"fault-outage", SchedulerKind::kSyncSgd, 0xC4DB6DEE058275B2ULL},
    {"fault-outage", SchedulerKind::kOffline, 0xBAA763CA8077E7C7ULL},
    {"fault-outage", SchedulerKind::kOnline, 0xEBF82833084F8372ULL},
    {"fault-degrade", SchedulerKind::kImmediate, 0x022837E60A322D43ULL},
    {"fault-degrade", SchedulerKind::kSyncSgd, 0x858761A7A811FB2FULL},
    {"fault-degrade", SchedulerKind::kOffline, 0xA4DACA873F05F461ULL},
    {"fault-degrade", SchedulerKind::kOnline, 0xFCCEFD9A6E8B338FULL},
    {"fault-commute", SchedulerKind::kImmediate, 0x01C52570BEF40A87ULL},
    {"fault-commute", SchedulerKind::kSyncSgd, 0x0190480DEFFA78BAULL},
    {"fault-commute", SchedulerKind::kOffline, 0x5FE5D30BAEC22D9FULL},
    {"fault-commute", SchedulerKind::kOnline, 0x9DB471B899FD38E2ULL},
    {"fault-trace", SchedulerKind::kImmediate, 0x6C90B3E99B7F3935ULL},
    {"fault-trace", SchedulerKind::kSyncSgd, 0x4D94E7F6A43A2B79ULL},
    {"fault-trace", SchedulerKind::kOffline, 0x7C5967B960D3DBC2ULL},
    {"fault-trace", SchedulerKind::kOnline, 0x704C45883DCE6852ULL},
};

TEST(FaultGoldens, EveryFaultFeatureIsPinned) {
  for (const FaultGolden& golden : kFaultGoldens) {
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
// One usage log replayed by every user (arrival_trace_path).
// ---------------------------------------------------------------------------

/// examples/traces/user_a.csv, pinned here like trace_dir() so the golden
/// cannot drift with the example file.
const std::string& single_trace_file() {
  static const std::string path = [] {
    const std::filesystem::path file =
        std::filesystem::temp_directory_path() / "fedco_single_trace_a.csv";
    std::ofstream out{file, std::ios::trunc};
    out << "slot,app\n40,Map\n180,Youtube\n420,News\n700,Tiktok\n1100,Zoom\n"
           "1500,CandyCrush\n";
    return file.string();
  }();
  return path;
}

ExperimentConfig single_trace_config(SchedulerKind kind, bool streams) {
  ExperimentConfig cfg = base_config(kind);
  cfg.num_users = 12;
  cfg.horizon_slots = 2400;
  cfg.arrival_trace_path = single_trace_file();
  cfg.arrival_streams = streams;
  return cfg;
}

struct SingleTraceGolden {
  SchedulerKind kind;
  bool streams;
  std::uint64_t fingerprint;
};

// Captured with FEDCO_REGEN_GOLDENS=1 while the single file still had its
// own loader beside the directory loader; the one-file TraceFleet must
// replay it bit for bit.
constexpr SingleTraceGolden kSingleTraceGoldens[] = {
    {SchedulerKind::kImmediate, false, 0xD8C4EBAEF7953B97ULL},
    {SchedulerKind::kSyncSgd, false, 0xB53DAB5BE97E1E43ULL},
    {SchedulerKind::kOffline, false, 0x95DC35E56555F097ULL},
    {SchedulerKind::kOnline, false, 0xDEF9F3B59F9320E2ULL},
    {SchedulerKind::kImmediate, true, 0x57361932A9D4FBA9ULL},
    {SchedulerKind::kSyncSgd, true, 0x6E793CB9C5977A0FULL},
    {SchedulerKind::kOffline, true, 0x424CBA3BC3C3E4BEULL},
    {SchedulerKind::kOnline, true, 0x8868F8130478036CULL},
};

TEST(SingleTraceGoldens, EveryUserReplaysOneFile) {
  for (const SingleTraceGolden& golden : kSingleTraceGoldens) {
    const ExperimentConfig cfg =
        single_trace_config(golden.kind, golden.streams);
    const std::uint64_t fp = testing::fingerprint(run_experiment(cfg));
    if (regen_mode()) {
      std::printf("    {SchedulerKind::k%s, %s, 0x%016llXULL},\n",
                  std::string{scheduler_name(golden.kind)} == "Sync-SGD"
                      ? "SyncSgd"
                      : scheduler_name(golden.kind),
                  golden.streams ? "true" : "false",
                  static_cast<unsigned long long>(fp));
      continue;
    }
    EXPECT_EQ(fp, golden.fingerprint)
        << scheduler_name(golden.kind) << " streams " << golden.streams;
  }
}

// ---------------------------------------------------------------------------
// Fault-free specs stay bit-identical to the pre-fault goldens.
// ---------------------------------------------------------------------------

/// The scenario_stream_parity_test "stream-churn" battery scenario,
/// reconstructed field for field. Its fingerprints below were pinned in
/// PR 6, two releases before the fault subsystem existed — matching them
/// proves a spec with no faults block takes exactly the pre-fault code
/// paths (no stray RNG draws from the fault forks, no presence-window
/// rewrites, no degraded transfers).
ExperimentConfig fault_free_churn_config(SchedulerKind kind) {
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
  EXPECT_TRUE(spec.faults.empty());
  return apply_scenario_arena(spec, base_config(kind));
}

TEST(FaultFree, SpecWithoutFaultsMatchesPreFaultGoldens) {
  const FaultGolden pre_fault[] = {
      // Pinned constants copied verbatim from kStreamGoldens in
      // tests/scenario_stream_parity_test.cpp (captured in PR 6).
      {"stream-churn", SchedulerKind::kImmediate, 0x16112152BA2F85D0ULL},
      {"stream-churn", SchedulerKind::kSyncSgd, 0x95D831B433286C93ULL},
      {"stream-churn", SchedulerKind::kOffline, 0xB6C6307825615535ULL},
      {"stream-churn", SchedulerKind::kOnline, 0xE99F24234EB9FA40ULL},
  };
  for (const FaultGolden& golden : pre_fault) {
    const ExperimentConfig cfg = fault_free_churn_config(golden.kind);
    EXPECT_EQ(testing::fingerprint(run_experiment(cfg)), golden.fingerprint)
        << scheduler_name(golden.kind);
  }
}

// ---------------------------------------------------------------------------
// Events on == events off, and the stream carries the fault markers.
// ---------------------------------------------------------------------------

class CollectingSink final : public obs::EventSink {
 public:
  void emit(const obs::Event& event) override { events.push_back(event); }
  std::vector<obs::Event> events;

  [[nodiscard]] std::size_t count(obs::EventKind kind) const {
    std::size_t n = 0;
    for (const obs::Event& e : events) n += e.kind == kind ? 1 : 0;
    return n;
  }
};

TEST(FaultEvents, OutageRunIsIdenticalWithEventsOnAndCarriesMarkers) {
  const ExperimentConfig cfg =
      battery_config("fault-outage", SchedulerKind::kOnline);
  const std::uint64_t off = testing::fingerprint(run_experiment(cfg));

  CollectingSink sink;
  RunHooks hooks;
  hooks.events = &sink;
  const std::uint64_t on = testing::fingerprint(run_experiment(cfg, hooks));
  EXPECT_EQ(on, off);

  // Both configured outage windows open, and the recoveries show up as the
  // join/leave churn the presence rewrite encodes.
  EXPECT_EQ(sink.count(obs::EventKind::kOutage), 2u);
  EXPECT_GT(sink.count(obs::EventKind::kJoin), 0u);
  EXPECT_GT(sink.count(obs::EventKind::kLeave), 0u);
  for (const obs::Event& e : sink.events) {
    if (e.kind != obs::EventKind::kOutage) continue;
    EXPECT_TRUE((e.slot == 600 && e.b == 900) ||
                (e.slot == 1500 && e.b == 1700));
  }
}

TEST(FaultEvents, DegradeRunIsIdenticalWithEventsOnAndMarksPhaseEdges) {
  const ExperimentConfig cfg =
      battery_config("fault-degrade", SchedulerKind::kImmediate);
  const std::uint64_t off = testing::fingerprint(run_experiment(cfg));

  CollectingSink sink;
  RunHooks hooks;
  hooks.events = &sink;
  const std::uint64_t on = testing::fingerprint(run_experiment(cfg, hooks));
  EXPECT_EQ(on, off);

  // 40 h at 60 s slots: cell_brownout opens at 9 h and closes at 12 h,
  // evening_congestion opens at 18 h and closes at 23 h, then the horizon
  // runs into day two where the brownout fires again (33 h / 36 h) — six
  // phase edges total.
  EXPECT_EQ(sink.count(obs::EventKind::kLinkPhase), 6u);
  const std::int64_t brownout_bit =
      1LL << scenario::netem_profile_index("cell_brownout");
  const std::int64_t congestion_bit =
      1LL << scenario::netem_profile_index("evening_congestion");
  bool saw_brownout_open = false;
  bool saw_congestion_open = false;
  for (const obs::Event& e : sink.events) {
    if (e.kind != obs::EventKind::kLinkPhase) continue;
    saw_brownout_open |= (e.a & brownout_bit) != 0;
    saw_congestion_open |= (e.a & congestion_bit) != 0;
  }
  EXPECT_TRUE(saw_brownout_open);
  EXPECT_TRUE(saw_congestion_open);
}

}  // namespace
}  // namespace fedco::core
