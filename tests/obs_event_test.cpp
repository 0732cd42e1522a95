// The observability layer's contracts:
//
//   1. Zero observable cost — a run with an EventSink attached (any
//      sampling stride) produces the bit-identical ExperimentResult of the
//      hooks-off run, for every scheduler, on a churning fleet that
//      exercises every emission site (decisions, updates, parks, wakes,
//      joins, leaves, replans).
//   2. Deterministic sampling — the stride-N stream is exactly the stride-1
//      stream filtered to slots where t % N == 0.
//   3. Schema round-trip — every JSONL line parses and carries the fields
//      docs/observability.md promises, with doubles surviving exactly
//      (shortest-round-trip printing).
//   4. Crash-path flush — events reach the file when the writer is
//      destroyed without an explicit flush (e.g. during unwinding).
//   5. The run summary's digests are internally consistent and identical
//      with hooks on or off.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "device/profiles.hpp"
#include "golden_fingerprint.hpp"
#include "obs/events.hpp"
#include "obs/jsonl_writer.hpp"
#include "scenario/spec.hpp"
#include "util/json.hpp"

namespace fedco::core {
namespace {

constexpr SchedulerKind kAllSchedulers[] = {
    SchedulerKind::kImmediate, SchedulerKind::kSyncSgd, SchedulerKind::kOffline,
    SchedulerKind::kOnline};

/// A sink that just remembers everything it saw.
struct CollectSink final : obs::EventSink {
  std::vector<obs::Event> events;
  std::size_t flushes = 0;
  void emit(const obs::Event& e) override { events.push_back(e); }
  void flush() override { ++flushes; }
};

/// A churning heterogeneous fleet: joins/leaves from the churn windows,
/// parks/wakes from the calendar, decisions and updates from training, and
/// (under kOffline) window replans — every emission site fires.
ExperimentConfig churn_config(SchedulerKind kind) {
  scenario::ScenarioSpec spec;
  spec.name = "obs-churn";
  spec.num_users = 20;
  spec.horizon_slots = 2000;
  spec.device_mix = {{device::DeviceKind::kNexus6, 0.25},
                     {device::DeviceKind::kNexus6P, 0.25},
                     {device::DeviceKind::kHikey970, 0.25},
                     {device::DeviceKind::kPixel2, 0.25}};
  spec.arrival.distribution = scenario::ArrivalSpec::Distribution::kLogNormal;
  spec.arrival.mean_probability = 0.004;
  spec.arrival.sigma = 0.5;
  spec.network.lte_fraction = 0.3;
  spec.churn.churn_fraction = 0.4;
  spec.churn.min_presence = 0.2;
  spec.churn.max_presence = 0.6;
  ExperimentConfig base;
  base.seed = 13;
  base.scheduler = kind;
  base.record_interval = 25;
  base.offline_window_slots = 400;
  return apply_scenario_arena(spec, base);
}

TEST(ObsEventTest, HooksDoNotPerturbResultsForAnyScheduler) {
  for (const SchedulerKind kind : kAllSchedulers) {
    const ExperimentConfig cfg = churn_config(kind);
    const std::uint64_t off = testing::fingerprint(run_experiment(cfg));
    for (const sim::Slot stride : {sim::Slot{1}, sim::Slot{7}}) {
      CollectSink sink;
      RunHooks hooks;
      hooks.events = &sink;
      hooks.events_sample = stride;
      const ExperimentResult r = run_experiment(cfg, hooks);
      EXPECT_EQ(off, testing::fingerprint(r))
          << scheduler_name(kind) << " stride " << stride;
      EXPECT_GE(sink.flushes, 1u) << scheduler_name(kind);
      if (stride == 1) {
        EXPECT_FALSE(sink.events.empty()) << scheduler_name(kind);
      }
    }
  }
}

TEST(ObsEventTest, SamplingIsAStrideFilterOfTheFullStream) {
  const ExperimentConfig cfg = churn_config(SchedulerKind::kOnline);
  CollectSink full;
  RunHooks full_hooks;
  full_hooks.events = &full;
  (void)run_experiment(cfg, full_hooks);

  constexpr sim::Slot kStride = 5;
  CollectSink sampled;
  RunHooks sampled_hooks;
  sampled_hooks.events = &sampled;
  sampled_hooks.events_sample = kStride;
  (void)run_experiment(cfg, sampled_hooks);

  std::vector<obs::Event> expected;
  for (const obs::Event& e : full.events) {
    if (e.slot % kStride == 0) expected.push_back(e);
  }
  ASSERT_EQ(expected.size(), sampled.events.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].kind, sampled.events[i].kind) << i;
    EXPECT_EQ(expected[i].slot, sampled.events[i].slot) << i;
    EXPECT_EQ(expected[i].user, sampled.events[i].user) << i;
    EXPECT_EQ(expected[i].a, sampled.events[i].a) << i;
    EXPECT_EQ(expected[i].b, sampled.events[i].b) << i;
    EXPECT_EQ(expected[i].x, sampled.events[i].x) << i;
  }
}

TEST(ObsEventTest, ZeroSampleStrideThrows) {
  RunHooks hooks;
  CollectSink sink;
  hooks.events = &sink;
  hooks.events_sample = 0;
  EXPECT_THROW((void)run_experiment(churn_config(SchedulerKind::kOnline),
                                    hooks),
               std::invalid_argument);
}

std::string temp_jsonl_path(const char* tag) {
  return ::testing::TempDir() + "obs_event_test_" + tag + ".jsonl";
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in{path};
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ObsEventTest, JsonlSchemaRoundTrips) {
  const std::string path = temp_jsonl_path("schema");
  {
    obs::JsonlEventWriter writer{path};
    writer.emit(obs::Event::decision(12, 3, true));
    writer.emit(obs::Event::update(40, 2, 17, 0.1 + 0.2));  // 0.30000000000000004
    writer.emit(obs::Event::update(41, -1, 5, 1.5));  // sync-round sentinel
    writer.emit(obs::Event::park(50, 4, 90));
    writer.emit(obs::Event::wake(90, 4));
    writer.emit(obs::Event::join(100, 9));
    writer.emit(obs::Event::leave(800, 9));
    writer.emit(obs::Event::stall(120, 3, 11));
    writer.emit(obs::Event::replan(400, 18, 6));
    EXPECT_EQ(writer.events_written(), 9u);
    writer.flush();
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 9u);

  const util::JsonValue decision = util::parse_json(lines[0]);
  EXPECT_EQ(decision.find("t")->as_number(), 12.0);
  EXPECT_EQ(decision.find("e")->as_string(), "decision");
  EXPECT_EQ(decision.find("u")->as_number(), 3.0);
  EXPECT_EQ(decision.find("corun")->as_number(), 1.0);

  const util::JsonValue update = util::parse_json(lines[1]);
  EXPECT_EQ(update.find("e")->as_string(), "update");
  EXPECT_EQ(update.find("lag")->as_number(), 17.0);
  // Shortest-round-trip doubles: the parsed value is bit-exact.
  EXPECT_EQ(update.find("gap")->as_number(), 0.1 + 0.2);

  const util::JsonValue park = util::parse_json(lines[3]);
  EXPECT_EQ(park.find("e")->as_string(), "park");
  EXPECT_EQ(park.find("until")->as_number(), 90.0);

  const util::JsonValue stall = util::parse_json(lines[7]);
  EXPECT_EQ(stall.find("e")->as_string(), "stall");
  EXPECT_EQ(stall.find("waiting")->as_number(), 3.0);
  EXPECT_EQ(stall.find("active")->as_number(), 11.0);

  const util::JsonValue replan = util::parse_json(lines[8]);
  EXPECT_EQ(replan.find("e")->as_string(), "replan");
  EXPECT_EQ(replan.find("items")->as_number(), 18.0);
  EXPECT_EQ(replan.find("scheduled")->as_number(), 6.0);
  std::remove(path.c_str());
}

TEST(ObsEventTest, WriterFlushesOnDestructionWithoutExplicitFlush) {
  const std::string path = temp_jsonl_path("unwind");
  try {
    obs::JsonlEventWriter writer{path};
    writer.emit(obs::Event::join(0, 1));
    writer.emit(obs::Event::leave(5, 1));
    throw std::runtime_error{"simulated crash"};
  } catch (const std::runtime_error&) {
    // The writer unwound; its buffered events must already be on disk.
  }
  EXPECT_EQ(read_lines(path).size(), 2u);
  std::remove(path.c_str());
}

TEST(ObsEventTest, WriterRejectsUnopenablePath) {
  EXPECT_THROW(obs::JsonlEventWriter{"/nonexistent-dir/events.jsonl"},
               std::runtime_error);
}

TEST(ObsEventTest, SummaryDigestsAreConsistentAndHookIndependent) {
  for (const SchedulerKind kind : kAllSchedulers) {
    const ExperimentConfig cfg = churn_config(kind);
    const ExperimentResult off = run_experiment(cfg);
    CollectSink sink;
    RunHooks hooks;
    hooks.events = &sink;
    hooks.events_sample = 3;
    const ExperimentResult on = run_experiment(cfg, hooks);

    const RunSummary& s = off.summary;
    for (const util::Percentiles* p :
         {&s.queue_q, &s.queue_h, &s.lag, &s.gap, &s.user_energy_j}) {
      EXPECT_LE(p->p50, p->p90) << scheduler_name(kind);
      EXPECT_LE(p->p90, p->p99) << scheduler_name(kind);
    }
    // Every scheduled decision became exactly one training session.
    EXPECT_EQ(s.decisions_scheduled, off.corun_sessions + off.separate_sessions)
        << scheduler_name(kind);
    // The churn windows flow through the summary counters.
    EXPECT_GT(s.joins, 0u) << scheduler_name(kind);
    EXPECT_GT(s.leaves, 0u) << scheduler_name(kind);
    if (kind == SchedulerKind::kOffline) {
      EXPECT_GT(s.replans, 0u);
    }

    // The counters are part of the deterministic run, not of the sink.
    EXPECT_EQ(s.decisions_scheduled, on.summary.decisions_scheduled);
    EXPECT_EQ(s.decisions_idle, on.summary.decisions_idle);
    EXPECT_EQ(s.parks, on.summary.parks);
    EXPECT_EQ(s.wakes, on.summary.wakes);
    EXPECT_EQ(s.joins, on.summary.joins);
    EXPECT_EQ(s.leaves, on.summary.leaves);
    EXPECT_EQ(s.barrier_stall_slots, on.summary.barrier_stall_slots);
    EXPECT_EQ(s.replans, on.summary.replans);
  }
}

}  // namespace
}  // namespace fedco::core
