#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <memory>
#include <vector>

#include "apps/arrival.hpp"
#include "apps/arrival_stream.hpp"
#include "apps/session.hpp"
#include "util/rng.hpp"

namespace fedco::apps {
namespace {

TEST(BernoulliArrivalsTest, RateMatchesProbability) {
  util::Rng rng{5};
  BernoulliArrivals arrivals{0.01};
  int hits = 0;
  const int slots = 100000;
  for (int t = 0; t < slots; ++t) hits += arrivals.poll(t, rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / slots, 0.01, 0.002);
}

TEST(BernoulliArrivalsTest, ZeroAndOneProbability) {
  util::Rng rng{7};
  BernoulliArrivals never{0.0};
  BernoulliArrivals always{1.0};
  for (int t = 0; t < 100; ++t) {
    EXPECT_FALSE(never.poll(t, rng).has_value());
    EXPECT_TRUE(always.poll(t, rng).has_value());
  }
}

TEST(BernoulliArrivalsTest, AppsAreUniform) {
  util::Rng rng{11};
  BernoulliArrivals arrivals{1.0};
  std::vector<int> counts(device::kAppKinds, 0);
  const int draws = 40000;
  for (int t = 0; t < draws; ++t) {
    ++counts[static_cast<std::size_t>(arrivals.poll(t, rng)->app)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 1.0 / 8.0, 0.01);
  }
}

TEST(DiurnalArrivalsTest, MeanOverDayEqualsMeanProbability) {
  DiurnalArrivals arrivals{0.001, 0.8};
  double total = 0.0;
  const int slots = 86400;
  for (int t = 0; t < slots; ++t) total += arrivals.probability_at(t);
  EXPECT_NEAR(total / slots, 0.001, 5e-5);
}

TEST(DiurnalArrivalsTest, PeakAtConfiguredHour) {
  DiurnalArrivals arrivals{0.001, 0.8, 1.0, 20.0};
  const double at_peak = arrivals.probability_at(20 * 3600);
  const double at_trough = arrivals.probability_at(8 * 3600);
  EXPECT_GT(at_peak, 2.0 * at_trough);
  EXPECT_NEAR(at_peak, 0.001 * 1.8, 1e-6);
}

TEST(DiurnalArrivalsTest, ZeroSwingIsFlat) {
  DiurnalArrivals arrivals{0.01, 0.0};
  EXPECT_DOUBLE_EQ(arrivals.probability_at(0), arrivals.probability_at(43200));
}

TEST(DiurnalArrivalsTest, ShiftedPeakStillPreservesTheMeanRate) {
  // Timezone-shifted phases (the scenario subsystem's per-user peaks) only
  // move the modulation, never the 24 h mean — for any peak hour.
  for (const double peak : {0.0, 6.5, 12.0, 23.75}) {
    DiurnalArrivals arrivals{0.002, 0.9, 1.0, peak};
    double total = 0.0;
    const int slots = 86400;
    for (int t = 0; t < slots; ++t) total += arrivals.probability_at(t);
    EXPECT_NEAR(total / slots, 0.002, 1e-4) << "peak_hour " << peak;
    // And the peak really is where it was requested.
    const auto peak_slot = static_cast<sim::Slot>(peak * 3600.0);
    EXPECT_NEAR(arrivals.probability_at(peak_slot), 0.002 * 1.9, 1e-6);
  }
}

TEST(DiurnalArrivalsTest, PolledArrivalRateMatchesTheMean) {
  // Mean-rate preservation at the poll level (not just probability_at):
  // sampling whole days of Bernoulli draws realises the configured mean.
  DiurnalArrivals arrivals{0.01, 0.8, 1.0, 20.0};
  util::Rng rng{37};
  int hits = 0;
  const int slots = 5 * 86400;
  for (int t = 0; t < slots; ++t) hits += arrivals.poll(t, rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / slots, 0.01, 0.001);
}

TEST(DiurnalArrivalsTest, SubSecondSlotsKeepThePeriodAt24Hours) {
  // slot_seconds rescales the phase: with 0.5 s slots the same wall-clock
  // instant (twice the slot index) sees the same probability.
  DiurnalArrivals one_s{0.001, 0.8, 1.0};
  DiurnalArrivals half_s{0.001, 0.8, 0.5};
  EXPECT_DOUBLE_EQ(half_s.probability_at(2 * 7200), one_s.probability_at(7200));
}

// The diurnal grid the envelope tests sweep: rates from never to always,
// swings up to (and past, clamped) full, peaks at and near midnight, and
// slot lengths from a second to an hour.
struct DiurnalCase {
  double p;
  double swing;
  double peak_hour;
  double slot_seconds;
};

std::vector<DiurnalCase> diurnal_grid() {
  std::vector<DiurnalCase> grid;
  for (const double p : {0.0, 1e-6, 0.002, 0.5, 1.0}) {
    for (const double swing : {0.0, 0.8, 1.0, 1.5}) {
      for (const double peak : {0.0, 7.25, 23.9}) {
        for (const double slot_seconds : {1.0, 60.0, 3600.0}) {
          grid.push_back({p, swing, peak, slot_seconds});
        }
      }
    }
  }
  return grid;
}

/// Slots covering `days` simulated days (plus a few into the next one).
sim::Slot slots_for_days(double days, double slot_seconds) {
  return static_cast<sim::Slot>(days * 86400.0 / slot_seconds) + 7;
}

struct Emitted {
  sim::Slot at;
  device::AppKind app;
  bool operator==(const Emitted&) const = default;
};

// fires() and poll() reject draws above the peak before evaluating the
// curve; both must emit exactly what a per-slot Bernoulli walk over
// probability_at does, and leave the generator at the same position.
TEST(DiurnalArrivalsTest, EnvelopeWalkMatchesTheNaiveWalkDrawForDraw) {
  std::uint64_t seed = 1;
  for (const DiurnalCase& c : diurnal_grid()) {
    DiurnalArrivals arrivals{c.p, c.swing, c.slot_seconds, c.peak_hour};
    const sim::Slot horizon = slots_for_days(1.5, c.slot_seconds);
    util::Rng naive_rng{seed};
    util::Rng envelope_rng{seed};
    util::Rng poll_rng{seed};
    ++seed;
    std::vector<Emitted> naive;
    std::vector<Emitted> envelope;
    std::vector<Emitted> polled;
    for (sim::Slot t = 0; t < horizon; ++t) {
      if (naive_rng.bernoulli(arrivals.probability_at(t))) {
        naive.push_back({t, random_app(naive_rng)});
      }
      if (arrivals.fires(t, envelope_rng.uniform())) {
        envelope.push_back({t, random_app(envelope_rng)});
      }
      if (const auto hit = arrivals.poll(t, poll_rng)) {
        polled.push_back({t, hit->app});
      }
    }
    const std::string where = "p " + std::to_string(c.p) + " swing " +
                              std::to_string(c.swing) + " peak " +
                              std::to_string(c.peak_hour) + " slot_s " +
                              std::to_string(c.slot_seconds);
    EXPECT_TRUE(envelope == naive) << where;
    EXPECT_TRUE(polled == naive) << where;
    const std::uint64_t next = naive_rng();
    EXPECT_EQ(envelope_rng(), next) << where;
    EXPECT_EQ(poll_rng(), next) << where;
  }
}

// The bound the rejection rests on: no slot's probability exceeds the
// peak, and the stream path's thinning envelope is the same number.
TEST(DiurnalArrivalsTest, PeakProbabilityBoundsEverySlot) {
  for (const DiurnalCase& c : diurnal_grid()) {
    const DiurnalArrivals arrivals{c.p, c.swing, c.slot_seconds, c.peak_hour};
    const double peak = arrivals.peak_probability();
    const sim::Slot horizon = slots_for_days(2.0, c.slot_seconds);
    sim::Slot violations = 0;
    for (sim::Slot t = 0; t < horizon; ++t) {
      violations += arrivals.probability_at(t) <= peak ? 0 : 1;
    }
    EXPECT_EQ(violations, 0) << "p " << c.p << " swing " << c.swing;
    const ArrivalStreamParams params{c.p, true, c.swing, c.peak_hour,
                                     c.slot_seconds};
    EXPECT_EQ(std::bit_cast<std::uint64_t>(params.max_probability()),
              std::bit_cast<std::uint64_t>(peak))
        << "p " << c.p << " swing " << c.swing;
  }
}

TEST(ScriptedArrivalsTest, FiresExactlyAtScriptedSlots) {
  ScriptedArrivals arrivals{{{5, device::AppKind::kZoom},
                             {3, device::AppKind::kMap},
                             {9, device::AppKind::kTiktok}}};
  util::Rng rng{13};
  std::vector<int> fired;
  for (int t = 0; t < 12; ++t) {
    if (const auto a = arrivals.poll(t, rng)) {
      fired.push_back(t);
      if (t == 3) {
        EXPECT_EQ(a->app, device::AppKind::kMap);
      }
      if (t == 5) {
        EXPECT_EQ(a->app, device::AppKind::kZoom);
      }
    }
  }
  EXPECT_EQ(fired, (std::vector<int>{3, 5, 9}));
}

TEST(ScriptedArrivalsTest, SkipsMissedEvents) {
  ScriptedArrivals arrivals{{{2, device::AppKind::kMap},
                             {4, device::AppKind::kZoom}}};
  util::Rng rng{17};
  // Caller jumps straight to slot 4: event at 2 is skipped, not replayed.
  EXPECT_TRUE(arrivals.poll(4, rng).has_value());
  EXPECT_FALSE(arrivals.poll(5, rng).has_value());
}

TEST(TraceCsvTest, ParsesNamesIndicesHeaderAndComments) {
  const std::string path = "/tmp/fedco_trace_test.csv";
  {
    std::ofstream out{path};
    out << "slot,app\n"            // header row
        << "# comment line\n"
        << "5,Tiktok\n"
        << "12,3\n"                // numeric index = Youtube
        << "900,CandyCrush\r\n";   // CRLF tolerated
  }
  const auto events = load_arrival_trace_csv(path);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at, 5);
  EXPECT_EQ(events[0].app, device::AppKind::kTiktok);
  EXPECT_EQ(events[1].app, device::AppKind::kYoutube);
  EXPECT_EQ(events[2].at, 900);
  EXPECT_EQ(events[2].app, device::AppKind::kCandyCrush);
}

TEST(TraceCsvTest, ErrorPaths) {
  EXPECT_THROW(load_arrival_trace_csv("/no/such/file.csv"), std::runtime_error);
  const std::string path = "/tmp/fedco_trace_bad.csv";
  {
    std::ofstream out{path};
    out << "42\n";  // no comma
  }
  EXPECT_THROW(load_arrival_trace_csv(path), std::invalid_argument);
  {
    std::ofstream out{path};
    out << "0,NotAnApp\n";
  }
  EXPECT_THROW(load_arrival_trace_csv(path), std::invalid_argument);
  {
    std::ofstream out{path};
    out << "xyz,Map\n0,Map\n";  // only a "slot" column names a header
  }
  EXPECT_THROW(load_arrival_trace_csv(path), std::invalid_argument);
  {
    std::ofstream out{path};
    out << " SLOT ,App\n0,Map\n";  // a header in any case, blank-padded
  }
  EXPECT_EQ(load_arrival_trace_csv(path).size(), 1u);
  {
    std::ofstream out{path};
    out << " 42 ,Map\n";  // a blank-padded first row is data
  }
  const auto first_row = load_arrival_trace_csv(path);
  ASSERT_EQ(first_row.size(), 1u);
  EXPECT_EQ(first_row[0].at, 42);
}

TEST(TraceCsvTest, OutOfRangeAndMalformedSlotsThrow) {
  const std::string path = "/tmp/fedco_trace_slots.csv";
  const auto write_and_load = [&](const char* body) {
    {
      std::ofstream out{path};
      out << "slot,app\n" << body;  // header keeps line 1 out of the way
    }
    return load_arrival_trace_csv(path);
  };
  // Negative slots would never fire (the simulation starts at slot 0) —
  // reject rather than silently drop the row.
  EXPECT_THROW(write_and_load("-5,Map\n"), std::invalid_argument);
  // Trailing junk previously passed through stoll's prefix parse ("12x"
  // -> 12); now it is a malformed row.
  EXPECT_THROW(write_and_load("12x,Map\n"), std::invalid_argument);
  EXPECT_THROW(write_and_load("3.5,Map\n"), std::invalid_argument);
  EXPECT_THROW(write_and_load(",Map\n"), std::invalid_argument);
  // Past-int64 slots overflow stoll: out of range, not a silent wrap.
  EXPECT_THROW(write_and_load("99999999999999999999999999,Map\n"),
               std::invalid_argument);
  // Plain large-but-valid slots (beyond any horizon) still load; blank
  // padding — spaces or tabs, as spreadsheet exports produce — is fine,
  // and the replay simply never reaches over-horizon events.
  const auto events = write_and_load(" 42 ,Map\n\t7,News\n4000000000,Zoom\n");
  ASSERT_EQ(events.size(), 3u);  // loader keeps file order; the
  EXPECT_EQ(events[0].at, 42);   // ScriptedArrivals ctor sorts later
  EXPECT_EQ(events[1].at, 7);
  EXPECT_EQ(events[2].at, 4000000000LL);
  // A headerless file whose FIRST row is blank-padded must not lose that
  // row to the header heuristic (only non-digit text is a header).
  {
    std::ofstream out{path};
    out << "\t7,News\n9,Map\n";
  }
  EXPECT_EQ(load_arrival_trace_csv(path).size(), 2u);
}

TEST(ParseAppName, RoundTripsAllApps) {
  for (const auto kind : device::all_apps()) {
    device::AppKind parsed{};
    ASSERT_TRUE(parse_app_name(device::app_name(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  device::AppKind unused{};
  EXPECT_FALSE(parse_app_name("Fortnite", unused));
}

TEST(SessionTest, LifecycleMatchesTableIIDuration) {
  // One scripted arrival of Zoom on Pixel2: session lasts ceil(206 s).
  auto arrivals = std::make_unique<ScriptedArrivals>(
      std::vector<ScriptedArrivals::Event>{{0, device::AppKind::kZoom}});
  AppSessionTracker tracker{std::move(arrivals), 1.0};
  util::Rng rng{19};
  const auto& dev = device::profile(device::DeviceKind::kPixel2);
  tracker.tick(0, dev, rng);
  EXPECT_TRUE(tracker.app_running());
  EXPECT_EQ(tracker.current_app(), device::AppKind::kZoom);
  sim::Slot running = 0;
  for (sim::Slot t = 1; t < 400; ++t) {
    tracker.tick(t, dev, rng);
    if (tracker.app_running()) ++running;
  }
  EXPECT_NEAR(static_cast<double>(running), 206.0, 2.0);
  EXPECT_FALSE(tracker.app_running());
  EXPECT_EQ(tracker.sessions_started(), 1u);
}

TEST(SessionTest, OverlappingArrivalIsAbsorbed) {
  auto arrivals = std::make_unique<ScriptedArrivals>(
      std::vector<ScriptedArrivals::Event>{{0, device::AppKind::kZoom},
                                           {5, device::AppKind::kMap}});
  AppSessionTracker tracker{std::move(arrivals), 1.0};
  util::Rng rng{23};
  const auto& dev = device::profile(device::DeviceKind::kPixel2);
  for (sim::Slot t = 0; t < 10; ++t) tracker.tick(t, dev, rng);
  EXPECT_EQ(tracker.sessions_started(), 1u);
  EXPECT_EQ(tracker.current_app(), device::AppKind::kZoom);
}

TEST(SessionTest, ExtendToCoverTraining) {
  auto arrivals = std::make_unique<ScriptedArrivals>(
      std::vector<ScriptedArrivals::Event>{{0, device::AppKind::kMap}});
  AppSessionTracker tracker{std::move(arrivals), 1.0};
  util::Rng rng{29};
  const auto& dev = device::profile(device::DeviceKind::kPixel2);
  tracker.tick(0, dev, rng);
  sim::Clock clock{1.0};
  tracker.extend_to_cover(500.0, clock);  // longer than Map's 196 s
  sim::Slot running = 0;
  for (sim::Slot t = 1; t <= 600; ++t) {
    tracker.tick(t, dev, rng);
    if (tracker.app_running()) ++running;
  }
  EXPECT_GE(running, 498);
}

TEST(SessionTest, CopyIsIndependent) {
  auto arrivals = std::make_unique<ScriptedArrivals>(
      std::vector<ScriptedArrivals::Event>{{0, device::AppKind::kMap}});
  AppSessionTracker a{std::move(arrivals), 1.0};
  util::Rng rng{31};
  const auto& dev = device::profile(device::DeviceKind::kPixel2);
  AppSessionTracker b = a;
  a.tick(0, dev, rng);
  EXPECT_TRUE(a.app_running());
  EXPECT_FALSE(b.app_running());
}

TEST(SessionTest, NullArrivalsRejected) {
  EXPECT_THROW(AppSessionTracker(nullptr, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace fedco::apps
