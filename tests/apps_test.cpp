#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "apps/arrival.hpp"
#include "apps/arrival_stream.hpp"
#include "apps/trace_feed.hpp"
#include "util/rng.hpp"

namespace fedco::apps {
namespace {

TEST(ArrivalLawTest, RandomAppsAreUniform) {
  util::Rng rng{11};
  std::vector<int> counts(device::kAppKinds, 0);
  const int draws = 40000;
  for (int t = 0; t < draws; ++t) {
    ++counts[static_cast<std::size_t>(random_app(rng))];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 1.0 / 8.0, 0.01);
  }
}

/// A diurnal law (peak hour 20 and 1 s slots unless given).
ArrivalStreamParams diurnal_law(double p, double swing,
                                double slot_seconds = 1.0,
                                double peak_hour = 20.0) {
  return {p, true, swing, peak_hour, slot_seconds};
}

TEST(ArrivalLawTest, MeanOverDayEqualsMeanProbability) {
  const ArrivalStreamParams law = diurnal_law(0.001, 0.8);
  double total = 0.0;
  const int slots = 86400;
  for (int t = 0; t < slots; ++t) total += law.probability_at(t);
  EXPECT_NEAR(total / slots, 0.001, 5e-5);
}

TEST(ArrivalLawTest, PeakAtConfiguredHour) {
  const ArrivalStreamParams law = diurnal_law(0.001, 0.8, 1.0, 20.0);
  const double at_peak = law.probability_at(20 * 3600);
  const double at_trough = law.probability_at(8 * 3600);
  EXPECT_GT(at_peak, 2.0 * at_trough);
  EXPECT_NEAR(at_peak, 0.001 * 1.8, 1e-6);
}

TEST(ArrivalLawTest, ZeroSwingIsFlat) {
  const ArrivalStreamParams law = diurnal_law(0.01, 0.0);
  EXPECT_DOUBLE_EQ(law.probability_at(0), law.probability_at(43200));
}

TEST(ArrivalLawTest, ShiftedPeakStillPreservesTheMeanRate) {
  // Timezone-shifted phases (the scenario subsystem's per-user peaks) only
  // move the modulation, never the 24 h mean — for any peak hour.
  for (const double peak : {0.0, 6.5, 12.0, 23.75}) {
    const ArrivalStreamParams law = diurnal_law(0.002, 0.9, 1.0, peak);
    double total = 0.0;
    const int slots = 86400;
    for (int t = 0; t < slots; ++t) total += law.probability_at(t);
    EXPECT_NEAR(total / slots, 0.002, 1e-4) << "peak_hour " << peak;
    // And the peak really is where it was requested.
    const auto peak_slot = static_cast<sim::Slot>(peak * 3600.0);
    EXPECT_NEAR(law.probability_at(peak_slot), 0.002 * 1.9, 1e-6);
  }
}

TEST(ArrivalLawTest, SampledArrivalRateMatchesTheMean) {
  // Mean-rate preservation at the sampling level (not just probability_at):
  // whole days of per-slot draws through fires() realise the configured mean.
  const ArrivalStreamParams law = diurnal_law(0.01, 0.8, 1.0, 20.0);
  const double peak = law.max_probability();
  util::Rng rng{37};
  int hits = 0;
  const int slots = 5 * 86400;
  for (int t = 0; t < slots; ++t) {
    hits += law.fires(t, rng.uniform(), peak) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / slots, 0.01, 0.001);
}

TEST(ArrivalLawTest, SubSecondSlotsKeepThePeriodAt24Hours) {
  // slot_seconds rescales the phase: with 0.5 s slots the same wall-clock
  // instant (twice the slot index) sees the same probability.
  const ArrivalStreamParams one_s = diurnal_law(0.001, 0.8, 1.0);
  const ArrivalStreamParams half_s = diurnal_law(0.001, 0.8, 0.5);
  EXPECT_DOUBLE_EQ(half_s.probability_at(2 * 7200), one_s.probability_at(7200));
}

TEST(ArrivalLawTest, OutOfRangeFieldsReadClamped) {
  // A swing past 1 reads as 1, a non-positive slot length as 1 s.
  EXPECT_EQ(diurnal_law(0.002, 1.5).probability_at(5000),
            diurnal_law(0.002, 1.0).probability_at(5000));
  EXPECT_EQ(diurnal_law(0.002, 0.8, 0.0).probability_at(5000),
            diurnal_law(0.002, 0.8, 1.0).probability_at(5000));
  EXPECT_EQ(diurnal_law(0.002, 1.5).max_probability(), 0.004);
  // The flat law is the rate itself; its envelope clamps.
  const ArrivalStreamParams flat{0.3, false, 0.8, 20.0, 1.0};
  EXPECT_EQ(flat.probability_at(12345), 0.3);
  EXPECT_EQ(flat.max_probability(), 0.3);
}

// The law grid the envelope tests sweep: rates from never to always,
// swings up to (and past, clamped) full, peaks at and near midnight, and
// slot lengths from a second to an hour — plus the flat law at each rate.
std::vector<ArrivalStreamParams> law_grid() {
  std::vector<ArrivalStreamParams> grid;
  for (const double p : {0.0, 1e-6, 0.002, 0.5, 1.0}) {
    for (const double swing : {0.0, 0.8, 1.0, 1.5}) {
      for (const double peak : {0.0, 7.25, 23.9}) {
        for (const double slot_seconds : {1.0, 60.0, 3600.0}) {
          grid.push_back({p, true, swing, peak, slot_seconds});
        }
      }
    }
    grid.push_back({p, false, 0.8, 20.0, 1.0});
  }
  return grid;
}

std::string describe(const ArrivalStreamParams& law) {
  return "p " + std::to_string(law.probability) + " diurnal " +
         std::to_string(law.diurnal) + " swing " + std::to_string(law.swing) +
         " peak " + std::to_string(law.peak_hour) + " slot_s " +
         std::to_string(law.slot_seconds);
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

// fires() rejects draws above the peak before evaluating the curve; it
// must emit exactly what a per-slot Bernoulli walk over probability_at
// does, and leave the generator at the same position.
TEST(ArrivalLawTest, EnvelopeWalkMatchesTheNaiveWalkDrawForDraw) {
  std::uint64_t seed = 1;
  for (const ArrivalStreamParams& law : law_grid()) {
    const double peak = law.max_probability();
    const sim::Slot horizon = slots_for_days(1.5, law.slot_seconds);
    util::Rng naive_rng{seed};
    util::Rng envelope_rng{seed};
    ++seed;
    std::vector<Emitted> naive;
    std::vector<Emitted> envelope;
    for (sim::Slot t = 0; t < horizon; ++t) {
      if (naive_rng.bernoulli(law.probability_at(t))) {
        naive.push_back({t, random_app(naive_rng)});
      }
      if (law.fires(t, envelope_rng.uniform(), peak)) {
        envelope.push_back({t, random_app(envelope_rng)});
      }
    }
    EXPECT_TRUE(envelope == naive) << describe(law);
    EXPECT_EQ(envelope_rng(), naive_rng()) << describe(law);
  }
}

// The bound the rejection rests on: no slot's probability exceeds the
// peak, and the bound is tight — the slot at the peak hour reaches it.
TEST(ArrivalLawTest, MaxProbabilityBoundsEverySlot) {
  for (const ArrivalStreamParams& law : law_grid()) {
    const double peak = law.max_probability();
    const sim::Slot horizon = slots_for_days(2.0, law.slot_seconds);
    sim::Slot violations = 0;
    for (sim::Slot t = 0; t < horizon; ++t) {
      violations += law.probability_at(t) <= peak ? 0 : 1;
    }
    EXPECT_EQ(violations, 0) << describe(law);
    if (law.diurnal && law.slot_seconds == 1.0) {
      const auto at_peak =
          static_cast<sim::Slot>(std::llround(law.peak_hour * 3600.0));
      EXPECT_DOUBLE_EQ(law.probability_at(at_peak), peak) << describe(law);
    }
  }
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
  // The app column follows the slot column's rule: blank padding on either
  // side is trimmed, then a name or a whole index in [0, 8) — no prefix
  // parse ("3x" -> 3), no truncated fraction ("2.9" -> 2), no sign.
  for (const char* bad : {"5,3x\n", "5,2.9\n", "5,8\n", "5,-1\n", "5,+3\n",
                          "5,\n", "5,Map Map\n"}) {
    {
      std::ofstream out{path, std::ios::trunc};
      out << bad;
    }
    EXPECT_THROW(load_arrival_trace_csv(path), std::invalid_argument) << bad;
  }
  {
    std::ofstream out{path, std::ios::trunc};
    out << "5,Map\t\n6,\t Zoom \n7, 07\t\r\n";
  }
  const auto padded = load_arrival_trace_csv(path);
  ASSERT_EQ(padded.size(), 3u);
  EXPECT_EQ(padded[0].app, device::AppKind::kMap);
  EXPECT_EQ(padded[1].app, device::AppKind::kZoom);
  EXPECT_EQ(padded[2].app, static_cast<device::AppKind>(7));
  // A malformed row's error names the line and the file.
  {
    std::ofstream out{path, std::ios::trunc};
    out << "slot,app\n1,Map\n5,3x\n";
  }
  try {
    (void)load_arrival_trace_csv(path);
    ADD_FAILURE() << "5,3x loaded";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  // A directory is not a trace file: it names the path instead of loading
  // zero rows.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "fedco_trace_is_a_dir.csv";
  std::filesystem::create_directories(dir);
  try {
    (void)load_arrival_trace_csv(dir.string());
    ADD_FAILURE() << "a directory loaded as a trace file";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string{error.what()}.find(dir.string()), std::string::npos);
  }
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
  ASSERT_EQ(events.size(), 3u);  // sorted by slot
  EXPECT_EQ(events[0].at, 7);
  EXPECT_EQ(events[1].at, 42);
  EXPECT_EQ(events[2].at, 4000000000LL);
  // A headerless file whose FIRST row is blank-padded must not lose that
  // row to the header heuristic (only non-digit text is a header).
  {
    std::ofstream out{path};
    out << "\t7,News\n9,Map\n";
  }
  EXPECT_EQ(load_arrival_trace_csv(path).size(), 2u);
}

TEST(TraceCsvTest, SortsBySlotKeepingFileOrderAtTies) {
  const std::string path = "/tmp/fedco_trace_order.csv";
  {
    std::ofstream out{path, std::ios::trunc};
    out << "9,Map\n3,Zoom\n9,News\n1,Tiktok\n";
  }
  const auto events = load_arrival_trace_csv(path);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].at, 1);
  EXPECT_EQ(events[1].at, 3);
  EXPECT_EQ(events[2].at, 9);
  EXPECT_EQ(events[2].app, device::AppKind::kMap);  // first in the file
  EXPECT_EQ(events[3].at, 9);
  EXPECT_EQ(events[3].app, device::AppKind::kNews);
}

TEST(TraceFleetTest, OneFileIsAOneFileFleetAndTheDirectoryWins) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "fedco_trace_fleet";
  std::filesystem::create_directories(root / "dir");
  const std::string file = (root / "single.csv").string();
  {
    std::ofstream out{file, std::ios::trunc};
    out << "20,Map\n10,Zoom\n";
  }
  {
    std::ofstream out{root / "dir" / "a.csv", std::ios::trunc};
    out << "5,News\n";
  }
  {
    std::ofstream out{root / "dir" / "b.csv", std::ios::trunc};
    out << "6,Etrade\n";
  }
  EXPECT_TRUE(load_trace_fleet("", "").empty());

  const TraceFleet single = load_trace_fleet("", file);
  ASSERT_EQ(single.file_count(), 1u);
  for (const std::size_t user : {0u, 1u, 7u}) {
    const auto& events = single.events_for_user(user);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].at, 10);  // the same per-file routine: sorted
    EXPECT_EQ(events[1].at, 20);
  }

  const TraceFleet dir = load_trace_fleet((root / "dir").string(), file);
  ASSERT_EQ(dir.file_count(), 2u);
  EXPECT_EQ(dir.events_for_user(0)[0].app, device::AppKind::kNews);
  EXPECT_EQ(dir.events_for_user(1)[0].app, device::AppKind::kEtrade);
  EXPECT_EQ(dir.events_for_user(2)[0].app, device::AppKind::kNews);
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

}  // namespace
}  // namespace fedco::apps
