// Table III reproduction: energy overhead of the online optimization.
//
// Two parts:
//   1. google-benchmark micro-measurement of one Eq. (21) decision
//      evaluation (the per-slot work each device performs) and of a full
//      25-user window plan of the offline knapsack for contrast;
//   2. the Table III overhead table — per-device idle vs decision-compute
//      power and the resulting percentage, plus the end-to-end overhead
//      energy share measured in a full simulation with the per-decision
//      evaluation time charged to the meter.
#include <benchmark/benchmark.h>

#include <iostream>

#include "core/experiment.hpp"
#include "core/offline_planner.hpp"
#include "core/online_scheduler.hpp"
#include "util/table.hpp"

namespace {

using namespace fedco;

void BM_OnlineDecision(benchmark::State& state) {
  core::OnlineScheduler sched{{4000.0, 500.0, 0.05, 1.0, 0.05, 0.9}};
  sched.update_queues(10.0, 2.0, 600.0);
  core::OnlineDecisionInput input;
  input.app_status = device::AppStatus::kApp;
  input.app = device::AppKind::kTiktok;
  input.current_gap = 12.0;
  input.expected_lag = 5.0;
  input.momentum_norm = 8.0;
  const auto& dev = device::profile(device::DeviceKind::kPixel2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.decide(dev, input));
  }
}
BENCHMARK(BM_OnlineDecision);

void BM_OnlineQueueUpdate(benchmark::State& state) {
  core::OnlineScheduler sched{{4000.0, 500.0, 0.05, 1.0, 0.05, 0.9}};
  for (auto _ : state) {
    sched.update_queues(1.0, 1.0, 400.0);
  }
  benchmark::DoNotOptimize(sched.queues().h());
}
BENCHMARK(BM_OnlineQueueUpdate);

void BM_OfflineWindowPlan25Users(benchmark::State& state) {
  std::vector<core::OfflineUserInput> users(25);
  for (std::size_t i = 0; i < users.size(); ++i) {
    users[i].dev = &device::profile(
        static_cast<device::DeviceKind>(i % device::kDeviceKinds));
    users[i].next_arrival = static_cast<sim::Slot>(40 + 15 * i);
    users[i].arrival_app = static_cast<device::AppKind>(i % device::kAppKinds);
    users[i].momentum_norm = 8.0;
    users[i].current_gap = 2.0;
  }
  core::OfflinePlannerConfig cfg;
  cfg.lb = 1000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::OfflinePlanner{cfg}.plan(0, users));
  }
}
BENCHMARK(BM_OfflineWindowPlan25Users);

void print_table3() {
  using util::TextTable;
  std::cout << "\nReproduction of Table III — energy overhead of online "
               "optimization (W)\n\n";
  TextTable table{"Table III"};
  table.set_header({"device", "Power(idle) W", "Power(comp.) W",
                    "overhead % (ours)", "overhead % (paper)"});
  struct PaperRow {
    device::DeviceKind kind;
    const char* paper;
  };
  for (const auto row : {PaperRow{device::DeviceKind::kNexus6, "3.0"},
                         PaperRow{device::DeviceKind::kNexus6P, "7.4"},
                         PaperRow{device::DeviceKind::kPixel2, "6.3"}}) {
    const auto& dev = device::profile(row.kind);
    const double overhead =
        100.0 * (dev.decision_power_w - dev.idle_power_w) / dev.idle_power_w;
    table.add_row({std::string{dev.name},
                   TextTable::num(dev.idle_power_w, 3),
                   TextTable::num(dev.decision_power_w, 3),
                   TextTable::num(overhead, 1), row.paper});
  }
  table.print(std::cout);

  // End-to-end: charge each ready user a conservative 10 ms of decision
  // compute per slot and report the share of total energy it contributes.
  core::ExperimentConfig cfg;
  cfg.scheduler = core::SchedulerKind::kOnline;
  cfg.num_users = 25;
  cfg.horizon_slots = 10800;
  cfg.arrival_probability = 0.001;
  cfg.seed = 17;
  cfg.decision_eval_seconds = 0.010;
  const auto r = core::run_experiment(cfg);
  std::cout << "\nEnd-to-end: with 10 ms of Eq. (21) evaluation charged per "
               "ready user per slot,\noverhead energy = "
            << TextTable::num(r.overhead_j, 1) << " J of "
            << TextTable::num(r.total_energy_j, 1) << " J total ("
            << TextTable::num(100.0 * r.overhead_j / r.total_energy_j, 2)
            << "%), consistent with the paper's <10% per-slot bound.\n"
            << "The micro-benchmarks above show the actual decision cost is "
               "tens of nanoseconds,\nso the scheduler itself is far below "
               "the Table III envelope.\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_table3();
  return 0;
}
