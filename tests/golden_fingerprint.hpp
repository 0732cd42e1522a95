// Bit-exact fingerprinting of ExperimentResult for the §6 determinism
// contract. The parity suite hashes every scalar, trace, and lag/gap sample
// of a run into one FNV-1a value; two runs agree on the fingerprint iff they
// agree bit-for-bit on everything the driver reports. The golden constants
// in core_scheduler_parity_test.cpp were captured from the pre-refactor
// monolithic driver (PR 2) with exactly these configs, so any behavioural
// drift in a refactored Scheduler shows up as a fingerprint mismatch.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace fedco::testing {

class Fingerprint {
 public:
  void add_bytes(const void* data, std::size_t size) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001B3ULL;  // FNV-1a 64-bit prime
    }
  }
  void add(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add_bytes(&bits, sizeof(bits));
  }
  void add(std::uint64_t v) noexcept { add_bytes(&v, sizeof(v)); }
  void add(const std::string& s) noexcept { add_bytes(s.data(), s.size()); }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;  // FNV offset basis
};

/// Hash every observable of a result (scalars, traces, per-update samples).
[[nodiscard]] inline std::uint64_t fingerprint(
    const core::ExperimentResult& r) {
  Fingerprint fp;
  fp.add(r.total_energy_j);
  fp.add(r.training_j);
  fp.add(r.corun_j);
  fp.add(r.app_j);
  fp.add(r.idle_j);
  fp.add(r.network_j);
  fp.add(r.overhead_j);
  fp.add(r.avg_queue_q);
  fp.add(r.avg_queue_h);
  fp.add(r.final_queue_q);
  fp.add(r.final_queue_h);
  fp.add(r.total_updates);
  fp.add(r.dropped_updates);
  fp.add(r.corun_sessions);
  fp.add(r.separate_sessions);
  fp.add(r.avg_lag);
  fp.add(r.avg_gap);
  fp.add(r.final_accuracy);
  fp.add(r.final_loss);
  fp.add(r.battery_cycles_total);
  fp.add(static_cast<std::uint64_t>(r.battery_recharges));
  fp.add(r.battery_gated_slots);
  fp.add(r.max_temperature_c);
  fp.add(r.worst_throttle_factor);
  fp.add(r.throttled_sessions);
  for (const auto& name : r.traces.names()) {
    const auto* series = r.traces.find(name);
    if (series == nullptr) continue;
    fp.add(name);
    for (std::size_t i = 0; i < series->size(); ++i) {
      fp.add(series->time_at(i));
      fp.add(series->value_at(i));
    }
  }
  for (const auto& s : r.lag_gap_samples) {
    fp.add(s.time_s);
    fp.add(s.lag);
    fp.add(s.gap);
    fp.add(static_cast<std::uint64_t>(s.user));
  }
  return fp.value();
}

/// One named parity scenario: a config to run under each SchedulerKind.
struct ParityScenario {
  const char* name;
  core::ExperimentConfig config;
};

/// Install a per-user fleet, written as a plain vector, as the config's
/// arena (the one fleet form the driver reads).
inline void set_fleet(core::ExperimentConfig& cfg,
                      const std::vector<scenario::PerUserConfig>& fleet) {
  cfg.fleet = std::make_shared<const scenario::FleetArena>(
      scenario::fleet_arena_from(fleet));
}

/// The scenario grid the golden constants were captured on. Exercises the
/// plain path, the environment extensions (battery gate, thermal, drops,
/// diurnal arrivals, decision overhead/granularity), and real training.
[[nodiscard]] inline std::vector<ParityScenario> parity_scenarios() {
  std::vector<ParityScenario> scenarios;

  core::ExperimentConfig plain;
  plain.num_users = 10;
  plain.horizon_slots = 2500;
  plain.arrival_probability = 0.002;
  plain.seed = 42;
  scenarios.push_back({"plain", plain});

  core::ExperimentConfig env = plain;
  env.seed = 1234;
  env.diurnal = true;
  env.diurnal_swing = 0.7;
  env.track_battery = true;
  env.battery.capacity_mah = 150.0;
  env.min_soc_to_train = 0.4;
  env.enable_thermal = true;
  env.upload_drop_probability = 0.2;
  env.decision_eval_seconds = 0.01;
  env.decision_interval_slots = 5;
  env.record_per_user_gaps = true;
  env.use_lte = true;
  scenarios.push_back({"environment", env});

  core::ExperimentConfig real;
  real.num_users = 4;
  real.horizon_slots = 1200;
  real.arrival_probability = 0.002;
  real.seed = 7;
  real.real_training = true;
  real.model = core::ModelKind::kMlp;
  real.dataset.classes = 3;
  real.dataset.height = 8;
  real.dataset.width = 8;
  real.dataset.train_per_class = 20;
  real.dataset.test_per_class = 8;
  real.eval_interval_s = 400.0;
  real.offline_window_slots = 300;
  scenarios.push_back({"real-training", real});

  return scenarios;
}

}  // namespace fedco::testing
