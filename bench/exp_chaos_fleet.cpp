// Extension experiment (EXP-Y): chaos drills for the federation.
//
// Three gated drills from the chaos harness (faults/chaos_fleet.h):
//
//   * recovery — the reference fleet storm under a correlated regional
//     grid event (fault-domain fan-out). The defended arm (admission
//     stack + grid broadcasts steering forwards away from dark
//     datacenters) must end the run at >= 99% of its pre-event fleet
//     goodput at EVERY swept fleet size; the naive arm (no defense, blind
//     round-robin into the fault domain) must fail that bar at every one.
//   * restore — kill-and-restore from a mid-run snapshot must continue
//     bit-identically to the uninterrupted run, at 1 and 8 worker threads.
//   * partition — an open partition must park traffic in the bounded
//     mailbox FIFO and, after heal, finish with zero message loss and
//     per-pair FIFO order intact.
//
// Emits one BENCH_chaos.json record per drill (set EPM_BENCH_REPORT to
// redirect); the checked-in copy is the reference run the CI smoke lane
// compares against.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/table.h"
#include "faults/chaos_fleet.h"

using namespace epm;

namespace {

void append_recovery_record(std::size_t dcs, const std::string& arm_name,
                            const faults::ChaosRecoveryReport& rep,
                            const faults::ChaosRecoveryArm& arm) {
  auto file = bench::open_scenario_report("BENCH_chaos.json");
  if (!file) return;
  file << "{\"name\":\"chaos_fleet_recovery\",\"dcs\":" << dcs
       << ",\"arm\":\"" << arm_name << "\",\"grid_script\":\""
       << rep.grid_script << "\",\"threshold\":" << rep.threshold
       << ",\"prefault_goodput_rps\":" << arm.fleet_prefault_goodput_rps
       << ",\"end_goodput_rps\":" << arm.fleet_end_goodput_rps
       << ",\"ratio\":" << arm.ratio
       << ",\"grid_signals\":" << arm.grid_signals
       << ",\"recovered\":" << (arm.recovered ? "true" : "false")
       << ",\"conservation_ok\":" << (arm.conservation_ok ? "true" : "false");
  bench::end_record_with_provenance(file);
}

void append_restore_record(std::size_t threads,
                           const faults::ChaosRestoreReport& rep) {
  auto file = bench::open_scenario_report("BENCH_chaos.json");
  if (!file) return;
  file << "{\"name\":\"chaos_restore_equivalence\",\"threads\":" << threads
       << ",\"snapshot_bytes\":" << rep.snapshot_bytes
       << ",\"identical\":" << (rep.identical ? "true" : "false");
  bench::end_record_with_provenance(file);
}

void append_partition_record(const faults::ChaosPartitionReport& rep) {
  auto file = bench::open_scenario_report("BENCH_chaos.json");
  if (!file) return;
  file << "{\"name\":\"chaos_partition_zero_loss\",\"parked_at_check\":"
       << rep.parked_at_check << ",\"redelivered\":" << rep.redelivered
       << ",\"drained\":" << (rep.drained ? "true" : "false")
       << ",\"zero_loss\":" << (rep.zero_loss ? "true" : "false")
       << ",\"fifo_ok\":" << (rep.fifo_ok ? "true" : "false")
       << ",\"passed\":" << (rep.passed ? "true" : "false");
  bench::end_record_with_provenance(file);
}

}  // namespace

int main() {
  std::cout << banner("EXP-Y: federation chaos drills");
  bool gate_ok = true;

  // Drill 1: correlated-regional-outage recovery gate, swept fleet sizes.
  const std::vector<std::size_t> fleet_sizes = {4, 6};
  Table recovery({"dcs", "arm", "prefault", "end", "ratio", "signals",
                  "recovered"});
  for (const std::size_t dcs : fleet_sizes) {
    const auto rep = faults::run_chaos_recovery(
        dcs, 2000, 42, faults::make_reference_grid_script());
    append_recovery_record(dcs, "defended", rep, rep.defended);
    append_recovery_record(dcs, "naive", rep, rep.naive);
    for (const bool defended : {true, false}) {
      const auto& arm = defended ? rep.defended : rep.naive;
      recovery.add_row({std::to_string(dcs), defended ? "defended" : "naive",
                        fmt(arm.fleet_prefault_goodput_rps, 1) + "/s",
                        fmt(arm.fleet_end_goodput_rps, 1) + "/s",
                        fmt(arm.ratio, 4),
                        std::to_string(arm.grid_signals),
                        arm.recovered ? "yes" : "NO"});
      if (!arm.conservation_ok) {
        gate_ok = false;
        std::cout << "  CONSERVATION VIOLATION (dcs=" << dcs << ", "
                  << (defended ? "defended" : "naive") << " arm)\n";
      }
    }
    if (!rep.gate_ok) {
      gate_ok = false;
      std::cout << "  RECOVERY GATE FAILED at dcs=" << dcs
                << " (defended ratio=" << fmt(rep.defended.ratio, 4)
                << ", naive ratio=" << fmt(rep.naive.ratio, 4)
                << ", threshold=" << fmt(rep.threshold, 2) << ")\n";
    }
  }
  std::cout << recovery.render();

  // Drill 2: kill-and-restore bit-identical continuation.
  faults::ChaosFleetConfig chaos;
  Table restore({"threads", "snapshot bytes", "identical"});
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    faults::ChaosFleetConfig c = chaos;
    c.threads = threads;
    const auto rep = faults::run_chaos_fleet_with_restore(c, 20.0, 35.0);
    append_restore_record(threads, rep);
    restore.add_row({std::to_string(threads),
                     std::to_string(rep.snapshot_bytes),
                     rep.identical ? "yes" : "NO"});
    if (!rep.identical) {
      gate_ok = false;
      std::cout << "  RESTORE DIVERGED at " << threads << " threads:\n    un: "
                << rep.uninterrupted.conservation_report << "\n    re: "
                << rep.restored.conservation_report << "\n";
    }
  }
  std::cout << restore.render();

  // Drill 3: partition, park, heal, drain — zero loss.
  const auto part = faults::run_chaos_partition_drill(chaos, 15.0, 30.0, 32.0);
  append_partition_record(part);
  Table partition({"parked@check", "redelivered", "drained", "zero loss",
                   "fifo", "passed"});
  partition.add_row({std::to_string(part.parked_at_check),
                     std::to_string(part.redelivered),
                     part.drained ? "yes" : "NO",
                     part.zero_loss ? "yes" : "NO",
                     part.fifo_ok ? "yes" : "NO",
                     part.passed ? "yes" : "NO"});
  std::cout << partition.render();
  if (!part.passed) {
    gate_ok = false;
    std::cout << "  PARTITION DRILL FAILED: "
              << part.outcome.conservation_report << "\n";
  }

  std::cout << "\n  Chaos gates (recovery >= 99%, bit-identical restore, "
               "zero-loss partition): "
            << (gate_ok ? "all pass" : "FAILED") << "\n";
  std::cout
      << "  Paper: regional grid events hit correlated groups of "
         "datacenters at once (§3.2) — resilience\n  must be engineered at "
         "the fleet level. Measured: fault-domain-aware forward steering "
         "plus the\n  admission stack rides out a regional outage the naive "
         "fleet cannot, and the federation's\n  snapshots and partition "
         "mailboxes lose nothing along the way.\n";
  return gate_ok ? 0 : 1;
}
