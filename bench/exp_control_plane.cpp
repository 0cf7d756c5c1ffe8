// Extension experiment (EXP-Z): survivable-control-plane drills.
//
// Four gated drills from the control-plane chaos harness
// (faults/control_chaos.h), exercising macro/control_plane (leases,
// journals) and sensing/fencing (token ledgers, dead-man switches):
//
//   * leader-kill — the lease leader dies permanently while the eco-exit
//     transition is half-issued and demand is about to double. The
//     defended arm (per-DC replicas, journal replay, actuator fencing)
//     must hold >= 99% of pre-fault goodput with zero thermal alarms and
//     zero SLA violations at EVERY swept fleet size; the naive arm (one
//     controller, no defenses) must violate at every one. The dcs=4
//     sweep additionally runs the WAN-partition variant: DC 0 is cut off
//     through the failover window and must trip its dead-man safe state
//     before the demand ramp.
//   * split-brain — the leader hangs through a follower takeover and
//     wakes with a stale lease. Every stale actuation must be fenced
//     (zero double actuations fleet-wide) and the imposter must step
//     down on first contact with a higher-token heartbeat.
//   * conformance — the leader-kill world must be bit-identical across
//     shards {1, 2, 4} x threads {1, 2, 8}.
//   * restore — a run snapshotted mid-failover (after the kill, before
//     the successor's claim) and restored into a fresh federation must
//     finish bit-identical to the uninterrupted run, at 1 and 8 threads.
//
// Emits one BENCH_controlplane.json record per drill (set
// EPM_BENCH_REPORT to redirect); the checked-in copy is the reference
// run the CI smoke lane compares against.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/table.h"
#include "faults/control_chaos.h"

using namespace epm;

namespace {

struct ArmTotals {
  std::uint64_t fenced = 0;
  std::uint64_t doubles = 0;
  std::uint64_t safe_trips = 0;
};

ArmTotals totals_of(const faults::ControlChaosOutcome& out) {
  ArmTotals t;
  for (const faults::ControlDcOutcome& dc : out.dcs) {
    t.fenced += dc.fencing_rejections;
    t.doubles += dc.double_actuations;
    t.safe_trips += dc.safe_state_trips;
  }
  return t;
}

void append_kill_record(std::size_t dcs, bool partition,
                        const std::string& arm_name,
                        const faults::ControlLeaderKillReport& rep,
                        const faults::ControlChaosOutcome& arm) {
  auto file = bench::open_scenario_report("BENCH_controlplane.json");
  if (!file) return;
  const ArmTotals t = totals_of(arm);
  file << "{\"name\":\"controlplane_leader_kill\",\"dcs\":" << dcs
       << ",\"partition\":" << (partition ? "true" : "false") << ",\"arm\":\""
       << arm_name << "\",\"threshold\":" << rep.goodput_threshold
       << ",\"prefault_frac\":" << arm.fleet_prefault_frac
       << ",\"end_frac\":" << arm.fleet_end_frac
       << ",\"sla_violations\":" << arm.total_sla_violations
       << ",\"alarms\":" << arm.total_alarms
       << ",\"fencing_rejections\":" << t.fenced
       << ",\"double_actuations\":" << t.doubles
       << ",\"safe_state_trips\":" << t.safe_trips
       << ",\"lease_unique\":" << (arm.lease_unique_ok ? "true" : "false")
       << ",\"gate_ok\":" << (rep.gate_ok ? "true" : "false");
  bench::end_record_with_provenance(file);
}

void append_split_brain_record(std::size_t dcs,
                               const faults::ControlSplitBrainReport& rep) {
  auto file = bench::open_scenario_report("BENCH_controlplane.json");
  if (!file) return;
  file << "{\"name\":\"controlplane_split_brain\",\"dcs\":" << dcs
       << ",\"stale_fenced\":" << rep.stale_fenced
       << ",\"double_actuations\":" << rep.double_actuations
       << ",\"deposed\":" << (rep.stale_leader_deposed ? "true" : "false")
       << ",\"passed\":" << (rep.passed ? "true" : "false");
  bench::end_record_with_provenance(file);
}

void append_conformance_record(std::size_t runs, bool identical) {
  auto file = bench::open_scenario_report("BENCH_controlplane.json");
  if (!file) return;
  file << "{\"name\":\"controlplane_conformance\",\"runs\":" << runs
       << ",\"identical\":" << (identical ? "true" : "false");
  bench::end_record_with_provenance(file);
}

void append_restore_record(std::size_t threads,
                           const faults::ControlRestoreReport& rep) {
  auto file = bench::open_scenario_report("BENCH_controlplane.json");
  if (!file) return;
  file << "{\"name\":\"controlplane_restore_equivalence\",\"threads\":"
       << threads << ",\"snapshot_bytes\":" << rep.snapshot_bytes
       << ",\"identical\":" << (rep.identical ? "true" : "false");
  bench::end_record_with_provenance(file);
}

}  // namespace

int main() {
  std::cout << banner("EXP-Z: survivable control plane");
  bool gate_ok = true;

  // Drill 1: kill-the-leader across fleet sizes, plus the partition
  // variant at the reference size.
  Table kill_table({"dcs", "partition", "arm", "prefault", "end", "SLA viol",
                    "alarms", "fenced", "doubles", "safe trips"});
  const auto run_kill = [&](std::size_t dcs, bool partition) {
    const auto rep = faults::run_leader_kill_drill(dcs, /*threads=*/2,
                                                   /*seed=*/7, partition);
    for (const bool defended : {true, false}) {
      const auto& arm = defended ? rep.defended : rep.naive;
      const char* name = defended ? "defended" : "naive";
      append_kill_record(dcs, partition, name, rep, arm);
      const ArmTotals t = totals_of(arm);
      kill_table.add_row(
          {std::to_string(dcs), partition ? "yes" : "no", name,
           fmt_percent(arm.fleet_prefault_frac, 1),
           fmt_percent(arm.fleet_end_frac, 1),
           std::to_string(arm.total_sla_violations),
           std::to_string(arm.total_alarms), std::to_string(t.fenced),
           std::to_string(t.doubles), std::to_string(t.safe_trips)});
    }
    if (!rep.gate_ok) {
      gate_ok = false;
      std::cout << "  LEADER-KILL GATE FAILED at dcs=" << dcs
                << (partition ? " (partition)" : "")
                << " (defended end=" << fmt(rep.defended.fleet_end_frac, 4)
                << ", naive end=" << fmt(rep.naive.fleet_end_frac, 4)
                << ", threshold=" << fmt(rep.goodput_threshold, 2) << ")\n";
    }
    if (partition && rep.defended.dcs[0].safe_state_trips == 0) {
      gate_ok = false;
      std::cout << "  DEAD-MAN GATE FAILED: partitioned DC 0 never reverted "
                   "to safe state\n";
    }
    return rep;
  };
  for (const std::size_t dcs : {std::size_t{4}, std::size_t{6}}) {
    run_kill(dcs, /*partition=*/false);
  }
  run_kill(4, /*partition=*/true);
  std::cout << kill_table.render();

  // Drill 2: split-brain fencing.
  const auto sb = faults::run_split_brain_drill(/*dcs=*/4, /*threads=*/2,
                                                /*seed=*/7);
  append_split_brain_record(4, sb);
  std::cout << "  split-brain: " << sb.stale_fenced
            << " stale actuations fenced, " << sb.double_actuations
            << " double actuations, imposter "
            << (sb.stale_leader_deposed ? "deposed" : "STILL LEADING") << "\n";
  if (!sb.passed) {
    gate_ok = false;
    std::cout << "  SPLIT-BRAIN GATE FAILED:\n" << sb.outcome.report << "\n";
  }

  // Drill 3: shard/thread conformance of the leader-kill world.
  faults::ControlChaosConfig base;
  base.controller_faults = faults::make_leader_kill_plan();
  // The serial one-shard run is the reference for the sharded grid.
  std::vector<faults::SweepPoint> points =
      faults::sweep_grid({base.seed}, {2, 4}, {1, 2, 8});
  points.insert(points.begin(), {base.seed, 1, 1});
  const faults::SweepReport sweep = faults::sweep_control_plane(base, points);
  if (!sweep.ok) {
    std::cout << "  CONFORMANCE DIVERGED at shards=" << sweep.failed.shards
              << " threads=" << sweep.failed.threads << "\n";
  }
  append_conformance_record(sweep.runs, sweep.ok);
  std::cout << "  conformance: " << sweep.runs
            << " runs across shards {1,2,4} x threads {1,2,8}, "
            << (sweep.ok ? "all bit-identical" : "DIVERGED") << "\n";
  if (!sweep.ok) gate_ok = false;

  // Drill 4: mid-failover snapshot/restore equivalence.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    faults::ControlChaosConfig c = base;
    c.threads = threads;
    const auto rep = faults::run_control_plane_with_restore(
        c, /*snapshot_at_s=*/14.0, /*kill_at_s=*/16.5);
    append_restore_record(threads, rep);
    std::cout << "  restore (" << threads << " thread"
              << (threads == 1 ? "" : "s") << "): snapshot "
              << rep.snapshot_bytes << " bytes, continuation "
              << (rep.identical ? "bit-identical" : "DIVERGED") << "\n";
    if (!rep.identical) gate_ok = false;
  }

  std::cout << "\n  Control-plane gates (defended >= 99% goodput with zero "
               "alarms while naive violates,\n  zero double actuations, "
               "bit-identical conformance and restore): "
            << (gate_ok ? "all pass" : "FAILED") << "\n";
  std::cout
      << "  Paper: elastic power management concentrates authority in a "
         "controller that turns\n  capacity off on purpose (SS4) — losing "
         "that controller mid-transition is the new\n  single point of "
         "failure. Measured: lease failover with journal replay finishes "
         "the\n  half-issued transition before the demand ramp, fencing "
         "tokens make a deposed leader\n  harmless, and a partitioned "
         "datacenter's dead-man switch reverts it to safe state.\n";
  return gate_ok ? 0 : 1;
}
