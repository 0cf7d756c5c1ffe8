// Control-plane chaos harness: kill-the-leader drills for the survivable
// macro control plane (macro/control_plane + sensing/fencing).
//
// The drive world is a small per-datacenter plant — powered servers, a
// power-cap fraction, a CRAC setpoint — serving a deterministic demand curve
// that ramps from base to peak mid-run. The control plane walks the fleet
// through a staged eco-mode transition (caps tightened, setpoints raised,
// servers powered down) and back out, so the mid-run state is exactly the
// dangerous kind the paper warns about: half the fleet dark and throttled
// while demand is about to double. Drills then kill, hang, or partition the
// controllers mid-transition:
//
//   * leader-kill drill — the leader dies permanently while the eco-exit
//     transition is half-issued. Defended arm: per-DC replicas, lease
//     failover, journal replay, actuator fencing, dead-man safe state — the
//     new leader completes the transition before the demand ramp and the
//     fleet stays SLA- and thermally-clean. Naive arm: a single controller,
//     no defenses — the unreached datacenters stay stuck in eco mode and
//     violate at peak. The BENCH_controlplane gate demands defended end
//     goodput >= 99% of pre-fault AND zero alarms while naive violates.
//     Optionally a WAN partition isolates one datacenter through the
//     failover window: its dead-man's switch must trip and revert it to
//     safe defaults before the ramp.
//
//   * split-brain drill — the leader hangs (GC pause), a follower takes
//     over, the old leader wakes and keeps acting under its stale lease
//     token. Every one of its actuations must be fenced (zero double
//     actuations) and it must step down on the first higher-token
//     heartbeat.
//
//   * save/restore drill — lease, journal, fencing ledger, dead-man, and
//     actuator state all serialize through sim/snapshot.h; a run restored
//     mid-failover must finish bit-identical to the uninterrupted one.
//
// Determinism: all control messages travel the federation's tagged-message
// path with a per-source-DC delay stagger (lookahead * (1 + (src+1) *
// 2^-20)), so deliveries from different sources never tie at one timestamp
// and the whole world is bit-identical at any shard/thread count — the
// conformance sweep `epmctl controlplane` runs pins exactly that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "faults/drill.h"
#include "network/interdc_link.h"

namespace epm::faults {

struct ControlChaosConfig {
  std::size_t dcs = 4;     ///< datacenters (leader-kill drills need >= 3)
  std::size_t shards = 0;  ///< federation shards; 0 = one per DC (must divide dcs)
  std::size_t threads = 1;
  /// At least the last drive tick (40 s), with slack so in-flight
  /// messages land.
  double horizon_s = 42.0;

  /// Arms: replicated = one controller replica per DC (false: single
  /// controller at DC 0); fencing = actuator ledgers enforce; deadman =
  /// safe-state watchdog armed.
  bool replicated = true;
  bool fencing = true;
  bool deadman = true;

  /// Controller fault schedule, FaultPlan text restricted to ctl-crash /
  /// ctl-hang / ctl-restart entries targeting a replica (= DC) index.
  std::string controller_faults;
  /// Grid-event script (fault_domain syntax) expanded over the reference
  /// domain tree: outage and ctl-kill events kill the controllers
  /// co-located with the target's datacenters (capacity is untouched —
  /// this world models the control-plane shadow of a grid event).
  std::string grid_script;
  std::uint64_t seed = 7;
};

struct ControlDcOutcome {
  std::uint64_t epochs = 0;
  double demand_total = 0.0;
  double served_total = 0.0;
  std::uint64_t sla_violation_epochs = 0;
  std::uint64_t thermal_alarm_epochs = 0;
  double max_temp_c = 0.0;
  double prefault_demand = 0.0;
  double prefault_served = 0.0;
  double end_demand = 0.0;
  double end_served = 0.0;
  /// Actuator-side ledger counters.
  std::uint64_t commands_applied = 0;
  std::uint64_t fencing_rejections = 0;  ///< stale + duplicate, plane-side
  std::uint64_t stale_rejected = 0;      ///< stale-token share of the above
  std::uint64_t double_actuations = 0;  ///< MUST be 0 unless fencing is off
  std::uint64_t stale_applied = 0;      ///< nonzero only with fencing off
  std::uint64_t safe_state_trips = 0;
  std::uint64_t heartbeats_seen = 0;

  bool operator==(const ControlDcOutcome&) const = default;
};

struct ControlReplicaOutcome {
  bool hosted = false;  ///< naive arm hosts a replica only at DC 0
  std::uint64_t claims = 0;
  std::uint64_t depositions = 0;
  std::uint64_t crashes = 0;
  std::uint64_t stale_heartbeats = 0;
  std::uint64_t commands_issued = 0;
  std::uint64_t commands_replayed = 0;
  std::uint64_t journal_entries = 0;
  std::uint64_t journal_rejected_stale = 0;
  std::uint64_t final_max_token = 0;
  std::vector<std::uint64_t> claimed_tokens;

  bool operator==(const ControlReplicaOutcome&) const = default;
};

struct ControlChaosOutcome {
  std::vector<ControlDcOutcome> dcs;
  std::vector<ControlReplicaOutcome> replicas;
  double final_now_s = 0.0;
  std::size_t final_pending = 0;
  std::uint64_t control_messages = 0;  ///< world-level sends (shard-invariant)
  std::uint64_t max_token = 0;         ///< highest fencing token fleet-wide
  /// Claimed lease tokens are globally unique and every token t claimed by
  /// replica r satisfies t % replicas == r — at most one live lease per
  /// epoch, by construction.
  bool lease_unique_ok = false;
  /// Zero double-actuations on every enforced ledger.
  bool fencing_clean = false;
  double fleet_prefault_frac = 0.0;  ///< served/demand in the pre-fault window
  double fleet_end_frac = 0.0;       ///< served/demand in the end window
  std::uint64_t total_sla_violations = 0;
  std::uint64_t total_alarms = 0;
  bool conservation_ok = false;
  std::string report;

  /// Exact — the conformance and restore drills demand bit-identical.
  bool operator==(const ControlChaosOutcome&) const = default;
};

/// Spelled-out a == b, for callers that predate the defaulted operator.
inline bool control_outcomes_equal(const ControlChaosOutcome& a,
                                   const ControlChaosOutcome& b) {
  return a == b;
}

/// Uninterrupted run. `plan` (optional, non-owning) degrades inter-DC links
/// and requires shards == dcs (the link plan is indexed by shard).
ControlChaosOutcome run_control_plane(
    const ControlChaosConfig& config,
    const network::InterDcLinkPlan* plan = nullptr);

/// Save/restore drill (faults/drill.h run_restore_drill): snapshot at a
/// barrier, run on, destroy everything, rebuild from config, restore,
/// finish — the restored outcome must equal the uninterrupted one exactly.
using ControlRestoreReport = RestoreReport<ControlChaosOutcome>;
ControlRestoreReport run_control_plane_with_restore(
    const ControlChaosConfig& config, double snapshot_at_s, double kill_at_s);

/// Conformance sweep (faults/drill.h sweep_conformance): `base` run at each
/// point's seed, shard count and thread count; every run must equal its
/// seed's first point and keep leases unique, fencing clean and ledgers
/// conserved.
SweepReport sweep_control_plane(const ControlChaosConfig& base,
                                const std::vector<SweepPoint>& points);

/// The reference leader-kill drill: defended (replicas + fencing + journal
/// + dead-man) vs naive (single controller, no defenses) under a permanent
/// leader death mid-eco-exit; with_partition additionally cuts every link
/// into DC 0 through the failover window, so DC 0's dead-man must revert it
/// to safe state before the demand ramp.
struct ControlLeaderKillReport {
  ControlChaosOutcome defended;
  ControlChaosOutcome naive;
  double goodput_threshold = 0.99;
  bool defended_clean = false;  ///< >= threshold goodput, 0 alarms, 0 SLA
                                ///< violations, fencing clean, lease unique
  bool naive_violates = false;  ///< naive fails goodput or alarms
  bool gate_ok = false;         ///< defended_clean && naive_violates
};
ControlLeaderKillReport run_leader_kill_drill(std::size_t dcs,
                                              std::size_t threads,
                                              std::uint64_t seed,
                                              bool with_partition);

/// Split-brain drill: the leader hangs through a follower takeover, wakes
/// with a stale lease, and keeps actuating until deposed. Passes when the
/// stale commands were fenced (> 0 rejections), no double actuation
/// happened anywhere, and the woken leader stepped down.
struct ControlSplitBrainReport {
  ControlChaosOutcome outcome;
  std::uint64_t stale_fenced = 0;
  std::uint64_t double_actuations = 0;
  bool stale_leader_deposed = false;
  bool passed = false;
};
ControlSplitBrainReport run_split_brain_drill(std::size_t dcs,
                                              std::size_t threads,
                                              std::uint64_t seed);

/// Reference fault schedules for the drills above.
std::string make_leader_kill_plan();   ///< permanent ctl-crash on DC 0
std::string make_split_brain_plan();   ///< ctl-hang window on DC 0
/// Regional grid event whose datacenters' co-located controllers die with
/// it (a ctl-kill on the americas region).
std::string make_reference_control_grid_script();

}  // namespace epm::faults
