// Deterministic chaos harness for the federation (the robustness tentpole).
//
// Three drills, each pinning one resilience claim of the stack:
//
//   * kill-and-restore — a snapshot-capable fleet world (every event routed
//     through sim::TaggedKernel, every cross-shard message sent tagged) is
//     checkpointed at a barrier, run further, then "killed": the federation
//     and world are destroyed, rebuilt from the config alone, restored from
//     the snapshot bytes, and run to the horizon. The continuation must be
//     bit-identical to the uninterrupted run — same counters, same final
//     clock, same pending count.
//
//   * partition drill — an open-ended partition window on one directed link
//     parks every in-flight message in the bounded mailbox FIFO; after
//     heal() the backlog drains in send order and the run finishes with
//     zero message loss (forwarded item count == received item count) and
//     per-pair FIFO sequence numbers intact.
//
//   * recovery gate — the fleet retry-storm scenario under a correlated
//     regional grid event (faults/fault_domain.h expanded onto
//     FleetDisruptions): the defended arm (admission stack + grid
//     broadcasts steering forwards away from dark datacenters) must end the
//     run at >= 99% of its pre-fault fleet goodput while the naive
//     arm (no defense, blind round-robin forwards) must not.
//
// The drive world here is intentionally small — a per-datacenter
// generate/serve/forward loop with deterministic arrivals — because the
// harness' subject is the *infrastructure* (snapshots, mailboxes, link
// plans), not the workload model. The recovery gate reuses the full
// faults/fleet_storm.h scenario for realism.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "faults/drill.h"
#include "faults/fleet_storm.h"
#include "network/interdc_link.h"

namespace epm::faults {

struct ChaosFleetConfig {
  /// Datacenters == federation shards (one kernel each).
  std::size_t dcs = 4;
  /// Worker threads for the federation (1 = serial).
  std::size_t threads = 1;
  /// Drive epoch: each datacenter generates/serves/forwards once per epoch.
  double epoch_s = 0.5;
  /// Last epoch tick strictly before this time; leaves slack before the
  /// horizon so in-flight work (including partition redeliveries) lands.
  double drive_until_s = 40.0;
  double horizon_s = 60.0;
  double arrival_rate_rps = 200.0;  ///< mean arrivals per DC (±20% jitter)
  /// Fraction of each epoch's arrivals forwarded to a peer (round-robin
  /// over peers by epoch), as one tagged message carrying the item count.
  double forward_fraction = 0.25;
  std::uint64_t seed = 1;
};

/// Per-datacenter ledger of the drive world.
struct ChaosDcOutcome {
  std::uint64_t generated = 0;
  std::uint64_t served = 0;
  std::uint64_t dropped = 0;
  std::uint64_t backlog = 0;
  std::uint64_t forwarded_items = 0;  ///< items sent to peers
  std::uint64_t received_items = 0;   ///< items received from peers
  std::uint64_t epochs = 0;

  bool operator==(const ChaosDcOutcome&) const = default;
};

struct ChaosFleetOutcome {
  std::vector<ChaosDcOutcome> dcs;
  double final_now_s = 0.0;
  std::size_t final_pending = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_redelivered = 0;
  std::uint64_t messages_parked_end = 0;
  /// Per-(src,dst) sequence numbers arrived strictly in send order.
  bool fifo_ok = true;
  /// Zero message loss (sum forwarded == sum received at the horizon) and
  /// item conservation (generated == served + dropped + backlog).
  bool conservation_ok = false;
  std::string conservation_report;

  /// Exact (the restore drill demands bit-identical, not close).
  bool operator==(const ChaosFleetOutcome&) const = default;
};

/// Uninterrupted run. `plan` (optional, non-owning) degrades links; it must
/// have site_count() == config.dcs and any open partition must be healed
/// before the run (this entry point runs straight to the horizon).
ChaosFleetOutcome run_chaos_fleet(const ChaosFleetConfig& config,
                                  const network::InterDcLinkPlan* plan = nullptr);

/// Kill-and-restore drill (faults/drill.h run_restore_drill): snapshot at
/// `snapshot_at_s`, kill at `kill_at_s`, restore cold, finish at the
/// horizon. Requires 0 < snapshot_at_s <= kill_at_s < horizon_s.
using ChaosRestoreReport = RestoreReport<ChaosFleetOutcome>;
ChaosRestoreReport run_chaos_fleet_with_restore(const ChaosFleetConfig& config,
                                                double snapshot_at_s,
                                                double kill_at_s);

/// Partition drill: cuts 0->1 over [partition_at_s, inf), runs to
/// check_at_s (expects parked messages), heals at heal_at_s (>= the
/// committed horizon at that point), runs to the config horizon, and
/// verifies zero loss + FIFO + full drain.
struct ChaosPartitionReport {
  ChaosFleetOutcome outcome;
  std::uint64_t parked_at_check = 0;  ///< messages parked mid-partition
  std::uint64_t redelivered = 0;
  bool parked_seen = false;   ///< the partition actually parked something
  bool drained = false;       ///< nothing left parked at the horizon
  bool zero_loss = false;     ///< forwarded items == received items
  bool fifo_ok = false;
  bool passed = false;        ///< all of the above
};
ChaosPartitionReport run_chaos_partition_drill(const ChaosFleetConfig& config,
                                               double partition_at_s,
                                               double check_at_s,
                                               double heal_at_s);

/// Fraction of pre-fault fleet goodput an arm must end at to count as
/// recovered.
inline constexpr double kChaosRecoveryThreshold = 0.99;

/// Recovery gate: the reference fleet storm under a correlated grid script
/// (fault_domain text syntax, e.g. "outage:region/americas@30+20"),
/// expanded onto the reference fault-domain tree for the fleet's site
/// names. Runs two arms on a single-kernel fabric:
///   * defended — admission stack on, grid broadcasts steer forwards;
///   * naive    — defense off, broadcasts off (blind round-robin).
struct ChaosRecoveryArm {
  double fleet_prefault_goodput_rps = 0.0;
  double fleet_end_goodput_rps = 0.0;
  double ratio = 0.0;  ///< end / prefault (0 when prefault is 0)
  std::uint64_t grid_signals = 0;
  bool conservation_ok = false;
  bool recovered = false;  ///< ratio >= threshold
};
struct ChaosRecoveryReport {
  ChaosRecoveryArm defended;
  ChaosRecoveryArm naive;
  double threshold = kChaosRecoveryThreshold;
  std::string grid_script;
  /// Defended recovers to >= threshold of pre-fault fleet goodput AND the
  /// naive arm does not — the gate BENCH_chaos.json enforces.
  bool gate_ok = false;
};
ChaosRecoveryReport run_chaos_recovery(std::size_t dcs,
                                       std::size_t clients_per_dc,
                                       std::uint64_t seed,
                                       const std::string& grid_script);

/// The disruptions run_chaos_recovery injects into the reference `dcs`-site
/// fleet: `grid_script` parsed, resolved against the fleet's fault-domain
/// tree and fanned out with `seed`'s staggers. A malformed script or an
/// unknown domain name throws std::invalid_argument.
std::vector<FleetDisruption> chaos_grid_disruptions(std::size_t dcs, std::uint64_t seed,
                                                    const std::string& grid_script);

/// The reference grid script used by `epmctl chaos` and the bench: a
/// regional outage over the americas (taking out every DC in that region
/// at staggered onsets) plus an EU brownout.
std::string make_reference_grid_script();

}  // namespace epm::faults
