// Fleet retry storm: the closed-loop login-storm scenario spanning a
// multi-datacenter fleet, with cross-datacenter re-routing (paper §3.2's
// geo-coordination applied to §3.1's retry storms).
//
// Each datacenter runs its own closed-loop client population behind its own
// admission stack (bounded queue + token bucket + circuit breaker), driven
// at epoch granularity by a driver-event chain on that datacenter's shard
// of a sim::Fabric. Datacenters interact only through fabric.send():
//
//   * forwards  — when a datacenter is dark (an outage) or its accept
//     queue overflows, a configured fraction of the affected attempts is
//     re-routed to peers (round-robin) as packed remote refs
//     (cluster::pack_remote_ref) arriving one latency floor later;
//   * responses — a peer that completes forwarded work sends the cohort of
//     client ids back to the owner, again one latency floor later, where
//     each id is served directly (fresh if the client is still waiting,
//     stale otherwise — the owner's ledger keeps the verdict).
//
// The model is valid on BOTH fabrics with bit-identical outcomes because
// its cross-shard interactions are insensitive to same-timestamp delivery
// order across different sources:
//
//   * inbound forwards append to a source-indexed inbox and are drained in
//     source order at the next epoch boundary, so the admission order never
//     depends on which message physically arrived first;
//   * response cohorts commute: each forwarded attempt targets one peer, so
//     same-timestamp response events touch disjoint client ids (and a
//     retried-then-forwarded-again id is served exactly once fresh and once
//     stale under either order, with identical RNG draws);
//   * the reference latency floors are geometric (network::InterDcNetwork),
//     hence never aligned with the epoch grid — no cross-shard event ties a
//     boundary event. Configs with hand-picked floors must preserve that.
//
// Remote sheds (a peer drops forwarded work because it is itself dark or
// full) are deliberately NOT answered with a reject message: the owner's
// client already received its one admission verdict (on_admitted at forward
// time) and resolves the loss through its request timeout, exactly like a
// request lost inside a dark service. This keeps the one-verdict-per-
// collected-id drive protocol of workload::ClientPopulation intact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "faults/drill.h"
#include "faults/fault_domain.h"
#include "faults/retry_storm.h"
#include "macro/geo.h"
#include "network/interdc.h"
#include "sim/fabric.h"
#include "sim/sharded_simulator.h"
#include "workload/client_population.h"

namespace epm::faults {

/// A disturbance at one datacenter: a scripted outage, or one datacenter's
/// share of a correlated grid event (the expansion of a fault-domain draw —
/// see faults/fault_domain.h). Capacity factors of overlapping disruptions
/// multiply.
struct FleetDisruption {
  std::size_t dc = 0;
  double start_s = 0.0;
  double duration_s = 0.0;
  /// Remaining service-capacity fraction while active: 0 = dark (outage),
  /// (0, 1) = brownout, 1 = signal-only (price spike / demand response).
  double capacity_factor = 1.0;
  /// Drop every session at onset (reconnect storm). Typically true for
  /// outages, false for brownouts.
  bool drop_sessions = false;
  /// Announce onset/clear to every peer one latency floor later; peers with
  /// grid_broadcasts enabled then steer forwards away from this datacenter
  /// while the disruption is active.
  bool broadcast = false;

  double end_s() const { return start_s + duration_s; }
};

struct FleetStormConfig {
  /// One entry per datacenter (coordinates feed the latency floors); size
  /// in [2, cluster::kRemoteRefMaxOwner + 1]. See
  /// macro::make_reference_fleet_sites.
  std::vector<macro::SiteConfig> sites;
  /// Per-datacenter population; datacenter d runs `clients` with
  /// seed = clients.seed + d (distinct but reproducible streams).
  workload::ClientPopulationConfig clients;
  /// Interactive service capacity per datacenter (req/s).
  double service_capacity_rps = 1000.0;
  double epoch_s = 1.0;
  double horizon_s = 120.0;
  /// Per-datacenter admission stack; disabled = naive arm (big queue, no
  /// bucket/breaker).
  RetryStormDefenseConfig defense;
  /// Fraction of forward-eligible attempts (dark-service arrivals, queue
  /// overflow) re-routed to peers; deterministic fractional accumulator, no
  /// randomness. 0 disables re-routing (every eligible attempt fails
  /// locally), 1 forwards them all.
  double reroute_fraction = 1.0;
  /// Latency-floor derivation from site coordinates (network/interdc.h).
  double latency_detour_factor = 1.3;
  double min_latency_floor_s = 1e-3;
  /// Per-datacenter recovery verdict, as in the single-DC storm.
  double sla_goodput_fraction = 0.9;
  std::size_t recovery_window_epochs = 10;
  /// Every scripted disturbance; at least one. A dark datacenter (capacity
  /// 0) sheds inbound forwarded work. The pre-fault SLA window ends at the
  /// earliest start; recovery is judged from the latest clear.
  std::vector<FleetDisruption> disruptions;
  /// Defended-fleet behavior: honor broadcast disruptions by steering
  /// forwards away from the affected datacenter while it is degraded. Off =
  /// naive arm (forwards round-robin blindly into the fault domain).
  bool grid_broadcasts = false;
};

/// Per-datacenter slice of the outcome: the single-DC storm's client-side
/// ledger plus the cross-datacenter flow counters.
struct FleetDcOutcome {
  std::string site;
  std::uint64_t intents = 0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t served_fresh = 0;
  std::uint64_t served_stale = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t dark_failures = 0;
  std::uint64_t shed_breaker = 0;
  std::uint64_t shed_bucket = 0;
  std::uint64_t shed_queue = 0;
  /// Cross-datacenter flow, counted where the work happened.
  std::uint64_t forwarded = 0;        ///< own attempts re-routed to peers
  std::uint64_t remote_admitted = 0;  ///< peer work accepted into our queue
  std::uint64_t remote_served = 0;    ///< peer work we completed
  std::uint64_t remote_shed = 0;      ///< peer work we dropped (dark/full)
  double prefault_goodput_rps = 0.0;
  double end_offered_rps = 0.0;
  double end_goodput_rps = 0.0;
  /// Grid onset/clear broadcasts received from peers.
  std::uint64_t grid_signals = 0;
  bool recovered = false;
  double recovery_s = 0.0;
  std::size_t max_queue_depth = 0;
  std::uint64_t breaker_trips = 0;
  bool conservation_ok = false;
  std::string conservation_report;

  bool operator==(const FleetDcOutcome&) const = default;
};

struct FleetStormOutcome {
  std::vector<FleetDcOutcome> dcs;
  std::size_t epochs = 0;
  /// Fleet totals of the cross-datacenter flow.
  std::uint64_t forwarded = 0;
  std::uint64_t remote_served = 0;
  std::uint64_t remote_shed = 0;
  /// Fresh completions / intents over the whole fleet.
  double fleet_goodput_fraction = 0.0;
  /// Fleet-summed pre-fault and end-of-run goodput (req/s) — the chaos
  /// harness' recovery gate compares these.
  double fleet_prefault_goodput_rps = 0.0;
  double fleet_end_goodput_rps = 0.0;
  /// Every population's retry-budget ledger conserved AND the fleet flow
  /// identity holds: forwards == drained (admitted + shed) + still in
  /// flight at the horizon.
  bool conservation_ok = false;
  std::string conservation_report;
  /// Kernel events fired / events still pending at the horizon — identical
  /// across fabrics, so the differential suite compares them too.
  std::size_t events_run = 0;
  std::size_t events_pending = 0;

  /// Exact, float fields included: the runs compared are required to be
  /// bit-identical, not merely close.
  bool operator==(const FleetStormOutcome&) const = default;
};

/// Latency-floor network derived from the config's site coordinates.
network::InterDcNetwork make_fleet_network(const FleetStormConfig& config);

/// ShardedConfig for running a `dcs`-datacenter fleet on `shards` shards
/// (contiguous groups of dcs/shards datacenters; dcs % shards must be 0).
/// The shard-pair lookahead is the minimum latency floor over cross-group
/// datacenter pairs, so every fleet send() clears its shard floor.
sim::ShardedConfig make_fleet_sharded_config(const network::InterDcNetwork& net,
                                             std::size_t shards,
                                             std::size_t threads);

/// Runs the scenario on the given fabric. Datacenter d lives on shard
/// d / (dcs / fabric.shard_count()); fabric.shard_count() must divide the
/// datacenter count. One config maps to exactly one outcome on EVERY
/// fabric — single-kernel, 1-shard federation, or N-shard federation at any
/// thread count (the differential suite asserts this bit-for-bit).
FleetStormOutcome run_fleet_storm(const FleetStormConfig& config,
                                  sim::Fabric& fabric);

/// Runs the scenario on one kernel when shards == kSingleKernel (the
/// ground truth), else on a `shards`-shard federation of
/// make_fleet_sharded_config at `threads` worker threads.
FleetStormOutcome run_fleet_storm(const FleetStormConfig& config,
                                  std::size_t shards, std::size_t threads);

/// Maps expanded fault-domain events onto fleet disruptions: outage ->
/// dark + session drop, brownout -> capacity 1 - severity, price-spike and
/// demand-response -> signal-only. Every disruption broadcasts its
/// onset/clear (whether peers listen is config.grid_broadcasts).
std::vector<FleetDisruption> to_fleet_disruptions(
    const std::vector<ExpandedDcFault>& expanded);

/// Reference fleet scenario: `dcs` datacenters from
/// macro::make_reference_fleet_sites, `clients_per_dc` clients each,
/// defended admission stacks, a 20 s outage at the first site 30 s in (the
/// first disruption: dark, sessions dropped, not broadcast), and full
/// re-routing of dark/overflow attempts.
FleetStormConfig make_reference_fleet_storm_config(std::size_t dcs,
                                                   std::size_t clients_per_dc,
                                                   std::uint64_t seed);

}  // namespace epm::faults
