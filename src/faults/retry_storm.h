// Closed-loop retry-storm scenario runner.
//
// Couples a workload::ClientPopulation (clients that retry and reconnect)
// to a fluid service with an optional overload-defense stack (bounded
// accept queue + token-bucket admission + circuit breaker) and the
// macro::DegradationPolicy overload posture. A scripted utility outage
// drops every client session; when power returns, the reconnect surge plus
// retry amplification is exactly the regime where an undefended service
// goes metastable (paper §3: login storms, the Animoto flash crowd): the
// backlog pushes queue sojourn past the client timeout, every completion
// is stale, goodput pins at zero, and the re-offered load keeps the system
// saturated long after the fault cleared. The defended arm fails fast while
// dark, sheds the batch tier for interactive headroom, and bounds queue
// sojourn below the client timeout, so served work is fresh and the
// population drains back to pre-fault SLA in bounded time.
//
// Serial and seeded: one RetryStormConfig maps to exactly one
// RetryStormOutcome, regardless of how many sweep threads run scenarios
// concurrently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "cluster/admission.h"
#include "macro/degradation.h"
#include "workload/client_population.h"

namespace epm::sim {
class ShardedSimulator;
}

namespace epm::faults {

struct RetryStormDefenseConfig {
  bool enabled = false;
  cluster::TokenBucketConfig bucket{900.0, 900.0};
  /// Accept-queue depth; sized so worst-case sojourn (capacity_rps full)
  /// stays below the client timeout — queued work is never doomed.
  std::size_t queue_capacity = 1800;
  cluster::CircuitBreakerConfig breaker;
};

struct RetryStormConfig {
  workload::ClientPopulationConfig clients;
  /// Shared service capacity (req/s); the open-loop batch tier consumes
  /// part of it unless the macro policy sheds batch under overload.
  double service_capacity_rps = 1000.0;
  double batch_rps = 300.0;
  double epoch_s = 1.0;
  double horizon_s = 1200.0;
  /// Scripted utility outage [start, start + duration): the service is
  /// dark and every client session drops at onset (reconnect storm).
  double outage_start_s = 180.0;
  double outage_duration_s = 120.0;
  /// Accept-queue depth of the undefended arm — large enough that backlog,
  /// not shedding, is what kills it.
  std::size_t naive_queue_capacity = 120000;
  RetryStormDefenseConfig defense;
  /// Drive macro::DegradationPolicy with the per-epoch OverloadSignal
  /// (batch-tier shed under congestion). Off = uncoordinated baseline.
  bool policy_enabled = false;
  macro::DegradationPolicyConfig policy;
  /// Recovered = goodput back to this fraction of the pre-fault rate.
  double sla_goodput_fraction = 0.9;
  /// Consecutive healthy epochs required to declare recovery; also the
  /// trailing window for the end-of-run metastability verdict.
  std::size_t recovery_window_epochs = 30;
};

struct RetryStormOutcome {
  // Client-side ledger totals over the run.
  std::uint64_t intents = 0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t served_fresh = 0;
  std::uint64_t served_stale = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t abandoned = 0;
  // Where rejected attempts died.
  std::uint64_t dark_failures = 0;  ///< service unreachable (outage)
  std::uint64_t shed_breaker = 0;
  std::uint64_t shed_bucket = 0;
  std::uint64_t shed_queue = 0;

  double prefault_goodput_rps = 0.0;
  /// Trailing-window means over the final recovery_window_epochs.
  double end_offered_rps = 0.0;
  double end_goodput_rps = 0.0;
  /// Interactive capacity (total minus surviving batch) in the last epoch.
  double end_interactive_capacity_rps = 0.0;

  bool recovered = false;
  /// Seconds from outage clear to the end of the first healthy window.
  double recovery_s = 0.0;
  /// Sustained congestion at the horizon: never recovered AND trailing
  /// offered load still exceeds the interactive capacity.
  bool metastable = false;

  std::size_t epochs = 0;
  std::size_t max_queue_depth = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_probes = 0;

  std::uint64_t telemetry_samples = 0;
  std::uint64_t telemetry_shed = 0;
  std::uint64_t telemetry_retried = 0;
  std::uint64_t telemetry_abandoned = 0;

  bool conservation_ok = false;
  std::string conservation_report;
  bool invariants_ok = false;
  std::size_t invariant_violations = 0;
  std::string invariant_report;
  std::map<std::string, std::size_t> decision_counts;

  double goodput_fraction() const {
    return intents > 0
               ? static_cast<double>(served_fresh) / static_cast<double>(intents)
               : 1.0;
  }

  /// Exact, float fields included (bit-identical, not close).
  bool operator==(const RetryStormOutcome&) const = default;
};

/// Runs the scenario on the vectorized epoch engine: one answer_due call and
/// one batch-scheduled completion event per epoch.
RetryStormOutcome run_retry_storm(const RetryStormConfig& config);

/// Same scenario on the PR 5 heap engine (workload::LegacyClientPopulation)
/// with one kernel event per completion — the faithful A/B baseline the
/// kernel bench gates against. Outcomes are bit-identical to
/// run_retry_storm by construction (asserted by the equivalence suite).
RetryStormOutcome run_retry_storm_legacy(const RetryStormConfig& config);

/// The same scenario executed event-by-event on shard `shard` of a
/// federation: construction schedules the epoch loop as a driver-event
/// chain on that shard's kernel without advancing the federation, so a
/// 1-shard federation replays run_retry_storm bit-identically (the
/// "degenerate federation" golden invariant), and storms armed on different
/// shards of one ShardedSimulator run concurrently without perturbing each
/// other (the parallel arm of the kernel_federation bench). Drive the
/// federation to at least end_s(), then call finish() exactly once.
class FederatedRetryStorm {
 public:
  FederatedRetryStorm(const RetryStormConfig& config,
                      sim::ShardedSimulator& fed, std::size_t shard);
  FederatedRetryStorm(const FederatedRetryStorm&) = delete;
  FederatedRetryStorm& operator=(const FederatedRetryStorm&) = delete;
  ~FederatedRetryStorm();

  /// Simulated time at which the scenario's last driver event fires.
  double end_s() const { return end_s_; }
  /// Post-run summary; requires the federation to have run past end_s().
  RetryStormOutcome finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  double end_s_ = 0.0;
};

/// Reference scenario: 20k clients against a 1000 req/s shared service with
/// a 300 req/s batch tier. `defended` enables the admission stack and the
/// macro overload posture; undefended arms differ only in the (effectively
/// unbounded) accept queue and absent admission control.
RetryStormConfig make_reference_retry_storm_config(
    workload::RetryBackoff backoff, double outage_duration_s, bool defended);

}  // namespace epm::faults
