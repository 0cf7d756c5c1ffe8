// Per-request discrete-event simulation of a server pool.
//
// The epoch-driven ServiceCluster evaluates response times from closed-form
// queueing approximations (Erlang-C / M/G/1-PS) because request-level
// events at data-center scale would be wasteful. This module is the
// ground-truth check: it simulates individual requests on the sim kernel —
// Poisson arrivals, a configurable service-time distribution, FCFS or
// processor-sharing discipline — so tests can validate the formulas the
// fast path depends on (and quantify where the approximations bend).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/rng.h"
#include "core/stats.h"

namespace epm::cluster {

enum class ServiceDiscipline {
  kFcfs,              ///< M/M/n or M/G/n first-come-first-served
  kProcessorSharing,  ///< each server shares capacity among its requests
};

enum class ServiceDistribution {
  kExponential,
  kDeterministic,
  kLognormal,  ///< heavy-ish tail, cv configurable
};

struct RequestDesConfig {
  double arrival_rate_per_s = 50.0;
  double mean_service_s = 0.01;
  double service_cv = 1.0;  ///< used by the lognormal distribution
  std::size_t servers = 1;
  ServiceDiscipline discipline = ServiceDiscipline::kFcfs;
  ServiceDistribution distribution = ServiceDistribution::kExponential;
  /// Requests completed before statistics start (warm-up).
  std::size_t warmup_requests = 2000;
  /// Requests measured after warm-up.
  std::size_t measured_requests = 50000;
  std::uint64_t seed = 123;
};

struct RequestDesResult {
  OnlineStats response_s;   ///< sojourn times of measured requests
  OnlineStats queue_depth;  ///< sampled at arrival instants (incl. in service)
  double utilization = 0.0; ///< busy-server-time / (servers * elapsed)
  double simulated_time_s = 0.0;
  std::size_t completed = 0;
};

/// Runs the simulation to completion. Requires a stable configuration
/// (arrival rate < servers / mean_service); throws otherwise.
RequestDesResult simulate_requests(const RequestDesConfig& config);

struct ReplicationConfig {
  /// Per-replication DES configuration. `base.seed` is ignored: each
  /// replication's seed is derived from `seed` below by index, so the
  /// streams are independent and the run is reproducible at any thread
  /// count.
  RequestDesConfig base;
  std::size_t replications = 8;
  std::uint64_t seed = 2027;
  /// Worker threads for the fan-out; 0 = default_thread_count().
  std::size_t threads = 0;
};

struct ReplicationResult {
  OnlineStats response_s;    ///< pooled over every measured request
  OnlineStats queue_depth;   ///< pooled arrival-instant samples
  OnlineStats utilization;   ///< one sample per replication
  /// Per-replication mean responses — the right basis for confidence
  /// intervals (individual sojourn times are autocorrelated; replication
  /// means are independent).
  OnlineStats replication_mean_response_s;
  std::size_t completed = 0;  ///< across all replications
};

/// Runs N independent DES replications concurrently and merges their
/// statistics in replication order (`OnlineStats::merge`), so the result is
/// bit-identical for any thread count, including 1.
ReplicationResult simulate_replications(const ReplicationConfig& config);

/// Throws std::invalid_argument for a config simulate_replications refuses:
/// no replication, or a base configuration that is invalid or unstable.
void validate_replication_config(const ReplicationConfig& config);

}  // namespace epm::cluster
