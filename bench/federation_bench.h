// Federation throughput bench of bench/exp_kernel_throughput (`epmctl
// federation` runs its own fleet-storm drills and does not use this file).
//
// One measured scenario: the reference multi-datacenter retry-storm fleet
// (faults::run_fleet_storm) executed A/B on both fabrics —
//
//   kernel_federation_single   every datacenter on ONE kernel, run serially
//   kernel_federation          the same world sharded one-datacenter-per-
//                              shard on sim::ShardedSimulator, windows
//                              executed by the worker pool
//
// The two arms run the identical FleetStormConfig and must produce the
// bit-identical FleetStormOutcome (operator==) — a fast
// federation that diverges from the single-kernel ground truth fails the
// gate. The perf verdict is relative, interleaved best-of-N, so it does not
// depend on machine speed: the federated arm must beat the single kernel by
// `min_federation_speedup` at the configured shard count. The speedup gate
// arms only when the machine has at least `shards` hardware threads — on a
// smaller box a parallel speedup is not defined, so the ratio is reported
// but only bit-equality (and any wall ceiling) is enforced.
//
// The client populations run with internal threads pinned to 1 in BOTH
// arms, so the A/B isolates exactly the parallelism the federation claims:
// sharding the world by datacenter and overlapping the per-shard windows.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "bench_report.h"
#include "core/parallel.h"
#include "faults/fleet_storm.h"

namespace epm::bench {

struct FederationBenchConfig {
  /// World size: `dcs` datacenters of `clients_per_dc` clients each. The
  /// defaults make the headline 4-DC x 1M-client fleet.
  std::size_t dcs = 4;
  std::size_t clients_per_dc = 250'000;
  /// Federated arm decomposition; dcs % shards must be 0.
  std::size_t shards = 4;
  std::size_t threads = 4;
  /// A/B repetitions (best-of-N wall time, interleaved).
  std::size_t reps = 3;
  std::uint64_t seed = 42;
  /// Federated arm must beat the single kernel by this factor; 0 disables
  /// the relative gate (smoke mode — small worlds are barrier-dominated).
  double min_federation_speedup = 1.8;
  /// Absolute ceiling on the federated arm's wall time; 0 = no ceiling.
  double max_federated_wall_s = 0.0;
};

struct FederationBenchOutcome {
  double single_wall_s = 0.0;
  double federated_wall_s = 0.0;
  double speedup = 0.0;
  double single_aps = 0.0;     ///< fleet attempts/sec, single kernel
  double federated_aps = 0.0;  ///< fleet attempts/sec, federation
  std::uint64_t attempts = 0;  ///< fleet attempts per run (both arms equal)
  std::uint64_t forwarded = 0; ///< cross-datacenter forwards per run
  /// Both fabrics must agree bit-for-bit; a mismatch fails the gate.
  bool outcomes_match = true;
  bool gate_ok = false;
};

namespace detail {

inline std::uint64_t fleet_attempts(const faults::FleetStormOutcome& out) {
  std::uint64_t total = 0;
  for (const auto& dc : out.dcs) total += dc.attempts;
  return total;
}

inline double fed_now_wall_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

}  // namespace detail

inline FederationBenchOutcome run_federation_bench(
    const FederationBenchConfig& config) {
  ::setenv("EPM_BENCH_REPORT", "BENCH_kernel.json", /*overwrite=*/0);
  FederationBenchOutcome out;

  faults::FleetStormConfig storm = faults::make_reference_fleet_storm_config(
      config.dcs, config.clients_per_dc, config.seed);
  // Pin the populations' internal parallelism (see file comment): the only
  // difference between the arms is the fabric.
  storm.clients.threads = 1;

  // Interleaved best-of-N: the minimum wall per arm measures unhindered
  // speed and keeps the A/B ratio stable on a loaded machine.
  double single_wall = 0.0;
  double fed_wall = 0.0;
  faults::FleetStormOutcome single_out;
  faults::FleetStormOutcome fed_out;
  for (std::size_t rep = 0; rep < config.reps; ++rep) {
    double t0 = detail::fed_now_wall_s();
    single_out = faults::run_fleet_storm(storm, faults::kSingleKernel, 1);
    const double single = detail::fed_now_wall_s() - t0;
    single_wall = rep == 0 ? single : std::min(single_wall, single);

    t0 = detail::fed_now_wall_s();
    fed_out = faults::run_fleet_storm(storm, config.shards, config.threads);
    const double fed = detail::fed_now_wall_s() - t0;
    fed_wall = rep == 0 ? fed : std::min(fed_wall, fed);
  }

  out.single_wall_s = single_wall;
  out.federated_wall_s = fed_wall;
  out.attempts = detail::fleet_attempts(single_out);
  out.forwarded = single_out.forwarded;
  out.single_aps = static_cast<double>(out.attempts) / single_wall;
  out.federated_aps = static_cast<double>(out.attempts) / fed_wall;
  out.speedup = out.single_aps > 0.0 ? out.federated_aps / out.single_aps : 0.0;
  out.outcomes_match = single_out == fed_out;

  append_bench_record({"kernel_federation_single", 1, single_wall,
                       static_cast<double>(out.attempts)});
  append_bench_record({"kernel_federation", config.threads, fed_wall,
                       static_cast<double>(out.attempts)});
  std::printf("  fleet single     %10.0f attempts/s (1 kernel, %zu DCs x %zu clients)\n",
              out.single_aps, config.dcs, config.clients_per_dc);
  std::printf("  fleet federated  %10.0f attempts/s (%zu shards, %zu threads, %llu forwards)\n",
              out.federated_aps, config.shards, config.threads,
              static_cast<unsigned long long>(out.forwarded));
  if (!out.outcomes_match) {
    std::printf("  fleet federated  FABRIC MISMATCH: federated outcome diverged "
                "from the single kernel\n");
  }

  bool gate_ok = out.outcomes_match;
  if (config.min_federation_speedup > 0.0) {
    const std::size_t hw = default_thread_count();
    if (hw >= config.shards) {
      const bool pass = out.speedup >= config.min_federation_speedup;
      gate_ok = gate_ok && pass;
      std::printf("  federation speedup %7.2fx vs single kernel (gate: >= %.1fx) %s\n",
                  out.speedup, config.min_federation_speedup,
                  pass ? "PASS" : "FAIL");
    } else {
      std::printf("  federation speedup %7.2fx vs single kernel (gate skipped: "
                  "%zu hardware thread%s < %zu shards)\n",
                  out.speedup, hw, hw == 1 ? "" : "s", config.shards);
    }
  }
  if (config.max_federated_wall_s > 0.0) {
    const bool pass = out.federated_wall_s <= config.max_federated_wall_s;
    gate_ok = gate_ok && pass;
    std::printf("  federated wall   %9.2fs (ceiling: <= %.1fs) %s\n",
                out.federated_wall_s, config.max_federated_wall_s,
                pass ? "PASS" : "FAIL");
  }
  out.gate_ok = gate_ok;
  return out;
}

}  // namespace epm::bench
