// Exact outcomes of both retry-storm worlds, pinned as fingerprints.
//
// The storm suites elsewhere check properties (recovery, metastability,
// conservation) and equality across engines, fabrics and thread counts;
// none of them notices when every run moves together. These pins fix the
// outcomes themselves: the single-datacenter storm at the 4,000-client
// scale of retry_storm_test.cpp for both retry policies and both arms, the
// legacy per-completion engine at one point, the 4-datacenter fleet storm
// defended and undefended, the chaos recovery gate, whose grid script adds
// brownout capacity factors and broadcast steering, and one point of each
// storm whose capacity is not a whole number of requests an epoch. A pin
// changes only with a deliberate change of the model.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <type_traits>

#include "faults/chaos_fleet.h"
#include "faults/fleet_storm.h"
#include "faults/retry_storm.h"

namespace epm::faults {
namespace {

using workload::RetryBackoff;

/// 64-bit FNV-1a over eight little-endian bytes per field: integers and
/// bools by value, doubles by their bit pattern.
class Fingerprint {
 public:
  template <typename... Fields>
  Fingerprint& add(const Fields&... fields) {
    (fold(fields), ...);
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  template <typename T>
  void fold(T field) {
    std::uint64_t word = 0;
    if constexpr (std::is_floating_point_v<T>) {
      word = std::bit_cast<std::uint64_t>(static_cast<double>(field));
    } else {
      static_assert(std::is_integral_v<T>);
      word = static_cast<std::uint64_t>(field);
    }
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (word >> (8 * byte)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t pin(const RetryStormOutcome& o) {
  Fingerprint f;
  f.add(o.intents, o.attempts, o.retries, o.served_fresh, o.served_stale,
        o.timed_out, o.abandoned, o.dark_failures, o.shed_breaker,
        o.shed_bucket, o.shed_queue, o.prefault_goodput_rps,
        o.end_offered_rps, o.end_goodput_rps, o.end_interactive_capacity_rps,
        o.recovered, o.recovery_s, o.metastable, o.epochs, o.max_queue_depth,
        o.breaker_trips, o.breaker_probes, o.telemetry_samples,
        o.telemetry_shed, o.telemetry_retried, o.telemetry_abandoned,
        o.conservation_ok, o.invariants_ok, o.invariant_violations);
  for (const auto& [kind, count] : o.decision_counts) f.add(count);
  return f.value();
}

std::uint64_t pin(const FleetStormOutcome& o) {
  Fingerprint f;
  for (const FleetDcOutcome& d : o.dcs) {
    f.add(d.intents, d.attempts, d.retries, d.served_fresh, d.served_stale,
          d.timed_out, d.abandoned, d.dark_failures, d.shed_breaker,
          d.shed_bucket, d.shed_queue, d.forwarded, d.remote_admitted,
          d.remote_served, d.remote_shed, d.prefault_goodput_rps,
          d.end_offered_rps, d.end_goodput_rps, d.grid_signals, d.recovered,
          d.recovery_s, d.max_queue_depth, d.breaker_trips,
          d.conservation_ok);
  }
  f.add(o.epochs, o.forwarded, o.remote_served, o.remote_shed,
        o.fleet_goodput_fraction, o.fleet_prefault_goodput_rps,
        o.fleet_end_goodput_rps, o.conservation_ok, o.events_run,
        o.events_pending);
  return f.value();
}

std::uint64_t pin(const ChaosRecoveryReport& r) {
  Fingerprint f;
  for (const ChaosRecoveryArm& a : {r.defended, r.naive}) {
    f.add(a.fleet_prefault_goodput_rps, a.fleet_end_goodput_rps, a.ratio,
          a.grid_signals, a.conservation_ok, a.recovered);
  }
  f.add(r.threshold, r.gate_ok);
  return f.value();
}

/// retry_storm_test.cpp's small_config: the reference scenario at 1/5 scale.
RetryStormConfig small_config(RetryBackoff backoff, bool defended) {
  RetryStormConfig config =
      make_reference_retry_storm_config(backoff, 120.0, defended);
  config.clients.clients = 4000;
  config.service_capacity_rps = 200.0;
  config.batch_rps = 60.0;
  config.naive_queue_capacity = 24000;
  config.defense.bucket = {180.0, 180.0};
  config.defense.queue_capacity = 360;
  config.outage_start_s = 120.0;
  config.horizon_s = 600.0;
  config.sla_goodput_fraction = 0.8;
  return config;
}

TEST(RetryStormPin, EveryPolicyAndArm) {
  struct Case {
    RetryBackoff backoff;
    bool defended;
    std::uint64_t want;
  };
  for (const Case& c : {
           Case{RetryBackoff::kImmediate, false, 0xa133f398c0c5215dULL},
           Case{RetryBackoff::kImmediate, true, 0xf83c80e3e2405867ULL},
           Case{RetryBackoff::kExponential, false, 0xdaf65eb46c2ee7c9ULL},
           Case{RetryBackoff::kExponential, true, 0xa5636e1c3d2280d5ULL}}) {
    const std::uint64_t got =
        pin(run_retry_storm(small_config(c.backoff, c.defended)));
    EXPECT_EQ(c.want, got) << to_string(c.backoff)
                           << (c.defended ? " defended" : " naive")
                           << ": got 0x" << std::hex << got;
  }
}

TEST(RetryStormPin, LegacyPerCompletionEngine) {
  // Equal to the sweep engine's pin at the same point, as it must be.
  const std::uint64_t got = pin(
      run_retry_storm_legacy(small_config(RetryBackoff::kImmediate, false)));
  EXPECT_EQ(0xa133f398c0c5215dULL, got) << "got 0x" << std::hex << got;
}

// Whole-request capacities leave the drain no fractional credit to carry,
// so these points serve 140.4 and 156.25 requests an epoch.
TEST(RetryStormPin, FractionalCapacityCarriesCredit) {
  struct Case {
    RetryBackoff backoff;
    bool defended;
    std::uint64_t want;
  };
  for (const Case& c : {
           Case{RetryBackoff::kImmediate, false, 0x866ec4fcfdf77055ULL},
           Case{RetryBackoff::kExponential, true, 0x872663805a4e6f80ULL}}) {
    RetryStormConfig config = small_config(c.backoff, c.defended);
    config.service_capacity_rps = 200.4;
    const std::uint64_t got = pin(run_retry_storm(config));
    EXPECT_EQ(c.want, got) << to_string(c.backoff)
                           << (c.defended ? " defended" : " naive")
                           << ": got 0x" << std::hex << got;
  }
}

TEST(FederationFleetStormPin, FractionalCapacityCarriesCredit) {
  // Undefended, so the backlog that keeps a carry builds up.
  FleetStormConfig config = make_reference_fleet_storm_config(4, 5000, 2009);
  config.defense.enabled = false;
  const std::uint64_t got = pin(run_fleet_storm(config, kSingleKernel, 1));
  EXPECT_EQ(0x5c8c41883d325a54ULL, got) << "got 0x" << std::hex << got;
}

TEST(FederationFleetStormPin, DefendedAndUndefendedFleet) {
  FleetStormConfig config = make_reference_fleet_storm_config(4, 2000, 2009);
  std::uint64_t got = pin(run_fleet_storm(config, kSingleKernel, 1));
  EXPECT_EQ(0x5c8381e0ee650008ULL, got)
      << "defended: got 0x" << std::hex << got;
  config.defense.enabled = false;
  got = pin(run_fleet_storm(config, kSingleKernel, 1));
  EXPECT_EQ(0x56b30d1afc90ccf9ULL, got)
      << "undefended: got 0x" << std::hex << got;
}

TEST(FederationFleetStormPin, ChaosRecoveryUnderTheReferenceGridScript) {
  const std::uint64_t got = pin(
      run_chaos_recovery(4, 2000, 42, make_reference_grid_script(), 0.99));
  EXPECT_EQ(0x9983f45cf966c30aULL, got) << "got 0x" << std::hex << got;
}

}  // namespace
}  // namespace epm::faults
