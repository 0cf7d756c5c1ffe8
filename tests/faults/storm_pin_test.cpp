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
// storm whose capacity is not a whole number of requests an epoch. The
// other scenario worlds are pinned the same way: the reference fault storm
// over intensities with the degradation policy on and off, the degraded
// sensing scenario's naive and hardened arms, the control-plane drills, and
// the chaos fleet's drive world with its partition drill. A pin changes
// only with a deliberate change of the model.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>

#include "faults/chaos_fleet.h"
#include "faults/control_chaos.h"
#include "faults/fault_plan.h"
#include "faults/fleet_storm.h"
#include "faults/retry_storm.h"
#include "faults/storm.h"
#include "sensing/scenario.h"

namespace epm::faults {
namespace {

using workload::RetryBackoff;

/// 64-bit FNV-1a over eight little-endian bytes per field: integers and
/// bools by value, doubles by their bit pattern, strings as their length
/// and then one field per character.
class Fingerprint {
 public:
  template <typename... Fields>
  Fingerprint& add(const Fields&... fields) {
    (fold(fields), ...);
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  void fold(const std::string& text) {
    fold(text.size());
    for (const char c : text) fold(static_cast<unsigned char>(c));
  }

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

std::uint64_t pin(const StormOutcome& o) {
  Fingerprint f;
  f.add(o.offered_requests, o.served_requests, o.shed_requests,
        o.rerouted_requests, o.dropped_requests, o.it_energy_kwh,
        o.mechanical_energy_kwh, o.epochs, o.brownout_epochs, o.trip_epochs,
        o.sla_violation_epochs, o.thermal_alarms, o.overload_epochs,
        o.max_zone_temp_c, o.min_state_of_charge, o.telemetry_samples,
        o.degraded_samples, o.dropped_samples, o.faults_injected,
        o.faults_handled, o.faults_cleared, o.faults_conserved,
        o.sensor_readings, o.sensor_dropped, o.sensor_stuck, o.sensor_noisy,
        o.commands_issued, o.commands_acked, o.commands_failed,
        o.command_retries, o.invariant_violations, o.invariants_ok,
        o.invariant_report);
  for (const auto& [kind, count] : o.decision_counts) f.add(kind, count);
  return f.value();
}

std::uint64_t pin(const sensing::DegradedScenarioOutcome& o) {
  Fingerprint f;
  f.add(o.epochs, o.sla_violation_epochs, o.thermal_alarms, o.max_zone_temp_c,
        o.offered_requests, o.served_requests, o.dropped_requests,
        o.it_energy_kwh, o.mechanical_energy_kwh, o.max_estimate_age_s,
        o.sensor_readings, o.sensor_dropped, o.sensor_stuck, o.sensor_noisy,
        o.estimator_fallbacks, o.commands_issued, o.commands_acked,
        o.commands_failed, o.command_retries, o.faults_injected,
        o.faults_conserved, o.invariant_violations, o.invariants_ok,
        o.invariant_report);
  return f.value();
}

std::uint64_t pin(const ControlChaosOutcome& o) {
  Fingerprint f;
  for (const ControlDcOutcome& d : o.dcs) {
    f.add(d.epochs, d.demand_total, d.served_total, d.sla_violation_epochs,
          d.thermal_alarm_epochs, d.max_temp_c, d.prefault_demand,
          d.prefault_served, d.end_demand, d.end_served, d.commands_applied,
          d.fencing_rejections, d.stale_rejected, d.double_actuations,
          d.stale_applied, d.safe_state_trips, d.heartbeats_seen);
  }
  for (const ControlReplicaOutcome& r : o.replicas) {
    f.add(r.hosted, r.claims, r.depositions, r.crashes, r.stale_heartbeats,
          r.commands_issued, r.commands_replayed, r.journal_entries,
          r.journal_rejected_stale, r.final_max_token,
          r.claimed_tokens.size());
    for (const std::uint64_t token : r.claimed_tokens) f.add(token);
  }
  f.add(o.final_now_s, o.final_pending, o.control_messages, o.max_token,
        o.lease_unique_ok, o.fencing_clean, o.fleet_prefault_frac,
        o.fleet_end_frac, o.total_sla_violations, o.total_alarms,
        o.conservation_ok, o.report);
  return f.value();
}

std::uint64_t pin(const ChaosFleetOutcome& o) {
  Fingerprint f;
  for (const ChaosDcOutcome& d : o.dcs) {
    f.add(d.generated, d.served, d.dropped, d.backlog, d.forwarded_items,
          d.received_items, d.epochs);
  }
  f.add(o.final_now_s, o.final_pending, o.messages_sent,
        o.messages_redelivered, o.messages_parked_end, o.fifo_ok,
        o.conservation_ok, o.conservation_report);
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
      run_chaos_recovery(4, 2000, 42, make_reference_grid_script()));
  EXPECT_EQ(0x9983f45cf966c30aULL, got) << "got 0x" << std::hex << got;
}

// The reference storm of `epmctl faults` and exp_fault_storm: 60 servers a
// service over six hours, with the storm plan at seed 2009.
TEST(FaultStormPin, ReferenceStormAtEveryIntensityWithAndWithoutPolicy) {
  struct Case {
    double intensity;
    bool policy;
    std::uint64_t want;
  };
  for (const Case& c : {Case{0.0, false, 0xb5397bbb10ba2ca2ULL},
                        Case{0.0, true, 0x39ef2447750634efULL},
                        Case{1.0, false, 0x174b9659424bb2c9ULL},
                        Case{1.0, true, 0xcc6aca215518d086ULL},
                        Case{2.0, false, 0x7b25d7f21100e7d9ULL},
                        Case{2.0, true, 0x22843a651bc65803ULL}}) {
    StormConfig config = make_reference_storm_config();
    config.policy_enabled = c.policy;
    const FaultPlan plan = make_storm_plan(c.intensity, config.horizon_s, 2009,
                                           config.demand_rps.size(), 1);
    const std::uint64_t got = pin(run_fault_storm(config, plan));
    EXPECT_EQ(c.want, got) << "intensity " << c.intensity
                           << (c.policy ? " policy" : " no policy")
                           << ": got 0x" << std::hex << got;
  }
}

// `epmctl sensing`'s reference point: four hours at seed 2009, the plan at
// seed 2009 + 17.
TEST(SensingScenarioPin, NaiveAndHardenedAtIntensityOne) {
  struct Case {
    bool hardened;
    std::uint64_t want;
  };
  for (const Case& c : {Case{false, 0x8ee24b9f1ddcc933ULL},
                        Case{true, 0xbcf948d16065bd08ULL}}) {
    sensing::DegradedScenarioConfig config;
    config.hardened = c.hardened;
    const FaultPlan plan = sensing::make_sensing_fault_plan(
        1.0, config.horizon_s, config.seed + 17, 2);
    const std::uint64_t got = pin(sensing::run_degraded_scenario(config, plan));
    EXPECT_EQ(c.want, got) << (c.hardened ? "hardened" : "naive")
                           << ": got 0x" << std::hex << got;
  }
}

TEST(ControlChaosPin, LeaderKillDrillWithAndWithoutPartition) {
  struct Case {
    bool partition;
    std::uint64_t defended;
    std::uint64_t naive;
  };
  // The naive arm's only controller sits at DC 0, so nothing crosses the
  // partition into it and both naive runs pin alike.
  for (const Case& c :
       {Case{false, 0x22fb8537a9884990ULL, 0x7e0060195494554fULL},
        Case{true, 0x50a35d07809209b1ULL, 0x7e0060195494554fULL}}) {
    const ControlLeaderKillReport r = run_leader_kill_drill(4, 2, 7, c.partition);
    const std::uint64_t defended = pin(r.defended);
    const std::uint64_t naive = pin(r.naive);
    EXPECT_EQ(c.defended, defended)
        << (c.partition ? "partition" : "plain") << " defended: got 0x"
        << std::hex << defended;
    EXPECT_EQ(c.naive, naive) << (c.partition ? "partition" : "plain")
                              << " naive: got 0x" << std::hex << naive;
    EXPECT_EQ(0.99, r.goodput_threshold);
    EXPECT_TRUE(r.gate_ok);
  }
}

TEST(ControlChaosPin, SplitBrainDrill) {
  const ControlSplitBrainReport r = run_split_brain_drill(4, 2, 7);
  const std::uint64_t got = pin(r.outcome);
  EXPECT_EQ(0x722ccf72eb58666cULL, got) << "got 0x" << std::hex << got;
  EXPECT_TRUE(r.passed);
}

TEST(ChaosFleetPin, DefaultsAndPartitionDrill) {
  const std::uint64_t plain = pin(run_chaos_fleet(ChaosFleetConfig{}));
  EXPECT_EQ(0x279f573dfbb66373ULL, plain)
      << "defaults: got 0x" << std::hex << plain;
  // `epmctl chaos`'s partition drill at the default four datacenters.
  const ChaosPartitionReport drill =
      run_chaos_partition_drill(ChaosFleetConfig{}, 15.0, 30.0, 32.0);
  Fingerprint f;
  f.add(pin(drill.outcome), drill.parked_at_check, drill.redelivered,
        drill.parked_seen, drill.drained, drill.zero_loss, drill.fifo_ok,
        drill.passed);
  EXPECT_EQ(0x0f6eb81ccd351539ULL, f.value())
      << "partition drill: got 0x" << std::hex << f.value();
}

}  // namespace
}  // namespace epm::faults
