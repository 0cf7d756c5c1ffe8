// Seeded, deterministic fault plans.
//
// A FaultPlan is the full schedule of fault events for one run. Plans are
// either scripted (explicit events, or the compact text syntax below) or
// sampled from per-type rate distributions. Sampling expands the plan seed
// into one SplitMix64-derived stream per fault type, so the plan — and any
// simulation driven by it — is bit-identical across thread counts and across
// machines; adding a fault type never perturbs another type's stream.
//
// Text syntax (round-trips through parse/to_string):
//
//   plan     := entry (';' entry)*
//   entry    := type [':' target] '@' start '+' duration ['x' severity]
//   type     := crash | psu | crac | derate | sensor-drop | sensor-stuck |
//               outage | surge | sensor-noise | actuator-fail | region-loss |
//               ctl-crash | ctl-hang | ctl-restart
//
// Times are seconds. Example: "outage@3600+1200;crac:0@7200+1800;
// surge:1@10000+300x3.0" — a 20-minute utility outage at t=1h, CRAC 0 down
// for 30 minutes at t=2h, and a 3x login surge on service 1 at t=10000s.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "faults/types.h"

namespace epm::faults {

/// Sampling distribution for one fault type.
struct FaultRateSpec {
  double rate_per_day = 0.0;      ///< Poisson arrival rate; 0 disables
  double mean_duration_s = 600.0; ///< exponential, floored at min_duration_s
  double min_duration_s = 60.0;
  double severity_lo = 1.0;       ///< uniform severity range
  double severity_hi = 1.0;
  std::size_t target_count = 1;   ///< targets drawn uniformly in [0, count)
};

struct FaultPlanConfig {
  double horizon_s = 86400.0;
  std::uint64_t seed = 1;
  std::array<FaultRateSpec, kFaultTypeCount> rates{};

  FaultRateSpec& rate(FaultType type) {
    return rates[static_cast<std::size_t>(type)];
  }
  const FaultRateSpec& rate(FaultType type) const {
    return rates[static_cast<std::size_t>(type)];
  }
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Validates and sorts `events` by (start, type, target, duration).
  static FaultPlan scripted(std::vector<FaultEvent> events);
  /// Samples a plan from per-type Poisson processes, one independent
  /// SplitMix64-derived stream per type. A config expecting more than
  /// kMaxExpectedEvents events over its horizon throws
  /// std::invalid_argument before any is drawn.
  static constexpr double kMaxExpectedEvents = 1.0e6;
  static FaultPlan sampled(const FaultPlanConfig& config);
  /// Parses the text syntax documented above.
  static FaultPlan parse(const std::string& spec);

  /// Concatenates two plans (events re-sorted).
  FaultPlan merged_with(const FaultPlan& other) const;

  const std::vector<FaultEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  /// Time the last event clears; 0 for an empty plan.
  double horizon_s() const;
  std::size_t count(FaultType type) const;

  /// Rejects events whose target index is outside the facility: service-
  /// indexed types (crash, psu, surge) and sensor faults, which target the
  /// sensing domain of a service, must target [0, service_count) and
  /// CRAC-indexed types (crac, derate) must target
  /// [0, crac_count). Controller faults (ctl-crash / ctl-hang /
  /// ctl-restart) target a datacenter's controller replica and must target
  /// [0, controller_count) when a count is given; the default kAnyTarget
  /// skips the check for worlds with no control plane. Throws
  /// std::invalid_argument with a one-line diagnostic naming the offending
  /// entry. Outages and region losses are facility/fleet-wide and carry no
  /// target to validate.
  static constexpr std::size_t kAnyTarget = static_cast<std::size_t>(-1);
  void validate_targets(std::size_t service_count, std::size_t crac_count,
                        std::size_t controller_count = kAnyTarget) const;

  /// Round-trips through parse().
  std::string to_string() const;
  /// Order-sensitive 64-bit digest over every event field; two plans with
  /// the same fingerprint are (for testing purposes) the same plan.
  std::uint64_t fingerprint() const;

 private:
  std::vector<FaultEvent> events_;  // sorted by (start, type, target, duration)
};

/// The canonical "fault storm" profile used by the bench and epmctl: a
/// scripted utility-outage + CRAC-failure core (so the storm always
/// exercises the UPS window and the cooling path at every intensity) plus
/// intensity-scaled sampled crashes, derates, sensor faults, and surges.
FaultPlan make_storm_plan(double intensity, double horizon_s, std::uint64_t seed,
                          std::size_t service_count, std::size_t crac_count);

}  // namespace epm::faults
