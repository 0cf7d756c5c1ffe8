// Multi-tier service sizing (paper §3.2):
//
//   "How do services depend on each other? How do different tiers scale
//    when user demands increase or decrease?"
//
// An external request fans out through tiers (web -> app -> storage, each
// with its own fan-out and per-request CPU demand); the user-facing SLA
// bounds the *sum* of tier response times. The coordinator decides, per
// tier, a fleet size and P-state — jointly, by searching over how the
// end-to-end latency budget is split across tiers and solving each tier
// with the joint DVFS x On/Off optimizer. A naive equal split overpays:
// tiers with heavy fan-out or long service demands deserve more budget.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "macro/joint_policy.h"
#include "power/server_power.h"

namespace epm::macro {

struct TierSpec {
  std::string name;
  /// Internal requests at this tier per external request ("each user
  /// request may hit hundreds to thousands of servers", §3).
  double fanout = 1.0;
  /// Mean CPU demand per internal request at reference frequency.
  double service_demand_s = 0.01;
  std::size_t max_servers = 2000;
  power::ServerPowerConfig server;
};

struct TieredServiceSpec {
  std::vector<TierSpec> tiers;
  /// Bound on the sum of tier mean response times.
  double end_to_end_sla_s = 0.3;
};

struct TierAllocation {
  std::size_t servers = 0;
  std::size_t pstate = 0;
  double latency_budget_s = 0.0;
  double predicted_response_s = 0.0;
  double predicted_utilization = 0.0;
  double predicted_power_w = 0.0;
};

struct TieredDecision {
  std::vector<TierAllocation> tiers;
  double total_power_w = 0.0;
  double end_to_end_response_s = 0.0;
  bool feasible = false;
};

struct TierSizingConfig {
  /// Granularity of the latency-budget search (fractions of the SLA).
  std::size_t budget_steps = 24;
};

/// The reference three-tier service: web (1x fan-out, 2 ms), app (2x, 5 ms)
/// and storage (4x, 1 ms) under an end-to-end SLA of `sla_s`.
TieredServiceSpec make_reference_tiered_service(double sla_s);

/// Sizes every tier for `external_rate` requests/s, minimizing total power
/// subject to the end-to-end SLA, by searching budget splits.
TieredDecision size_tiers(const TieredServiceSpec& spec, double external_rate,
                          const TierSizingConfig& config = {});

/// Baseline: the SLA split equally across tiers.
TieredDecision size_tiers_equal_split(const TieredServiceSpec& spec,
                                      double external_rate,
                                      const TierSizingConfig& config = {});

}  // namespace epm::macro
