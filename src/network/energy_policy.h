// Link energy-management policies from ref [23] (Nedevschi et al.,
// NSDI'08), as the paper's §4.3 survey cites them:
//
//   * always-on            — port at full rate regardless of load
//   * sleeping             — buffer-and-burst: the port sleeps between
//                            bursts, paying a wake latency and the buffering
//                            delay of the aggregation interval
//   * rate adaptation      — the port runs continuously at the slowest rate
//                            that carries the offered load, paying increased
//                            serialization delay
//
// Each policy evaluates to (power, added mean delay) for one port at a
// given offered load — the exact energy/latency trade-off the reference
// studies, reproduced per-link and summed by the bench over a diurnal day.
#pragma once

#include <cstddef>

#include "network/switch_power.h"

namespace epm::network {

enum class LinkPolicy { kAlwaysOn, kSleeping, kRateAdaptation };

struct LinkEvaluation {
  double power_w = 0.0;
  /// Mean extra delay per packet vs an always-on full-rate port.
  double added_delay_s = 0.0;
  /// Fraction of time the port is awake (1.0 unless sleeping).
  double awake_fraction = 1.0;
  /// Selected rate index (rate adaptation) or the top rate otherwise.
  std::size_t rate = 0;
};

struct SleepingConfig {
  /// Packets are buffered and released in bursts every this many seconds;
  /// the port sleeps between bursts when the load allows.
  double burst_interval_s = 0.01;
};

/// Evaluates one port under `policy` at `load_gbps` offered load.
LinkEvaluation evaluate_link(const SwitchPowerModel& model, LinkPolicy policy,
                             double load_gbps, const SleepingConfig& config = {});

}  // namespace epm::network
