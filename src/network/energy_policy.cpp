#include "network/energy_policy.h"

#include <algorithm>

#include "core/require.h"

namespace epm::network {
namespace {

/// Mean packet size for serialization-delay accounting (1500 B).
constexpr double kPacketBits = 12000.0;

double serialization_delay_s(double rate_gbps) {
  return kPacketBits / (rate_gbps * 1e9);
}

}  // namespace

LinkEvaluation evaluate_link(const SwitchPowerModel& model, LinkPolicy policy,
                             double load_gbps, const SleepingConfig& config) {
  require(load_gbps >= 0.0, "evaluate_link: negative load");
  require(load_gbps <= model.max_rate_gbps() + 1e-12,
          "evaluate_link: load exceeds the port's top rate");
  require(config.burst_interval_s > 0.0, "evaluate_link: invalid sleeping configuration");

  const std::size_t top = model.rate_count() - 1;
  const double base_delay = serialization_delay_s(model.max_rate_gbps());

  LinkEvaluation eval;
  switch (policy) {
    case LinkPolicy::kAlwaysOn: {
      eval.rate = top;
      eval.power_w = model.port_power_w(top);
      eval.added_delay_s = 0.0;
      eval.awake_fraction = 1.0;
      break;
    }
    case LinkPolicy::kSleeping: {
      // Buffer-and-burst at full rate: awake long enough per interval to
      // drain the buffered bits plus one wake transition.
      eval.rate = top;
      const double utilization = load_gbps / model.max_rate_gbps();
      const double awake_per_interval =
          utilization * config.burst_interval_s +
          (load_gbps > 0.0 ? kPortWakeLatencyS : 0.0);
      eval.awake_fraction = std::min(awake_per_interval / config.burst_interval_s, 1.0);
      eval.power_w = eval.awake_fraction * model.port_power_w(top) +
                     (1.0 - eval.awake_fraction) * model.config().sleep_power_w;
      // A packet waits on average half the burst interval, plus the wake.
      eval.added_delay_s =
          load_gbps > 0.0
              ? 0.5 * config.burst_interval_s + kPortWakeLatencyS
              : 0.0;
      break;
    }
    case LinkPolicy::kRateAdaptation: {
      eval.rate = model.rate_for_load(load_gbps);
      eval.power_w = model.port_power_w(eval.rate);
      eval.awake_fraction = 1.0;
      // Extra serialization delay of the slower PHY, queue-amplified by the
      // port's utilization at the chosen rate (M/M/1-style inflation).
      const double cap = model.config().rates[eval.rate].capacity_gbps;
      const double rho = std::min(load_gbps / cap, 0.95);
      const double service = serialization_delay_s(cap);
      eval.added_delay_s = service / (1.0 - rho) - base_delay;
      eval.added_delay_s = std::max(eval.added_delay_s, 0.0);
      break;
    }
  }
  return eval;
}

}  // namespace epm::network
