#include "power/server_power.h"

#include <cmath>

#include "core/require.h"

namespace epm::power {

static_assert(kPeakPowerW > 0.0 && kSleepPowerW >= 0.0 && kOffPowerW >= 0.0 &&
              kReferenceCapacityRps > 0.0);

ServerPowerModel::ServerPowerModel(ServerPowerConfig config) : config_(config) {
  require(config_.idle_fraction >= 0.0 && config_.idle_fraction < 1.0,
          "ServerPowerModel: idle_fraction outside [0,1)");
  require(config_.max_frequency_hz > 0.0 &&
              config_.min_frequency_hz > 0.0 &&
              config_.min_frequency_hz <= config_.max_frequency_hz,
          "ServerPowerModel: invalid frequency range");
  require(config_.pstate_count >= 1, "ServerPowerModel: need at least one P-state");
  require(config_.dvfs_exponent >= 1.0, "ServerPowerModel: dvfs_exponent < 1");
  require(config_.boot_time_s >= 0.0 && config_.boot_power_w >= 0.0 &&
              config_.wake_from_sleep_s >= 0.0,
          "ServerPowerModel: invalid boot parameters");

  const double idle_w = kPeakPowerW * config_.idle_fraction;
  const double dyn_w = kPeakPowerW - idle_w;
  pstates_.reserve(config_.pstate_count);
  for (std::size_t i = 0; i < config_.pstate_count; ++i) {
    // Index 0 is the fastest state (P0), matching ACPI convention.
    const double frac =
        config_.pstate_count == 1
            ? 1.0
            : 1.0 - static_cast<double>(i) / static_cast<double>(config_.pstate_count - 1);
    const double f = config_.min_frequency_hz +
                     (config_.max_frequency_hz - config_.min_frequency_hz) * frac;
    const double rel = f / config_.max_frequency_hz;
    pstates_.push_back(PState{
        pstate_name(i), f,
        idle_w + dyn_w * std::pow(rel, config_.dvfs_exponent)});
  }
}

double ServerPowerModel::active_power_w(std::size_t pstate, double utilization,
                                        double duty) const {
  require(pstate < pstates_.size(), "ServerPowerModel: P-state out of range");
  require(utilization >= 0.0 && utilization <= 1.0,
          "ServerPowerModel: utilization outside [0,1]");
  require(duty > 0.0 && duty <= 1.0, "ServerPowerModel: duty outside (0,1]");
  return active_power_at(pstate, utilization, duty);
}

double ServerPowerModel::busy_power_w(std::size_t pstate) const {
  require(pstate < pstates_.size(), "ServerPowerModel: P-state out of range");
  return pstates_[pstate].busy_power_w;
}

double ServerPowerModel::capacity_rps(std::size_t pstate, double duty) const {
  return kReferenceCapacityRps * relative_capacity(pstate, duty);
}

double ServerPowerModel::relative_capacity(std::size_t pstate, double duty) const {
  require(pstate < pstates_.size(), "ServerPowerModel: P-state out of range");
  require(duty > 0.0 && duty <= 1.0, "ServerPowerModel: duty outside (0,1]");
  return relative_capacity_at(pstate, duty);
}

std::size_t ServerPowerModel::lowest_pstate_with_capacity(double required_fraction) const {
  require(required_fraction >= 0.0, "ServerPowerModel: negative required capacity");
  // P-states are ordered fastest-first, so capacity decreases with the
  // index; the first satisfying state found from the slow end is the answer.
  for (std::size_t i = pstates_.size(); i-- > 0;) {
    if (relative_capacity(i) + 1e-12 >= required_fraction) return i;
  }
  return 0;  // even P0 cannot cover it; caller must add servers
}

}  // namespace epm::power
