#include "network/switch_power.h"

#include "core/require.h"

namespace epm::network {

/// Ports on the switch.
constexpr std::size_t kSwitchPorts = 48;

static_assert(kChassisPowerW >= 0.0 && kPortWakeLatencyS >= 0.0);

SwitchPowerModel::SwitchPowerModel(SwitchPowerConfig config)
    : config_(std::move(config)) {
  require(!config_.rates.empty(), "SwitchPowerModel: no operating rates");
  double prev_cap = 0.0;
  double prev_power = 0.0;
  for (const auto& r : config_.rates) {
    require(r.capacity_gbps > prev_cap,
            "SwitchPowerModel: rates must have ascending capacity");
    require(r.active_power_w >= prev_power,
            "SwitchPowerModel: faster rates cannot use less power");
    prev_cap = r.capacity_gbps;
    prev_power = r.active_power_w;
  }
  require(config_.sleep_power_w >= 0.0 &&
              config_.sleep_power_w <= config_.rates.front().active_power_w,
          "SwitchPowerModel: sleep power must be in [0, slowest rate]");
}

double SwitchPowerModel::port_power_w(std::size_t rate) const {
  require(rate < config_.rates.size(), "SwitchPowerModel: rate index out of range");
  return config_.rates[rate].active_power_w;
}

std::size_t SwitchPowerModel::rate_for_load(double load_gbps) const {
  require(load_gbps >= 0.0, "SwitchPowerModel: negative load");
  for (std::size_t i = 0; i < config_.rates.size(); ++i) {
    if (config_.rates[i].capacity_gbps >= load_gbps) return i;
  }
  return config_.rates.size() - 1;
}

double SwitchPowerModel::switch_power_w(const std::vector<std::size_t>& port_rates,
                                        std::size_t sleeping_ports) const {
  require(port_rates.size() + sleeping_ports <= kSwitchPorts,
          "SwitchPowerModel: more ports than the switch has");
  double power = kChassisPowerW;
  for (std::size_t rate : port_rates) power += port_power_w(rate);
  power += static_cast<double>(sleeping_ports) * config_.sleep_power_w;
  return power;
}

}  // namespace epm::network
