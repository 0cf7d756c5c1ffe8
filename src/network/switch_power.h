// Network switch power model (paper §4.3, ref [23] Nedevschi et al.,
// "Reducing network energy consumption via sleeping and rate-adaptation").
//
//   "Many components and devices, such as CPU, disk, memory, servers and
//    routers, consume substantial power when it is turned on, even with no
//    active workload... Similar concepts have been explored to putting
//    networking devices to sleep for energy conservation."
//
// A switch has a chassis floor plus per-port power. Ports support multiple
// operating rates (power grows sub-linearly with rate) and a low-power
// sleep state with a wake latency — exactly the two knobs ref [23] studies.
#pragma once

#include <cstddef>
#include <vector>

namespace epm::network {

struct PortRate {
  double capacity_gbps;
  double active_power_w;  ///< port powered at this rate (load-independent)
};

/// Chassis floor: fans, fabric, control plane.
inline constexpr double kChassisPowerW = 90.0;
/// Time a sleeping port takes to wake.
inline constexpr double kPortWakeLatencyS = 0.001;

struct SwitchPowerConfig {
  /// Supported operating rates, ascending capacity. Power is dominated by
  /// the PHY/SerDes rate, not by utilization (ref [23]'s key observation).
  std::vector<PortRate> rates{{0.1, 0.7}, {1.0, 1.8}, {10.0, 5.0}};
  double sleep_power_w = 0.1;  ///< per sleeping port
};

class SwitchPowerModel {
 public:
  explicit SwitchPowerModel(SwitchPowerConfig config);

  const SwitchPowerConfig& config() const { return config_; }
  std::size_t rate_count() const { return config_.rates.size(); }
  double max_rate_gbps() const { return config_.rates.back().capacity_gbps; }

  /// Power of one port running continuously at rate index `rate`.
  double port_power_w(std::size_t rate) const;
  /// Slowest rate whose capacity covers `load_gbps`; highest rate if none.
  std::size_t rate_for_load(double load_gbps) const;

  /// Whole-switch power: `port_rates[i]` gives each active port's rate
  /// index, absent ports (beyond the vector) count as sleeping.
  double switch_power_w(const std::vector<std::size_t>& port_rates,
                        std::size_t sleeping_ports) const;

 private:
  SwitchPowerConfig config_;
};

}  // namespace epm::network
