// Server power model with DVFS P-states and T-state throttling (paper §4.2).
//
// Calibrated to the paper's headline facts:
//   * "a powered on server with zero workload consumes about 60% of its
//      peak power" (§4.3, refs [10],[18])  ->  idle_fraction = 0.6
//   * P-states reduce clock rate and supply voltage; the dynamic power term
//     scales ~ f.V^2 ~ f^3 when voltage tracks frequency -> cubic exponent.
//   * T-states insert STPCLK duty cycles: capacity falls linearly with the
//     duty cycle while the dynamic term falls with it too ("throttle down a
//     CPU (but not the actual clock rate)").
//
// The model is deliberately macroscopic: power is a function of utilization,
// the selected P-state, and the duty cycle. That is the granularity at which
// the paper's coordination arguments operate.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace epm::cluster {
class Server;
}

namespace epm::power {

/// The ACPI-style name of P-state `index`: "P0", "P1", ...
inline std::string pstate_name(std::size_t index) {
  std::string name("P");
  name += std::to_string(index);
  return name;
}

/// One ACPI-style performance state.
struct PState {
  std::string name;       ///< e.g. "P0"
  double frequency_hz;    ///< core clock at this state
  double busy_power_w;    ///< full-utilization power at this state
};

struct ServerPowerConfig {
  double peak_power_w = 300.0;   ///< busy power at the top P-state
  double idle_fraction = 0.60;   ///< idle power / peak power (paper: ~60%)
  double sleep_power_w = 9.0;    ///< S3-style sleep ("turned off components")
  double off_power_w = 0.0;      ///< fully off
  double max_frequency_hz = 2.4e9;
  /// DVFS exponent for the dynamic term: busy(f) = idle + dyn*(f/fmax)^alpha.
  double dvfs_exponent = 3.0;
  /// Number of evenly spaced P-states from min_frequency to max (inclusive).
  std::size_t pstate_count = 5;
  double min_frequency_hz = 1.2e9;
  /// Boot/wakeup behaviour ("it takes time to wake up a slept component...
  /// this wakeup process may consume more energy", §4.3).
  double boot_time_s = 120.0;
  double boot_power_w = 280.0;     ///< near-peak draw while booting
  double wake_from_sleep_s = 15.0;
  double reference_capacity_rps = 100.0;  ///< requests/s at fmax, utilization 1
};

/// Immutable per-model power/performance curves; shared by all servers of a
/// hardware class.
class ServerPowerModel {
 public:
  explicit ServerPowerModel(ServerPowerConfig config);

  const ServerPowerConfig& config() const { return config_; }
  const std::vector<PState>& pstates() const { return pstates_; }
  std::size_t pstate_count() const { return pstates_.size(); }

  double idle_power_w() const { return config_.peak_power_w * config_.idle_fraction; }
  double peak_power_w() const { return config_.peak_power_w; }

  /// Electrical power at P-state `pstate`, utilization `u` in [0,1], and
  /// T-state duty cycle `duty` in (0,1]. Utilization is measured against the
  /// *throttled* capacity, so power interpolates between idle and the
  /// throttled busy power.
  double active_power_w(std::size_t pstate, double utilization, double duty = 1.0) const;

  /// Busy (u=1) power at a P-state with full duty cycle.
  double busy_power_w(std::size_t pstate) const;

  /// Request-serving capacity (requests/s of reference service demand) at a
  /// P-state and duty cycle. Linear in frequency and duty.
  double capacity_rps(std::size_t pstate, double duty = 1.0) const;
  /// Capacity as a fraction of the top P-state's.
  double relative_capacity(std::size_t pstate, double duty = 1.0) const;

  /// Index of the slowest P-state whose capacity still covers
  /// `required_fraction` of full capacity; top state if none suffices.
  std::size_t lowest_pstate_with_capacity(double required_fraction) const;

  /// Energy consumed by a cold boot (joules).
  double boot_energy_j() const { return config_.boot_power_w * config_.boot_time_s; }

 private:
  // relative_capacity and active_power_w without their argument checks.
  // A cluster::Server checks its P-state, duty and utilization when they are
  // set, so its inline accessors evaluate these directly.
  friend class cluster::Server;
  double relative_capacity_at(std::size_t pstate, double duty) const {
    return (pstates_[pstate].frequency_hz / config_.max_frequency_hz) * duty;
  }
  double active_power_at(std::size_t pstate, double utilization, double duty) const {
    const double idle_w = idle_power_w();
    // Throttling scales the dynamic headroom with the duty cycle: during
    // STPCLK intervals the core draws roughly idle power.
    const double busy_w = idle_w + (pstates_[pstate].busy_power_w - idle_w) * duty;
    return idle_w + (busy_w - idle_w) * utilization;
  }

  ServerPowerConfig config_;
  std::vector<PState> pstates_;  // index 0 = fastest (P0)
};

}  // namespace epm::power
