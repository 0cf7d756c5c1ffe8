// Chip-multiprocessor power with core parking and heterogeneous cores
// (paper §4.1, §4.3).
//
//   "Chip Multi-Processing (CMP) technology (multi-core) has a great impact
//    in the power management in CPUs... Heterogeneous CMPs has further
//    potentials to selectively use cores with different power and
//    performance trade-offs to meet workload variation."
//   "Core parking is a technique to selectively turn off cores to reduce
//    CPU power consumption."
//
// The model splits package power into an uncore floor (shared caches,
// memory controller, interconnect — paid while the package is on) plus
// per-core idle/busy power for unparked cores. Parked cores are power-gated
// to near zero. A core class has a capacity weight, so big.LITTLE-style
// heterogeneous packages are the same model with two classes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace epm::power {

/// Power of one power-gated (parked) core.
inline constexpr double kParkedPowerW = 0.5;
/// Power of the shared uncore structures, paid while the package is on.
inline constexpr double kUncorePowerW = 60.0;

/// One class of cores on the package.
struct CoreClass {
  std::string name = "core";
  std::size_t count = 8;
  /// Throughput contribution of one core, relative to a reference core
  /// (big cores > 1, little cores < 1).
  double capacity_weight = 1.0;
  double idle_power_w = 6.0;    ///< unparked, no work
  double busy_power_w = 22.0;   ///< at full utilization
};

struct CmpConfig {
  std::vector<CoreClass> classes{CoreClass{}};
};

/// A chosen set of unparked cores, per class.
using ActiveCores = std::vector<std::size_t>;

class CmpPowerModel {
 public:
  explicit CmpPowerModel(CmpConfig config);

  const CmpConfig& config() const { return config_; }
  std::size_t class_count() const { return config_.classes.size(); }
  std::size_t total_cores() const;
  /// Sum of capacity weights with every core unparked.
  double max_capacity() const { return max_capacity_; }

  /// Capacity (sum of weights) of an active-core selection.
  double capacity(const ActiveCores& active) const;
  /// Package power with the given selection at `utilization` of the
  /// *unparked* capacity (work spreads evenly over unparked cores).
  double power_w(const ActiveCores& active, double utilization) const;

  /// Minimum-power selection whose capacity covers `required_capacity`
  /// (in capacity-weight units) at the utilization that results from
  /// serving exactly that much work. Exhaustive over per-class counts —
  /// class counts are small. Throws if the requirement exceeds
  /// max_capacity().
  ActiveCores optimal_active_cores(double required_capacity) const;

  /// Convenience: every core unparked.
  ActiveCores all_cores() const;

 private:
  CmpConfig config_;
  double max_capacity_ = 0.0;
};

/// Utilization-driven core-parking policy with hysteresis: unpark when the
/// unparked cores run hot, park when they idle, mirroring the OS "core
/// parking" feature the paper cites.
struct CoreParkingPolicyConfig {
  double park_utilization = 0.45;
  std::size_t min_cores = 1;
};

class CoreParkingPolicy {
 public:
  CoreParkingPolicy(const CmpPowerModel& model, CoreParkingPolicyConfig config = {});

  /// Observe one interval's utilization (of currently unparked capacity);
  /// returns the selection for the next interval. Steps one core at a time,
  /// unparking the most efficient class first and parking the least.
  const ActiveCores& decide(double utilization);
  const ActiveCores& current() const { return active_; }

 private:
  const CmpPowerModel* model_;
  CoreParkingPolicyConfig config_;
  ActiveCores active_;
};

}  // namespace epm::power
