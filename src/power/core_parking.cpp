#include "power/core_parking.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/require.h"

namespace epm::power {

/// Unpark a core when the unparked ones run hotter than this.
constexpr double kUnparkUtilization = 0.85;
static_assert(kUnparkUtilization < 1.0 && kParkedPowerW >= 0.0 && kUncorePowerW >= 0.0);

CmpPowerModel::CmpPowerModel(CmpConfig config) : config_(std::move(config)) {
  require(!config_.classes.empty(), "CmpPowerModel: no core classes");
  for (const auto& c : config_.classes) {
    require(c.count >= 1, "CmpPowerModel: empty core class");
    require(c.capacity_weight > 0.0, "CmpPowerModel: capacity weight must be positive");
    require(c.idle_power_w >= 0.0 && c.busy_power_w >= c.idle_power_w,
            "CmpPowerModel: need 0 <= idle <= busy power");
    require(kParkedPowerW <= c.idle_power_w,
            "CmpPowerModel: parked power must be in [0, idle]");
    max_capacity_ += static_cast<double>(c.count) * c.capacity_weight;
  }
}

std::size_t CmpPowerModel::total_cores() const {
  std::size_t n = 0;
  for (const auto& c : config_.classes) n += c.count;
  return n;
}

double CmpPowerModel::capacity(const ActiveCores& active) const {
  require(active.size() == config_.classes.size(),
          "CmpPowerModel: selection must cover every class");
  double cap = 0.0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    require(active[i] <= config_.classes[i].count,
            "CmpPowerModel: more active cores than exist");
    cap += static_cast<double>(active[i]) * config_.classes[i].capacity_weight;
  }
  return cap;
}

double CmpPowerModel::power_w(const ActiveCores& active, double utilization) const {
  require(utilization >= 0.0 && utilization <= 1.0,
          "CmpPowerModel: utilization outside [0,1]");
  const double cap = capacity(active);  // validates the selection
  (void)cap;
  double power = kUncorePowerW;
  for (std::size_t i = 0; i < active.size(); ++i) {
    const auto& c = config_.classes[i];
    const auto unparked = static_cast<double>(active[i]);
    const auto parked = static_cast<double>(c.count - active[i]);
    power += parked * kParkedPowerW;
    power += unparked * (c.idle_power_w + (c.busy_power_w - c.idle_power_w) * utilization);
  }
  return power;
}

ActiveCores CmpPowerModel::all_cores() const {
  ActiveCores all;
  all.reserve(config_.classes.size());
  for (const auto& c : config_.classes) all.push_back(c.count);
  return all;
}

ActiveCores CmpPowerModel::optimal_active_cores(double required_capacity) const {
  require(required_capacity >= 0.0, "CmpPowerModel: negative capacity requirement");
  require(required_capacity <= max_capacity_ + 1e-9,
          "CmpPowerModel: requirement exceeds package capacity");

  // Exhaustive over per-class counts (class counts are small: 2 classes of
  // <=16 cores is 289 combinations).
  ActiveCores best;
  double best_power = std::numeric_limits<double>::infinity();
  ActiveCores trial(config_.classes.size(), 0);
  const std::size_t combos = [&] {
    std::size_t n = 1;
    for (const auto& c : config_.classes) n *= c.count + 1;
    return n;
  }();
  for (std::size_t code = 0; code < combos; ++code) {
    std::size_t rem = code;
    for (std::size_t i = 0; i < trial.size(); ++i) {
      trial[i] = rem % (config_.classes[i].count + 1);
      rem /= config_.classes[i].count + 1;
    }
    const double cap = capacity(trial);
    if (cap + 1e-12 < required_capacity) continue;
    const double u = cap > 0.0 ? std::min(required_capacity / cap, 1.0) : 0.0;
    if (cap == 0.0 && required_capacity > 0.0) continue;
    const double p = power_w(trial, u);
    if (p < best_power) {
      best_power = p;
      best = trial;
    }
  }
  ensure(!best.empty() || required_capacity == 0.0,
         "CmpPowerModel: no feasible selection found");
  if (best.empty()) best.assign(config_.classes.size(), 0);
  return best;
}

CoreParkingPolicy::CoreParkingPolicy(const CmpPowerModel& model,
                                     CoreParkingPolicyConfig config)
    : model_(&model), config_(config), active_(model.all_cores()) {
  require(config_.park_utilization > 0.0 &&
              config_.park_utilization < kUnparkUtilization,
          "CoreParkingPolicy: need 0 < park < unpark < 1");
  require(config_.min_cores >= 1, "CoreParkingPolicy: min_cores must be >= 1");
}

const ActiveCores& CoreParkingPolicy::decide(double utilization) {
  require(utilization >= 0.0 && utilization <= 1.0,
          "CoreParkingPolicy: utilization outside [0,1]");
  const auto& classes = model_->config().classes;
  std::size_t unparked_total = 0;
  for (std::size_t n : active_) unparked_total += n;

  if (utilization > kUnparkUtilization) {
    // Unpark one core of the most efficient (capacity per busy watt) class
    // that still has parked cores.
    double best_eff = -1.0;
    std::size_t best_class = classes.size();
    for (std::size_t i = 0; i < classes.size(); ++i) {
      if (active_[i] >= classes[i].count) continue;
      const double eff = classes[i].capacity_weight / classes[i].busy_power_w;
      if (eff > best_eff) {
        best_eff = eff;
        best_class = i;
      }
    }
    if (best_class < classes.size()) ++active_[best_class];
  } else if (utilization < config_.park_utilization &&
             unparked_total > config_.min_cores) {
    // Park one core of the least efficient class that still has unparked
    // cores beyond the floor.
    double worst_eff = std::numeric_limits<double>::infinity();
    std::size_t worst_class = classes.size();
    for (std::size_t i = 0; i < classes.size(); ++i) {
      if (active_[i] == 0) continue;
      const double eff = classes[i].capacity_weight / classes[i].busy_power_w;
      if (eff < worst_eff) {
        worst_eff = eff;
        worst_class = i;
      }
    }
    if (worst_class < classes.size()) --active_[worst_class];
  }
  return active_;
}

}  // namespace epm::power
