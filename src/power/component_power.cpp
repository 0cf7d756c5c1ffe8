#include "power/component_power.h"

#include <algorithm>
#include <cmath>

#include "core/require.h"

namespace epm::power {

constexpr double kBankGb = 8.0;          ///< capacity of one memory bank
constexpr double kPerBankActiveW = 3.0;  ///< per bank, powered
/// Energy to spin one spindle back up.
constexpr double kSpinupEnergyJ = 60.0;
static_assert(kBankGb > 0.0 && kSpinupEnergyJ >= 0.0);

MemoryPowerModel::MemoryPowerModel(MemoryConfig config) : config_(config) {
  require(config_.banks >= 1, "MemoryPowerModel: need at least one bank");
  require(kPerBankActiveW >= config_.per_bank_asleep_w &&
              config_.per_bank_asleep_w >= 0.0,
          "MemoryPowerModel: need active >= asleep >= 0 power");
}

double MemoryPowerModel::total_gb() const {
  return static_cast<double>(config_.banks) * kBankGb;
}

std::size_t MemoryPowerModel::banks_for_working_set(double working_set_gb) const {
  require(working_set_gb >= 0.0, "MemoryPowerModel: negative working set");
  require(working_set_gb <= total_gb() + 1e-9,
          "MemoryPowerModel: working set exceeds installed memory");
  const auto banks =
      static_cast<std::size_t>(std::ceil(working_set_gb / kBankGb - 1e-12));
  return std::clamp<std::size_t>(banks, 1, config_.banks);
}

double MemoryPowerModel::power_w(std::size_t active_banks) const {
  require(active_banks >= 1 && active_banks <= config_.banks,
          "MemoryPowerModel: active banks outside [1, banks]");
  const auto asleep = static_cast<double>(config_.banks - active_banks);
  return static_cast<double>(active_banks) * kPerBankActiveW +
         asleep * config_.per_bank_asleep_w;
}

double MemoryPowerModel::power_for_working_set_w(double working_set_gb) const {
  return power_w(banks_for_working_set(working_set_gb));
}

DiskPowerModel::DiskPowerModel(DiskConfig config) : config_(config) {
  require(kSpinningW > config_.standby_w && config_.standby_w >= 0.0,
          "DiskPowerModel: need spinning > standby >= 0 power");
}

double DiskPowerModel::breakeven_idle_s() const {
  return kSpinupEnergyJ / (kSpinningW - config_.standby_w);
}

double DiskPowerModel::gap_energy_j(double gap_s, double timeout_s) const {
  require(gap_s >= 0.0, "DiskPowerModel: negative gap");
  require(timeout_s >= 0.0, "DiskPowerModel: negative timeout");
  if (gap_s <= timeout_s) return kSpinningW * gap_s;
  return kSpinningW * timeout_s + config_.standby_w * (gap_s - timeout_s) +
         kSpinupEnergyJ;
}

double DiskPowerModel::gap_energy_spinning_j(double gap_s) const {
  require(gap_s >= 0.0, "DiskPowerModel: negative gap");
  return kSpinningW * gap_s;
}

double DiskPowerModel::expected_idle_power_w(double mean_gap_s,
                                             double timeout_s) const {
  require(mean_gap_s > 0.0, "DiskPowerModel: mean gap must be positive");
  require(timeout_s >= 0.0, "DiskPowerModel: negative timeout");
  const double lambda = 1.0 / mean_gap_s;
  const double tail = std::exp(-lambda * timeout_s);  // P(g > T)
  const double e_min = (1.0 - tail) / lambda;         // E[min(g, T)]
  const double e_excess = tail / lambda;              // E[(g - T)+]
  const double e_energy = kSpinningW * e_min + config_.standby_w * e_excess +
                          kSpinupEnergyJ * tail;
  return e_energy / mean_gap_s;
}

double DiskPowerModel::simulate_idle_power_w(double mean_gap_s, double timeout_s,
                                             std::size_t gaps, Rng& rng) const {
  require(gaps >= 1, "DiskPowerModel: need at least one gap");
  double energy = 0.0;
  double time = 0.0;
  for (std::size_t i = 0; i < gaps; ++i) {
    const double gap = rng.exponential(1.0 / mean_gap_s);
    energy += gap_energy_j(gap, timeout_s);
    time += gap;
  }
  return energy / time;
}

}  // namespace epm::power
