// Ablation (paper §4.1 + §4.3): DVFS vs core parking vs both, on one CMP.
//
//   "using the transistor and energy budget on additional cores is more
//    likely to yield higher performance" (§4.1)
//   "Core parking is a technique to selectively turn off cores to reduce
//    CPU power consumption." (§4.3)
//
// For a package with a realistic uncore floor, sweeps the offered load and
// reports the package power of four strategies: race-to-idle-less baseline
// (all cores, full speed), DVFS only, core parking only, and the joint
// optimum over (active cores x P-state). Then integrates a diurnal day.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <vector>

#include "core/table.h"
#include "core/units.h"
#include "power/core_parking.h"
#include "workload/diurnal.h"

using namespace epm;

namespace {

constexpr std::size_t kPStates = 5;

/// Frequency fraction of P-state p (1.0 .. 0.5) and the cubic busy-power
/// scaling used throughout the library.
double freq_fraction(std::size_t p) {
  return 1.0 - 0.5 * static_cast<double>(p) / static_cast<double>(kPStates - 1);
}

/// Package power for `active` cores at P-state `p` serving `load` capacity
/// units (<= active capacity * freq fraction). Busy power scales ~ f^3 above
/// idle; capacity scales ~ f.
double package_power(const power::CmpPowerModel& model, std::size_t active,
                     std::size_t p, double load) {
  const auto& cls = model.config().classes[0];
  const double f = freq_fraction(p);
  const double cap = static_cast<double>(active) * cls.capacity_weight * f;
  if (cap + 1e-12 < load) return std::numeric_limits<double>::infinity();
  const double u = cap > 0.0 ? load / cap : 0.0;
  const double busy_at_f =
      cls.idle_power_w + (cls.busy_power_w - cls.idle_power_w) * f * f * f;
  const auto parked = static_cast<double>(cls.count - active);
  return power::kUncorePowerW + parked * power::kParkedPowerW +
         static_cast<double>(active) *
             (cls.idle_power_w + (busy_at_f - cls.idle_power_w) * u);
}

struct Strategy {
  const char* name;
  // Returns (power) for a given load in capacity units.
  double (*power)(const power::CmpPowerModel&, double);
};

double baseline_power(const power::CmpPowerModel& model, double load) {
  return package_power(model, model.config().classes[0].count, 0, load);
}

double dvfs_power(const power::CmpPowerModel& model, double load) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < kPStates; ++p) {
    best = std::min(best,
                    package_power(model, model.config().classes[0].count, p, load));
  }
  return best;
}

double parking_power(const power::CmpPowerModel& model, double load) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t n = 1; n <= model.config().classes[0].count; ++n) {
    best = std::min(best, package_power(model, n, 0, load));
  }
  return best;
}

double joint_power(const power::CmpPowerModel& model, double load) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t n = 1; n <= model.config().classes[0].count; ++n) {
    for (std::size_t p = 0; p < kPStates; ++p) {
      best = std::min(best, package_power(model, n, p, load));
    }
  }
  return best;
}

}  // namespace

int main() {
  std::cout << banner(
      "Ablation (sec. 4.1/4.3): DVFS vs core parking vs joint, one 8-core CMP");

  power::CmpPowerModel model{power::CmpConfig{}};
  const double max_cap = model.max_capacity();

  const Strategy strategies[] = {{"all cores @ P0 (baseline)", baseline_power},
                                 {"DVFS only", dvfs_power},
                                 {"core parking only", parking_power},
                                 {"joint (cores x P-state)", joint_power}};

  Table table({"load", "baseline (W)", "DVFS (W)", "parking (W)", "joint (W)",
               "joint saves"});
  for (double frac : {0.05, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0}) {
    const double load = frac * max_cap;
    std::vector<double> watts;
    for (const auto& s : strategies) watts.push_back(s.power(model, load));
    table.add_row({fmt_percent(frac, 0), fmt(watts[0], 1), fmt(watts[1], 1),
                   fmt(watts[2], 1), fmt(watts[3], 1),
                   fmt_percent(1.0 - watts[3] / watts[0], 0)});
  }
  std::cout << table.render();

  // Daily energy under the standard diurnal curve, peak load = 90% capacity.
  const workload::DiurnalModel diurnal{workload::DiurnalConfig{}};
  Table day({"strategy", "daily package energy (Wh)", "saved vs baseline"});
  std::vector<double> daily(4, 0.0);
  for (int m = 0; m < 24 * 60; ++m) {
    const double load = 0.9 * max_cap * diurnal.demand_at(m * minutes(1.0));
    for (std::size_t s = 0; s < 4; ++s) {
      daily[s] += strategies[s].power(model, load) / 60.0;
    }
  }
  for (std::size_t s = 0; s < 4; ++s) {
    day.add_row({strategies[s].name, fmt(daily[s], 0),
                 fmt_percent(1.0 - daily[s] / daily[0], 1)});
  }
  std::cout << "\n" << day.render();

  std::cout << "\n  Paper: multi-core shifts the trade-off toward thread-level "
               "parallelism (Sec. 4.1), and parking idle\n"
               "  cores removes their idle power (Sec. 4.3). Measured: DVFS "
               "alone helps at mid loads (cubic savings) but\n"
               "  cannot touch idle cores; parking alone strands the uncore at "
               "high frequency; the joint policy wins\n"
               "  everywhere, with the biggest margins at light load where "
               "both levers stack.\n";
  return 0;
}
