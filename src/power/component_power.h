// Component-level sleep states beyond the CPU (paper §4.3):
//
//   "Banks of memory can be turned off when not being used [17]. Large
//    sections of storage can be turned off under appropriate file system
//    and caching scheme."
//
// Memory: banks power down when the resident working set does not need
// them. Disk: spindles spin down after an idle timeout; the model carries
// the classic break-even analysis (spin-down pays only when the idle gap
// outlasts the spin-up energy divided by the power saved) and closed-form
// expected power under exponential idle gaps, which the tests check against
// Monte Carlo and against the 2x-competitive ski-rental bound.
#pragma once

#include <cstddef>

#include "core/rng.h"

namespace epm::power {

// ---- memory banks ------------------------------------------------------

struct MemoryConfig {
  std::size_t banks = 8;
  double per_bank_asleep_w = 0.3;
};

class MemoryPowerModel {
 public:
  explicit MemoryPowerModel(MemoryConfig config);

  const MemoryConfig& config() const { return config_; }
  double total_gb() const;

  /// Banks that must stay powered to hold `working_set_gb`.
  std::size_t banks_for_working_set(double working_set_gb) const;
  /// Power with `active_banks` powered and the rest asleep.
  double power_w(std::size_t active_banks) const;
  /// Convenience: power when sized exactly for a working set.
  double power_for_working_set_w(double working_set_gb) const;

 private:
  MemoryConfig config_;
};

// ---- disk spindles -----------------------------------------------------

/// Spindles per server.
inline constexpr std::size_t kDiskSpindles = 4;
/// Per spindle, spinning (idle or serving).
inline constexpr double kSpinningW = 8.0;

struct DiskConfig {
  double standby_w = 0.8;    ///< per spindle, spun down
};

class DiskPowerModel {
 public:
  explicit DiskPowerModel(DiskConfig config);

  const DiskConfig& config() const { return config_; }

  /// The break-even idle gap: spinning down pays only for gaps longer than
  /// the spin-up energy / (spinning - standby).
  double breakeven_idle_s() const;

  /// Energy of one spindle over an idle gap of `gap_s` under a spin-down
  /// policy with the given timeout (timeout >= gap means it never spun
  /// down). Includes the spin-up energy at the end of the gap if it did.
  double gap_energy_j(double gap_s, double timeout_s) const;
  /// Energy of the always-spinning baseline over the same gap.
  double gap_energy_spinning_j(double gap_s) const;

  /// Expected per-spindle *idle-time* power under exponentially distributed
  /// idle gaps with mean `mean_gap_s`, for a timeout policy. Closed form:
  ///   E[energy per gap] = P_spin E[min(g,T)] + P_stby E[(g-T)+]
  ///                       + E_up P(g>T)
  /// divided by the mean gap length.
  double expected_idle_power_w(double mean_gap_s, double timeout_s) const;

  /// The classical ski-rental choice: timeout = break-even gap is at most
  /// 2x worse than the clairvoyant optimum on *any* gap distribution.
  double competitive_timeout_s() const { return breakeven_idle_s(); }

  /// Monte Carlo cross-check of expected_idle_power_w (used by tests and
  /// the bench's sanity line).
  double simulate_idle_power_w(double mean_gap_s, double timeout_s,
                               std::size_t gaps, Rng& rng) const;

 private:
  DiskConfig config_;
};

}  // namespace epm::power
