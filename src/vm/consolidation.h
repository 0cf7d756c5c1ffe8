// Dynamic consolidation planning (paper §4.4):
//
//   "Another potential benefit of using VMs is to dynamically migrate VMs
//    (and the services running on them) to improve resource utilizations on
//    active servers. And through doing so, shut down inactive servers."
//
// Given the fleet's *current* placement and current VM demands, proposes a
// tighter interference-aware packing, prices the live migrations it would
// take, and decides whether the energy saved by powering freed hosts off
// pays the migration bill back within a configurable horizon. The paper's
// macro layer is exactly the place such cost/benefit calls belong.
#pragma once

#include <cstddef>
#include <vector>

#include "vm/migration.h"
#include "vm/placement.h"

namespace epm::vm {

struct ConsolidationConfig {
  /// Power saved per emptied host when it is switched off (its idle floor).
  double host_idle_power_w = 180.0;
  /// Migration energy must pay back within this horizon for the plan to be
  /// worthwhile (i.e. the freed hosts are expected to stay off this long).
  double payback_horizon_s = 3600.0;
  MigrationCostConfig migration;
};

struct ConsolidationPlan {
  Placement target;
  MigrationPlan moves;
  std::size_t hosts_before = 0;
  std::size_t hosts_after = 0;
  std::size_t hosts_freed = 0;
  double power_saved_w = 0.0;     ///< idle power of the freed hosts
  double migration_energy_j = 0.0;
  /// Time for the saving to repay the migration energy; infinity when
  /// nothing is saved.
  double payback_s = 0.0;
  bool worthwhile = false;
};

/// Proposes and prices a consolidation of `vms` (with their *current*
/// demand vectors) from `current` onto the fewest interference-safe hosts.
/// VMs unplaced in `current` are ignored (they are not running anywhere).
ConsolidationPlan plan_consolidation(const std::vector<VmSpec>& vms,
                                     const std::vector<HostSpec>& hosts,
                                     const Placement& current,
                                     const ConsolidationConfig& config = {});

}  // namespace epm::vm
