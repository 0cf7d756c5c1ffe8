// Live-migration cost model and planner (paper §4.4: "dynamically migrate
// VMs (and the services running on them) to improve resource utilizations on
// active servers. And through doing so, shut down inactive servers"; §3:
// "VM migration or server repurpose may happen at the time scale of days or
// weeks" — migrations are slow, bulky actions whose cost the macro layer
// must weigh).
#pragma once

#include <cstddef>
#include <vector>

#include "vm/vm.h"

namespace epm::vm {

/// Stop-and-copy blackout at the end of pre-copy.
inline constexpr double kStopAndCopyDowntimeS = 0.3;

struct MigrationCostConfig {
  double network_gbps = 1.0;        ///< migration link bandwidth
  /// Pre-copy rounds re-send dirtied memory; total bytes moved =
  /// memory * dirty_factor.
  double dirty_factor = 1.3;
  /// Extra CPU+network power on source and destination while migrating.
  double overhead_power_w = 60.0;
};

struct MigrationCost {
  double duration_s = 0.0;
  double energy_j = 0.0;    ///< overhead on both endpoints over the duration
  double downtime_s = 0.0;  ///< service blackout
  double bytes_moved = 0.0;
};

MigrationCost migration_cost(const VmSpec& vm, const MigrationCostConfig& config = {});

/// One planned move.
struct Move {
  std::size_t vm_index;
  std::size_t from_host;
  std::size_t to_host;
  MigrationCost cost;
};

/// Diffs two placements over the same VM set into the moves required, with
/// per-move costs and totals. VMs unplaced in either placement are skipped.
struct MigrationPlan {
  std::vector<Move> moves;
  double total_duration_s = 0.0;  ///< serialized on one migration link
  double total_energy_j = 0.0;
  double total_bytes = 0.0;
};

MigrationPlan plan_migration(const std::vector<VmSpec>& vms,
                             const std::vector<std::size_t>& from_assignment,
                             const std::vector<std::size_t>& to_assignment,
                             const MigrationCostConfig& config = {});

}  // namespace epm::vm
