#include "vm/migration.h"

#include "core/require.h"
#include "vm/placement.h"

namespace epm::vm {

MigrationCost migration_cost(const VmSpec& vm, const MigrationCostConfig& config) {
  require(config.network_gbps > 0.0, "migration_cost: bandwidth must be positive");
  require(config.dirty_factor >= 1.0, "migration_cost: dirty_factor must be >= 1");
  require(config.overhead_power_w >= 0.0, "migration_cost: negative overheads");
  MigrationCost cost;
  cost.bytes_moved = vm.memory_gb * 1e9 * config.dirty_factor;
  const double bytes_per_s = config.network_gbps * 1e9 / 8.0;
  cost.duration_s = cost.bytes_moved / bytes_per_s;
  // Overhead is paid on both the source and the destination.
  cost.energy_j = 2.0 * config.overhead_power_w * cost.duration_s;
  cost.downtime_s = kStopAndCopyDowntimeS;
  return cost;
}

MigrationPlan plan_migration(const std::vector<VmSpec>& vms,
                             const std::vector<std::size_t>& from_assignment,
                             const std::vector<std::size_t>& to_assignment,
                             const MigrationCostConfig& config) {
  require(from_assignment.size() == vms.size() && to_assignment.size() == vms.size(),
          "plan_migration: assignment size mismatch");
  MigrationPlan plan;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const std::size_t from = from_assignment[i];
    const std::size_t to = to_assignment[i];
    if (from == to) continue;
    if (from == kUnplaced || to == kUnplaced) continue;
    Move move{i, from, to, migration_cost(vms[i], config)};
    plan.total_duration_s += move.cost.duration_s;
    plan.total_energy_j += move.cost.energy_j;
    plan.total_bytes += move.cost.bytes_moved;
    plan.moves.push_back(move);
  }
  return plan;
}

}  // namespace epm::vm
