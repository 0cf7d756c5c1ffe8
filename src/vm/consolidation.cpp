#include "vm/consolidation.h"

#include <limits>

#include "core/require.h"

namespace epm::vm {

/// Per-host limit on IO-intensive tenants in the target packing.
constexpr std::size_t kMaxIoIntensivePerHost = 1;

ConsolidationPlan plan_consolidation(const std::vector<VmSpec>& vms,
                                     const std::vector<HostSpec>& hosts,
                                     const Placement& current,
                                     const ConsolidationConfig& config) {
  require(current.assignment.size() == vms.size(),
          "plan_consolidation: placement does not match the VM set");
  require(config.host_idle_power_w >= 0.0,
          "plan_consolidation: negative host idle power");
  require(config.payback_horizon_s > 0.0,
          "plan_consolidation: payback horizon must be positive");

  // Only the VMs that are actually running can be consolidated.
  std::vector<VmSpec> running;
  std::vector<std::size_t> running_index;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    if (current.assignment[i] != kUnplaced) {
      running.push_back(vms[i]);
      running_index.push_back(i);
    }
  }

  ConsolidationPlan plan;
  plan.hosts_before = current.hosts_used;
  if (running.empty()) {
    plan.target = current;
    plan.hosts_after = current.hosts_used;
    plan.payback_s = std::numeric_limits<double>::infinity();
    return plan;
  }

  const Placement packed = interference_aware(running, hosts, {}, kMaxIoIntensivePerHost);
  // Map the packed assignment back onto the full VM index space; VMs the
  // packer could not place stay where they are.
  plan.target = current;
  for (std::size_t r = 0; r < running.size(); ++r) {
    if (packed.assignment[r] != kUnplaced) {
      plan.target.assignment[running_index[r]] = packed.assignment[r];
    }
  }
  // Recompute hosts used for the stitched assignment.
  std::vector<bool> used(hosts.size(), false);
  for (std::size_t h : plan.target.assignment) {
    if (h != kUnplaced) used[h] = true;
  }
  plan.hosts_after = 0;
  for (bool u : used) {
    if (u) ++plan.hosts_after;
  }
  plan.target.hosts_used = plan.hosts_after;

  plan.moves =
      plan_migration(vms, current.assignment, plan.target.assignment, config.migration);
  plan.migration_energy_j = plan.moves.total_energy_j;
  plan.hosts_freed =
      plan.hosts_before > plan.hosts_after ? plan.hosts_before - plan.hosts_after : 0;
  plan.power_saved_w = static_cast<double>(plan.hosts_freed) * config.host_idle_power_w;
  plan.payback_s = plan.power_saved_w > 0.0
                       ? plan.migration_energy_j / plan.power_saved_w
                       : std::numeric_limits<double>::infinity();
  plan.worthwhile = plan.hosts_freed > 0 && plan.payback_s <= config.payback_horizon_s;
  return plan;
}

}  // namespace epm::vm
