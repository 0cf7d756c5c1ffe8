#include "vm/placement.h"

#include <algorithm>
#include <numeric>

#include "core/require.h"

namespace epm::vm {
namespace {

std::size_t count_hosts_used(const Placement& placement) {
  std::vector<std::size_t> used(placement.assignment.begin(), placement.assignment.end());
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  std::size_t n = used.size();
  if (!used.empty() && used.back() == kUnplaced) --n;
  return n;
}

/// Demand of `vm` along a dimension at profile sample `t` (flat when no
/// profile).
double demand_at(const VmSpec& vm, int dimension, std::size_t t) {
  const double mean = dimension == 0 ? vm.cpu_cores
                      : dimension == 1 ? vm.disk_iops
                                       : vm.net_mbps;
  if (vm.load_profile.empty()) return mean;
  return mean * vm.load_profile[t % vm.load_profile.size()];
}

}  // namespace

std::vector<std::vector<std::size_t>> Placement::by_host(std::size_t host_count) const {
  std::vector<std::vector<std::size_t>> out(host_count);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] != kUnplaced) {
      require(assignment[i] < host_count, "Placement::by_host: bad assignment");
      out[assignment[i]].push_back(i);
    }
  }
  return out;
}

Placement first_fit_decreasing(const std::vector<VmSpec>& vms,
                               const std::vector<HostSpec>& hosts) {
  require(!hosts.empty(), "first_fit_decreasing: no hosts");
  std::vector<std::size_t> order(vms.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return vms[a].cpu_cores > vms[b].cpu_cores;
  });

  Placement placement;
  placement.assignment.assign(vms.size(), kUnplaced);
  std::vector<HostUsage> usage(hosts.size());
  for (std::size_t idx : order) {
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      if (fits(vms[idx], hosts[h], usage[h])) {
        usage[h] = add_usage(usage[h], vms[idx]);
        placement.assignment[idx] = h;
        break;
      }
    }
    if (placement.assignment[idx] == kUnplaced) ++placement.unplaced;
  }
  placement.hosts_used = count_hosts_used(placement);
  return placement;
}

Placement interference_aware(const std::vector<VmSpec>& vms,
                             const std::vector<HostSpec>& hosts,
                             const InterferenceConfig& config,
                             std::size_t max_io_intensive) {
  require(!hosts.empty(), "interference_aware: no hosts");
  require(max_io_intensive >= 1, "interference_aware: max_io_intensive must be >= 1");
  std::vector<std::size_t> order(vms.size());
  std::iota(order.begin(), order.end(), 0);
  // Place IO-intensive VMs first so they claim separate spindle sets before
  // CPU-bound fillers take space.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return vms[a].disk_iops > vms[b].disk_iops;
  });

  Placement placement;
  placement.assignment.assign(vms.size(), kUnplaced);
  std::vector<HostUsage> usage(hosts.size());
  std::vector<std::size_t> io_count(hosts.size(), 0);
  for (std::size_t idx : order) {
    const bool io_heavy =
        vms[idx].disk_iops > config.io_intensive_fraction * hosts[0].disk_iops;
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      const bool heavy_here =
          vms[idx].disk_iops > config.io_intensive_fraction * hosts[h].disk_iops;
      if ((io_heavy || heavy_here) && io_count[h] >= max_io_intensive) continue;
      if (!fits(vms[idx], hosts[h], usage[h])) continue;
      usage[h] = add_usage(usage[h], vms[idx]);
      if (heavy_here) ++io_count[h];
      placement.assignment[idx] = h;
      break;
    }
    if (placement.assignment[idx] == kUnplaced) ++placement.unplaced;
  }
  placement.hosts_used = count_hosts_used(placement);
  return placement;
}

double colocated_peak(const std::vector<VmSpec>& vms,
                      const std::vector<std::size_t>& members, int dimension) {
  require(dimension >= 0 && dimension <= 2, "colocated_peak: bad dimension");
  if (members.empty()) return 0.0;
  // Common profile length: the longest member profile (flat VMs repeat).
  std::size_t samples = 1;
  for (std::size_t m : members) {
    require(m < vms.size(), "colocated_peak: member out of range");
    samples = std::max(samples, vms[m].load_profile.size());
  }
  double peak = 0.0;
  for (std::size_t t = 0; t < samples; ++t) {
    double total = 0.0;
    for (std::size_t m : members) total += demand_at(vms[m], dimension, t);
    peak = std::max(peak, total);
  }
  return peak;
}

Placement correlation_aware(const std::vector<VmSpec>& vms,
                            const std::vector<HostSpec>& hosts) {
  // Peak scores closer than this count as ties.
  constexpr double kTieEpsilon = 1e-9;
  require(!hosts.empty(), "correlation_aware: no hosts");
  std::vector<std::size_t> order(vms.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return vms[a].cpu_cores > vms[b].cpu_cores;
  });

  Placement placement;
  placement.assignment.assign(vms.size(), kUnplaced);
  std::vector<HostUsage> usage(hosts.size());
  std::vector<std::vector<std::size_t>> members(hosts.size());
  for (std::size_t idx : order) {
    double best_peak = 0.0;
    std::size_t best_host = kUnplaced;
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      if (!fits(vms[idx], hosts[h], usage[h])) continue;
      // Peak-aware worst-fit: score each candidate by the co-located peak
      // that would *result*. A same-phase host roughly doubles its peak, an
      // anti-correlated host barely moves — so opposite phases attract and
      // same phases repel. Ties go to the emptier host.
      auto trial = members[h];
      trial.push_back(idx);
      const double after = colocated_peak(vms, trial, 0);
      const bool better =
          best_host == kUnplaced || after < best_peak - kTieEpsilon ||
          (after < best_peak + kTieEpsilon &&
           members[h].size() < members[best_host].size());
      if (better) {
        best_peak = after;
        best_host = h;
      }
    }
    if (best_host == kUnplaced) {
      ++placement.unplaced;
      continue;
    }
    usage[best_host] = add_usage(usage[best_host], vms[idx]);
    members[best_host].push_back(idx);
    placement.assignment[idx] = best_host;
  }
  placement.hosts_used = count_hosts_used(placement);
  return placement;
}

}  // namespace epm::vm
