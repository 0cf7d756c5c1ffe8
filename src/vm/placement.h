// VM placement / consolidation algorithms (paper §4.4, §5.2).
//
//   * first_fit_decreasing  — classic CPU-driven consolidation: minimizes
//     host count, oblivious to interference and power correlation.
//   * interference_aware    — respects all resource dimensions and refuses
//     to co-locate multiple IO-intensive VMs on one spindle set.
//   * correlation_aware     — packs VMs whose load profiles are
//     anti-correlated, cutting the co-located *peak* ("two processes, or
//     VMs, from different applications are unlikely to generate power
//     spikes at the same time. This will reduce the probability of power
//     capping.", §5.2).
#pragma once

#include <cstddef>
#include <vector>

#include "vm/interference.h"
#include "vm/vm.h"

namespace epm::vm {

/// assignment[i] = index into `hosts` for vms[i]; kUnplaced if it didn't fit.
inline constexpr std::size_t kUnplaced = static_cast<std::size_t>(-1);

struct Placement {
  std::vector<std::size_t> assignment;
  std::size_t hosts_used = 0;
  std::size_t unplaced = 0;

  /// VM indices (into the original vm vector) grouped by host.
  std::vector<std::vector<std::size_t>> by_host(std::size_t host_count) const;
};

/// Sorts by CPU demand descending, first host with room wins.
Placement first_fit_decreasing(const std::vector<VmSpec>& vms,
                               const std::vector<HostSpec>& hosts);

/// First-fit on all dimensions + an interference guard: a host may hold at
/// most `max_io_intensive` IO-intensive VMs (default 1).
Placement interference_aware(const std::vector<VmSpec>& vms,
                             const std::vector<HostSpec>& hosts,
                             const InterferenceConfig& config = {},
                             std::size_t max_io_intensive = 1);

/// Candidate hosts are scored by the *resulting* co-located load peak (a
/// peak-aware worst-fit): the host whose combined profile peaks lowest after
/// adding the VM wins, with ties going to the emptier host. This both spreads
/// same-phase VMs and pairs anti-correlated ones. Scores within 1e-9 count as
/// ties.
Placement correlation_aware(const std::vector<VmSpec>& vms,
                            const std::vector<HostSpec>& hosts);

/// The co-located load peak of a host under `assignment`: max over time of
/// the sum of member profiles (mean demands x profile). Used to compare
/// packing quality; `dimension` selects cpu (0), disk (1), or net (2).
double colocated_peak(const std::vector<VmSpec>& vms,
                      const std::vector<std::size_t>& members, int dimension);

}  // namespace epm::vm
