// DVFS governor (paper §4.2).
//
// OndemandGovernor observes the last epoch and chooses the uniform P-state
// for the next one by utilization-band frequency stepping. It is the "DVS
// oblivious to On/Off" actor of §5.1's instability scenario: the
// uncoordinated stack runs one per service, and EXP-A pairs it with a
// delay-threshold On/Off provisioner to reproduce the cycle.
#pragma once

#include <cstddef>

#include "cluster/service_cluster.h"

namespace epm::dvfs {

struct OndemandConfig {
  double upscale_utilization = 0.80;   ///< above this, step faster
  double downscale_utilization = 0.45; ///< below this, step slower
};

class OndemandGovernor {
 public:
  OndemandGovernor(std::size_t initial_pstate, OndemandConfig config);
  /// Returns the P-state to apply for the next epoch.
  std::size_t decide(const cluster::ServiceCluster& cluster,
                     const cluster::EpochResult& last);

 private:
  std::size_t pstate_;
  OndemandConfig config_;
};

}  // namespace epm::dvfs
