#include "dvfs/governors.h"

#include <algorithm>

#include "core/require.h"

namespace epm::dvfs {

OndemandGovernor::OndemandGovernor(std::size_t initial_pstate, OndemandConfig config)
    : pstate_(initial_pstate), config_(config) {
  require(config_.downscale_utilization > 0.0 &&
              config_.downscale_utilization < config_.upscale_utilization &&
              config_.upscale_utilization < 1.0,
          "OndemandGovernor: need 0 < down < up < 1");
}

std::size_t OndemandGovernor::decide(const cluster::ServiceCluster& cluster,
                                     const cluster::EpochResult& last) {
  const std::size_t slowest = cluster.power_model().pstate_count() - 1;
  pstate_ = std::min(pstate_, slowest);
  if (last.utilization > config_.upscale_utilization) {
    // Linux ondemand jumps straight to maximum under pressure.
    pstate_ = 0;
  } else if (last.utilization < config_.downscale_utilization && pstate_ < slowest) {
    // "When the system is underloaded, the DVFS policy reduces the frequency
    //  of a processor, increasing system utilization." (§5.1)
    ++pstate_;
  }
  return pstate_;
}

}  // namespace epm::dvfs
