// The uncoordinated baseline stack: every knob managed by its own local
// policy with no shared information — exactly the "micro-level resource
// management... restrained to local optimality" the paper argues against.
//
//   * per-service ondemand DVFS (utilization-driven),
//   * per-service delay-threshold On/Off provisioning (DVS-oblivious),
//   * CRACs chasing their own return-air sensors,
//   * no facility power budgeting (the breaker is the backstop).
#pragma once

#include <memory>
#include <vector>

#include "dvfs/governors.h"
#include "macro/facility.h"
#include "onoff/provisioners.h"

namespace epm::macro {

/// Each policy at its default thresholds; retired servers park in sleep
/// states.
class UncoordinatedStack {
 public:
  explicit UncoordinatedStack(Facility& facility);

  /// One epoch: each local policy reacts to the last epoch it saw, then the
  /// facility advances. CRACs stay in automatic mode.
  FacilityStep step(const std::vector<double>& demand_per_service, double outside_c);

 private:
  Facility& facility_;
  std::vector<dvfs::OndemandGovernor> governors_;
  std::vector<onoff::DelayThresholdProvisioner> provisioners_;
  std::vector<cluster::EpochResult> last_results_;
  bool have_results_ = false;
};

}  // namespace epm::macro
