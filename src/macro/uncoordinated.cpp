#include "macro/uncoordinated.h"

namespace epm::macro {

UncoordinatedStack::UncoordinatedStack(Facility& facility) : facility_(facility) {
  for (std::size_t i = 0; i < facility_.service_count(); ++i) {
    governors_.emplace_back(0, dvfs::OndemandConfig{});
    provisioners_.emplace_back(onoff::DelayThresholdConfig{});
  }
}

FacilityStep UncoordinatedStack::step(const std::vector<double>& demand_per_service,
                                      double outside_c) {
  if (have_results_) {
    for (std::size_t i = 0; i < facility_.service_count(); ++i) {
      auto& svc = facility_.service(i);
      const auto& last = last_results_[i];
      // Each policy acts on its own view; neither knows the other exists.
      svc.set_uniform_pstate(governors_[i].decide(svc, last));
      svc.set_target_committed(provisioners_[i].decide(svc, last),
                               /*use_sleep_states=*/true);
    }
  }
  FacilityStep result = facility_.step(demand_per_service, outside_c);
  last_results_ = result.services;
  have_results_ = true;
  return result;
}

}  // namespace epm::macro
