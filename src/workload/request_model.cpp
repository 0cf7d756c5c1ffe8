#include "workload/request_model.h"

#include "core/require.h"

namespace epm::workload {

/// Seed of the Poisson arrival sampling.
constexpr std::uint64_t kArrivalSeed = 7;

RequestModel::RequestModel(RequestModelConfig config)
    : config_(config), rng_(kArrivalSeed) {
  require(config_.requests_per_demand_unit >= 0.0,
          "RequestModel: negative request rate factor");
  require(config_.fanout >= 1.0, "RequestModel: fanout must be >= 1");
  require(config_.mean_service_demand_s > 0.0,
          "RequestModel: service demand must be positive");
}

OfferedLoad RequestModel::offered_load(double demand, double epoch_s) {
  require(demand >= 0.0, "RequestModel: negative demand");
  require(epoch_s > 0.0, "RequestModel: epoch must be positive");
  const double external_rate = demand * config_.requests_per_demand_unit;
  double internal_rate = external_rate * config_.fanout;
  if (config_.stochastic_arrivals && internal_rate > 0.0) {
    const double expected = internal_rate * epoch_s;
    internal_rate = static_cast<double>(rng_.poisson(expected)) / epoch_s;
  }
  OfferedLoad load;
  load.arrival_rate_per_s = internal_rate;
  load.service_demand_s = config_.mean_service_demand_s;
  return load;
}

TimeSeries to_arrival_rates(RequestModel& model, const TimeSeries& demand) {
  TimeSeries out(demand.start_s(), demand.step_s());
  out.reserve(demand.size());
  for (std::size_t i = 0; i < demand.size(); ++i) {
    out.push_back(model.offered_load(demand[i], demand.step_s()).arrival_rate_per_s);
  }
  return out;
}

}  // namespace epm::workload
