#include "cluster/queueing.h"

#include <cmath>

#include "core/require.h"

namespace epm::cluster {

double erlang_c(double offered, std::size_t servers) {
  require(servers > 0, "erlang_c: need at least one server");
  require(offered >= 0.0, "erlang_c: negative offered load");
  require(offered < static_cast<double>(servers), "erlang_c: unstable (offered >= n)");
  if (offered == 0.0) return 0.0;
  // Iterative Erlang-B, then convert to Erlang-C; numerically stable.
  double b = 1.0;
  for (std::size_t k = 1; k <= servers; ++k) {
    b = offered * b / (static_cast<double>(k) + offered * b);
  }
  const double n = static_cast<double>(servers);
  return b / (1.0 - (offered / n) * (1.0 - b));
}

double mmn_response_time_s(double lambda, double mu, std::size_t servers) {
  require(mu > 0.0, "mmn_response_time_s: service rate must be positive");
  require(lambda >= 0.0, "mmn_response_time_s: negative arrival rate");
  const double n = static_cast<double>(servers);
  require(lambda < n * mu, "mmn_response_time_s: unstable system");
  if (lambda == 0.0) return 1.0 / mu;
  const double offered = lambda / mu;
  const double pw = erlang_c(offered, servers);
  const double wait = pw / (n * mu - lambda);
  return wait + 1.0 / mu;
}

double mg1ps_response_time_s(double mean_service_s, double utilization) {
  require(mean_service_s > 0.0, "mg1ps_response_time_s: service time must be positive");
  require(utilization >= 0.0 && utilization < 1.0,
          "mg1ps_response_time_s: utilization outside [0,1)");
  return mean_service_s / (1.0 - utilization);
}

double response_quantile_s(double mean_response_s, double q) {
  require(mean_response_s >= 0.0, "response_quantile_s: negative mean");
  require(q > 0.0 && q < 1.0, "response_quantile_s: q outside (0,1)");
  return mean_response_s * std::log(1.0 / (1.0 - q));
}

}  // namespace epm::cluster
