// Queueing approximations for the request path (paper §3: "users expect
// sub-second response time"; §5.1: DVFS raises utilization, which raises
// end-to-end delay — the coupling behind the DVFS/On-Off instability).
//
// At data-center scale we evaluate response times per control epoch from
// closed-form models rather than simulating millions of request events; the
// per-request discrete-event mode in tests validates these formulas.
#pragma once

#include <cstddef>

namespace epm::cluster {

/// Erlang-C probability that an arrival waits in an M/M/n queue.
/// `offered` = lambda/mu (erlangs), `servers` = n. Requires offered < n.
double erlang_c(double offered, std::size_t servers);

/// Mean response time (wait + service) of an M/M/n queue; lambda in 1/s,
/// per-server rate mu in 1/s. Requires lambda < n*mu.
double mmn_response_time_s(double lambda, double mu, std::size_t servers);

/// Mean response time of an M/G/1 processor-sharing server: S/(1-rho).
/// Insensitive to the service-time distribution beyond its mean.
double mg1ps_response_time_s(double mean_service_s, double utilization);

/// Approximate p-quantile of response time for an M/M/1-PS-like server,
/// using the exponential-tail approximation T_q = T_mean * ln(1/(1-q)).
double response_quantile_s(double mean_response_s, double q);

}  // namespace epm::cluster
