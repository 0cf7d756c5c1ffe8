#include "cluster/service_cluster.h"

#include <algorithm>
#include <cmath>

#include "cluster/queueing.h"
#include "core/require.h"

namespace epm::cluster {

ServiceCluster::ServiceCluster(ServiceClusterConfig config)
    : config_(config), model_(config.server) {
  require(config_.server_count > 0, "ServiceCluster: need at least one server");
  require(config_.initially_active <= config_.server_count,
          "ServiceCluster: initially_active exceeds server_count");
  require(config_.max_utilization > 0.0 && config_.max_utilization < 1.0,
          "ServiceCluster: max_utilization outside (0,1)");
  require(config_.sla.target_mean_response_s > 0.0,
          "ServiceCluster: SLA target must be positive");
  servers_.reserve(config_.server_count);
  for (std::size_t i = 0; i < config_.server_count; ++i) {
    servers_.emplace_back(i, model_,
                          i < config_.initially_active ? ServerState::kActive
                                                       : ServerState::kOff);
  }
  counts_[static_cast<std::size_t>(ServerState::kActive)] = config_.initially_active;
  counts_[static_cast<std::size_t>(ServerState::kOff)] =
      config_.server_count - config_.initially_active;
}

const Server& ServiceCluster::server(std::size_t i) const {
  require(i < servers_.size(), "ServiceCluster: server index out of range");
  return servers_[i];
}

bool ServiceCluster::command(Server& s, bool (Server::*cmd)()) {
  const ServerState from = s.state();
  if (!(s.*cmd)()) return false;
  --counts_[static_cast<std::size_t>(from)];
  ++counts_[static_cast<std::size_t>(s.state())];
  return true;
}

std::size_t ServiceCluster::set_target_committed(std::size_t target, bool use_sleep) {
  const std::size_t usable = available_count();
  target = std::min(target, usable);
  std::size_t committed = committed_count();
  std::size_t commands = 0;
  if (committed < target) {
    // Prefer waking sleepers (fast) before cold boots.
    for (std::size_t i = 0; i < usable; ++i) {
      if (committed >= target) break;
      auto& s = servers_[i];
      if (s.state() == ServerState::kSleeping && command(s, &Server::wake)) {
        ++committed;
        ++commands;
      }
    }
    for (std::size_t i = 0; i < usable; ++i) {
      if (committed >= target) break;
      auto& s = servers_[i];
      if (s.state() == ServerState::kOff && command(s, &Server::power_on)) {
        ++committed;
        ++commands;
      }
    }
  } else if (committed > target) {
    // Retire Active servers first (transitional ones will finish and can be
    // retired next epoch; aborting boots mid-way is not modeled).
    for (std::size_t i = usable; i-- > 0 && committed > target;) {
      auto& s = servers_[i];
      if (s.state() != ServerState::kActive) continue;
      if (command(s, use_sleep ? &Server::sleep : &Server::power_off)) {
        --committed;
        ++commands;
      }
    }
  }
  return commands;
}

void ServiceCluster::set_unavailable(std::size_t n) {
  n = std::min(n, servers_.size());
  // Force newly unavailable tail servers Off immediately (a crash or a
  // tripped feed does not wait for a graceful retire).
  for (std::size_t i = servers_.size() - n; i < servers_.size() - unavailable_;
       ++i) {
    if (servers_[i].state() != ServerState::kOff) {
      command(servers_[i], &Server::power_off);
    }
  }
  // Servers freed by a shrinking fault stay Off; provisioning reboots them
  // through set_target_committed when it wants them back.
  unavailable_ = n;
}

void ServiceCluster::set_uniform_pstate(std::size_t pstate) {
  require(pstate < model_.pstate_count(), "Server: P-state out of range");
  for (auto& s : servers_) s.pstate_ = pstate;
}

void ServiceCluster::set_uniform_duty(double duty) {
  require(duty > 0.0 && duty <= 1.0, "Server: duty outside (0,1]");
  for (auto& s : servers_) s.duty_ = duty;
}

EpochResult ServiceCluster::run_epoch(double epoch_s, const workload::OfferedLoad& load) {
  require(epoch_s > 0.0, "ServiceCluster: epoch must be positive");
  require(load.arrival_rate_per_s >= 0.0 && load.service_demand_s > 0.0,
          "ServiceCluster: invalid offered load");

  // Pass 1: advance transition timers first so a server whose boot
  // completes inside the epoch participates (coarse but conservative: it
  // also pays boot power for the tick it consumed), and add up serving
  // capacity in requests/second.
  double capacity_rps = 0.0;
  for (auto& s : servers_) {
    const ServerState before = s.state();
    if (s.advance(epoch_s)) {
      --counts_[static_cast<std::size_t>(before)];
      ++counts_[static_cast<std::size_t>(ServerState::kActive)];
    }
    capacity_rps += s.capacity_fraction() / load.service_demand_s;
  }

  EpochResult r;
  r.time_s = now_s_;
  r.epoch_s = epoch_s;
  r.arrival_rate_per_s = load.arrival_rate_per_s;
  r.service_demand_s = load.service_demand_s;
  r.serving = serving_count();
  r.booting = count_in_state(ServerState::kBooting) + count_in_state(ServerState::kWaking);
  r.sleeping = count_in_state(ServerState::kSleeping);
  r.off = count_in_state(ServerState::kOff);

  const bool balanced = capacity_rps > 0.0;
  if (!balanced) {
    // Brown-out: nothing can serve.
    r.dropped_rate_per_s = load.arrival_rate_per_s;
    r.mean_response_s = config_.sla.overload_response_s;
    r.p99_response_s = config_.sla.overload_response_s;
    r.sla_violated = load.arrival_rate_per_s > 0.0;
  } else {
    double rho = load.arrival_rate_per_s / capacity_rps;
    if (rho > config_.max_utilization) {
      r.dropped_rate_per_s =
          load.arrival_rate_per_s - config_.max_utilization * capacity_rps;
      rho = config_.max_utilization;
      r.mean_response_s = config_.sla.overload_response_s;
      r.p99_response_s = config_.sla.overload_response_s;
      r.sla_violated = true;
    } else {
      // Balanced processor-sharing servers: each sees utilization rho and a
      // mean service time of demand / its capacity fraction. With uniform
      // settings the per-server service time is demand * serving / total
      // capacity-fraction; evaluate against the cluster-average server.
      const double total_capacity_fraction = capacity_rps * load.service_demand_s;
      const double mean_capacity_fraction =
          total_capacity_fraction / static_cast<double>(r.serving);
      const double service_s = load.service_demand_s / mean_capacity_fraction;
      r.mean_response_s = mg1ps_response_time_s(service_s, rho);
      r.p99_response_s = response_quantile_s(r.mean_response_s, 0.99);
      r.sla_violated = r.mean_response_s > config_.sla.target_mean_response_s;
    }
    // rho lies in [0, 1) here, as Server::set_utilization requires: the
    // overload branch clips it, and mg1ps_response_time_s rejects the rest.
    r.utilization = rho;
  }

  // Pass 2: every serving server runs at the balanced utilization, and adds
  // its power term.
  for (auto& s : servers_) {
    if (balanced && s.serving()) s.utilization_ = r.utilization;
    r.server_power_w += s.power_w();
  }
  r.energy_j = r.server_power_w * epoch_s;

  now_s_ += epoch_s;
  total_energy_j_ += r.energy_j;
  ++epochs_run_;
  if (r.sla_violated) ++sla_violations_;
  total_dropped_ += r.dropped_rate_per_s * epoch_s;
  return r;
}

}  // namespace epm::cluster
