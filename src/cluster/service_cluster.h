// The epoch-driven service cluster: the substrate the DVFS governors, On/Off
// provisioners, and the macro-resource manager all act on.
//
// Each control epoch the cluster receives an offered load (arrival rate +
// per-request CPU demand), balances it across serving servers in proportion
// to their throttled capacity, evaluates response time with the queueing
// approximations, and accounts power/energy including boot transients.
//
// An epoch makes two passes over the servers: one ticks each server and
// adds its capacity term, the other sets its utilization and adds its power
// term. Only the cluster changes a server's state (the tick pass,
// set_target_committed, set_unavailable), and it moves the server between
// per-state counts as it does, so the count queries are O(1).
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "cluster/server.h"
#include "power/server_power.h"
#include "workload/request_model.h"

namespace epm::cluster {

/// Response time charged to requests during overload / brown-out epochs.
inline constexpr double kOverloadResponseS = 5.0;
/// Per-server utilization is clipped here; arrivals beyond it are shed
/// ("performances can degrade gracefully when reaching resource limits").
inline constexpr double kMaxUtilization = 0.98;

struct SlaConfig {
  /// Mean-response-time objective ("users expect sub-second response").
  double target_mean_response_s = 0.5;
};

struct ServiceClusterConfig {
  std::size_t server_count = 100;
  std::size_t initially_active = 100;
  power::ServerPowerConfig server;
  SlaConfig sla;
};

/// Everything a policy can observe about one epoch.
struct EpochResult {
  double time_s = 0.0;
  double epoch_s = 0.0;
  double arrival_rate_per_s = 0.0;
  double service_demand_s = 0.0;
  std::size_t serving = 0;
  std::size_t booting = 0;
  std::size_t sleeping = 0;
  std::size_t off = 0;
  double utilization = 0.0;        ///< per-server rho after balancing
  double mean_response_s = 0.0;
  double p99_response_s = 0.0;
  double dropped_rate_per_s = 0.0;
  bool sla_violated = false;
  double server_power_w = 0.0;     ///< cluster draw during this epoch
  double energy_j = 0.0;           ///< server_power_w * epoch_s
};

class ServiceCluster {
 public:
  explicit ServiceCluster(ServiceClusterConfig config);

  std::size_t server_count() const { return servers_.size(); }
  const Server& server(std::size_t i) const;
  const power::ServerPowerModel& power_model() const { return model_; }
  const ServiceClusterConfig& config() const { return config_; }

  std::size_t count_in_state(ServerState state) const {
    return counts_[static_cast<std::size_t>(state)];
  }
  /// Servers that can serve now (Active).
  std::size_t serving_count() const { return count_in_state(ServerState::kActive); }
  /// Servers that will be serving once transitions finish (Active + Booting
  /// + Waking) — what provisioning policies should compare targets against.
  std::size_t committed_count() const {
    return count_in_state(ServerState::kActive) +
           count_in_state(ServerState::kBooting) +
           count_in_state(ServerState::kWaking);
  }

  /// Brings the committed server count to `target`: powers on (or wakes)
  /// servers when short, sleeps (or powers off) excess Active servers when
  /// long. Returns the number of state commands issued. The target is
  /// clamped to available_count(); unavailable (crashed) servers are never
  /// commanded.
  std::size_t set_target_committed(std::size_t target, bool use_sleep);

  /// Fault hook: marks the tail `n` servers unavailable (crashed / behind a
  /// tripped PSU). Newly unavailable servers are forced Off immediately;
  /// when the fault clears (smaller `n`) the recovered servers stay Off
  /// until provisioning reboots them through set_target_committed.
  void set_unavailable(std::size_t n);
  std::size_t unavailable_count() const { return unavailable_; }
  /// Servers provisioning may command (server_count - unavailable_count).
  std::size_t available_count() const { return servers_.size() - unavailable_; }

  /// Applies a P-state / duty to every server (uniform DVFS policy). Each
  /// is checked once, as Server::set_pstate / set_duty would check it.
  void set_uniform_pstate(std::size_t pstate);
  void set_uniform_duty(double duty);

  /// Advances one epoch under `load`. Transition timers tick first, so
  /// servers finishing a boot within the epoch serve for (part of) it.
  EpochResult run_epoch(double epoch_s, const workload::OfferedLoad& load);

  /// Totals since construction.
  double total_energy_j() const { return total_energy_j_; }
  std::size_t epochs_run() const { return epochs_run_; }
  std::size_t sla_violation_epochs() const { return sla_violations_; }
  double total_dropped_requests() const { return total_dropped_; }

 private:
  /// Runs a state command on server `s`; when it takes effect, moves the
  /// server from its old state's count to its new one.
  bool command(Server& s, bool (Server::*cmd)());

  ServiceClusterConfig config_;
  power::ServerPowerModel model_;
  std::vector<Server> servers_;
  /// Servers per state, indexed by ServerState.
  std::array<std::size_t, 5> counts_{};
  std::size_t unavailable_ = 0;  ///< tail servers held Off by a fault
  double now_s_ = 0.0;
  double total_energy_j_ = 0.0;
  std::size_t epochs_run_ = 0;
  std::size_t sla_violations_ = 0;
  double total_dropped_ = 0.0;
};

}  // namespace epm::cluster
