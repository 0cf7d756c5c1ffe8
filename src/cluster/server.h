// A managed server with the power-state machine the paper's On/Off
// scheduling acts on (§4.3): Off <-> Booting -> Active <-> Sleeping/Waking.
//
// Transitions have latencies and energy costs ("it takes time to wake up a
// slept component (or server), and sometime, this wakeup process may consume
// more energy and offset the benefit of sleeping"). Time advances through
// tick(dt); the cluster drives DVFS settings and utilization.
//
// The accessors a cluster epoch calls for every server (capacity, power,
// tick) are inline. Every public call checks its arguments; the owning
// ServiceCluster, which checks an epoch's inputs once, drives its servers
// through private unchecked steps instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>

#include "core/require.h"
#include "power/server_power.h"

namespace epm::cluster {

enum class ServerState { kOff, kBooting, kActive, kSleeping, kWaking };

std::string to_string(ServerState state);

class Server {
 public:
  /// `model` must outlive the server (shared hardware class).
  Server(std::size_t id, const power::ServerPowerModel& model,
         ServerState initial = ServerState::kOff);

  std::size_t id() const { return id_; }
  ServerState state() const { return state_; }
  const power::ServerPowerModel& model() const { return *model_; }
  bool serving() const { return state_ == ServerState::kActive; }

  /// Commands. Invalid commands for the current state are ignored (the
  /// managers issue them idempotently); each returns whether it took effect.
  bool power_on();   ///< Off -> Booting (full boot)
  bool power_off();  ///< Active/Sleeping/Waking/Booting -> Off (immediate)
  bool sleep();      ///< Active -> Sleeping
  bool wake();       ///< Sleeping -> Waking (short resume)

  /// DVFS / throttle setting used while Active.
  void set_pstate(std::size_t pstate);
  std::size_t pstate() const { return pstate_; }
  void set_duty(double duty);
  double duty() const { return duty_; }

  /// Utilization of the *throttled* capacity while Active, set by the
  /// cluster's load balancer each epoch.
  void set_utilization(double u) {
    require(u >= 0.0 && u <= 1.0, "Server: utilization outside [0,1]");
    utilization_ = u;
  }
  double utilization() const { return utilization_; }

  /// Serving capacity in CPU-seconds of reference-frequency work per second
  /// (i.e. the fraction of a full-speed core-set this server offers now).
  double capacity_fraction() const {
    if (state_ != ServerState::kActive) return 0.0;
    return model_->relative_capacity_at(pstate_, duty_);
  }

  /// Electrical draw in the current state.
  double power_w() const {
    const auto& cfg = model_->config();
    switch (state_) {
      case ServerState::kOff:
        return cfg.off_power_w;
      case ServerState::kBooting:
      case ServerState::kWaking:
        return cfg.boot_power_w;
      case ServerState::kSleeping:
        return cfg.sleep_power_w;
      case ServerState::kActive:
        return model_->active_power_at(pstate_, utilization_, duty_);
    }
    return 0.0;
  }

  /// Advances internal transition timers; completes Booting -> Active and
  /// Waking -> Active when their latency elapses.
  void tick(double dt_s) {
    require(dt_s >= 0.0, "Server: negative dt");
    advance(dt_s);
  }

  /// Cumulative energy spent on boots/wakes (for the "is sleeping worth it"
  /// accounting in EXP-D).
  double transition_energy_j() const { return transition_energy_j_; }
  std::size_t boot_count() const { return boot_count_; }

 private:
  friend class ServiceCluster;

  /// tick() for a non-negative `dt_s`; returns whether a boot or wake
  /// completed, so the cluster can move the server between its state counts.
  bool advance(double dt_s) {
    if (state_ != ServerState::kBooting && state_ != ServerState::kWaking) {
      return false;
    }
    const double spent = std::min(dt_s, transition_remaining_s_);
    transition_energy_j_ += model_->config().boot_power_w * spent;
    transition_remaining_s_ -= spent;
    if (transition_remaining_s_ <= 1e-9) {
      state_ = ServerState::kActive;
      transition_remaining_s_ = 0.0;
      return true;
    }
    return false;
  }

  std::size_t id_;
  const power::ServerPowerModel* model_;
  ServerState state_;
  std::size_t pstate_ = 0;
  double duty_ = 1.0;
  double utilization_ = 0.0;
  double transition_remaining_s_ = 0.0;
  double transition_energy_j_ = 0.0;
  std::size_t boot_count_ = 0;
};

}  // namespace epm::cluster
