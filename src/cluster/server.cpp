#include "cluster/server.h"

namespace epm::cluster {

std::string to_string(ServerState state) {
  switch (state) {
    case ServerState::kOff:
      return "off";
    case ServerState::kBooting:
      return "booting";
    case ServerState::kActive:
      return "active";
    case ServerState::kSleeping:
      return "sleeping";
    case ServerState::kWaking:
      return "waking";
  }
  return "?";
}

Server::Server(std::size_t id, const power::ServerPowerModel& model, ServerState initial)
    : id_(id), model_(&model), state_(initial) {
  require(initial == ServerState::kOff || initial == ServerState::kActive ||
              initial == ServerState::kSleeping,
          "Server: initial state must be off, active, or sleeping");
}

bool Server::power_on() {
  if (state_ != ServerState::kOff) return false;
  state_ = ServerState::kBooting;
  transition_remaining_s_ = model_->config().boot_time_s;
  ++boot_count_;
  return true;
}

bool Server::power_off() {
  if (state_ == ServerState::kOff) return false;
  state_ = ServerState::kOff;
  transition_remaining_s_ = 0.0;
  utilization_ = 0.0;
  return true;
}

bool Server::sleep() {
  if (state_ != ServerState::kActive) return false;
  state_ = ServerState::kSleeping;
  utilization_ = 0.0;
  return true;
}

bool Server::wake() {
  if (state_ != ServerState::kSleeping) return false;
  state_ = ServerState::kWaking;
  transition_remaining_s_ = model_->config().wake_from_sleep_s;
  return true;
}

void Server::set_pstate(std::size_t pstate) {
  require(pstate < model_->pstate_count(), "Server: P-state out of range");
  pstate_ = pstate;
}

void Server::set_duty(double duty) {
  require(duty > 0.0 && duty <= 1.0, "Server: duty outside (0,1]");
  duty_ = duty;
}

}  // namespace epm::cluster
