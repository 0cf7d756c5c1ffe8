#include "sensing/actuator_plane.h"

#include <algorithm>
#include <stdexcept>

#include "core/rng.h"

namespace epm::sensing {
namespace {

/// Uniform [0, 1) draw that is a pure function of (seed, id, attempt, salt):
/// attempt outcomes and jitter never depend on how many other commands ran.
double hashed_uniform(std::uint64_t seed, std::uint64_t id,
                      std::uint64_t attempt, std::uint64_t salt) {
  SplitMix64 mixer(seed ^ (id * 0x9e3779b97f4a7c15ULL) ^
                   (attempt * 0xbf58476d1ce4e5b9ULL) ^ salt);
  return static_cast<double>(mixer.next() >> 11) * 0x1.0p-53;
}

}  // namespace

std::string to_string(CommandKind kind) {
  switch (kind) {
    case CommandKind::kFleetSize:
      return "fleet-size";
    case CommandKind::kPstate:
      return "pstate";
    case CommandKind::kCracSupply:
      return "crac-supply";
    case CommandKind::kCracReturnSetpoint:
      return "crac-setpoint";
    case CommandKind::kPowerCap:
      return "power-cap";
    case CommandKind::kZoneShare:
      return "zone-share";
    case CommandKind::kConsolidation:
      return "consolidation";
  }
  return "unknown";
}

ActuatorPlane::ActuatorPlane(const ActuatorPlaneConfig& config)
    : config_(config) {
  if (config_.max_attempts == 0) {
    throw std::invalid_argument("ActuatorPlane: max_attempts must be >= 1");
  }
  if (!(config_.retry_backoff_s > 0.0) || !(config_.backoff_multiplier >= 1.0)) {
    throw std::invalid_argument("ActuatorPlane: invalid backoff parameters");
  }
}

std::size_t actuation_domain(CommandKind kind) {
  switch (kind) {
    case CommandKind::kFleetSize:
    case CommandKind::kPstate:
    case CommandKind::kPowerCap:
    case CommandKind::kConsolidation:
      return 0;  // compute-management network
    case CommandKind::kCracSupply:
    case CommandKind::kCracReturnSetpoint:
    case CommandKind::kZoneShare:
      return 1;  // cooling/BMS network
  }
  return 0;
}

double ActuatorPlane::failure_probability(CommandKind kind) const {
  double total = 0.0;
  for (double severity : fail_severity_[actuation_domain(kind)]) {
    total += severity;
  }
  return std::clamp(total, 0.0, 1.0);
}

void ActuatorPlane::schedule_retry(PendingCommand& pending, double now_s) {
  double backoff = config_.retry_backoff_s;
  for (std::size_t a = 1; a < pending.attempts; ++a) {
    backoff *= config_.backoff_multiplier;
  }
  backoff = std::min(backoff, config_.max_backoff_s);
  // Deterministic jitter in [0.75, 1.25) de-synchronizes retries without
  // breaking bit-reproducibility.
  const double jitter =
      0.75 + 0.5 * hashed_uniform(config_.seed, pending.id, pending.attempts,
                                  0x6a77ULL);
  pending.next_attempt_s = now_s + backoff * jitter;
  ++retries_;
  if (logger_) {
    logger_(now_s, "retry " + to_string(pending.command.kind) + ":" +
                       std::to_string(pending.command.target) + " attempt " +
                       std::to_string(pending.attempts) + " backoff " +
                       std::to_string(backoff * jitter) + "s");
  }
}

bool ActuatorPlane::attempt(PendingCommand& pending, double now_s) {
  ++pending.attempts;
  const double p = failure_probability(pending.command.kind);
  const bool fault_failed =
      p > 0.0 &&
      hashed_uniform(config_.seed, pending.id, pending.attempts, 0xfa11ULL) < p;
  bool applied = false;
  if (!fault_failed) {
    applied = applier_ ? applier_(pending.command) : true;
  }
  if (applied) {
    ++acked_;
    return true;
  }
  if (pending.attempts >= config_.max_attempts) {
    ++failed_;
    if (logger_) {
      logger_(now_s, "failed " + to_string(pending.command.kind) + ":" +
                         std::to_string(pending.command.target) + " after " +
                         std::to_string(pending.attempts) + " attempts");
    }
    return true;  // leaves the queue, as failed
  }
  schedule_retry(pending, now_s);
  return false;
}

std::uint64_t ActuatorPlane::issue(const ActuatorCommand& command,
                                   double now_s) {
  // A fresh command for the same actuator supersedes any pending retry so a
  // stale value can never be applied over a newer one.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->command.kind == command.kind &&
        it->command.target == command.target) {
      ++superseded_;
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }

  PendingCommand pending;
  pending.command = command;
  pending.id = next_id_++;
  pending.issued_s = now_s;
  ++issued_;
  if (!attempt(pending, now_s)) {
    pending_.push_back(pending);
  }
  return pending.id;
}

std::uint64_t ActuatorPlane::issue_fenced(const ActuatorCommand& command,
                                          double now_s, std::uint64_t token,
                                          std::uint64_t uid) {
  if (fencing_ != nullptr) {
    const FencingVerdict verdict = fencing_->admit(token, uid);
    if (verdict != FencingVerdict::kApplied) {
      ++fencing_rejections_;
      if (logger_) {
        logger_(now_s,
                std::string(verdict == FencingVerdict::kStaleToken
                                ? "fenced stale "
                                : "fenced duplicate ") +
                    to_string(command.kind) + ":" +
                    std::to_string(command.target) + " token " +
                    std::to_string(token) + " uid " + std::to_string(uid));
      }
      return 0;
    }
  }
  return issue(command, now_s);
}

void ActuatorPlane::tick(double now_s) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now_s - it->issued_s >= config_.command_timeout_s) {
      ++failed_;
      if (logger_) {
        logger_(now_s, "timeout " + to_string(it->command.kind) + ":" +
                           std::to_string(it->command.target) + " after " +
                           std::to_string(it->attempts) + " attempts");
      }
      it = pending_.erase(it);
      continue;
    }
    if (now_s >= it->next_attempt_s && attempt(*it, now_s)) {
      it = pending_.erase(it);
      continue;
    }
    ++it;
  }
}

bool ActuatorPlane::on_fault(const faults::FaultEvent& event, bool onset,
                             double /*now_s*/) {
  if (event.type != faults::FaultType::kActuatorFail) {
    return false;
  }
  auto& domain = fail_severity_[event.target % kActuationDomains];
  if (onset) {
    domain.push_back(event.severity);
  } else {
    for (auto it = domain.begin(); it != domain.end(); ++it) {
      if (*it == event.severity) {
        domain.erase(it);
        break;
      }
    }
  }
  return true;
}

namespace {
constexpr std::uint32_t kActuatorMagic = 0x74756361;  // "acut"
constexpr std::uint32_t kActuatorVersion = 1;
/// Bytes of one serialized pending command with an empty `values` vector.
constexpr std::size_t kPendingCommandBytes = 4 + 7 * 8;
}  // namespace

template <typename Self, typename Io>
void ActuatorPlane::fields(Self& self, Io& io) {
  io.section(kActuatorMagic, kActuatorVersion);
  io.field(self.next_id_);
  io.field(self.issued_);
  io.field(self.acked_);
  io.field(self.failed_);
  io.field(self.retries_);
  io.field(self.superseded_);
  io.field(self.fencing_rejections_);
  for (auto& domain : self.fail_severity_) io.field(domain);
  io.size(self.pending_, kPendingCommandBytes);
  for (auto& p : self.pending_) {
    io.field(p.command.kind);
    io.field(p.command.target);
    io.field(p.command.value);
    io.field(p.command.values);
    io.field(p.id);
    io.field(p.issued_s);
    io.field(p.next_attempt_s);
    io.field(p.attempts);
  }
}

void ActuatorPlane::save(sim::SnapshotWriter& w) const { fields(*this, w); }

void ActuatorPlane::restore(sim::SnapshotReader& r) { fields(*this, r); }

}  // namespace epm::sensing
