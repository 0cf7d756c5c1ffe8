// ActuatorPlane: every control command is a fallible, retryable operation.
//
// Real actuators — server on/off, P-state changes, CRAC setpoints, power
// caps — do not apply instantly or reliably (§5.3). The ActuatorPlane sits
// between a controller and the facility: commands are issued with a
// lifecycle (pending -> acked | failed), fail with the probability given by
// active kActuatorFail fault severities, and retry with bounded exponential
// backoff under deterministic SplitMix64 jitter. A newer command for the
// same (kind, target) supersedes any pending older one, so retries never
// apply stale values over fresh ones.
//
// Determinism: the failure draw and the backoff jitter for (command id,
// attempt) are pure functions of the plane seed, so outcomes are
// bit-identical regardless of sweep threading. With no active kActuatorFail
// fault and an infallible applier, issue() applies synchronously and the
// plane is exact — the default path costs nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "faults/types.h"
#include "sensing/fencing.h"
#include "sim/snapshot.h"

namespace epm::sensing {

enum class CommandKind : std::uint32_t {
  kFleetSize = 0,       ///< value = committed server count for service target
  kPstate,              ///< value = uniform P-state for service target
  kCracSupply,          ///< value = supply temperature for CRAC target
  kCracReturnSetpoint,  ///< value = return setpoint for CRAC target
  kPowerCap,            ///< value = capping P-state for service target
  kZoneShare,           ///< values = zone share vector for service target
  kConsolidation,       ///< value = 1 pause / 0 resume consolidation moves
};

std::string to_string(CommandKind kind);

/// Actuation fault domains: commands travel one of two control networks, and
/// a kActuatorFail event's target picks which one it takes down (target % 2).
/// Domain 0 is the compute-management plane (fleet size, P-states, power
/// caps); domain 1 is the cooling/BMS plane (CRAC supply and setpoints, zone
/// shares). A cooling-network fault therefore leaves fleet growth intact
/// while CRAC commands silently fail — the dangerous combination.
inline constexpr std::size_t kActuationDomains = 2;
std::size_t actuation_domain(CommandKind kind);

struct ActuatorCommand {
  CommandKind kind = CommandKind::kFleetSize;
  std::size_t target = 0;
  double value = 0.0;
  std::vector<double> values;  ///< used by kZoneShare
};

struct ActuatorPlaneConfig {
  std::uint64_t seed = 0xac7;
  /// Attempts per command (1 = naive fire-and-forget, no retry).
  std::size_t max_attempts = 1;
  double retry_backoff_s = 60.0;   ///< first retry delay
  double backoff_multiplier = 2.0;
  double max_backoff_s = 600.0;
  /// A command still pending this long after issue is abandoned as failed.
  double command_timeout_s = 1800.0;
};

class ActuatorPlane {
 public:
  /// Applier executes a command against the plant; returns false when the
  /// plant itself rejects it. Logger receives one line per retry/failure;
  /// the plane builds a line only while a logger is attached.
  using Applier = std::function<bool(const ActuatorCommand& command)>;
  using Logger = std::function<void(double now_s, const std::string& text)>;

  explicit ActuatorPlane(const ActuatorPlaneConfig& config);

  void set_applier(Applier applier) { applier_ = std::move(applier); }
  void set_logger(Logger logger) { logger_ = std::move(logger); }

  /// Issues a command, attempting it immediately; supersedes any pending
  /// command with the same (kind, target). Returns the command id.
  std::uint64_t issue(const ActuatorCommand& command, double now_s);

  /// Attaches a fencing ledger (non-owning; must outlive the plane). Only
  /// the fenced issue path consults it — the default issue() and therefore
  /// every pre-control-plane caller is untouched.
  void set_fencing(FencingLedger* ledger) { fencing_ = ledger; }

  /// Control-plane issue path: admits (token, uid) through the attached
  /// ledger first. A command from a deposed leader (stale token) or a
  /// journal replay already applied (duplicate uid) never reaches the
  /// actuator; returns 0 in that case, else behaves exactly like issue().
  /// Without an attached ledger this is plain issue().
  std::uint64_t issue_fenced(const ActuatorCommand& command, double now_s,
                             std::uint64_t token, std::uint64_t uid);

  /// Commands the fencing ledger refused (stale token + duplicate uid).
  std::uint64_t fencing_rejections() const { return fencing_rejections_; }

  /// Retries pending commands whose backoff has elapsed; abandons commands
  /// past their timeout. Call once per control epoch.
  void tick(double now_s);

  /// FaultInjector subscriber: tracks kActuatorFail onset/clear edges; the
  /// event's target % kActuationDomains picks the affected control network.
  bool on_fault(const faults::FaultEvent& event, bool onset, double now_s);

  /// Probability an attempt on `kind`'s control network fails right now
  /// (sum of the domain's active severities, clamped to [0, 1]).
  double failure_probability(CommandKind kind) const;

  std::size_t pending_count() const { return pending_.size(); }
  std::uint64_t issued() const { return issued_; }
  std::uint64_t acked() const { return acked_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t superseded() const { return superseded_; }
  const ActuatorPlaneConfig& config() const { return config_; }

  /// Serializes pending commands, active fault severities, and counters (the
  /// attached fencing ledger serializes itself separately — it is shared
  /// state, not plane state).
  void save(sim::SnapshotWriter& w) const;
  void restore(sim::SnapshotReader& r);

 private:
  struct PendingCommand {
    ActuatorCommand command;
    std::uint64_t id = 0;
    double issued_s = 0.0;
    double next_attempt_s = 0.0;
    std::size_t attempts = 0;
  };

  /// The "acut" snapshot section.
  template <typename Self, typename Io>
  static void fields(Self& self, Io& io);

  /// One attempt; returns true when acked (command leaves the queue).
  bool attempt(PendingCommand& pending, double now_s);
  void schedule_retry(PendingCommand& pending, double now_s);

  ActuatorPlaneConfig config_;
  Applier applier_;
  Logger logger_;
  FencingLedger* fencing_ = nullptr;  ///< non-owning; nullptr = unfenced
  std::vector<PendingCommand> pending_;
  /// Active kActuatorFail severities per actuation domain (kept individually
  /// so overlapping faults clear without floating-point residue).
  std::vector<double> fail_severity_[kActuationDomains];
  std::uint64_t next_id_ = 1;
  std::uint64_t issued_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t superseded_ = 0;
  std::uint64_t fencing_rejections_ = 0;
};

}  // namespace epm::sensing
