// One survivable macro-controller replica.
//
// A ControllerReplica combines the lease failure detector (lease.h), the
// replicated command journal (journal.h), and the fleet's transition
// program — the declarative list of (time, dc, op, value) steps the control
// plane must walk the fleet through (eco-mode entry, eco-mode exit, cap
// moves). The replica is a pure state machine: tick()/on_heartbeat()/
// on_journal_record() consume explicit times and messages and return the
// messages to send, so the same code runs identically under any federation
// sharding and serializes exactly through sim/snapshot.h.
//
// Only the current leader issues program steps, at most
// `max_steps_per_tick` per control epoch (real transitions are staged, and
// staging is what makes mid-transition leader death interesting). Every
// issued command is journaled locally, sent to the target datacenter's
// actuator, and replicated to every peer. On taking over a lease the new
// leader replays the entire journal under its own token with the original
// uids — completing whatever transition was in flight — and then resumes
// issuing the steps the dead leader never reached.
#pragma once

#include <cstdint>
#include <vector>

#include "macro/control_plane/journal.h"
#include "macro/control_plane/lease.h"

namespace epm::macro {

struct ProgramStep {
  double at_s = 0.0;  ///< earliest time the leader may issue this step
  std::uint32_t dc = 0;
  ControlOp op = ControlOp::kPowerCap;
  double value = 0.0;
};

enum class OutboundKind : std::uint8_t {
  kHeartbeat = 0,  ///< lease heartbeat, to every datacenter
  kCommand,        ///< actuation, to the target datacenter's actuator
  kJournalRecord,  ///< journal replication, to every peer replica
};

struct Outbound {
  OutboundKind kind = OutboundKind::kHeartbeat;
  std::uint64_t dst = 0;  ///< destination datacenter
  ControlCommand cmd;     ///< kCommand / kJournalRecord payload
  std::uint64_t token = 0;  ///< kHeartbeat: the lease token
  std::uint64_t from = 0;   ///< kHeartbeat: sender replica id
};

struct ControllerConfig {
  LeaseConfig lease;
  std::uint64_t datacenters = 1;
  /// Staging width: program steps the leader issues per control tick.
  std::uint64_t max_steps_per_tick = 2;
};

class ControllerReplica {
 public:
  ControllerReplica(const ControllerConfig& config,
                    std::vector<ProgramStep> program);

  /// One control epoch: runs the lease detector, then (when leading)
  /// heartbeats, replays the journal on a fresh claim, and issues due
  /// program steps. Crashed or hung replicas return nothing.
  std::vector<Outbound> tick(double now_s);

  void on_heartbeat(std::uint64_t token, std::uint64_t from, double now_s);
  /// Journal replication from a peer; fenced by the highest token this
  /// replica has witnessed, so a deposed leader's records are rejected.
  void on_journal_record(const ControlCommand& cmd);

  void crash() { lease_.crash(); }
  /// Restart after a crash: the journal is durable, the lease is rebuilt
  /// from its max token.
  void restart(double now_s) { lease_.restart(now_s, journal_.max_token()); }
  void hang() { lease_.hang(); }
  void resume() { lease_.resume(); }

  const LeaseState& lease() const { return lease_; }
  const CommandJournal& journal() const { return journal_; }
  std::uint64_t commands_issued() const { return commands_issued_; }
  std::uint64_t commands_replayed() const { return commands_replayed_; }
  std::uint64_t journal_drops() const { return journal_drops_; }

  void save(sim::SnapshotWriter& w) const;
  void restore(sim::SnapshotReader& r);

 private:
  /// The "ctrl" snapshot section: counters, then the lease and the journal.
  template <typename Self, typename Io>
  static void fields(Self& self, Io& io);

  void issue_due_steps(double now_s, std::vector<Outbound>& out);

  ControllerConfig config_;
  std::vector<ProgramStep> program_;
  LeaseState lease_;
  CommandJournal journal_;
  std::uint64_t commands_issued_ = 0;
  std::uint64_t commands_replayed_ = 0;
  std::uint64_t journal_drops_ = 0;  ///< records that arrived while dark
};

}  // namespace epm::macro
