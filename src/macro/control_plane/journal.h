// Replicated command journal with idempotent replay.
//
// Every actuation the leader issues is journaled first and replicated to all
// replicas as a tagged message. A command's identity is its uid —
// (origin_token << 20) | origin_seq — minted once when the command is first
// created and carried unchanged through replication AND replay. When a new
// leader takes over it replays the whole journal under its own (higher)
// fencing token but with the original uids, so:
//
//   * actuators that already applied a command suppress the replay by uid
//     (idempotence — at-least-once delivery can never double-actuate);
//   * actuators that never saw it (message lost with the dead leader) apply
//     it now — in-flight transitions resume instead of being abandoned.
//
// Commands are absolute setpoints (a cap fraction, a CRAC setpoint, a server
// count), never deltas, so replaying them in seq order is last-writer-wins
// convergent regardless of how many leaders raced.
//
// The journal itself fences: a record whose token is below the highest token
// this replica has witnessed comes from a deposed leader and is rejected —
// the second of the two independent rejection layers the property suite
// pins (the actuator-side FencingLedger is the first).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sim/snapshot.h"

namespace epm::macro {

/// Fleet-level control operations (the macro layer's dangerous knobs).
enum class ControlOp : std::uint8_t {
  kPowerCap = 0,        ///< value = cap fraction in (0, 1]
  kCracSetpoint,        ///< value = CRAC supply setpoint, deg C
  kFleetActive,         ///< value = powered-on server count
  kPauseConsolidation,  ///< value = 1 pause / 0 resume
};

inline constexpr std::uint32_t kAdHocStep = 0xffffffffU;
/// seq values must fit below the uid's token shift.
inline constexpr std::uint64_t kJournalSeqBits = 20;

struct ControlCommand {
  std::uint64_t uid = 0;    ///< (origin_token << kJournalSeqBits) | origin seq
  std::uint64_t seq = 0;    ///< journal slot (replay order)
  std::uint64_t token = 0;  ///< fencing token it is currently sent under
  ControlOp op = ControlOp::kPowerCap;
  std::uint32_t dc = 0;     ///< target datacenter
  double value = 0.0;
  /// Transition-program step index this command realizes (kAdHocStep for
  /// one-off commands); lets a new leader see which steps are already done.
  std::uint32_t program_step = kAdHocStep;
};

/// Wire format: 7 u64s, for tagged federation messages.
sim::TagPayload encode_command(const ControlCommand& cmd);
ControlCommand decode_command(const sim::TagPayload& payload);

class CommandJournal {
 public:
  /// Mints and stores a brand-new command under `token`; the uid binds the
  /// origin token and this journal's next seq. Returns the stored record.
  ControlCommand append_new(std::uint64_t token, ControlOp op, std::uint32_t dc,
                            double value, std::uint32_t program_step);

  /// Merges a replicated record. Duplicate uids are ignored (idempotent);
  /// records whose token is below `fence_token` are rejected as deposed.
  /// Returns true only when the record was actually added.
  bool merge(const ControlCommand& cmd, std::uint64_t fence_token);

  bool contains(std::uint64_t uid) const { return by_uid_.count(uid) != 0; }
  bool has_program_step(std::uint32_t step) const;
  /// Highest token across all records — the durable fencing floor a crashed
  /// replica restarts from.
  std::uint64_t max_token() const { return max_token_; }
  std::size_t size() const { return entries_.size(); }
  std::uint64_t rejected_stale() const { return rejected_stale_; }
  std::uint64_t duplicates() const { return duplicates_; }

  /// Records in (seq, uid) order — the replay order.
  std::vector<ControlCommand> replay_order() const;

  void save(sim::SnapshotWriter& w) const;
  void restore(sim::SnapshotReader& r);

 private:
  /// The "jurn" snapshot section; `records` carries the entries, encoded.
  template <typename Self, typename Io>
  static void fields(Self& self, Io& io, std::vector<sim::TagPayload>& records);

  /// Keyed by (seq, uid): replay order with a total tie-break, so two
  /// leaders racing the same slot replay deterministically.
  std::map<std::pair<std::uint64_t, std::uint64_t>, ControlCommand> entries_;
  std::map<std::uint64_t, std::uint64_t> by_uid_;  ///< uid -> seq
  std::uint64_t next_seq_ = 0;
  std::uint64_t max_token_ = 0;
  std::uint64_t rejected_stale_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace epm::macro
