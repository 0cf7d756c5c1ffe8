// Deterministic lease-based leader election for the macro control plane.
//
// Every datacenter hosts one controller replica; at most one of them may act
// on the fleet at a time. Instead of a quorum protocol (whose message
// complexity would swamp the bounded-lag federation), safety comes from
// *epoch partitioning*: lease tokens are plain integers, and replica r may
// only ever claim tokens t with t % replicas == r. Two replicas can therefore
// never hold the same token, and since actuators fence on the highest token
// they have seen (sensing/fencing.h), "at most one live lease per epoch"
// holds by construction — no coordination is needed for safety, only for
// liveness.
//
// Liveness: the leader heartbeats its token every control tick. A follower
// whose last heard heartbeat is older than its TTL claims the smallest
// eligible token above everything it has seen and starts leading. TTLs are
// staggered per replica id (ttl + id * stagger) so under a clean leader
// death exactly one follower usually fires first and the rest adopt its
// higher token before their own deadlines — but nothing breaks if several
// claim concurrently: tokens stay unique, the highest one wins, and the
// fencing ledger rejects the rest.
//
// Failure model, mirroring the faults/types.h controller faults:
//   * crash   — volatile lease state is lost; on restart the replica rejoins
//               as a follower seeded from its durable journal's max token and
//               waits a full TTL before claiming.
//   * hang    — the replica freezes: it neither sends nor receives. On
//               resume it still believes whatever it believed before — a
//               deposed leader will heartbeat and act with a stale token
//               until a higher-token heartbeat deposes it. Fencing makes
//               that window harmless.
//
// Everything here is plain data driven by explicit now_s arguments, so the
// state serializes exactly through sim/snapshot.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/snapshot.h"

namespace epm::macro {

inline constexpr std::uint64_t kNoReplica = ~0ULL;

struct LeaseConfig {
  std::uint64_t replicas = 1;   ///< fleet controller count (== datacenters)
  std::uint64_t id = 0;         ///< this replica's index in [0, replicas)
  /// Base heartbeat-loss TTL; replica id's effective deadline is
  /// ttl_s + id * ttl_stagger_s (staggered failure detection).
  double ttl_s = 2.0;
  double ttl_stagger_s = 0.5;
  /// Replica that starts as leader at t = 0 (kNoReplica: cold start, the
  /// first TTL expiry elects). Its seed token is the smallest positive token
  /// congruent to it mod `replicas`.
  std::uint64_t initial_leader = 0;
};

enum class LeaseRole : std::uint8_t {
  kFollower = 0,
  kLeader,
  kCrashed,
};

/// What a tick decided; the owner turns these into federation messages.
enum class LeaseAction : std::uint8_t {
  kNone = 0,      ///< nothing to send
  kHeartbeat,     ///< leading: broadcast heartbeat(token, id)
  kClaimed,       ///< just claimed a lease: broadcast + replay the journal
};

class LeaseState {
 public:
  explicit LeaseState(const LeaseConfig& config);

  /// Advances the failure detector. Leaders ask to heartbeat; followers past
  /// their staggered TTL claim the next eligible token. Crashed or hung
  /// replicas do nothing.
  LeaseAction tick(double now_s);

  /// Delivers a peer heartbeat. A higher token is adopted (deposing this
  /// replica if it was leading); the current leader's token refreshes the
  /// TTL clock; stale tokens are counted and ignored. Crashed and hung
  /// replicas never see the message.
  void on_heartbeat(std::uint64_t token, std::uint64_t from, double now_s);

  /// Crash: volatile state is lost; the replica goes dark.
  void crash();
  /// Restart after a crash: rejoin as a follower knowing only the durable
  /// `journal_token` (the max token in the on-disk journal), with a full
  /// TTL of grace from now_s.
  void restart(double now_s, std::uint64_t journal_token);
  /// Freeze / unfreeze. A hung replica keeps its (increasingly stale) state.
  void hang() { hung_ = true; }
  void resume() { hung_ = false; }

  LeaseRole role() const { return role_; }
  bool is_leader() const { return role_ == LeaseRole::kLeader && !hung_; }
  bool hung() const { return hung_; }
  std::uint64_t token() const { return token_; }
  std::uint64_t max_token_seen() const { return max_token_; }
  std::uint64_t believed_leader() const { return leader_; }
  double last_heartbeat_s() const { return last_heartbeat_s_; }
  double effective_ttl_s() const;

  /// Every token this replica ever claimed, in claim order — the audit trail
  /// the at-most-one-lease-per-epoch property checks across replicas.
  const std::vector<std::uint64_t>& claimed_tokens() const { return claimed_; }
  std::uint64_t depositions() const { return depositions_; }
  std::uint64_t stale_heartbeats() const { return stale_heartbeats_; }
  std::uint64_t crashes() const { return crashes_; }

  void save(sim::SnapshotWriter& w) const;
  void restore(sim::SnapshotReader& r);

 private:
  /// The "leas" snapshot section.
  template <typename Self, typename Io>
  static void fields(Self& self, Io& io);

  std::uint64_t next_eligible_token(std::uint64_t above) const;
  std::uint64_t next_eligible_token_seed() const;

  LeaseConfig config_;
  LeaseRole role_ = LeaseRole::kFollower;
  bool hung_ = false;
  std::uint64_t token_ = 0;      ///< this replica's token while leading
  std::uint64_t max_token_ = 0;  ///< highest token ever seen
  std::uint64_t leader_ = kNoReplica;
  double last_heartbeat_s_ = 0.0;
  std::vector<std::uint64_t> claimed_;
  std::uint64_t depositions_ = 0;
  std::uint64_t stale_heartbeats_ = 0;
  std::uint64_t crashes_ = 0;
};

}  // namespace epm::macro
