// Actuator-side fencing and the dead-man's switch.
//
// The control plane's safety argument has two independent halves, and this
// file is the actuator half — the one that must hold even when every
// controller is wrong:
//
//   * FencingLedger — every actuation carries the issuing leader's lease
//     token and the command's immutable uid. The ledger accepts a command
//     only if its token is >= the highest token it has ever witnessed
//     (tokens only ratchet up — monotone fencing), and only if the uid has
//     never been applied before (idempotent replay). A deposed leader's
//     token is by construction below the new leader's, so a split-brain
//     survivor can be ignored forever without knowing *why* it is stale.
//     With enforcement disabled (the naive arm) the ledger still watches and
//     counts the double-actuations that would have happened.
//
//   * DeadMansSwitch — liveness watchdog for the control plane itself. The
//     leader's heartbeats feed it; if no (non-stale) heartbeat lands within
//     the TTL the switch trips, and the actuator endpoint autonomously
//     reverts to safe defaults: power caps released, CRAC to the safe
//     setpoint, all servers on, consolidation paused. A fleet whose
//     controllers are all dead degrades to an uncontrolled-but-safe plant
//     instead of freezing in whatever dangerous half-transition the last
//     leader left it in.
//
// Both are plain data with explicit time arguments and serialize through
// sim/snapshot.h.
#pragma once

#include <cstdint>
#include <set>

#include "sim/snapshot.h"

namespace epm::sensing {

enum class FencingVerdict : std::uint8_t {
  kApplied = 0,   ///< fresh token, fresh uid — execute the command
  kStaleToken,    ///< deposed leader (token below the watermark) — rejected
  kDuplicate,     ///< uid already applied (journal replay) — suppressed
};

class FencingLedger {
 public:
  /// `enforce` = false audits without rejecting (the naive arm): every
  /// command is applied, and what *would* have been stopped is counted as
  /// double_actuations / stale_applied.
  explicit FencingLedger(bool enforce = true) : enforce_(enforce) {}

  /// Admits or rejects one actuation. Monotone: the token watermark only
  /// ever rises.
  FencingVerdict admit(std::uint64_t token, std::uint64_t uid);

  bool enforced() const { return enforce_; }
  std::uint64_t max_token() const { return max_token_; }
  std::uint64_t applied() const { return applied_; }
  std::uint64_t rejected_stale() const { return rejected_stale_; }
  std::uint64_t suppressed_duplicates() const { return suppressed_duplicates_; }
  /// Commands executed twice for the same uid — MUST stay 0 when enforcing;
  /// nonzero only when an unenforced ledger let a replay through.
  std::uint64_t double_actuations() const { return double_actuations_; }
  /// Stale-token commands executed because enforcement was off.
  std::uint64_t stale_applied() const { return stale_applied_; }

  void save(sim::SnapshotWriter& w) const;
  void restore(sim::SnapshotReader& r);

 private:
  /// The "fenc" snapshot section; `uids` carries the applied uid set.
  template <typename Self, typename Io>
  static void fields(Self& self, Io& io, sim::TagPayload& uids);

  bool enforce_;
  std::uint64_t max_token_ = 0;
  /// Ordered so serialization is canonical.
  std::set<std::uint64_t> applied_uids_;
  std::uint64_t applied_ = 0;
  std::uint64_t rejected_stale_ = 0;
  std::uint64_t suppressed_duplicates_ = 0;
  std::uint64_t double_actuations_ = 0;
  std::uint64_t stale_applied_ = 0;
};

class DeadMansSwitch {
 public:
  /// `ttl_s` <= 0 disables the switch (the naive arm).
  explicit DeadMansSwitch(double ttl_s) : ttl_s_(ttl_s) {}

  /// A live (non-stale) leader heartbeat landed; re-arms the switch.
  void feed(double now_s) {
    last_feed_s_ = now_s;
    tripped_ = false;
  }

  /// Polls the watchdog. Returns true exactly once per starvation episode —
  /// the edge on which the endpoint applies its safe state; re-feeding
  /// re-arms it.
  bool expired(double now_s);

  bool enabled() const { return ttl_s_ > 0.0; }
  bool tripped() const { return tripped_; }
  double last_feed_s() const { return last_feed_s_; }
  std::uint64_t trips() const { return trips_; }

  void save(sim::SnapshotWriter& w) const;
  void restore(sim::SnapshotReader& r);

 private:
  /// The "dman" snapshot section.
  template <typename Self, typename Io>
  static void fields(Self& self, Io& io);

  double ttl_s_;
  double last_feed_s_ = 0.0;
  bool tripped_ = false;
  std::uint64_t trips_ = 0;
};

}  // namespace epm::sensing
