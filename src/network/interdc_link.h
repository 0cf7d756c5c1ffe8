// Degraded inter-datacenter links: slowdown, loss, and partition windows
// per (src, dst) direction, with deterministic redelivery.
//
// The federation's conservative lookahead (network/interdc.h) is a *lower*
// bound on message latency; this module models the upper tail — fiber cuts,
// congested or lossy WAN paths — as scripted per-link windows. Every
// adjustment is a PURE function of (send time, the link's window timeline,
// the message's per-pair index, the policy): it never looks at barrier or
// window structure, wall clock, or thread identity. That purity is what
// keeps a federated run bit-identical at any shard/thread count even while
// links are degraded — the differential conformance suite pins it.
//
// Semantics per window mode (the window covering the SEND time governs the
// whole delivery; windows on one direction must not overlap):
//   * kSlow  — propagation stretched: delivery at
//              send + (nominal - send) * slow_factor.
//   * kLossy — attempt 0 arrives at the nominal time; an attempt landing
//              inside the window is lost with probability loss_prob (a
//              deterministic per-(pair, message, attempt) draw) and
//              retransmitted after a jittered-exponential backoff. An
//              attempt landing at/after the window's end always succeeds,
//              so a (finite) lossy window delays but never loses messages.
//   * kDown  — closed window [start, end): the sender retries on the same
//              jittered-exponential schedule until the first attempt at or
//              after the heal time; delivery then happens at
//              max(nominal, that attempt). Open window [start, inf): the
//              message is NOT deliverable — the federation mailbox parks it
//              (bounded by LinkPolicy::parked_capacity) and drains the
//              queue in FIFO order once heal() closes the window.
//
// Redelivery backoff: attempt k (k >= 1) happens
//     timeout * 2^(k-1) * (1 + jitter_frac * u_k)
// after the previous one, capped at backoff_cap_s before jitter; u_k is a
// SplitMix64 counter draw keyed by (seed, src, dst, message index, k).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace epm::network {

enum class LinkMode : std::uint8_t {
  kUp = 0,
  kSlow = 1,
  kLossy = 2,
  kDown = 3,
};

struct LinkWindow {
  double start_s = 0.0;
  /// End of the window; +infinity = open-ended (kDown only), closed later
  /// via InterDcLinkPlan::heal().
  double end_s = std::numeric_limits<double>::infinity();
  LinkMode mode = LinkMode::kUp;
  double slow_factor = 1.0;  ///< kSlow: propagation multiplier, >= 1
  double loss_prob = 0.0;    ///< kLossy: per-attempt loss probability in [0,1]
};

struct LinkPolicy {
  /// Mailbox parking bound per (src, dst) pair during an open partition;
  /// exceeding it throws (bounded buffering, not silent drop).
  std::size_t parked_capacity = 65536;
  /// Exponential backoff cap (pre-jitter); at least the 0.25 s redelivery
  /// timeout.
  double backoff_cap_s = 8.0;
  /// Jitter fraction in [0, 1): each backoff stretches by up to this much.
  double jitter_frac = 0.1;
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
};

struct LinkDelivery {
  /// False only for sends inside an open-ended partition window: the
  /// message must be parked until the link heals.
  bool deliverable = true;
  double when_s = 0.0;
  /// Number of redelivery attempts a down window forced (0 when the link
  /// was up/slow/lossy-but-lucky at the send time).
  std::uint32_t redeliveries = 0;
};

/// Scripted degradation timeline for every directed link of a fleet.
class InterDcLinkPlan {
 public:
  explicit InterDcLinkPlan(std::size_t sites, LinkPolicy policy = {});

  std::size_t site_count() const { return sites_; }
  const LinkPolicy& policy() const { return policy_; }
  /// True when no window was ever scripted (the fast path: no per-message
  /// adjustment at all).
  bool pristine() const { return windows_.empty(); }

  /// Scripts a slowdown/lossy/partition window on the src->dst direction.
  /// Windows on one direction must not overlap; lossy windows must be
  /// finite (an eternal lossy link could defer a message forever).
  void slow(std::size_t src, std::size_t dst, double start_s, double end_s,
            double factor);
  void lose(std::size_t src, std::size_t dst, double start_s, double end_s,
            double loss_prob);
  /// Partition src->dst from `start_s`; omit `end_s` (infinity) for an
  /// open-ended cut to be healed at runtime.
  void partition(std::size_t src, std::size_t dst, double start_s,
                 double end_s = std::numeric_limits<double>::infinity());
  /// Closes the open partition window on src->dst at `end_s`. Call only
  /// between federation runs, with `end_s` at or beyond the committed
  /// horizon — redelivery then lands strictly after everything already
  /// executed.
  void heal(std::size_t src, std::size_t dst, double end_s);

  /// True when an open-ended partition window covers time `t`.
  bool partitioned_at(std::size_t src, std::size_t dst, double t) const;

  /// The delivery adjustment for the `msg_index`-th message ever sent on
  /// src->dst: sent at `send_s`, nominally arriving at `nominal_when_s`.
  /// Pure; the result never precedes `nominal_when_s`.
  LinkDelivery adjust(std::size_t src, std::size_t dst, double send_s,
                      double nominal_when_s, std::uint64_t msg_index) const;

 private:
  struct PairWindows {
    std::size_t src;
    std::size_t dst;
    std::vector<LinkWindow> windows;  ///< sorted by start, non-overlapping
  };

  std::vector<LinkWindow>& pair(std::size_t src, std::size_t dst);
  const std::vector<LinkWindow>* find_pair(std::size_t src,
                                           std::size_t dst) const;
  void insert_window(std::size_t src, std::size_t dst, LinkWindow w);
  void check_pair(std::size_t src, std::size_t dst) const;
  /// Jitter draw u_k in [0, 1) for attempt k of a message.
  double jitter_u(std::size_t src, std::size_t dst, std::uint64_t msg_index,
                  std::uint32_t attempt) const;

  std::size_t sites_;
  LinkPolicy policy_;
  std::vector<PairWindows> windows_;
};

}  // namespace epm::network
