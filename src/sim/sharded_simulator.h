// Conservative parallel DES federation, sharded by datacenter/zone.
//
// The paper's elastic-power vision spans whole fleets (§3.2 geo-distributed
// coordination), but a multi-datacenter world on one event queue serializes
// everything through a single kernel. This module federates N independent
// calendar-queue kernels (one per shard — in practice one per datacenter)
// and exchanges cross-shard events (geo re-routes, replication traffic,
// grid events) through deterministic per-(src,dst) FIFO mailboxes.
//
// Synchronization protocol: **barrier-synchronized bounded-lag windows**
// (Lubachevsky-style), NOT null messages — see DESIGN.md for the rationale.
// Each round the coordinator computes the global next event time
//
//     ng = min over shards of shard.next_time()
//
// and lets every shard run all events with timestamp strictly inside the
// window [ng, ng + L), where L is the minimum cross-shard lookahead — the
// smallest inter-datacenter network latency floor. Conservative safety: an
// event at time t >= ng can only emit a cross-shard message with delivery
// time >= t + L >= ng + L, i.e. beyond the window, so no message ever
// arrives for a time range a shard has already executed. At the barrier the
// coordinator drains the mailboxes serially in (src, dst, send-order)
// order, which pins the destination kernel's sequence numbers — and
// therefore every same-timestamp tie — independently of thread count.
// Results are bit-identical at any shard/thread count by construction.
//
// Thread dispatch: with threads > 1 a window runs its shards in parallel on
// a ThreadPool only when recent windows were expensive (kPoolWindowCost);
// a cheap window runs its shards in order on the coordinator, because a
// fork-join round trip costs more than a few microseconds of events. The
// pool is built by the first window that needs it, so a barrier-bound world
// never builds one.
//
// Determinism contract (same bar as every subsystem in this repo):
//   * within a window, a shard touches only its own kernel and its own
//     outbox row — no shared mutable state, no locks, no atomics;
//   * window boundaries are a pure function of event timestamps and the
//     lookahead matrix — never of wall-clock or thread scheduling;
//   * which thread runs a window (the coordinator, or the pool) depends on
//     the wall-clock cost of recent windows, but nothing a shard computes
//     does: the inline path runs the same per-shard windows in shard order;
//   * mailbox drain order is (src shard asc, dst shard asc, append order),
//     fixed regardless of which worker ran which shard.
//
// A 1-shard federation degenerates to a plain `sim::Simulator` executing
// the identical event sequence ("degenerate federation" invariant — golden
// tests replay fig1-fig4 and the retry-storm scenario anchors through it).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "network/interdc_link.h"
#include "sim/event_fn.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"

namespace epm::sim {

struct ShardedConfig {
  /// Number of shards (federated kernels); one per datacenter/zone.
  std::size_t shards = 1;
  /// Threads that may run one window's shards: 1 = always on the calling
  /// thread (default, no pool), 0 = default_thread_count(), n > 1 = a pool
  /// of min(n, shards) runners, built by the first window costly enough to
  /// use it (see ShardedSimulator::kPoolWindowCost).
  std::size_t threads = 1;
  /// Uniform cross-shard lookahead floor (seconds), used when the full
  /// matrix below is empty. Must be > 0 when shards > 1: this is the
  /// minimum inter-datacenter network latency, and the conservative
  /// window width derives from it.
  double uniform_lookahead_s = 0.0;
  /// Optional full lookahead matrix, row-major `shards x shards`;
  /// entry [src*shards + dst] is the minimum delay of any src->dst
  /// message. Diagonal entries are ignored (loopback sends are ordinary
  /// local schedules). Every off-diagonal entry must be positive and
  /// finite.
  std::vector<double> lookahead_s;
};

/// N federated event kernels with conservative windowed synchronization.
///
/// Thread rules: between runs, any single thread may touch any shard.
/// During a run, an event callback executing on shard i may touch only
/// shard(i) (schedule/cancel on its own kernel) and may emit cross-shard
/// traffic only through send(i, dst, ...). Re-entering run_until()/run_all()
/// from an event callback throws.
class ShardedSimulator {
 public:
  /// A window goes to the pool only when the recent-window cost estimate
  /// (see run_window) is at least this; cheaper ones run on the coordinator.
  static constexpr std::chrono::microseconds kPoolWindowCost{50};

  explicit ShardedSimulator(ShardedConfig config);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;
  ~ShardedSimulator();

  std::size_t shard_count() const { return shards_.size(); }

  /// Direct access to shard i's kernel, for world construction and for
  /// shard-local scheduling from that shard's own event callbacks.
  Simulator& shard(std::size_t i);
  const Simulator& shard(std::size_t i) const;

  /// Lookahead floor for src->dst messages (+infinity for src == dst,
  /// where no conservative constraint applies).
  double lookahead_s(std::size_t src, std::size_t dst) const;
  /// Minimum off-diagonal lookahead — the conservative window width.
  /// +infinity for a single-shard federation (no windows needed).
  double min_lookahead_s() const { return min_lookahead_s_; }

  /// Global committed time: the latest run_until() horizon (or the final
  /// event time after run_all()).
  double now() const { return now_s_; }
  /// Completed execution horizon: every shard has executed every event
  /// strictly before this time. Advances at each window barrier.
  double horizon_s() const { return horizon_s_; }

  /// Cross-shard message: schedules `fn` on shard `dst` at
  /// `shard(src).now() + delay_s`. Callable during setup (any src) or from
  /// an event callback on shard `src` itself. For src != dst, `delay_s`
  /// must be >= lookahead_s(src, dst) — an undersized delay is rejected
  /// with std::invalid_argument, because delivering it could land inside
  /// the window other shards are concurrently executing. src == dst is a
  /// loopback (an ordinary local schedule; any delay >= 0).
  ///
  /// Messages append to a per-(src,dst) FIFO mailbox and are scheduled on
  /// the destination kernel at the next barrier; two messages on the same
  /// (src,dst) pair with equal delivery timestamps fire in send order.
  void send(std::size_t src, std::size_t dst, double delay_s, EventFn fn);
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void send(std::size_t src, std::size_t dst, double delay_s, F&& fn) {
    // Plain EventFn construction, NOT the destination arena: the closure is
    // built on the sending shard's thread, and ClosureArena is not
    // thread-safe. Inline captures cost nothing; oversized ones heap-box.
    send(src, dst, delay_s, EventFn(std::forward<F>(fn)));
  }

  /// Cross-shard message carried as serializable data instead of a closure:
  /// at delivery time the tagged-delivery hook (set_tagged_delivery) runs
  /// with (dst, when_s, tag, payload) — typically scheduling the record into
  /// the destination shard's TaggedKernel. Tagged messages survive
  /// save_state/restore_state even while parked behind a partition, which
  /// closures cannot. Same lookahead/FIFO contract as send(); loopback
  /// (src == dst) invokes the hook immediately on the calling shard.
  void send_tagged(std::size_t src, std::size_t dst, double delay_s,
                   std::uint64_t tag, std::vector<std::uint64_t> payload);
  /// Installs the tagged-delivery hook. Required before any send_tagged
  /// delivery. Called serially at barriers (and inline for loopback sends
  /// on the sending shard's thread); it must touch only the destination
  /// shard's state.
  using TaggedDelivery = std::function<void(
      std::size_t dst, double when_s, std::uint64_t tag,
      const std::vector<std::uint64_t>& payload)>;
  void set_tagged_delivery(TaggedDelivery hook);

  /// Attaches a degraded-link plan (non-owning; must outlive the runs and
  /// have site_count() == shard_count()). Every cross-shard message is then
  /// adjusted by the plan: slowed/lossy windows defer its delivery time
  /// (a pure function of the send — bit-identical at any thread count),
  /// closed partition windows defer it through the jittered-exponential
  /// redelivery schedule, and open partition windows park it in a bounded
  /// per-(src,dst) FIFO queue until InterDcLinkPlan::heal() closes the
  /// window (heal between runs, at or beyond horizon_s()). Parked messages
  /// drain in FIFO order at the next barrier; exceeding the policy's
  /// parked_capacity throws std::runtime_error.
  void set_link_plan(const network::InterDcLinkPlan* plan);

  /// Runs the federation until every shard's queue empties or the global
  /// clock passes `until_s`; events at exactly `until_s` execute and every
  /// shard's clock lands on `until_s` (single-kernel run_until parity).
  /// Returns the number of events executed across all shards.
  std::size_t run_until(double until_s);
  /// Runs until every queue and mailbox is empty.
  std::size_t run_all();

  /// Pending events across all shards. Exact between runs (mailboxes are
  /// always drained at barriers, so nothing is in flight). Parked messages
  /// behind an open partition are NOT pending events — see
  /// messages_parked().
  std::size_t pending() const;

  /// Diagnostics.
  std::uint64_t windows_run() const { return windows_run_; }
  /// Windows handed to the pool rather than run on the coordinator. Depends
  /// on wall-clock window costs, so it varies between runs; results do not.
  std::uint64_t windows_pooled() const { return windows_pooled_; }
  std::uint64_t messages_sent() const;
  /// Messages currently parked behind open partition windows.
  std::uint64_t messages_parked() const;
  /// Messages whose delivery went through at least one redelivery attempt
  /// (closed partition windows and lossy losses).
  std::uint64_t messages_redelivered() const;

  /// Serializes the federation's own state — clocks, window/send counters,
  /// per-pair message indices, redelivery FIFO floors, and every parked
  /// tagged message — into the snapshot. The shard kernels' contents are
  /// saved separately (TaggedKernel::save per shard). Throws
  /// std::runtime_error if a parked closure (non-tagged) message exists.
  void save_state(SnapshotWriter& w) const;
  /// Restores what save_state wrote into a federation with the same shard
  /// count. Call after restoring each shard's TaggedKernel.
  void restore_state(SnapshotReader& r);

 private:
  struct Message {
    double when_s = 0.0;
    EventFn fn;
    bool tagged = false;
    std::uint64_t tag = 0;
    std::vector<std::uint64_t> payload;
  };

  /// A message parked behind an open partition window: delivery is
  /// recomputed from these coordinates once the link heals, so the
  /// adjustment stays a pure function of the send.
  struct Parked {
    double send_s = 0.0;
    double nominal_when_s = 0.0;
    std::uint64_t pair_index = 0;
    EventFn fn;
    /// Only tagged messages serialize, so one restored from a snapshot is
    /// tagged; route_message sets it from the message.
    bool tagged = true;
    std::uint64_t tag = 0;
    std::vector<std::uint64_t> payload;
  };

  /// One federated kernel plus its outgoing mailboxes. Heap-allocated so
  /// shards never share cache lines through the owning vector.
  struct Shard {
    Simulator sim;
    /// outbox[dst]: messages appended by this shard's window execution,
    /// drained serially at the barrier. Only this shard's worker writes
    /// here during a window.
    std::vector<std::vector<Message>> outbox;
    /// parked[dst]: FIFO queue of messages sent during an open partition,
    /// drained at the first barrier after the link heals. Appended by this
    /// shard's worker, drained serially at barriers.
    std::vector<std::deque<Parked>> parked;
    /// pair_index[dst]: messages ever sent on this (src, dst) pair — the
    /// per-message coordinate of the link plan's deterministic draws.
    std::vector<std::uint64_t> pair_index;
    /// down_floor[dst]: monotone floor on redelivered deliveries, so a
    /// partition's backlog drains in send order (per-pair FIFO) even though
    /// each message draws its own jittered backoff.
    std::vector<double> down_floor;
    std::uint64_t sent = 0;
    std::uint64_t redelivered = 0;
    std::size_t window_ran = 0;
  };

  /// The "fedr" snapshot section, run by save_state and restore_state.
  template <typename Self, typename Io>
  static void fields(Self& self, Io& io);

  /// Applies the link plan to a cross-shard message; pushes it to the
  /// outbox or parks it. `when_s` is the nominal delivery time.
  void route_message(std::size_t src, std::size_t dst, double when_s,
                     Message m);
  /// Schedules one delivered message on its destination (closure or tagged
  /// hook).
  void deliver_message(std::size_t dst, double when_s, Message& m);
  /// Drains parked messages that became deliverable (healed links) at a
  /// barrier, in (src, dst, FIFO) order. Returns messages delivered.
  std::size_t drain_parked(double min_legal_when_s);

  /// Runs one window on every shard: on the pool when recent windows cost
  /// at least kPoolWindowCost, else in shard order on the calling thread.
  /// `inclusive` windows use run_until (events at exactly `stop_s` fire and
  /// clocks advance to it — the final stretch of a run_until call);
  /// exclusive windows use run_before. Returns events executed.
  std::size_t run_window(double stop_s, bool inclusive);
  /// Drains every mailbox into its destination kernel in (src, dst,
  /// append) order. `min_legal_when_s` is the conservative bound every
  /// message must satisfy; a violation is a protocol bug and throws.
  std::size_t deliver_all(double min_legal_when_s);
  void check_run_entry() const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<double> lookahead_;  ///< row-major shards x shards
  double min_lookahead_s_ = 0.0;
  std::size_t threads_ = 1;  ///< pool runners, min(threads, shards)
  std::unique_ptr<ThreadPool> pool_;  ///< built by the first pooled window
  /// Decaying estimate of recent window cost (wall clock); read only when
  /// threads_ > 1.
  std::chrono::steady_clock::duration window_cost_{};
  const network::InterDcLinkPlan* link_plan_ = nullptr;  ///< non-owning
  TaggedDelivery tagged_delivery_;
  double now_s_ = 0.0;
  double horizon_s_ = 0.0;
  bool running_ = false;
  std::uint64_t windows_run_ = 0;
  std::uint64_t windows_pooled_ = 0;
};

}  // namespace epm::sim
