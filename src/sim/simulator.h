// Discrete-event simulation kernel.
//
// The paper stresses that data-center dynamics span "nine orders of
// magnitude, from milliseconds to years" (§5). This kernel lets slow
// processes (CRAC control every 15 minutes, provisioning every minute) and
// fast ones (request-level events in validation tests) share one clock.
//
// Events scheduled at the same timestamp run in scheduling order (a strictly
// increasing sequence number breaks ties), which makes runs deterministic.
//
// Two interchangeable scheduler backends share that contract:
//
//  * CalendarSimulator — the default. A two-tier calendar queue: a bucketed
//    near-future wheel (O(1) amortized schedule/fire at any queue size, the
//    classic Brown result) plus a sorted far-future overflow heap, auto-
//    resizing on occupancy. Event nodes live in a chunked slab with a
//    freelist, closures up to EventFn::kInlineSize bytes are stored
//    allocation-free in the node (larger ones are heap-boxed), and
//    cancellation is an O(1) status flip on the node — no hash set, no
//    tombstone arithmetic.
//  * HeapSimulator — the original binary-heap + std::function + hash-set-
//    tombstone implementation, kept only as a reference: the cross-
//    validation property suite, the ShardedSimKernel *OnHeap tests and the
//    kernel bench's hold-model A/B name it directly.
//
// `Simulator` always aliases the calendar backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/event_fn.h"

namespace epm::sim {

/// Handle to a scheduled event, usable to cancel it.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return id_ != 0; }

 private:
  friend class CalendarSimulator;
  friend class HeapSimulator;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

/// Single-threaded event-driven simulator with a double-seconds clock,
/// backed by a two-tier calendar queue.
class CalendarSimulator {
 public:
  CalendarSimulator();
  CalendarSimulator(const CalendarSimulator&) = delete;
  CalendarSimulator& operator=(const CalendarSimulator&) = delete;
  ~CalendarSimulator();

  /// Current simulated time in seconds.
  double now() const { return now_s_; }

  /// Schedules `fn` at absolute time `when_s` (>= now). Returns a handle
  /// usable with cancel(). Captures up to EventFn::kInlineSize bytes are
  /// stored inline in the event node — no allocation; larger ones are
  /// heap-boxed.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventHandle schedule_at(double when_s, F&& fn) {
    return schedule_at(when_s, EventFn(std::forward<F>(fn)));
  }
  EventHandle schedule_at(double when_s, EventFn fn);

  /// Schedules `fn` after `delay_s` (>= 0) from now.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventHandle schedule_after(double delay_s, F&& fn) {
    return schedule_after(delay_s, EventFn(std::forward<F>(fn)));
  }
  EventHandle schedule_after(double delay_s, EventFn fn);

  /// Schedules `fn` every `period_s` starting at `first_s`; runs until the
  /// simulator stops or the handle is cancelled. The callback observes now().
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventHandle schedule_periodic(double first_s, double period_s, F&& fn) {
    return schedule_periodic(first_s, period_s, EventFn(std::forward<F>(fn)));
  }
  EventHandle schedule_periodic(double first_s, double period_s, EventFn fn);

  /// Batch schedule: every element of [first, last) — an EventFn range —
  /// fires at `when_s` in iteration order (the same-timestamp FIFO
  /// guarantee), and the calendar bucket is resolved once for the whole
  /// batch instead of once per event. This is the fast path for epoch-
  /// granular models that emit N completions at one boundary.
  template <typename It>
  void schedule_batch_at(double when_s, It first, It last) {
    begin_batch(when_s);
    for (It it = first; it != last; ++it) {
      batch_push(when_s, std::move(*it));
    }
    end_batch();
  }

  /// Cancels a pending event; cancelling an already-fired or invalid handle
  /// is a harmless no-op. For periodic events, cancels all future firings.
  /// O(1): flips the node's status; the calendar entry is skipped and its
  /// slot recycled through the freelist when it drains.
  void cancel(EventHandle handle);

  /// Runs until the event queue empties or the clock passes `until_s`.
  /// Events at exactly `until_s` execute. Returns the number of events run.
  std::size_t run_until(double until_s);
  /// Runs every event with timestamp strictly before `until_s` and stops,
  /// WITHOUT advancing the clock to `until_s` (now() stays at the last fired
  /// event). This is the half-open window primitive the sharded federation
  /// kernel runs between barriers: events at exactly `until_s` belong to the
  /// next window, where cross-shard arrivals carrying that timestamp have
  /// already been delivered.
  std::size_t run_before(double until_s);
  /// Runs until the queue is empty.
  std::size_t run_all();
  /// Executes the single next event, if any; returns whether one ran.
  bool step();

  /// Timestamp of the next pending event, or +infinity when the queue is
  /// empty. Non-const: peeking settles the calendar head (merges late adds,
  /// drains cancelled entries), which never changes what fires next.
  double next_time();

  /// Snapshot-restore support: moves the clock to `now_s` (any finite value
  /// >= 0, forwards or backwards). Requires an idle kernel — pending() must
  /// be 0. Lingering cancelled calendar entries are swept back to the
  /// freelist and the wheel is re-based at the new clock, so the kernel is
  /// exactly as ready to schedule as a fresh one.
  void restore_clock(double now_s);

  /// Number of events currently pending. Cancelled events leave this count
  /// immediately (their slots are recycled when their calendar entries
  /// drain), so the count is exact at every instant — including after
  /// cancel-then-drain sequences and self-cancellation from a callback.
  std::size_t pending() const { return live_count_; }

  /// Calendar geometry (diagnostics / tests).
  std::size_t bucket_count() const { return buckets_.size(); }
  double bucket_width_s() const { return width_s_; }

 private:
  enum class Status : std::uint8_t { kFree, kPending, kFiring, kCancelled };

  /// Cache-line-aligned so one fire touches one line: the scalars end at
  /// byte 32, EventFn's ops pointer sits at 32..40, and the first 24 capture
  /// bytes (a context pointer plus a couple of ids, the common case) land at
  /// 40..64. Only oversized captures spill into the second line.
  struct alignas(64) Node {
    double when_s = 0.0;
    double period_s = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;
    Status status = Status::kFree;
    EventFn fn;
  };

  /// Calendar entry: a (time, seq) snapshot plus the slab slot. The
  /// snapshot makes bucket sorts cache-local (no node dereference per
  /// comparison); at most one live entry exists per node, so entries never
  /// go stale except through cancellation.
  struct Entry {
    double when_s;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when_s != b.when_s) return a.when_s > b.when_s;
      return a.seq > b.seq;
    }
  };

  static constexpr std::size_t kChunkShift = 8;  // 256 nodes per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;

  Node& node(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  const Node& node(std::uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  std::uint32_t acquire_slot();
  void free_slot(std::uint32_t slot);
  static std::uint64_t handle_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(gen) << 32) |
           (static_cast<std::uint64_t>(slot) + 1);
  }

  EventHandle push(double when_s, double period_s, EventFn fn);
  void insert_entry(const Entry& entry);
  void begin_batch(double when_s);
  void batch_push(double when_s, EventFn fn);
  void end_batch();
  /// Ensures cur_[cur_pos_] is the globally next entry; false when empty.
  bool ensure_head();
  /// Sorts and merges cur_adds_ into the unconsumed tail of cur_.
  void merge_adds();
  /// Re-bases the wheel window at the overflow minimum.
  void rebase_from_overflow();
  /// Rebuilds the wheel with occupancy-adapted geometry.
  void resize_wheel(std::size_t target_buckets);
  double wheel_end_s() const {
    return base_s_ + width_s_ * static_cast<double>(buckets_.size());
  }

  double now_s_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;   ///< pending (uncancelled) events
  std::size_t wheel_count_ = 0;  ///< entries in wheel + cur_ (not overflow)

  // Node slab: chunked so nodes never move (callbacks execute in place even
  // if they schedule new events), with a freelist for O(1) slot recycling.
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t slot_capacity_ = 0;

  // Two-tier calendar queue. Buckets with index < next_bucket_ have been
  // loaded into cur_; late inserts landing behind that watermark join
  // cur_adds_ and are merged before the next pop.
  std::vector<std::vector<Entry>> buckets_;
  double base_s_ = 0.0;   ///< time at the start of bucket 0
  double width_s_ = 1.0;  ///< bucket width in simulated seconds
  double inv_width_s_ = 1.0;  ///< 1/width: bucket indexing multiplies (the
                              ///< single idx formula; mixing / and * forms
                              ///< would disagree at bucket boundaries)
  std::size_t next_bucket_ = 0;  ///< next wheel bucket to load into cur_
  std::vector<Entry> cur_;       ///< working list, sorted ascending
  std::size_t cur_pos_ = 0;      ///< consumption index into cur_
  std::vector<Entry> cur_adds_;  ///< unsorted adds due before the watermark
  std::priority_queue<Entry, std::vector<Entry>, EntryLater> overflow_;

  // Destination resolved once per schedule_batch_at() call.
  bool batch_in_overflow_ = false;
  std::size_t batch_bucket_ = 0;
};

/// The original binary-heap scheduler (std::function events, hash-set
/// cancellation tombstones), kept compilable as the A/B baseline for
/// bench/exp_kernel_throughput and the kernel property suite.
class HeapSimulator {
 public:
  using Callback = std::function<void()>;

  HeapSimulator() = default;
  HeapSimulator(const HeapSimulator&) = delete;
  HeapSimulator& operator=(const HeapSimulator&) = delete;

  double now() const { return now_s_; }

  EventHandle schedule_at(double when_s, Callback fn);
  EventHandle schedule_at(double when_s, EventFn fn);
  EventHandle schedule_after(double delay_s, Callback fn);
  EventHandle schedule_after(double delay_s, EventFn fn);
  EventHandle schedule_periodic(double first_s, double period_s, Callback fn);
  EventHandle schedule_periodic(double first_s, double period_s, EventFn fn);

  /// API-parity batch schedule (the heap has no bucket to amortize; this is
  /// a plain loop so the two backends stay drop-in interchangeable).
  template <typename It>
  void schedule_batch_at(double when_s, It first, It last) {
    for (It it = first; it != last; ++it) {
      schedule_at(when_s, std::move(*it));
    }
  }

  void cancel(EventHandle handle);
  std::size_t run_until(double until_s);
  /// Half-open mirror of run_until: fires events strictly before `until_s`
  /// and leaves now() at the last fired event (see CalendarSimulator).
  std::size_t run_before(double until_s);
  std::size_t run_all();
  bool step();
  /// Next pending timestamp or +infinity; drains cancelled tombstones off
  /// the heap top so a dead entry never masquerades as the head.
  double next_time();
  /// Snapshot-restore support, mirroring CalendarSimulator::restore_clock:
  /// requires pending() == 0, drops any cancelled tombstones, and sets the
  /// clock.
  void restore_clock(double now_s);
  std::size_t pending() const { return queue_.size() - cancelled_.size(); }

 private:
  struct Event {
    double when_s;
    std::uint64_t seq;
    std::uint64_t id;
    // Larger than zero => reschedule after firing.
    double period_s;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when_s != b.when_s) return a.when_s > b.when_s;
      return a.seq > b.seq;
    }
  };

  EventHandle push(double when_s, double period_s, Callback fn);
  bool is_cancelled(std::uint64_t id) const;
  /// Pops cancelled tombstones off the heap top; they must not satisfy the
  /// run_until time check on behalf of a later live event.
  void drain_cancelled_top();

  double now_s_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_id_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  /// Ids cancelled but not yet drained from the queue; erased when their
  /// queued instance pops, so the set stays bounded by live cancellations
  /// and every lookup is O(1) (a linear scan here made cancelling n events
  /// O(n^2) across the subsequent drain).
  std::unordered_set<std::uint64_t> cancelled_;
};

using Simulator = CalendarSimulator;

}  // namespace epm::sim
