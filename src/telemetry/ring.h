// Fixed-capacity lock-free single-producer / single-consumer ingest ring.
//
// The firehose ingest path (store.h) wires one ring per (producer slice,
// drainer) pair: the producer scans a contiguous slice of the input batch
// and pushes each sample into the ring of the drainer that owns the
// sample's shard; the drainer pops rings in producer order, so per-series
// sample order is the batch order at every thread count. Rings are bounded
// (fixed capacity, no allocation after construction); a full ring applies
// backpressure by spinning the producer, which is safe because producer and
// drainer roles always occupy distinct pool runners (see
// ColumnarTelemetryStore::bulk_append).
//
// Memory ordering is the classic SPSC discipline: the producer publishes a
// slot with a release store of head, the consumer acquires it; each side
// caches the opposite index to keep coherence traffic off the fast path.
#pragma once

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "core/require.h"

namespace epm::telemetry {

template <typename T>
class IngestRing {
 public:
  /// Capacity is rounded up to a power of two (so wrap is a mask).
  explicit IngestRing(std::size_t capacity = 1024) {
    require(capacity >= 2, "IngestRing: capacity must be >= 2");
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  std::size_t capacity() const { return slots_.size(); }

  /// Producer side. Returns false when the ring is full.
  bool try_push(const T& item) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ >= slots_.size()) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ >= slots_.size()) return false;
    }
    slots_[head & mask_] = item;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Producer side: blocking push. Spins (yielding) until space frees up;
  /// the paired drainer is guaranteed to be running on another runner.
  void push(const T& item) {
    std::size_t spins = 0;
    while (!try_push(item)) {
      if (++spins > 64) std::this_thread::yield();
    }
  }

  /// Producer side: marks the stream complete (no further pushes).
  void close() { closed_.store(true, std::memory_order_release); }

  /// Consumer side. Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail == cached_head_) return false;
    }
    out = slots_[tail & mask_];
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: pops up to `max` items into `out`; returns the count.
  std::size_t pop_chunk(T* out, std::size_t max) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t avail = cached_head_ - tail;
    if (avail == 0) {
      cached_head_ = head_.load(std::memory_order_acquire);
      avail = cached_head_ - tail;
      if (avail == 0) return 0;
    }
    const std::size_t n = avail < max ? avail : max;
    for (std::size_t i = 0; i < n; ++i) out[i] = slots_[(tail + i) & mask_];
    tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  /// Consumer side: true once the producer closed the stream AND every
  /// pushed item has been popped. Check closed *before* a final emptiness
  /// probe so a push racing the close is never lost.
  bool drained() {
    if (!closed_.load(std::memory_order_acquire)) return false;
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    return head_.load(std::memory_order_acquire) == tail;
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  ///< producer writes
  alignas(64) std::size_t cached_tail_ = 0;       ///< producer-local
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< consumer writes
  alignas(64) std::size_t cached_head_ = 0;       ///< consumer-local
  std::atomic<bool> closed_{false};
};

}  // namespace epm::telemetry
