// Deterministic parallel execution engine.
//
// Every hot path in the library — Monte Carlo replicas, DES replications,
// fleet telemetry ingest, bench parameter sweeps — has the same shape: a
// fixed batch of independent work items fanned out across cores and reduced
// in input order. This module provides that substrate with one hard
// guarantee: **the same seed produces bit-identical results at every thread
// count, including 1**. Determinism comes from construction, not luck:
//
//   * work is partitioned by index, never by completion order;
//   * `parallel_map` returns results in input order regardless of which
//     thread finished first;
//   * `parallel_replicate` derives one independent `Rng` stream per task
//     from the caller's seed via `SplitMix64`, so task i's randomness never
//     depends on which thread ran tasks 0..i-1.
//
// Reductions stay the caller's job and must be performed in task order
// (e.g. `OnlineStats::merge` over results[0..n)), which keeps floating-point
// summation order — and therefore every bit of the output — invariant.
//
// The pool is fork-join. A pool of T threads spawns T−1 workers; the thread
// that calls `parallel_for` is the T-th runner and claims chunks alongside
// them. Chunks are claimed from an atomic counter, so only *which* thread
// runs a chunk varies, never the index partition. A call publishes its job
// by bumping a generation counter; idle workers spin on it briefly with a
// CPU pause, then park in `std::atomic::wait`, so back-to-back calls (one
// federation window each) hand off without a futex round trip. The call
// returns only after every worker has checked in for the round — the usual
// OpenMP-style region barrier — so no late worker can touch a finished job.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/rng.h"

namespace epm {

/// Thread count used when a caller passes 0: the `EPM_THREADS` environment
/// variable when set to a positive integer, else `hardware_concurrency`
/// (minimum 1).
std::size_t default_thread_count();

/// Maps a user-facing `--threads` value to an actual count: values >= 1 are
/// taken verbatim, anything else falls back to default_thread_count().
std::size_t resolve_thread_count(std::int64_t requested);

/// Fixed-size fork-join pool. One pool runs one parallel call at a time
/// (concurrent submissions from different external threads serialize);
/// calling back into the same pool from inside a task throws instead of
/// deadlocking.
class ThreadPool {
 public:
  /// `threads` runners — `threads − 1` spawned workers plus the calling
  /// thread; 0 means default_thread_count().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runners per call, counting the caller.
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// True when the calling thread is executing inside a task submitted to
  /// this pool — on one of its workers, or on the submitting thread while it
  /// runs its share of the chunks. Lets layered engines (the sharded DES
  /// federation runs shard windows on a pool) reject re-entrant driving with
  /// a domain-specific error instead of the generic nested-parallel_for one.
  bool on_worker_thread() const;

  using ChunkFn = std::function<void(std::size_t begin, std::size_t end)>;

  /// Runs `chunk(begin, end)` over a partition of [0, n). Chunks are
  /// contiguous, cover every index exactly once, and may run on any worker
  /// or on the calling thread. Blocks until all chunks finish. The first
  /// exception thrown by a chunk is rethrown here (remaining chunks still
  /// run to completion).
  /// Throws std::logic_error when called from inside one of this pool's own
  /// tasks (nested calls would deadlock a fixed-size pool).
  void parallel_for(std::size_t n, const ChunkFn& chunk);

  /// Ordered map: out[i] = fn(i) for i in [0, n), with out in input order
  /// regardless of completion order. R must be default-constructible.
  template <typename Fn>
  auto parallel_map(std::size_t n, Fn&& fn) {
    using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
    std::vector<R> out(n);
    parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
    });
    return out;
  }

  /// Seeded replication: expands `seed` into n stream seeds with SplitMix64
  /// (all derived up front, independent of thread count), hands task i a
  /// private Rng, and returns fn(rng, i) results in input order.
  template <typename Fn>
  auto parallel_replicate(std::size_t n, std::uint64_t seed, Fn&& fn) {
    using R = std::decay_t<std::invoke_result_t<Fn&, Rng&, std::size_t>>;
    std::vector<std::uint64_t> seeds(n);
    SplitMix64 mix(seed);
    for (auto& s : seeds) s = mix.next();
    std::vector<R> out(n);
    parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        Rng rng(seeds[i]);
        out[i] = fn(rng, i);
      }
    });
    return out;
  }

 private:
  void worker_loop();
  /// Claims and runs chunks of the current job until none are left.
  void run_chunks();

  std::vector<std::thread> workers_;
  std::mutex submit_mu_;  ///< serializes whole parallel_for calls

  // The current job. Written by the caller only while every worker is idle
  // (before the generation bump), read by workers after they observe it.
  const ChunkFn* job_ = nullptr;
  std::size_t chunks_ = 0;
  std::size_t base_ = 0;   ///< indices per chunk
  std::size_t extra_ = 0;  ///< the first `extra_` chunks get one more
  std::exception_ptr first_error_;
  bool stop_ = false;

  std::atomic<std::size_t> next_chunk_{0};
  std::atomic<bool> failed_{false};  ///< first_error_ claimed
  // Idle workers poll generation_ while workers finishing a round bump
  // checked_in_; separate cache lines keep one from stalling the other.
  alignas(64) std::atomic<std::uint32_t> generation_{0};  ///< bumped per call
  alignas(64) std::atomic<std::uint32_t> checked_in_{0};  ///< workers done
};

}  // namespace epm
