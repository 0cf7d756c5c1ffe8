// Overload-defense primitives for the request path (paper §3: flash crowds
// and login storms re-offer dropped load until an unprotected service is
// permanently saturated).
//
// Three small deterministic building blocks compose into an admission
// stack:
//
//   BoundedQueue    — a FIFO accept queue with a hard capacity; overflow is
//                     shed explicitly (and counted) instead of growing the
//                     backlog past the point where every queued request is
//                     already stale by the time it is served.
//   TokenBucket     — rate-based admission control ahead of the queue,
//                     smoothing reconnect surges to what the fleet can
//                     actually serve within the client timeout.
//   CircuitBreaker  — closed -> open -> half-open failure breaker with a
//                     deterministic per-epoch probe schedule, so clients
//                     fail fast against a dark service instead of filling
//                     the queue with doomed requests.
//
// Everything is plain arithmetic on caller-supplied time — no clocks, no
// randomness — so a scenario replays bit-for-bit at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/require.h"

namespace epm::cluster {

/// Bounded FIFO accept queue. Entries carry the admit timestamp so the
/// server can tell how long a request waited (and whether the client has
/// long since given up on it).
///
/// Storage is a power-of-two ring buffer grown geometrically on demand (up
/// to capacity), so a deliberately huge undefended-arm capacity — tens of
/// millions at 10M-client scale — costs memory only for the backlog that
/// actually materializes, and the steady state does no allocation at all
/// (the deque this replaced paid a node-block allocation every few hundred
/// pushes).
class BoundedQueue {
 public:
  struct Entry {
    std::uint32_t id = 0;
    double admitted_s = 0.0;
  };

  explicit BoundedQueue(std::size_t capacity);

  /// Accepts the request unless the queue is full; a full queue sheds it
  /// (returns false) and counts the loss.
  bool try_push(std::uint32_t id, double now_s) {
    if (size_ >= capacity_) {
      ++shed_;
      return false;
    }
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) & mask_] = {id, now_s};
    ++size_;
    ++accepted_;
    return true;
  }
  /// Oldest queued request; queue must be non-empty.
  const Entry& front() const {
    ensure(size_ > 0, "BoundedQueue: front() on empty queue");
    return ring_[head_];
  }
  void pop() {
    ensure(size_ > 0, "BoundedQueue: pop() on empty queue");
    head_ = (head_ + 1) & mask_;
    --size_;
  }
  /// Moves the ids of the n oldest requests, oldest first, onto the end of
  /// `out`: the same ids n front()/pop() pairs give. Requires n <= size().
  void pop_run(std::size_t n, std::vector<std::uint32_t>& out);
  /// How many requests `credit` pays for at one unit each: floor(credit),
  /// at most size(), none below one unit. The units come off `credit`.
  /// The count, and the remainder whenever requests stay queued, are those
  /// of a loop that spends 1.0 per front()/pop() while credit >= 1.0: the
  /// remainder is then below size(), far under 2^53, where every unit
  /// comes off exactly.
  std::size_t charge(double& credit) const;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t accepted() const { return accepted_; }
  /// Requests refused because the queue was at capacity.
  std::uint64_t shed() const { return shed_; }

 private:
  void grow();

  std::size_t capacity_;
  std::vector<Entry> ring_;  ///< power-of-two slots; index masked by mask_
  std::size_t mask_ = 0;
  std::size_t head_ = 0;  ///< slot of the oldest entry
  std::size_t size_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t shed_ = 0;
};

struct TokenBucketConfig {
  double rate_per_s = 1000.0;  ///< sustained admission rate
  double burst = 1000.0;       ///< bucket depth (admissions above rate)
};

/// Deterministic token-bucket admission: refill() advances the bucket by
/// elapsed time, try_acquire() spends one token per admitted request.
class TokenBucket {
 public:
  explicit TokenBucket(TokenBucketConfig config);

  void refill(double dt_s);
  /// True (and one token spent) when a token is available.
  bool try_acquire() {
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      ++admitted_;
      return true;
    }
    ++denied_;
    return false;
  }

  double tokens() const { return tokens_; }
  std::uint64_t admitted() const { return admitted_; }
  /// Requests refused for lack of a token.
  std::uint64_t denied() const { return denied_; }
  const TokenBucketConfig& config() const { return config_; }

 private:
  TokenBucketConfig config_;
  double tokens_;
  std::uint64_t admitted_ = 0;
  std::uint64_t denied_ = 0;
};

enum class BreakerState {
  kClosed,    ///< normal operation; outcomes are watched
  kOpen,      ///< fail fast; nothing reaches the service
  kHalfOpen,  ///< a bounded probe budget per epoch tests recovery
};

std::string to_string(BreakerState state);

struct CircuitBreakerConfig {
  /// Trip when failures/observations >= this over an epoch.
  double failure_ratio = 0.5;
  /// Epochs with fewer observations than this never trip the breaker.
  std::uint64_t min_volume = 10;
  /// Time spent open before probing (half-open) begins.
  double open_duration_s = 5.0;
  /// Admissions allowed per epoch while half-open.
  std::uint64_t half_open_probes = 5;
  /// Consecutive healthy half-open epochs (probes observed, none failed)
  /// required to close.
  std::size_t close_after_healthy_epochs = 2;
};

/// Per-cluster circuit breaker driven at control-epoch granularity:
///
///   begin_epoch(t)              -> open matures into half-open, probe
///                                  budget resets
///   allow()                     -> per-request verdict (deterministic)
///   on_epoch_end(obs, fail, t)  -> closed trips on the failure ratio;
///                                  half-open re-trips on any failure or
///                                  closes after enough healthy epochs
///
/// While open, allow() is always false — the state machine cannot leak a
/// request into a dark service (asserted by the property suite).
class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerConfig config);

  void begin_epoch(double now_s);
  bool allow() {
    switch (state_) {
      case BreakerState::kClosed:
        return true;
      case BreakerState::kOpen:
        ++rejected_;
        return false;
      case BreakerState::kHalfOpen:
        if (epoch_probes_ < config_.half_open_probes) {
          ++epoch_probes_;
          ++probes_issued_;
          return true;
        }
        ++rejected_;
        return false;
    }
    return false;
  }
  void on_epoch_end(std::uint64_t observations, std::uint64_t failures,
                    double now_s);

  BreakerState state() const { return state_; }
  std::uint64_t trips() const { return trips_; }
  std::uint64_t probes_issued() const { return probes_issued_; }
  /// Requests refused by allow() (open, or half-open past the budget).
  std::uint64_t rejected() const { return rejected_; }
  const CircuitBreakerConfig& config() const { return config_; }

 private:
  void trip(double now_s);

  CircuitBreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  double open_until_s_ = 0.0;
  std::uint64_t epoch_probes_ = 0;   ///< probes granted this epoch
  std::size_t healthy_epochs_ = 0;   ///< consecutive healthy half-open epochs
  std::uint64_t trips_ = 0;
  std::uint64_t probes_issued_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace epm::cluster
