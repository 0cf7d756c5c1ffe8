#include "cluster/admission.h"

#include <algorithm>

#include "core/require.h"

namespace epm::cluster {

BoundedQueue::BoundedQueue(std::size_t capacity) : capacity_(capacity) {
  require(capacity_ >= 1, "BoundedQueue: capacity must be at least 1");
}

void BoundedQueue::grow() {
  // Double the ring (start at 64 slots) and unroll the wrapped contents
  // into the front of the new storage.
  const std::size_t new_slots = ring_.empty() ? 64 : ring_.size() * 2;
  std::vector<Entry> next(new_slots);
  for (std::size_t i = 0; i < size_; ++i) {
    next[i] = ring_[(head_ + i) & mask_];
  }
  ring_ = std::move(next);
  mask_ = new_slots - 1;
  head_ = 0;
}

void BoundedQueue::pop_run(std::size_t n, std::vector<std::uint32_t>& out) {
  ensure(n <= size_, "BoundedQueue: pop_run() past the end of the queue");
  // Two straight copies: up to the ring's end, then from its start.
  const std::size_t at = out.size();
  out.resize(at + n);
  std::uint32_t* dst = out.data() + at;
  const std::size_t first = std::min(n, ring_.size() - head_);
  for (std::size_t i = 0; i < first; ++i) dst[i] = ring_[head_ + i].id;
  for (std::size_t i = first; i < n; ++i) dst[i] = ring_[i - first].id;
  head_ = (head_ + n) & mask_;
  size_ -= n;
}

std::size_t BoundedQueue::charge(double& credit) const {
  if (!(credit >= 1.0)) return 0;  // NaN pays for nothing, as in the loop
  const std::size_t n = credit < static_cast<double>(size_)
                            ? static_cast<std::size_t>(credit)
                            : size_;
  credit -= static_cast<double>(n);
  return n;
}

TokenBucket::TokenBucket(TokenBucketConfig config)
    : config_(config), tokens_(config.burst) {
  require(config_.rate_per_s > 0.0, "TokenBucket: rate must be positive");
  require(config_.burst >= 1.0, "TokenBucket: burst below one token");
}

void TokenBucket::refill(double dt_s) {
  require(dt_s >= 0.0, "TokenBucket: negative refill interval");
  tokens_ = std::min(config_.burst, tokens_ + config_.rate_per_s * dt_s);
}

std::string to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker(CircuitBreakerConfig config) : config_(config) {
  require(config_.failure_ratio > 0.0 && config_.failure_ratio <= 1.0,
          "CircuitBreaker: failure ratio outside (0, 1]");
  require(config_.open_duration_s >= 0.0,
          "CircuitBreaker: open duration must be non-negative");
  require(config_.half_open_probes >= 1,
          "CircuitBreaker: need at least one probe");
  require(config_.close_after_healthy_epochs >= 1,
          "CircuitBreaker: need at least one healthy epoch to close");
}

void CircuitBreaker::trip(double now_s) {
  state_ = BreakerState::kOpen;
  open_until_s_ = now_s + config_.open_duration_s;
  healthy_epochs_ = 0;
  ++trips_;
}

void CircuitBreaker::begin_epoch(double now_s) {
  epoch_probes_ = 0;
  if (state_ == BreakerState::kOpen && now_s >= open_until_s_) {
    state_ = BreakerState::kHalfOpen;
    healthy_epochs_ = 0;
  }
}

void CircuitBreaker::on_epoch_end(std::uint64_t observations,
                                  std::uint64_t failures, double now_s) {
  switch (state_) {
    case BreakerState::kClosed:
      if (observations >= config_.min_volume && observations > 0 &&
          static_cast<double>(failures) >=
              config_.failure_ratio * static_cast<double>(observations)) {
        trip(now_s);
      }
      break;
    case BreakerState::kOpen:
      break;  // only time (begin_epoch) moves an open breaker
    case BreakerState::kHalfOpen:
      if (failures > 0) {
        trip(now_s);
      } else if (observations > 0) {
        if (++healthy_epochs_ >= config_.close_after_healthy_epochs) {
          state_ = BreakerState::kClosed;
        }
      }
      // No observations at all: stay half-open, keep probing.
      break;
  }
}

}  // namespace epm::cluster
