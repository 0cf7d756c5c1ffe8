#include "cluster/admission.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace epm::cluster {
namespace {

TEST(BoundedQueue, FifoOrderWithAdmitTimestamps) {
  BoundedQueue queue(4);
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(queue.try_push(7, 1.0));
  EXPECT_TRUE(queue.try_push(9, 2.0));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.front().id, 7u);
  EXPECT_DOUBLE_EQ(queue.front().admitted_s, 1.0);
  queue.pop();
  EXPECT_EQ(queue.front().id, 9u);
  EXPECT_DOUBLE_EQ(queue.front().admitted_s, 2.0);
  queue.pop();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.accepted(), 2u);
  EXPECT_EQ(queue.shed(), 0u);
}

TEST(BoundedQueue, OverflowIsShedAndCounted) {
  BoundedQueue queue(2);
  EXPECT_TRUE(queue.try_push(0, 0.0));
  EXPECT_TRUE(queue.try_push(1, 0.0));
  EXPECT_FALSE(queue.try_push(2, 0.0));
  EXPECT_FALSE(queue.try_push(3, 0.0));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.accepted(), 2u);
  EXPECT_EQ(queue.shed(), 2u);
  // Draining frees capacity again.
  queue.pop();
  EXPECT_TRUE(queue.try_push(4, 1.0));
  EXPECT_EQ(queue.accepted(), 3u);
}

TEST(BoundedQueue, RejectsZeroCapacityAndEmptyAccess) {
  EXPECT_THROW(BoundedQueue(0), std::invalid_argument);
  BoundedQueue queue(1);
  EXPECT_THROW(queue.front(), std::logic_error);
  EXPECT_THROW(queue.pop(), std::logic_error);
}

// pop_run hands out exactly what a front()/pop() loop would, also when the
// live entries wrap around the end of the ring, and refuses to run past the
// queue's end.
TEST(BoundedQueue, PopRunMatchesFrontPopLoopOnAWrappedRing) {
  BoundedQueue run_queue(1000);
  BoundedQueue loop_queue(1000);
  std::uint32_t next_id = 0;
  const auto push = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i, ++next_id) {
      ASSERT_TRUE(run_queue.try_push(next_id, next_id * 0.5));
      ASSERT_TRUE(loop_queue.try_push(next_id, next_id * 0.5));
    }
  };
  // 64 ring slots: 50 in, 40 out, 50 in leaves 60 entries wrapped past the
  // ring's end.
  push(50);
  std::vector<std::uint32_t> ids{7};  // pop_run appends
  run_queue.pop_run(40, ids);
  for (int i = 0; i < 40; ++i) loop_queue.pop();
  push(50);
  ASSERT_EQ(run_queue.size(), 60u);

  EXPECT_THROW(run_queue.pop_run(61, ids), std::logic_error);
  EXPECT_EQ(run_queue.size(), 60u);
  ids.assign(1, 7);
  run_queue.pop_run(run_queue.size(), ids);
  std::vector<std::uint32_t> looped{7};
  while (!loop_queue.empty()) {
    looped.push_back(loop_queue.front().id);
    loop_queue.pop();
  }
  EXPECT_EQ(ids, looped);
  EXPECT_EQ(ids.size(), 61u);
  EXPECT_TRUE(run_queue.empty());
  run_queue.pop_run(0, ids);
  EXPECT_EQ(ids.size(), 61u);
  EXPECT_THROW(run_queue.pop_run(1, ids), std::logic_error);

  // The ring keeps its order after the run: pushes land behind the head.
  push(3);
  EXPECT_EQ(run_queue.front().id, next_id - 3);
  EXPECT_EQ(run_queue.accepted(), loop_queue.accepted());
}

// charge() is the storm engines' credit loop in closed form: the same count
// for any credit, and the same remainder, bit for bit, whenever requests
// stay queued (the engines carry it only then).
TEST(BoundedQueue, ChargeMatchesTheUnitSpendingLoop) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> credits = {
      std::numeric_limits<double>::quiet_NaN(), -inf, -3.0, 0.0, 0.5,
      std::nextafter(1.0, 0.0), 1.0, 1.5, 4.7, 5.0, 5.3, 999.99, 1000.0,
      std::nextafter(1000.0, inf), 1e6, 0x1.0p53, 0x1.0p60, inf};
  for (int k = 0; k < 200; ++k) credits.push_back(k * 5.137 + 0.25 * (k % 4));
  for (const std::size_t queued : {0u, 1u, 5u, 700u, 1000u}) {
    BoundedQueue queue(2000);
    for (std::uint32_t i = 0; i < queued; ++i) ASSERT_TRUE(queue.try_push(i, 0.0));
    for (const double start : credits) {
      std::size_t looped = 0;
      double loop_credit = start;
      while (loop_credit >= 1.0 && looped < queued) {
        ++looped;
        loop_credit -= 1.0;
      }
      double credit = start;
      ASSERT_EQ(queue.charge(credit), looped)
          << "credit " << start << ", " << queued << " queued";
      if (looped < queued) {
        EXPECT_TRUE(credit == loop_credit ||
                    (std::isnan(credit) && std::isnan(loop_credit)))
            << "credit " << start << ", " << queued << " queued: " << credit
            << " vs " << loop_credit;
      }
    }
    EXPECT_EQ(queue.size(), queued);  // charging pops nothing
  }
}

TEST(TokenBucket, StartsFullAndSpendsOneTokenPerAdmission) {
  TokenBucket bucket({10.0, 3.0});
  EXPECT_DOUBLE_EQ(bucket.tokens(), 3.0);
  EXPECT_TRUE(bucket.try_acquire());
  EXPECT_TRUE(bucket.try_acquire());
  EXPECT_TRUE(bucket.try_acquire());
  EXPECT_FALSE(bucket.try_acquire());
  EXPECT_EQ(bucket.admitted(), 3u);
  EXPECT_EQ(bucket.denied(), 1u);
}

TEST(TokenBucket, RefillIsRateTimesElapsedCappedAtBurst) {
  TokenBucket bucket({10.0, 5.0});
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.try_acquire());
  EXPECT_DOUBLE_EQ(bucket.tokens(), 0.0);
  bucket.refill(0.25);
  EXPECT_DOUBLE_EQ(bucket.tokens(), 2.5);
  bucket.refill(100.0);  // capped at the bucket depth
  EXPECT_DOUBLE_EQ(bucket.tokens(), 5.0);
}

TEST(TokenBucket, SustainedRateMatchesConfiguredRate) {
  TokenBucket bucket({100.0, 100.0});
  // Offer 2x the sustained rate for 50 one-second epochs: after the initial
  // burst drains, admissions per epoch settle at exactly rate * dt.
  std::uint64_t admitted_late = 0;
  for (int epoch = 0; epoch < 50; ++epoch) {
    bucket.refill(1.0);
    const std::uint64_t before = bucket.admitted();
    for (int i = 0; i < 200; ++i) bucket.try_acquire();
    if (epoch >= 10) admitted_late += bucket.admitted() - before;
  }
  EXPECT_EQ(admitted_late, 40u * 100u);
}

TEST(TokenBucket, RejectsBadConfig) {
  EXPECT_THROW(TokenBucket({0.0, 10.0}), std::invalid_argument);
  EXPECT_THROW(TokenBucket({10.0, 0.5}), std::invalid_argument);
  TokenBucket bucket({10.0, 10.0});
  EXPECT_THROW(bucket.refill(-1.0), std::invalid_argument);
}

CircuitBreakerConfig small_breaker() {
  CircuitBreakerConfig config;
  config.failure_ratio = 0.5;
  config.min_volume = 10;
  config.open_duration_s = 5.0;
  config.half_open_probes = 3;
  config.close_after_healthy_epochs = 2;
  return config;
}

TEST(CircuitBreaker, ClosedTripsOnFailureRatioAtSufficientVolume) {
  CircuitBreaker breaker(small_breaker());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  // Below min_volume: even 100% failures never trip.
  breaker.begin_epoch(0.0);
  breaker.on_epoch_end(9, 9, 1.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  // At volume but below the ratio: stays closed.
  breaker.begin_epoch(1.0);
  breaker.on_epoch_end(100, 49, 2.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  // Ratio reached (>= is inclusive): trips.
  breaker.begin_epoch(2.0);
  breaker.on_epoch_end(100, 50, 3.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreaker, OpenFailsFastUntilDurationElapses) {
  CircuitBreaker breaker(small_breaker());
  breaker.begin_epoch(0.0);
  breaker.on_epoch_end(100, 100, 1.0);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  // While open: every allow() is a fast rejection, time alone matures it.
  breaker.begin_epoch(2.0);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(breaker.allow());
  EXPECT_EQ(breaker.rejected(), 10u);
  breaker.on_epoch_end(0, 0, 3.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);

  // open_duration_s after the trip, the next epoch starts half-open.
  breaker.begin_epoch(6.0);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
}

TEST(CircuitBreaker, HalfOpenProbeBudgetRetripAndClose) {
  CircuitBreaker breaker(small_breaker());
  breaker.begin_epoch(0.0);
  breaker.on_epoch_end(100, 100, 1.0);
  breaker.begin_epoch(6.0);
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);

  // Exactly half_open_probes admissions per epoch, the rest rejected.
  int granted = 0;
  for (int i = 0; i < 10; ++i) granted += breaker.allow() ? 1 : 0;
  EXPECT_EQ(granted, 3);
  EXPECT_EQ(breaker.probes_issued(), 3u);

  // Any probe failure re-trips immediately.
  breaker.on_epoch_end(3, 1, 7.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);

  // Mature again, then two consecutive healthy probe epochs close it.
  breaker.begin_epoch(12.0);
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.allow();
  breaker.on_epoch_end(1, 0, 13.0);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.begin_epoch(13.0);
  breaker.allow();
  breaker.on_epoch_end(1, 0, 14.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, HalfOpenWithNoObservationsKeepsProbing) {
  CircuitBreaker breaker(small_breaker());
  breaker.begin_epoch(0.0);
  breaker.on_epoch_end(100, 100, 1.0);
  breaker.begin_epoch(6.0);
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // No probe outcome observed (e.g. no clients due this epoch): the healthy
  // streak must not advance, but the breaker keeps offering probes.
  breaker.on_epoch_end(0, 0, 7.0);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.begin_epoch(7.0);
  EXPECT_TRUE(breaker.allow());
}

TEST(CircuitBreaker, RejectsBadConfig) {
  CircuitBreakerConfig config = small_breaker();
  config.failure_ratio = 0.0;
  EXPECT_THROW(CircuitBreaker{config}, std::invalid_argument);
  config = small_breaker();
  config.failure_ratio = 1.5;
  EXPECT_THROW(CircuitBreaker{config}, std::invalid_argument);
  config = small_breaker();
  config.half_open_probes = 0;
  EXPECT_THROW(CircuitBreaker{config}, std::invalid_argument);
  config = small_breaker();
  config.close_after_healthy_epochs = 0;
  EXPECT_THROW(CircuitBreaker{config}, std::invalid_argument);
  config = small_breaker();
  config.open_duration_s = -1.0;
  EXPECT_THROW(CircuitBreaker{config}, std::invalid_argument);
}

}  // namespace
}  // namespace epm::cluster
