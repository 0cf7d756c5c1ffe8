// Randomized invariant sweeps for the overload-defense stack:
//
//   * breaker safety — allow() is never true while the breaker is open, and
//     half-open epochs never grant more than the probe budget;
//   * breaker liveness — an open breaker always matures into half-open once
//     open_duration_s elapses, and healthy probes eventually close it;
//   * determinism — the same seeded drive reproduces the same state/verdict
//     sequence bit-for-bit;
//   * retry-budget conservation — all four ClientLedger identities hold at
//     every epoch boundary under arbitrary admission verdicts, service
//     delays, and mid-run disconnect storms.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/admission.h"
#include "core/rng.h"
#include "workload/client_population.h"

namespace epm {
namespace {

cluster::CircuitBreakerConfig random_breaker_config(Rng& rng) {
  cluster::CircuitBreakerConfig config;
  config.failure_ratio = rng.uniform(0.1, 1.0);
  config.min_volume = static_cast<std::uint64_t>(rng.uniform_int(1, 50));
  config.open_duration_s = rng.uniform(0.0, 10.0);
  config.half_open_probes = static_cast<std::uint64_t>(rng.uniform_int(1, 8));
  config.close_after_healthy_epochs =
      static_cast<std::size_t>(rng.uniform_int(1, 4));
  return config;
}

/// Drives a breaker through `epochs` epochs of random traffic and failure
/// mix, asserting the safety properties every epoch. Returns a trace of
/// per-epoch (state, granted) pairs for determinism comparison.
std::vector<std::pair<int, int>> drive_breaker(
    const cluster::CircuitBreakerConfig& config, std::uint64_t seed,
    int epochs) {
  Rng rng(seed);
  cluster::CircuitBreaker breaker(config);
  std::vector<std::pair<int, int>> trace;
  for (int e = 0; e < epochs; ++e) {
    const double t0 = e;
    breaker.begin_epoch(t0);
    const auto state = breaker.state();
    const int offered = static_cast<int>(rng.uniform_int(0, 60));
    int granted = 0;
    for (int i = 0; i < offered; ++i) granted += breaker.allow() ? 1 : 0;

    // Safety: an open breaker leaks nothing; half-open stays within the
    // probe budget; closed admits everything.
    if (state == cluster::BreakerState::kOpen) {
      EXPECT_EQ(granted, 0) << "epoch " << e;
    } else if (state == cluster::BreakerState::kHalfOpen) {
      EXPECT_LE(granted,
                static_cast<int>(breaker.config().half_open_probes))
          << "epoch " << e;
    } else {
      EXPECT_EQ(granted, offered) << "epoch " << e;
    }

    // Random downstream outcomes for whatever was admitted.
    const auto observations = static_cast<std::uint64_t>(granted);
    const auto failures = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(observations)));
    breaker.on_epoch_end(observations, failures, t0 + 1.0);
    trace.emplace_back(static_cast<int>(state), granted);
  }
  return trace;
}

class RetryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RetryProperty, BreakerNeverServesWhileOpenAndProbesStayBounded) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const auto config = random_breaker_config(rng);
    drive_breaker(config, rng.uniform_int(1, 1 << 30), 200);
  }
}

TEST_P(RetryProperty, BreakerDriveIsDeterministicUnderSeed) {
  Rng rng(GetParam());
  const auto config = random_breaker_config(rng);
  const auto seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  EXPECT_EQ(drive_breaker(config, seed, 300), drive_breaker(config, seed, 300));
}

TEST(CircuitBreakerLiveness, OpenAlwaysMaturesAndHealthyProbesClose) {
  cluster::CircuitBreakerConfig config;
  config.open_duration_s = 7.0;
  config.half_open_probes = 2;
  config.close_after_healthy_epochs = 3;
  cluster::CircuitBreaker breaker(config);
  breaker.begin_epoch(0.0);
  breaker.on_epoch_end(100, 100, 1.0);
  ASSERT_EQ(breaker.state(), cluster::BreakerState::kOpen);
  // Strictly before open_duration_s: still open.
  breaker.begin_epoch(7.9);
  EXPECT_EQ(breaker.state(), cluster::BreakerState::kOpen);
  // At/after maturity: half-open, and three healthy probe epochs close it.
  double t = 8.0;
  breaker.begin_epoch(t);
  ASSERT_EQ(breaker.state(), cluster::BreakerState::kHalfOpen);
  for (int e = 0; e < 3; ++e) {
    EXPECT_TRUE(breaker.allow());
    breaker.on_epoch_end(1, 0, t + 1.0);
    t += 1.0;
    if (e < 2) {
      breaker.begin_epoch(t);
      ASSERT_EQ(breaker.state(), cluster::BreakerState::kHalfOpen);
    }
  }
  EXPECT_EQ(breaker.state(), cluster::BreakerState::kClosed);
}

workload::ClientPopulationConfig random_population_config(Rng& rng) {
  workload::ClientPopulationConfig config;
  config.clients = static_cast<std::size_t>(rng.uniform_int(50, 500));
  config.think_time_s = rng.uniform(2.0, 30.0);
  config.request_timeout_s = rng.uniform(1.0, 6.0);
  config.reconnect_spread_s = rng.uniform(1.0, 20.0);
  config.start_spread_s = rng.uniform(0.0, 10.0);
  const workload::RetryBackoff backoffs[] = {
      workload::RetryBackoff::kImmediate, workload::RetryBackoff::kFixed,
      workload::RetryBackoff::kExponential};
  config.retry.backoff = backoffs[rng.uniform_int(0, 2)];
  config.retry.base_delay_s = rng.uniform(0.0, 3.0);
  config.retry.multiplier = rng.uniform(1.0, 3.0);
  config.retry.max_delay_s = rng.uniform(3.0, 30.0);
  config.retry.jitter_frac = rng.uniform(0.0, 0.9);
  config.retry.max_attempts = static_cast<std::size_t>(rng.uniform_int(1, 6));
  // Half the draws let abandoned clients come back.
  config.retry.abandon_cooldown_s =
      rng.uniform(0.0, 1.0) < 0.5 ? rng.uniform(1.0, 20.0) : 0.0;
  config.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  return config;
}

// Conservation under arbitrary drive: random admission verdicts, random
// service order and delay (including stale completions after the client
// moved on), and disconnect storms — the four ledger identities must hold
// at every epoch boundary, and every intent must be accounted for at the
// horizon.
TEST_P(RetryProperty, RetryBudgetIsConservedUnderArbitraryDrive) {
  Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    const auto config = random_population_config(rng);
    workload::ClientPopulation pop(config);
    std::deque<std::uint32_t> queued;
    for (int epoch = 0; epoch < 120; ++epoch) {
      const double t0 = epoch;
      const double t1 = t0 + 1.0;
      for (const std::uint32_t id : pop.collect_due(t0, 1.0)) {
        if (rng.uniform(0.0, 1.0) < 0.3) {
          pop.on_rejected(id, t0);
        } else {
          pop.on_admitted(id, t0);
          queued.push_back(id);
        }
      }
      // Serve a random amount of the backlog; under-capacity epochs let the
      // queue build past the client timeout, producing stale completions.
      const auto serves = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(queued.size())));
      const std::vector<std::uint32_t> cohort(
          queued.begin(), queued.begin() + static_cast<std::ptrdiff_t>(serves));
      queued.erase(queued.begin(),
                   queued.begin() + static_cast<std::ptrdiff_t>(serves));
      pop.on_served_batch(cohort.data(), cohort.size(), t1);
      pop.expire_timeouts(t1);
      if (rng.uniform(0.0, 1.0) < 0.05) {
        pop.disconnect_fraction(rng.uniform(0.0, 1.0), t1);
      }
      ASSERT_TRUE(pop.conservation_ok())
          << "round " << round << " epoch " << epoch << ": "
          << pop.conservation_report();
    }
    // Horizon accounting: issued attempts = answered + still waiting.
    const auto& led = pop.ledger();
    ASSERT_EQ(led.attempts, led.intents + led.retries);
    ASSERT_EQ(led.intents,
              led.served + led.abandoned + led.disconnected_intents +
                  static_cast<std::uint64_t>(pop.in_flight()));
  }
}

// The population's attempt stream is a pure function of (config, verdicts):
// identical drives reproduce identical ledgers bit-for-bit.
TEST_P(RetryProperty, PopulationDriveIsDeterministicUnderSeed) {
  Rng meta(GetParam());
  const auto config = random_population_config(meta);
  const auto drive_seed =
      static_cast<std::uint64_t>(meta.uniform_int(1, 1 << 30));
  auto drive = [&]() {
    Rng rng(drive_seed);
    workload::ClientPopulation pop(config);
    std::uint64_t checksum = 0;
    for (int epoch = 0; epoch < 100; ++epoch) {
      const double t0 = epoch;
      std::vector<std::uint32_t> served;
      for (const std::uint32_t id : pop.collect_due(t0, 1.0)) {
        checksum = checksum * 1315423911u + id;
        if (rng.uniform(0.0, 1.0) < 0.4) {
          pop.on_rejected(id, t0);
        } else {
          pop.on_admitted(id, t0);
          served.push_back(id);
        }
      }
      pop.on_served_batch(served.data(), served.size(), t0 + 0.5);
      pop.expire_timeouts(t0 + 1.0);
    }
    return std::make_pair(checksum, pop.ledger().attempts);
  };
  EXPECT_EQ(drive(), drive());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetryProperty,
                         ::testing::Values(404, 505, 606));

}  // namespace
}  // namespace epm
