#include "workload/client_population.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "workload/client_population_legacy.h"

namespace epm::workload {
namespace {

ClientPopulationConfig tiny_config() {
  ClientPopulationConfig config;
  config.clients = 4;
  config.think_time_s = 10.0;
  config.request_timeout_s = 2.0;
  config.reconnect_spread_s = 5.0;
  config.start_spread_s = 0.0;  // everyone due at t = 0
  config.retry.backoff = RetryBackoff::kImmediate;
  config.retry.max_attempts = 3;
  config.retry.abandon_cooldown_s = 0.0;
  config.seed = 42;
  return config;
}

TEST(RetryBackoffNames, RoundTrip) {
  for (const auto backoff :
       {RetryBackoff::kImmediate, RetryBackoff::kFixed,
        RetryBackoff::kExponential}) {
    EXPECT_EQ(retry_backoff_from_string(to_string(backoff)), backoff);
  }
  EXPECT_THROW(retry_backoff_from_string("bogus"), std::invalid_argument);
}

TEST(ClientPopulation, ServedIntentIsFreshAndReschedulesThinking) {
  ClientPopulation pop(tiny_config());
  const auto& due = pop.collect_due(0.0, 1.0);
  ASSERT_EQ(due.size(), 4u);
  for (const auto id : due) pop.on_admitted(id, 0.0);
  EXPECT_EQ(pop.waiting_count(), 4u);
  pop.on_served_batch(due.data(), due.size(), 0.5);
  pop.expire_timeouts(1.0);

  const ClientLedger& led = pop.ledger();
  EXPECT_EQ(led.intents, 4u);
  EXPECT_EQ(led.attempts, 4u);
  EXPECT_EQ(led.served, 4u);
  EXPECT_EQ(led.stale_served, 0u);
  EXPECT_EQ(led.timed_out, 0u);
  EXPECT_EQ(pop.in_flight(), 0u);
  EXPECT_TRUE(pop.conservation_ok());
}

TEST(ClientPopulation, TimeoutFiresRetryAndLateCompletionIsStale) {
  ClientPopulation pop(tiny_config());
  const auto due = pop.collect_due(0.0, 1.0);  // copy: batch_ is reused
  for (const auto id : due) pop.on_admitted(id, 0.0);
  // Nothing served before the 2 s deadline: every attempt times out and
  // (immediate backoff) is re-offered as a retry.
  pop.expire_timeouts(2.0);
  EXPECT_EQ(pop.ledger().timed_out, 4u);
  EXPECT_EQ(pop.backoff_count(), 4u);

  // The service finally answers the abandoned attempts: stale, not served.
  pop.on_served_batch(due.data(), due.size(), 2.5);
  EXPECT_EQ(pop.ledger().served, 0u);
  EXPECT_EQ(pop.ledger().stale_served, 4u);

  // The retries surface in the next collect window.
  const auto& again = pop.collect_due(2.0, 1.0);
  EXPECT_EQ(again.size(), 4u);
  EXPECT_EQ(pop.ledger().retries, 4u);
  EXPECT_EQ(pop.ledger().attempts, 8u);
  for (const auto id : again) pop.on_rejected(id, 2.0);
  pop.expire_timeouts(3.0);
  EXPECT_TRUE(pop.conservation_ok()) << pop.conservation_report();
}

TEST(ClientPopulation, CompletionExactlyAtDeadlineCountsFresh) {
  ClientPopulation pop(tiny_config());
  const auto due = pop.collect_due(0.0, 1.0);
  for (const auto id : due) pop.on_admitted(id, 0.0);
  // Epoch loops drain the queue before expiring deadlines; a completion at
  // exactly t = deadline must beat the expiry.
  pop.on_served_batch(due.data(), due.size(), 2.0);
  pop.expire_timeouts(2.0);
  EXPECT_EQ(pop.ledger().served, 4u);
  EXPECT_EQ(pop.ledger().timed_out, 0u);
}

TEST(ClientPopulation, ExhaustedAttemptBudgetAbandonsToLost) {
  ClientPopulation pop(tiny_config());  // max_attempts = 3, no cooldown
  double t = 0.0;
  for (int round = 0; round < 3; ++round) {
    const auto due = pop.collect_due(t, 1.0);
    ASSERT_EQ(due.size(), 4u) << "round " << round;
    for (const auto id : due) pop.on_rejected(id, t);
    t += 1.0;
  }
  EXPECT_EQ(pop.ledger().abandoned, 4u);
  EXPECT_EQ(pop.lost_count(), 4u);
  EXPECT_EQ(pop.ledger().retries, 8u);
  // Lost clients never come back.
  for (double probe = t; probe < t + 100.0; probe += 10.0) {
    EXPECT_TRUE(pop.collect_due(probe, 10.0).empty());
  }
  EXPECT_TRUE(pop.conservation_ok()) << pop.conservation_report();
}

TEST(ClientPopulation, CooldownReturnsAbandonedClientsAsFreshIntents) {
  ClientPopulationConfig config = tiny_config();
  config.retry.abandon_cooldown_s = 5.0;
  config.retry.jitter_frac = 0.0;
  ClientPopulation pop(config);
  double t = 0.0;
  for (int round = 0; round < 3; ++round) {
    const auto due = pop.collect_due(t, 1.0);
    for (const auto id : due) pop.on_rejected(id, t);
    t += 1.0;
  }
  EXPECT_EQ(pop.ledger().abandoned, 4u);
  EXPECT_EQ(pop.lost_count(), 0u);
  // All four come back exactly cooldown after their abandon (t = 2 + 5).
  const auto& back = pop.collect_due(7.0, 1.0);
  EXPECT_EQ(back.size(), 4u);
  EXPECT_EQ(pop.ledger().intents, 8u);
}

TEST(ClientPopulation, DisconnectSeversInFlightWorkAndSchedulesReconnects) {
  ClientPopulationConfig config = tiny_config();
  config.clients = 6;
  ClientPopulation pop(config);
  const auto due = pop.collect_due(0.0, 1.0);
  ASSERT_EQ(due.size(), 6u);
  // Two waiting in the service, two in backoff, two still thinking.
  pop.on_admitted(due[0], 0.0);
  pop.on_admitted(due[1], 0.0);
  pop.on_rejected(due[2], 0.0);
  pop.on_rejected(due[3], 0.0);
  pop.on_served_batch(&due[4], 2, 0.5);

  pop.disconnect_all(1.0);
  const ClientLedger& led = pop.ledger();
  EXPECT_EQ(led.disconnects, 6u);
  EXPECT_EQ(led.dropped, 2u);
  EXPECT_EQ(led.retry_cancelled, 2u);
  EXPECT_EQ(led.disconnected_intents, 4u);
  EXPECT_EQ(pop.in_flight(), 0u);
  EXPECT_TRUE(pop.conservation_ok()) << pop.conservation_report();

  // A completion for a severed session is stale work.
  pop.on_served_batch(&due[0], 1, 1.5);
  EXPECT_EQ(pop.ledger().stale_served, 1u);

  // Everyone reconnects eventually (Exp(5 s) spread): all six re-intent.
  std::size_t reconnected = 0;
  for (double t = 1.0; t < 200.0 && reconnected < 6; t += 1.0) {
    reconnected += pop.collect_due(t, 1.0).size();
  }
  EXPECT_EQ(reconnected, 6u);
}

TEST(ClientPopulation, DisconnectFractionZeroIsANoOpAndOneIsAll) {
  ClientPopulation pop(tiny_config());
  pop.disconnect_fraction(0.0, 1.0);
  EXPECT_EQ(pop.ledger().disconnects, 0u);
  pop.disconnect_fraction(1.0, 1.0);
  EXPECT_EQ(pop.ledger().disconnects, 4u);
  EXPECT_THROW(pop.disconnect_fraction(1.5, 2.0), std::invalid_argument);
}

TEST(ClientPopulation, ExponentialBackoffGrowsAndIsCapped) {
  ClientPopulationConfig config = tiny_config();
  config.clients = 1;
  config.retry.backoff = RetryBackoff::kExponential;
  config.retry.base_delay_s = 2.0;
  config.retry.multiplier = 2.0;
  config.retry.max_delay_s = 5.0;
  config.retry.jitter_frac = 0.0;  // exact delays
  config.retry.max_attempts = 8;
  ClientPopulation pop(config);

  // Failure after attempt k schedules the retry base * 2^(k-1), capped at 5.
  const std::vector<double> expected_gaps = {2.0, 4.0, 5.0, 5.0};
  double t = 0.0;
  auto due = pop.collect_due(t, 0.5);
  ASSERT_EQ(due.size(), 1u);
  for (const double gap : expected_gaps) {
    pop.on_rejected(due[0], t);
    // Not due just before the expected retry time, due right at it.
    EXPECT_TRUE(pop.collect_due(t + gap - 0.01, 0.005).empty());
    due = pop.collect_due(t + gap, 0.01);
    ASSERT_EQ(due.size(), 1u) << "gap " << gap;
    t += gap;
  }
}

TEST(ClientPopulation, StationaryLaunchHoldsTheSteadyArrivalRate) {
  // With start_spread == think_time the superposed renewal process is
  // stationary: the intent rate must sit at clients / think_time from the
  // first window, with no mid-warmup surge (a uniform start window used to
  // double the rate around t = start_spread).
  ClientPopulationConfig config;
  config.clients = 20000;
  config.think_time_s = 40.0;
  config.start_spread_s = 40.0;
  config.request_timeout_s = 4.0;
  config.seed = 7;
  ClientPopulation pop(config);
  const double rate = static_cast<double>(config.clients) / config.think_time_s;
  for (int window = 0; window < 6; ++window) {
    std::uint64_t arrivals = 0;
    for (int step = 0; step < 20; ++step) {
      const double t = window * 20.0 + step;
      const auto& due = pop.collect_due(t, 1.0);
      arrivals += due.size();
      for (const auto id : due) pop.on_admitted(id, t);
      // Ideal service: closed loop at zero latency.
      pop.on_served_batch(due.data(), due.size(), t);
      pop.expire_timeouts(t + 1.0);
    }
    EXPECT_NEAR(static_cast<double>(arrivals) / 20.0, rate, rate * 0.05)
        << "window " << window;
  }
  EXPECT_TRUE(pop.conservation_ok()) << pop.conservation_report();
}

TEST(ClientPopulation, DeterministicUnderSeedAcrossIdenticalDrives) {
  auto drive = [](std::uint64_t seed) {
    ClientPopulationConfig config = tiny_config();
    config.clients = 200;
    config.start_spread_s = 10.0;
    config.seed = seed;
    ClientPopulation pop(config);
    for (int epoch = 0; epoch < 50; ++epoch) {
      const double t = epoch;
      const auto due = pop.collect_due(t, 1.0);
      std::vector<std::uint32_t> served;
      for (std::size_t i = 0; i < due.size(); ++i) {
        // Reject every third attempt, serve the rest.
        if (i % 3 == 0) {
          pop.on_rejected(due[i], t);
        } else {
          pop.on_admitted(due[i], t);
          served.push_back(due[i]);
        }
      }
      pop.on_served_batch(served.data(), served.size(), t + 0.5);
      if (epoch == 20) pop.disconnect_fraction(0.5, t + 0.9);
      pop.expire_timeouts(t + 1.0);
    }
    return pop.ledger();
  };
  const ClientLedger a = drive(11);
  const ClientLedger b = drive(11);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.disconnects, b.disconnects);
  EXPECT_EQ(a.abandoned, b.abandoned);
  const ClientLedger c = drive(12);
  EXPECT_NE(a.attempts, c.attempts);
}

TEST(ClientPopulation, RejectsBadConfigAndBadCalls) {
  ClientPopulationConfig config = tiny_config();
  config.clients = 0;
  EXPECT_THROW(ClientPopulation{config}, std::invalid_argument);
  config = tiny_config();
  config.retry.max_attempts = 0;
  EXPECT_THROW(ClientPopulation{config}, std::invalid_argument);
  config = tiny_config();
  config.retry.jitter_frac = 1.0;
  EXPECT_THROW(ClientPopulation{config}, std::invalid_argument);
  config = tiny_config();
  config.think_time_s = 0.0;
  EXPECT_THROW(ClientPopulation{config}, std::invalid_argument);
  // The attempt counter is one byte, in both engines.
  config = tiny_config();
  config.retry.max_attempts = 256;
  EXPECT_THROW(ClientPopulation{config}, std::invalid_argument);
  EXPECT_THROW(LegacyClientPopulation{config}, std::invalid_argument);
  config.retry.max_attempts = 255;
  EXPECT_NO_THROW(ClientPopulation{config});
  EXPECT_NO_THROW(LegacyClientPopulation{config});

  ClientPopulation pop(tiny_config());
  EXPECT_THROW(pop.on_admitted(99, 0.0), std::invalid_argument);
  // Answering a client that has no attempt in flight is a driver bug.
  EXPECT_THROW(pop.on_rejected(0, 0.0), std::logic_error);
  EXPECT_THROW(pop.on_admitted(0, 0.0), std::logic_error);
}

// Every call that takes a time refuses NaN and both infinities before it
// changes anything, in both engines alike: a NaN due would otherwise be
// collected by one engine and stall the other's heap.
template <typename Population>
void expect_non_finite_times_refused() {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf,
                           -inf}) {
    SCOPED_TRACE(bad);
    Population pop(tiny_config());
    const auto refused = [&pop](auto call) {
      const ClientLedger before = pop.ledger();
      EXPECT_THROW(call(), std::invalid_argument);
      EXPECT_TRUE(pop.ledger() == before);
    };
    refused([&] { pop.collect_due(bad, 1.0); });
    refused([&] { pop.collect_due(0.0, bad); });
    const std::vector<std::uint32_t> due = pop.collect_due(0.0, 1.0);
    ASSERT_EQ(due.size(), 4u);
    const std::vector<std::uint8_t> admit(due.size(), 1);
    refused([&] { pop.answer_due(admit, bad); });
    refused([&] { pop.on_admitted(due[0], bad); });
    refused([&] { pop.on_rejected(due[0], bad); });
    pop.answer_due(admit, 0.0);
    if constexpr (Population::kBatchServe) {
      refused([&] { pop.on_served_batch(due.data(), due.size(), bad); });
      pop.on_served_batch(due.data(), due.size(), 0.5);
    } else {
      refused([&] { pop.on_served(due[0], bad); });
      for (const std::uint32_t id : due) pop.on_served(id, 0.5);
    }
    refused([&] { pop.expire_timeouts(bad); });
    refused([&] { pop.disconnect_all(bad); });
    refused([&] { pop.disconnect_fraction(0.5, bad); });
    pop.expire_timeouts(1.0);
    EXPECT_EQ(pop.ledger().served, 4u);
    EXPECT_TRUE(pop.conservation_ok()) << pop.conservation_report();
  }
}

TEST(ClientPopulation, SweepEngineRefusesNonFiniteTimes) {
  expect_non_finite_times_refused<ClientPopulation>();
}

TEST(ClientPopulation, LegacyEngineRefusesNonFiniteTimes) {
  expect_non_finite_times_refused<LegacyClientPopulation>();
}

// Client ids are 32-bit: a larger population would truncate them (and the
// disconnect_fraction id loop would never end), so it is refused before any
// state is allocated.
TEST(ClientPopulation, RejectsMoreClientsThan32BitIdsCanName) {
  ClientPopulationConfig config = tiny_config();
  config.clients = std::size_t{1} << 32;
  EXPECT_THROW(validate_client_population_config(config),
               std::invalid_argument);
  EXPECT_THROW(ClientPopulation{config}, std::invalid_argument);
  EXPECT_THROW(LegacyClientPopulation{config}, std::invalid_argument);
  config.clients = std::numeric_limits<std::uint32_t>::max();
  EXPECT_NO_THROW(validate_client_population_config(config));
}

}  // namespace
}  // namespace epm::workload
