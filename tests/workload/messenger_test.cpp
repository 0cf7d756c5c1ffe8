#include "workload/messenger.h"

#include <gtest/gtest.h>

#include "core/units.h"

namespace epm::workload {
namespace {

MessengerTrace week_trace(std::uint64_t seed = 42) {
  MessengerConfig config;
  config.seed = seed;
  config.step_s = 60.0;  // 1-minute samples keep the test fast
  return generate_messenger_trace(config, weeks(1.0));
}

TEST(Messenger, SeriesCoverTheHorizon) {
  const auto trace = week_trace();
  EXPECT_EQ(trace.login_rate_per_s.size(), trace.connections.size());
  EXPECT_NEAR(trace.connections.end_s(), weeks(1.0), 60.0);
}

TEST(Messenger, DeterministicForSeed) {
  const auto a = week_trace(7);
  const auto b = week_trace(7);
  ASSERT_EQ(a.connections.size(), b.connections.size());
  for (std::size_t i = 0; i < a.connections.size(); i += 97) {
    ASSERT_DOUBLE_EQ(a.connections[i], b.connections[i]);
    ASSERT_DOUBLE_EQ(a.login_rate_per_s[i], b.login_rate_per_s[i]);
  }
  EXPECT_EQ(a.flash_crowds.size(), b.flash_crowds.size());
}

TEST(Messenger, DifferentSeedsDiffer) {
  const auto a = week_trace(1);
  const auto b = week_trace(2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.connections.size(); i += 13) {
    if (a.login_rate_per_s[i] != b.login_rate_per_s[i]) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Messenger, NonNegativeSeries) {
  const auto trace = week_trace();
  for (std::size_t i = 0; i < trace.connections.size(); ++i) {
    ASSERT_GE(trace.connections[i], 0.0);
    ASSERT_GE(trace.login_rate_per_s[i], 0.0);
  }
}

TEST(Messenger, AfternoonRoughlyTwiceMidnight) {
  // Paper: "the number of users in the early afternoon is almost twice as
  // much as those after midnight".
  MessengerConfig config;
  config.step_s = 60.0;
  const auto trace = generate_messenger_trace(config, weeks(1.0));
  const auto shape = summarize_messenger_trace(trace, DiurnalModel(config.diurnal));
  EXPECT_GT(shape.afternoon_to_midnight_ratio, 1.6);
  EXPECT_LT(shape.afternoon_to_midnight_ratio, 2.6);
}

TEST(Messenger, WeekdaysAboveWeekends) {
  MessengerConfig config;
  config.step_s = 60.0;
  const auto trace = generate_messenger_trace(config, weeks(1.0));
  const auto shape = summarize_messenger_trace(trace, DiurnalModel(config.diurnal));
  EXPECT_GT(shape.weekday_to_weekend_ratio, 1.05);
}

TEST(Messenger, FlashCrowdsPresentAndSpiky) {
  MessengerConfig config;
  config.step_s = 60.0;
  config.flash.rate_per_day = 2.0;
  config.seed = 11;
  const auto trace = generate_messenger_trace(config, weeks(1.0));
  EXPECT_GT(trace.flash_crowds.size(), 4u);   // ~14 expected
  EXPECT_LT(trace.flash_crowds.size(), 40u);
  // Peak login rate should exceed the flash-free weekday peak.
  MessengerConfig calm = config;
  calm.flash.rate_per_day = 0.0;
  calm.noise_cv = 0.0;
  const auto calm_trace = generate_messenger_trace(calm, weeks(1.0));
  EXPECT_GT(trace.login_rate_per_s.stats().max(),
            1.2 * calm_trace.login_rate_per_s.stats().max());
}

TEST(Messenger, NoFlashNoNoiseLoginPeakMatchesNormalization) {
  MessengerConfig config;
  config.step_s = 60.0;
  config.flash.rate_per_day = 0.0;
  config.noise_cv = 0.0;
  const auto trace = generate_messenger_trace(config, weeks(1.0));
  EXPECT_NEAR(trace.login_rate_per_s.stats().max(), config.peak_login_rate_per_s,
              config.peak_login_rate_per_s * 0.01);
}

TEST(Messenger, ConnectionsNearSteadyStateOfLoginRate) {
  // With no noise/flash, connections should track lambda * mean_session.
  MessengerConfig config;
  config.step_s = 60.0;
  config.flash.rate_per_day = 0.0;
  config.noise_cv = 0.0;
  const auto trace = generate_messenger_trace(config, weeks(1.0));
  const double mean_lambda = trace.login_rate_per_s.stats().mean();
  const double mean_conn = trace.connections.stats().mean();
  EXPECT_NEAR(mean_conn, mean_lambda * config.mean_session_s,
              0.05 * mean_lambda * config.mean_session_s);
}

TEST(Messenger, InvalidConfigThrows) {
  MessengerConfig config;
  config.step_s = 0.0;
  EXPECT_THROW(generate_messenger_trace(config, days(1.0)), std::invalid_argument);
  config = MessengerConfig{};
  config.mean_session_s = -1.0;
  EXPECT_THROW(generate_messenger_trace(config, days(1.0)), std::invalid_argument);
  config = MessengerConfig{};
  EXPECT_THROW(generate_messenger_trace(config, 0.0), std::invalid_argument);
}

TEST(Messenger, FlashCrowdMagnitudesWithinConfiguredRange) {
  MessengerConfig config;
  config.step_s = 300.0;
  config.flash.rate_per_day = 3.0;
  const auto trace = generate_messenger_trace(config, weeks(2.0));
  ASSERT_FALSE(trace.flash_crowds.empty());
  for (const auto& fc : trace.flash_crowds) {
    EXPECT_GE(fc.magnitude, kFlashMagnitudeMin);
    EXPECT_LE(fc.magnitude, kFlashMagnitudeMax);
    EXPECT_GE(fc.start_s, 0.0);
    EXPECT_LT(fc.start_s, weeks(2.0));
  }
}

}  // namespace
}  // namespace epm::workload
