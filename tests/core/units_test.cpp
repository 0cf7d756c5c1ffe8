#include "core/units.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/require.h"

namespace epm {
namespace {

TEST(Units, TimeConversionsRoundTrip) {
  static_assert(minutes(1.0) == 60.0);
  static_assert(hours(1.0) == 3600.0);
  static_assert(days(1.0) == 86400.0);
  static_assert(weeks(1.0) == 7.0 * 86400.0);
  EXPECT_DOUBLE_EQ(to_minutes(minutes(42.0)), 42.0);
  EXPECT_DOUBLE_EQ(to_hours(hours(3.5)), 3.5);
  EXPECT_DOUBLE_EQ(to_days(days(10.0)), 10.0);
}

TEST(Units, PowerAndEnergy) {
  static_assert(kilowatts(1.0) == 1.0e3);
  static_assert(megawatts(2.0) == 2.0e6);
  EXPECT_DOUBLE_EQ(to_kilowatts(kilowatts(7.0)), 7.0);
  EXPECT_DOUBLE_EQ(to_megawatts(megawatts(0.5)), 0.5);
  // 1 kW for 1 hour is 1 kWh.
  EXPECT_DOUBLE_EQ(to_kwh(kilowatts(1.0) * hours(1.0)), 1.0);
  EXPECT_DOUBLE_EQ(kwh(2.0), 7.2e6);
  EXPECT_DOUBLE_EQ(to_mwh(kwh(1000.0)), 1.0);
}

TEST(Units, Frequency) {
  static_assert(gigahertz(2.4) == 2.4e9);
  EXPECT_DOUBLE_EQ(to_gigahertz(gigahertz(1.2)), 1.2);
}

TEST(Require, ThrowsTypedExceptions) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_NO_THROW(ensure(true, "fine"));
  EXPECT_THROW(require(false, "bad argument"), std::invalid_argument);
  EXPECT_THROW(ensure(false, "broken invariant"), std::logic_error);
  try {
    require(false, "the message");
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "the message");
  }
}

TEST(Require, FormatsACallableMessageOnlyOnFailure) {
  int built = 0;
  const auto message = [&built] {
    ++built;
    return "value " + std::to_string(built);
  };
  require(true, message);
  ensure(true, message);
  EXPECT_EQ(built, 0);
  try {
    require(false, message);
    ADD_FAILURE() << "require(false) did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "value 1");
  }
  EXPECT_THROW(ensure(false, message), std::logic_error);
  EXPECT_EQ(built, 2);
  // The condition is evaluated as written: a NaN comparison still fails.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(require(nan > 0.0, message), std::invalid_argument);
}

TEST(Require, CheckedCountRefusesWhatACastCannotHold) {
  EXPECT_EQ(0U, checked_count(0.0, "steps"));
  EXPECT_EQ(0U, checked_count(-0.0, "steps"));
  EXPECT_EQ(1440U, checked_count(86400.0 / 60.0, "steps"));
  // The largest double below 2^64 converts exactly; 2^64 itself does not.
  const double top = std::nextafter(0x1.0p64, 0.0);
  EXPECT_EQ(static_cast<std::size_t>(top), checked_count(top, "steps"));
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {0x1.0p64, 1e300, inf, -inf, -1.0,
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(checked_count(bad, "steps"), std::invalid_argument) << bad;
  }
  try {
    checked_count(8.64e304, "trace: horizon / step");
    ADD_FAILURE() << "checked_count(8.64e304) did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ("trace: horizon / step = 8.64e+304 is not a count "
                 "std::size_t can hold",
                 e.what());
  }
}

}  // namespace
}  // namespace epm
