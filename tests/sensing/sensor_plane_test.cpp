#include "sensing/sensor_plane.h"

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "faults/types.h"

namespace {

using epm::faults::FaultEvent;
using epm::faults::FaultType;
using epm::sensing::ChannelKind;
using epm::sensing::make_channel;
using epm::sensing::SensorPlane;
using epm::sensing::SensorPlaneConfig;
using epm::sensing::SensorReading;

TEST(SensingSensorPlane, ExactPlaneIsBitExact) {
  SensorPlane plane(SensorPlaneConfig{});  // redundancy 1, zero noise
  const auto key = make_channel(ChannelKind::kServiceArrival, 0);
  for (int i = 0; i < 5; ++i) {
    const double truth = 123.456 + 7.0 * i;
    const auto readings = plane.sample(key, truth, 60.0 * i);
    ASSERT_EQ(readings.size(), 1u);
    EXPECT_EQ(readings[0].value, truth);  // bitwise, not approximately
    EXPECT_TRUE(readings[0].valid);
    EXPECT_FALSE(readings[0].degraded);
    EXPECT_DOUBLE_EQ(readings[0].time_s, 60.0 * i);
  }
  EXPECT_EQ(plane.readings(), 5u);
  EXPECT_EQ(plane.dropped_readings(), 0u);
}

TEST(SensingSensorPlane, RejectsInvalidConfig) {
  SensorPlaneConfig config;
  config.redundancy = 0;
  EXPECT_THROW(SensorPlane{config}, std::invalid_argument);
  config = {};
  config.fault_domains = 0;
  EXPECT_THROW(SensorPlane{config}, std::invalid_argument);
  config = {};
  config.base_noise_frac = -0.1;
  EXPECT_THROW(SensorPlane{config}, std::invalid_argument);
}

TEST(SensingSensorPlane, NoiseIsSeedStableAndScalesWithTruth) {
  SensorPlaneConfig config;
  config.base_noise_frac = 0.1;
  const auto key = make_channel(ChannelKind::kItPower, 0);

  SensorPlane a(config);
  SensorPlane b(config);
  config.seed ^= 0x1234;
  SensorPlane c(config);

  const auto ra = a.sample(key, 1000.0, 0.0);
  const auto rb = b.sample(key, 1000.0, 0.0);
  const auto rc = c.sample(key, 1000.0, 0.0);
  EXPECT_EQ(ra[0].value, rb[0].value);  // same seed -> identical stream
  EXPECT_NE(ra[0].value, rc[0].value);  // different seed -> different stream
  EXPECT_NE(ra[0].value, 1000.0);       // noise actually applied
}

TEST(SensingSensorPlane, ChannelStreamsAreIndependentOfSamplingOrder) {
  SensorPlaneConfig config;
  config.base_noise_frac = 0.05;
  const auto x = make_channel(ChannelKind::kServiceArrival, 0);
  const auto y = make_channel(ChannelKind::kServiceArrival, 1);

  SensorPlane only_x(config);
  SensorPlane interleaved(config);
  for (int i = 0; i < 4; ++i) {
    const double truth = 500.0 + i;
    (void)interleaved.sample(y, 42.0, i * 60.0);  // extra channel activity
    const auto rx = only_x.sample(x, truth, i * 60.0);
    const auto ri = interleaved.sample(x, truth, i * 60.0);
    EXPECT_EQ(rx[0].value, ri[0].value);
  }
}

TEST(SensingSensorPlane, QuantizationRoundsReadings) {
  SensorPlaneConfig config;
  config.quantization = 0.5;
  SensorPlane plane(config);
  const auto key = make_channel(ChannelKind::kZoneTemp, 0);
  const auto readings = plane.sample(key, 22.26, 0.0);
  EXPECT_DOUBLE_EQ(readings[0].value, 22.5);
}

TEST(SensingSensorPlane, DropoutInvalidatesOnlyItsFaultDomain) {
  SensorPlaneConfig config;
  config.fault_domains = 3;
  SensorPlane plane(config);
  const auto svc0 = make_channel(ChannelKind::kServiceArrival, 0);
  const auto svc1 = make_channel(ChannelKind::kServiceArrival, 1);
  const auto zone = make_channel(ChannelKind::kZoneTemp, 0);  // last domain

  const FaultEvent fault{FaultType::kSensorDropout, 0.0, 600.0, 0, 1.0};
  EXPECT_TRUE(plane.on_fault(fault, /*onset=*/true, 0.0));
  EXPECT_TRUE(plane.dropout_active(svc0));
  EXPECT_FALSE(plane.dropout_active(svc1));
  EXPECT_FALSE(plane.dropout_active(zone));

  EXPECT_FALSE(plane.sample(svc0, 10.0, 0.0)[0].valid);
  EXPECT_TRUE(plane.sample(svc1, 10.0, 0.0)[0].valid);
  EXPECT_TRUE(plane.sample(zone, 22.0, 0.0)[0].valid);
  EXPECT_EQ(plane.dropped_readings(), 1u);

  EXPECT_TRUE(plane.on_fault(fault, /*onset=*/false, 600.0));
  EXPECT_TRUE(plane.sample(svc0, 10.0, 600.0)[0].valid);
}

TEST(SensingSensorPlane, StuckFreezesEachSensorAtItsLastValue) {
  SensorPlaneConfig config;
  config.redundancy = 2;
  SensorPlane plane(config);
  const auto key = make_channel(ChannelKind::kServiceArrival, 0);

  // A round lives in the plane until the next sample: keep a copy.
  const auto first = plane.sample(key, 10.0, 0.0);
  const std::vector<SensorReading> before(first.begin(), first.end());
  const FaultEvent fault{FaultType::kSensorStuck, 60.0, 600.0, 0, 1.0};
  EXPECT_TRUE(plane.on_fault(fault, true, 60.0));

  const auto frozen = plane.sample(key, 99.0, 60.0);
  ASSERT_EQ(frozen.size(), 2u);
  for (std::size_t r = 0; r < frozen.size(); ++r) {
    EXPECT_EQ(frozen[r].value, before[r].value);
    EXPECT_TRUE(frozen[r].valid);
    EXPECT_TRUE(frozen[r].degraded);
  }
  EXPECT_EQ(plane.stuck_readings(), 2u);

  EXPECT_TRUE(plane.on_fault(fault, false, 660.0));
  EXPECT_EQ(plane.sample(key, 99.0, 660.0)[0].value, 99.0);
}

TEST(SensingSensorPlane, NoiseFaultSeveritiesStackAndClearWithoutResidue) {
  SensorPlane plane(SensorPlaneConfig{});
  const auto key = make_channel(ChannelKind::kServiceArrival, 0);
  const FaultEvent a{FaultType::kSensorNoise, 0.0, 600.0, 0, 0.1};
  const FaultEvent b{FaultType::kSensorNoise, 0.0, 900.0, 0, 0.25};
  EXPECT_TRUE(plane.on_fault(a, true, 0.0));
  EXPECT_TRUE(plane.on_fault(b, true, 0.0));
  EXPECT_DOUBLE_EQ(plane.fault_noise_frac(key), 0.35);
  EXPECT_TRUE(plane.sample(key, 100.0, 0.0)[0].degraded);
  EXPECT_EQ(plane.noisy_readings(), 1u);

  EXPECT_TRUE(plane.on_fault(a, false, 600.0));
  EXPECT_TRUE(plane.on_fault(b, false, 900.0));
  EXPECT_EQ(plane.fault_noise_frac(key), 0.0);  // exactly zero, no residue
  EXPECT_EQ(plane.sample(key, 100.0, 900.0)[0].value, 100.0);  // exact again
}

TEST(SensingSensorPlane, IgnoresNonSensorFaultTypes) {
  SensorPlane plane(SensorPlaneConfig{});
  EXPECT_FALSE(plane.on_fault({FaultType::kServerCrash, 0.0, 60.0, 0, 0.5},
                              true, 0.0));
  EXPECT_FALSE(plane.on_fault({FaultType::kActuatorFail, 0.0, 60.0, 0, 0.5},
                              true, 0.0));
  EXPECT_FALSE(plane.on_fault({FaultType::kUtilityOutage, 0.0, 60.0, 0, 1.0},
                              true, 0.0));
}

}  // namespace
