// SensorPlane: turns ground truth into fallible readings.
//
// The macro-management layer (§3.2, Fig. 4) never sees the facility
// directly — it sees a sensing plane the paper calls huge, noisy, and
// unreliable (§5.3). The SensorPlane models that plane deterministically:
// each channel is observed by `redundancy` independent sensors, each reading
// carries Gaussian noise (a base fraction plus any active kSensorNoise
// fault severity), optional quantization, and a sample timestamp; active
// kSensorDropout faults invalidate a domain's readings and kSensorStuck
// faults freeze each sensor at the value it last emitted.
//
// Determinism: each channel owns an Rng seeded from (plane seed, channel
// key), so the readings on one channel never depend on how many other
// channels are sampled or in what order — bit-identical across 1/2/8-thread
// sweeps. With redundancy 1, zero base noise, and zero quantization the
// plane is exact: readings bit-equal the truth and consume no random draws.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/rng.h"
#include "faults/types.h"
#include "sensing/channels.h"

namespace epm::sensing {

struct SensorPlaneConfig {
  std::uint64_t seed = 0x5eed;
  /// Independent sensors per channel; the estimator can median-vote across
  /// them to reject a noisy minority.
  std::uint32_t redundancy = 1;
  /// Always-on Gaussian sigma as a fraction of |truth| (0 = exact plane).
  double base_noise_frac = 0.0;
  /// Readings rounded to multiples of this (0 = continuous).
  double quantization = 0.0;
  /// Sensor-fault domains; see channels.h domain_of().
  std::uint32_t fault_domains = 1;
};

struct SensorReading {
  double value = 0.0;
  double time_s = 0.0;
  bool valid = true;      ///< false while the domain's dropout fault is active
  bool degraded = false;  ///< stuck-at or extra-noise fault active
};

class SensorPlane {
 public:
  explicit SensorPlane(const SensorPlaneConfig& config);

  /// Samples every redundant sensor on `channel` against `truth` at `now_s`.
  std::vector<SensorReading> sample(ChannelKey channel, double truth,
                                    double now_s);

  /// FaultInjector subscriber: reacts to kSensorDropout / kSensorStuck /
  /// kSensorNoise onset and clear edges; ignores every other type.
  bool on_fault(const faults::FaultEvent& event, bool onset, double now_s);

  bool dropout_active(ChannelKey channel) const;
  /// Extra Gaussian sigma fraction from active kSensorNoise faults.
  double fault_noise_frac(ChannelKey channel) const;

  std::uint64_t readings() const { return readings_; }
  std::uint64_t dropped_readings() const { return dropped_; }
  std::uint64_t stuck_readings() const { return stuck_; }
  std::uint64_t noisy_readings() const { return noisy_; }
  const SensorPlaneConfig& config() const { return config_; }

 private:
  struct DomainFaults {
    int dropout = 0;
    int stuck = 0;
    /// Active kSensorNoise severities (kept individually so overlapping
    /// faults clear without floating-point residue).
    std::vector<double> noise;
  };

  struct ChannelState {
    Rng rng;
    std::vector<double> last;  ///< per-sensor last emitted value
    explicit ChannelState(std::uint64_t seed, std::uint32_t redundancy)
        : rng(seed), last(redundancy, 0.0) {}
  };

  ChannelState& state(ChannelKey channel);
  const DomainFaults& domain(ChannelKey channel) const;

  SensorPlaneConfig config_;
  std::map<ChannelKey, ChannelState> channels_;
  std::vector<DomainFaults> domains_;
  std::uint64_t readings_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t stuck_ = 0;
  std::uint64_t noisy_ = 0;
};

}  // namespace epm::sensing
