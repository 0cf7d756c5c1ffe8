#include "sensing/sensor_plane.h"

#include <cmath>
#include <stdexcept>

namespace epm::sensing {

SensorPlane::SensorPlane(const SensorPlaneConfig& config) : config_(config) {
  if (config_.redundancy == 0) {
    throw std::invalid_argument("SensorPlane: redundancy must be >= 1");
  }
  if (config_.fault_domains == 0) {
    throw std::invalid_argument("SensorPlane: fault_domains must be >= 1");
  }
  if (config_.base_noise_frac < 0.0 || config_.quantization < 0.0) {
    throw std::invalid_argument("SensorPlane: noise/quantization must be >= 0");
  }
  domains_.resize(config_.fault_domains);
}

SensorPlane::ChannelState& SensorPlane::state(ChannelKey channel) {
  auto it = channels_.find(channel);
  if (it == channels_.end()) {
    // Seed from (plane seed, channel key) so a channel's stream does not
    // depend on which other channels exist or when they were first sampled.
    SplitMix64 expander(config_.seed ^ (channel * 0x9e3779b97f4a7c15ULL));
    it = channels_
             .emplace(channel,
                      ChannelState(expander.next(), config_.redundancy))
             .first;
  }
  return it->second;
}

const SensorPlane::DomainFaults& SensorPlane::domain(ChannelKey channel) const {
  return domains_[domain_of(channel, config_.fault_domains)];
}

std::vector<SensorReading> SensorPlane::sample(ChannelKey channel, double truth,
                                               double now_s) {
  ChannelState& st = state(channel);
  const DomainFaults& faults = domain(channel);
  const double extra_noise = fault_noise_frac(channel);
  const double sigma = (config_.base_noise_frac + extra_noise) * std::abs(truth);

  std::vector<SensorReading> out(config_.redundancy);
  for (std::uint32_t r = 0; r < config_.redundancy; ++r) {
    SensorReading& reading = out[r];
    reading.time_s = now_s;
    ++readings_;
    if (faults.dropout > 0) {
      reading.valid = false;
      reading.degraded = true;
      ++dropped_;
      continue;
    }
    if (faults.stuck > 0) {
      // Each sensor repeats the value it last emitted (0 if never sampled).
      reading.value = st.last[r];
      reading.degraded = true;
      ++stuck_;
      continue;
    }
    double value = truth;
    if (sigma > 0.0) {
      value += st.rng.normal(0.0, sigma);
    }
    if (config_.quantization > 0.0) {
      value = std::round(value / config_.quantization) * config_.quantization;
    }
    reading.value = value;
    reading.degraded = extra_noise > 0.0;
    if (reading.degraded) {
      ++noisy_;
    }
    st.last[r] = value;
  }
  return out;
}

bool SensorPlane::on_fault(const faults::FaultEvent& event, bool onset,
                           double /*now_s*/) {
  using faults::FaultType;
  DomainFaults& dom =
      domains_[event.target % static_cast<std::size_t>(config_.fault_domains)];
  switch (event.type) {
    case FaultType::kSensorDropout:
      dom.dropout += onset ? 1 : -1;
      return true;
    case FaultType::kSensorStuck:
      dom.stuck += onset ? 1 : -1;
      return true;
    case FaultType::kSensorNoise:
      if (onset) {
        dom.noise.push_back(event.severity);
      } else {
        for (auto it = dom.noise.begin(); it != dom.noise.end(); ++it) {
          if (*it == event.severity) {
            dom.noise.erase(it);
            break;
          }
        }
      }
      return true;
    default:
      return false;
  }
}

bool SensorPlane::dropout_active(ChannelKey channel) const {
  return domain(channel).dropout > 0;
}

double SensorPlane::fault_noise_frac(ChannelKey channel) const {
  double total = 0.0;
  for (double severity : domain(channel).noise) {
    total += severity;
  }
  return total;
}

}  // namespace epm::sensing
