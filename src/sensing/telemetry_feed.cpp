#include "sensing/telemetry_feed.h"

#include <algorithm>

namespace epm::sensing {

bool TelemetryFeed::publish(telemetry::CounterKey key,
                            std::span<const SensorReading> readings,
                            double now_s) {
  if (readings.empty() || !readings.front().valid) {
    store_->record_dropout(1);
    return false;
  }
  store_->append(key, now_s, readings.front().value, readings.front().degraded);
  return true;
}

double TelemetryFeed::recent_mean(telemetry::CounterKey key, double now_s,
                                  double window_s) const {
  if (!store_->contains(key)) return 0.0;
  const double t0 = std::max(0.0, now_s - window_s);
  const telemetry::Aggregate agg = store_->range(key, t0, now_s);
  return agg.mean();
}

}  // namespace epm::sensing
