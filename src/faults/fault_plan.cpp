#include "faults/fault_plan.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "core/rng.h"
#include "faults/script_text.h"

namespace epm::faults {
namespace {

constexpr const char* kNoun = "fault entry";

const char* kTypeTokens[kFaultTypeCount] = {
    "crash", "psu", "crac", "derate", "sensor-drop", "sensor-stuck",
    "outage", "surge", "sensor-noise", "actuator-fail", "region-loss",
    "ctl-crash", "ctl-hang", "ctl-restart",
};

void validate_event(const FaultEvent& event) {
  if (event.start_s < 0.0) {
    throw std::invalid_argument("FaultEvent start_s must be >= 0");
  }
  if (!(event.duration_s > 0.0)) {
    throw std::invalid_argument("FaultEvent duration_s must be > 0");
  }
  if (event.severity < 0.0) {
    throw std::invalid_argument("FaultEvent severity must be >= 0");
  }
}

void sort_events(std::vector<FaultEvent>& events) {
  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return std::make_tuple(a.start_s, static_cast<int>(a.type),
                                     a.target, a.duration_s, a.severity) <
                     std::make_tuple(b.start_s, static_cast<int>(b.type),
                                     b.target, b.duration_s, b.severity);
            });
}

/// Parses a full token as an unsigned target index; rejects signs, trailing
/// garbage, and values that overflow std::size_t.
std::size_t parse_target(const std::string& raw, const std::string& entry) {
  const std::string token = trim(raw);
  if (token.empty() ||
      !std::isdigit(static_cast<unsigned char>(token.front()))) {
    throw std::invalid_argument("bad target token '" + token +
                                "' in fault entry '" + entry + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || errno == ERANGE ||
      value > std::numeric_limits<std::size_t>::max()) {
    throw std::invalid_argument("bad target token '" + token +
                                "' in fault entry '" + entry + "'");
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

std::string to_string(FaultType type) {
  const auto index = static_cast<std::size_t>(type);
  if (index >= kFaultTypeCount) {
    throw std::invalid_argument("unknown FaultType");
  }
  return kTypeTokens[index];
}

FaultType fault_type_from_string(const std::string& token) {
  for (std::size_t i = 0; i < kFaultTypeCount; ++i) {
    if (token == kTypeTokens[i]) {
      return static_cast<FaultType>(i);
    }
  }
  throw std::invalid_argument("unknown fault type token: " + token);
}

FaultPlan FaultPlan::scripted(std::vector<FaultEvent> events) {
  for (const auto& event : events) {
    validate_event(event);
  }
  sort_events(events);
  FaultPlan plan;
  plan.events_ = std::move(events);
  return plan;
}

FaultPlan FaultPlan::sampled(const FaultPlanConfig& config) {
  if (!(config.horizon_s > 0.0)) {
    throw std::invalid_argument("FaultPlanConfig horizon_s must be > 0");
  }
  double expected_events = 0.0;
  for (const FaultRateSpec& spec : config.rates) {
    if (spec.rate_per_day > 0.0) {
      expected_events += spec.rate_per_day / 86400.0 * config.horizon_s;
    }
  }
  if (!(expected_events <= kMaxExpectedEvents)) {
    char text[96];
    std::snprintf(text, sizeof text, "FaultPlan: %g expected events exceed the %g bound",
                  expected_events, kMaxExpectedEvents);
    throw std::invalid_argument(text);
  }
  std::vector<FaultEvent> events;
  // One independent stream per type: SplitMix64 seeded from the plan seed
  // produces the per-type sub-seed at position `type`, so disabling or
  // retuning one type never shifts another type's draws.
  SplitMix64 expander(config.seed);
  for (std::size_t i = 0; i < kFaultTypeCount; ++i) {
    const std::uint64_t stream_seed = expander.next();
    const FaultRateSpec& spec = config.rates[i];
    if (!(spec.rate_per_day > 0.0)) {
      continue;
    }
    if (spec.target_count == 0) {
      throw std::invalid_argument("FaultRateSpec target_count must be > 0");
    }
    Rng rng(stream_seed);
    const double rate_per_s = spec.rate_per_day / 86400.0;
    double t = rng.exponential(rate_per_s);
    while (t < config.horizon_s) {
      FaultEvent event;
      event.type = static_cast<FaultType>(i);
      event.start_s = t;
      event.duration_s = std::max(
          spec.min_duration_s, rng.exponential(1.0 / spec.mean_duration_s));
      event.target = spec.target_count > 1
                         ? static_cast<std::size_t>(rng.uniform_int(
                               0, static_cast<std::int64_t>(spec.target_count) - 1))
                         : 0;
      event.severity = spec.severity_lo < spec.severity_hi
                           ? rng.uniform(spec.severity_lo, spec.severity_hi)
                           : spec.severity_lo;
      events.push_back(event);
      t += rng.exponential(rate_per_s);
    }
  }
  return scripted(std::move(events));
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  std::vector<FaultEvent> events;
  for (const std::string& entry : script_entries(spec)) {
    std::string head = script_head(entry, kNoun);
    FaultEvent event;
    const auto colon = head.find(':');
    if (colon != std::string::npos) {
      event.target = parse_target(head.substr(colon + 1), entry);
      head = head.substr(0, colon);
    }
    const std::string type_token = trim(head);
    if (type_token.empty()) {
      throw std::invalid_argument("fault entry missing type: '" + entry + "'");
    }
    event.type = fault_type_from_string(type_token);
    const ScriptTiming timing = script_timing(entry, kNoun);
    event.start_s = timing.start_s;
    event.duration_s = timing.duration_s;
    event.severity = timing.severity;
    if (event.start_s < 0.0) {
      throw std::invalid_argument("fault entry start must be >= 0: '" + entry +
                                  "'");
    }
    if (!(event.duration_s > 0.0)) {
      throw std::invalid_argument("fault entry duration must be > 0: '" +
                                  entry + "'");
    }
    if (event.severity < 0.0) {
      throw std::invalid_argument("fault entry severity must be >= 0: '" +
                                  entry + "'");
    }
    events.push_back(event);
  }
  return scripted(std::move(events));
}

FaultPlan FaultPlan::merged_with(const FaultPlan& other) const {
  std::vector<FaultEvent> events = events_;
  events.insert(events.end(), other.events_.begin(), other.events_.end());
  return scripted(std::move(events));
}

double FaultPlan::horizon_s() const {
  double horizon = 0.0;
  for (const auto& event : events_) {
    horizon = std::max(horizon, event.end_s());
  }
  return horizon;
}

std::size_t FaultPlan::count(FaultType type) const {
  std::size_t n = 0;
  for (const auto& event : events_) {
    if (event.type == type) {
      ++n;
    }
  }
  return n;
}

void FaultPlan::validate_targets(std::size_t service_count,
                                 std::size_t crac_count,
                                 std::size_t controller_count) const {
  const auto reject = [](const FaultEvent& event, const char* kind,
                         std::size_t count) {
    throw std::invalid_argument(
        "fault entry '" + faults::to_string(event.type) + ":" +
        std::to_string(event.target) + "@" + std::to_string(event.start_s) +
        "' targets unknown " + kind + " " + std::to_string(event.target) +
        " (facility has " + std::to_string(count) + ")");
  };
  for (const auto& event : events_) {
    switch (event.type) {
      case FaultType::kServerCrash:
      case FaultType::kPsuTrip:
      case FaultType::kFlashCrowd:
        if (event.target >= service_count) {
          reject(event, "service", service_count);
        }
        break;
      case FaultType::kSensorDropout:
      case FaultType::kSensorStuck:
      case FaultType::kSensorNoise:
        if (event.target >= service_count) {
          reject(event, "sensing domain", service_count);
        }
        break;
      case FaultType::kCracFailure:
      case FaultType::kCoolingDerate:
        if (event.target >= crac_count) {
          reject(event, "CRAC unit", crac_count);
        }
        break;
      case FaultType::kControllerCrash:
      case FaultType::kControllerHang:
      case FaultType::kControllerRestart:
        if (controller_count != kAnyTarget &&
            event.target >= controller_count) {
          reject(event, "controller replica", controller_count);
        }
        break;
      case FaultType::kUtilityOutage:
      case FaultType::kActuatorFail:
      case FaultType::kRegionLoss:
        break;  // facility- or fleet-wide; no index to check
    }
  }
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const auto& event : events_) {
    if (!out.empty()) {
      out += ';';
    }
    out += faults::to_string(event.type);
    if (event.target != 0) {
      out += ':' + std::to_string(event.target);
    }
    out += format_script_timing(event.start_s, event.duration_s,
                                event.severity);
  }
  return out;
}

std::uint64_t FaultPlan::fingerprint() const {
  // FNV-1a over every event field (doubles by their IEEE bit pattern),
  // order-sensitive because events_ is canonically sorted.
  std::uint64_t hash = fnv1a({});
  for (const auto& event : events_) {
    hash = fnv1a({static_cast<std::uint64_t>(event.type),
                  std::bit_cast<std::uint64_t>(event.start_s),
                  std::bit_cast<std::uint64_t>(event.duration_s),
                  static_cast<std::uint64_t>(event.target),
                  std::bit_cast<std::uint64_t>(event.severity)},
                 hash);
  }
  return hash;
}

FaultPlan make_storm_plan(double intensity, double horizon_s,
                          std::uint64_t seed, std::size_t service_count,
                          std::size_t crac_count) {
  if (intensity < 0.0) {
    throw std::invalid_argument("storm intensity must be >= 0");
  }
  // Scripted core: a guaranteed utility outage long enough to exhaust a
  // reference UPS window, and a full CRAC failure, both scaling in duration
  // with intensity so every swept point exercises both the power and the
  // cooling paths.
  std::vector<FaultEvent> core;
  const double outage_start = 0.25 * horizon_s;
  const double outage_duration = (600.0 + 1800.0 * intensity);
  core.push_back({FaultType::kUtilityOutage, outage_start, outage_duration,
                  0, 1.0});
  const double crac_start = 0.55 * horizon_s;
  const double crac_duration = (900.0 + 2700.0 * intensity);
  core.push_back({FaultType::kCracFailure, crac_start, crac_duration,
                  crac_count > 0 ? crac_count - 1 : 0, 1.0});
  FaultPlan plan = FaultPlan::scripted(std::move(core));

  if (intensity > 0.0) {
    FaultPlanConfig config;
    config.horizon_s = horizon_s;
    config.seed = seed;
    auto& crash = config.rate(FaultType::kServerCrash);
    crash.rate_per_day = 4.0 * intensity;
    crash.mean_duration_s = 900.0;
    crash.severity_lo = 0.05;
    crash.severity_hi = 0.25;
    crash.target_count = service_count;
    auto& psu = config.rate(FaultType::kPsuTrip);
    psu.rate_per_day = 1.5 * intensity;
    psu.mean_duration_s = 1800.0;
    psu.severity_lo = 0.1;
    psu.severity_hi = 0.3;
    psu.target_count = service_count;
    auto& derate = config.rate(FaultType::kCoolingDerate);
    derate.rate_per_day = 2.0 * intensity;
    derate.mean_duration_s = 1800.0;
    derate.severity_lo = 0.2;
    derate.severity_hi = 0.6;
    derate.target_count = crac_count;
    auto& dropout = config.rate(FaultType::kSensorDropout);
    dropout.rate_per_day = 3.0 * intensity;
    dropout.mean_duration_s = 600.0;
    dropout.target_count = service_count;
    auto& stuck = config.rate(FaultType::kSensorStuck);
    stuck.rate_per_day = 2.0 * intensity;
    stuck.mean_duration_s = 600.0;
    stuck.target_count = service_count;
    auto& surge = config.rate(FaultType::kFlashCrowd);
    surge.rate_per_day = 1.0 * intensity;
    surge.mean_duration_s = 1200.0;
    surge.severity_lo = 1.5;
    surge.severity_hi = 1.5 + intensity;
    surge.target_count = service_count;
    plan = plan.merged_with(FaultPlan::sampled(config));
  }
  return plan;
}

}  // namespace epm::faults
