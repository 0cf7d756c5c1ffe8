#include "sensing/invariants.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace epm::sensing {
namespace {

std::string describe(const InvariantViolation& violation) {
  std::ostringstream out;
  out << "[" << violation.name << "] t=" << violation.time_s << "s: "
      << violation.detail;
  return out.str();
}

}  // namespace

InvariantMonitor::InvariantMonitor(const InvariantMonitorConfig& config)
    : config_(config) {}

void InvariantMonitor::record(const std::string& name, double time_s,
                              const std::string& detail) {
  ++violation_count_;
  if (violations_.size() < config_.max_recorded) {
    violations_.push_back({name, time_s, detail});
  }
  if (config_.throw_on_violation) {
    throw std::logic_error("invariant violation " +
                           describe({name, time_s, detail}));
  }
}

void InvariantMonitor::check(const InvariantInputs& in) {
  ++checks_;
  const double t = in.time_s;
  auto fmt = [](double v) {
    std::ostringstream out;
    out << v;
    return out.str();
  };

  // Finiteness first: a NaN anywhere else would sail through comparisons.
  const bool scalars_finite =
      std::isfinite(in.it_power_w) && std::isfinite(in.mechanical_power_w) &&
      std::isfinite(in.utility_draw_w) && std::isfinite(in.pue) &&
      std::isfinite(in.max_zone_temp_c) && std::isfinite(in.state_of_charge);
  bool vectors_finite = true;
  for (const auto* vec :
       {&in.zone_temps_c, &in.arrival_rate_per_s, &in.dropped_rate_per_s}) {
    for (double v : *vec) {
      if (!std::isfinite(v)) vectors_finite = false;
    }
  }
  if (!scalars_finite || !vectors_finite) {
    record("finite-state", t, "non-finite value in facility state");
    return;  // nothing else is meaningful
  }

  if (in.it_power_w < 0.0 || in.mechanical_power_w < 0.0 ||
      in.utility_draw_w < 0.0) {
    record("non-negative-power", t,
           "it=" + fmt(in.it_power_w) + "W mech=" +
               fmt(in.mechanical_power_w) + "W utility=" +
               fmt(in.utility_draw_w) + "W");
  }

  // Power-tree conservation: the utility feed must cover every downstream
  // load; distribution only adds losses.
  const double load_w = in.it_power_w + in.mechanical_power_w;
  if (in.utility_draw_w + config_.power_epsilon_w < load_w) {
    record("energy-conservation", t,
           "utility " + fmt(in.utility_draw_w) + "W < it+mech " + fmt(load_w) +
               "W");
  }

  if (in.it_power_w > config_.power_epsilon_w && in.pue < 1.0) {
    record("pue-floor", t, "pue=" + fmt(in.pue));
  }

  const std::size_t services =
      std::min(in.arrival_rate_per_s.size(), in.dropped_rate_per_s.size());
  for (std::size_t s = 0; s < services; ++s) {
    const double offered = in.arrival_rate_per_s[s];
    const double dropped = in.dropped_rate_per_s[s];
    if (dropped < -1e-9 || dropped > offered + 1e-9) {
      record("served-within-offered", t,
             "service " + std::to_string(s) + ": dropped " + fmt(dropped) +
                 "/s of offered " + fmt(offered) + "/s");
    }
  }

  const auto out_of_bounds = [&](double temp_c) {
    return temp_c < config_.temp_lo_c || temp_c > config_.temp_hi_c;
  };
  if (out_of_bounds(in.max_zone_temp_c)) {
    record("temperature-bounds", t, "max zone at " + fmt(in.max_zone_temp_c) + "C");
  }
  for (std::size_t z = 0; z < in.zone_temps_c.size(); ++z) {
    if (out_of_bounds(in.zone_temps_c[z])) {
      record("temperature-bounds", t,
             "zone " + std::to_string(z) + " at " + fmt(in.zone_temps_c[z]) + "C");
    }
  }

  if (in.state_of_charge >= 0.0 && in.state_of_charge > 1.0 + 1e-9) {
    record("soc-bounds", t, "soc=" + fmt(in.state_of_charge));
  }
}

void InvariantMonitor::check_scalar(const std::string& name, double value,
                                    double lo, double hi, double time_s) {
  ++checks_;
  if (!std::isfinite(value) || value < lo - 1e-9 || value > hi + 1e-9) {
    std::ostringstream detail;
    detail << value << " outside [" << lo << ", " << hi << "]";
    record(name, time_s, detail.str());
  }
}

void InvariantMonitor::check_request_flow(const RequestFlow& flow) {
  ++checks_;
  const double t = flow.time_s;
  auto fmt = [](double v) {
    std::ostringstream out;
    out << v;
    return out.str();
  };
  const double counts[] = {flow.offered, flow.served, flow.goodput,
                           flow.intents, flow.retries};
  for (double c : counts) {
    if (!std::isfinite(c) || c < -1e-9) {
      record("request-flow-counts", t, "non-finite or negative count " + fmt(c));
      return;
    }
  }
  if (flow.goodput > flow.served + 1e-9) {
    record("goodput-within-served", t,
           "goodput " + fmt(flow.goodput) + " > served " + fmt(flow.served));
  }
  if (flow.served > flow.offered + 1e-9) {
    record("served-within-offered", t,
           "served " + fmt(flow.served) + " > offered " + fmt(flow.offered));
  }
  if (std::abs(flow.offered - (flow.intents + flow.retries)) > 1e-6) {
    record("retry-amplification", t,
           "offered " + fmt(flow.offered) + " != intents " + fmt(flow.intents) +
               " + retries " + fmt(flow.retries));
  }
}

void InvariantMonitor::check_condition(const std::string& name, bool ok,
                                       const std::string& detail,
                                       double time_s) {
  ++checks_;
  if (!ok) record(name, time_s, detail);
}

std::string InvariantMonitor::report() const {
  std::ostringstream out;
  if (ok()) {
    out << "all invariants held over " << checks_ << " checks";
    return out.str();
  }
  out << violation_count_ << " invariant violation(s) over " << checks_
      << " checks:";
  for (const auto& violation : violations_) {
    out << "\n  " << describe(violation);
  }
  if (violation_count_ > violations_.size()) {
    out << "\n  ... and " << (violation_count_ - violations_.size()) << " more";
  }
  return out.str();
}

}  // namespace epm::sensing
