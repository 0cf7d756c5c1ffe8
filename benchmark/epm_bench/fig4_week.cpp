// fig4_week: the paper's Fig. 4 headline. One Messenger week (60 s epochs)
// drives the same reference facility under three management stacks —
// static, uncoordinated, and the macro resource manager — exactly as
// repro::fig4_stack_outcomes does, so at seed 42 every outcome field
// equals tests/golden/data/fig4_stack_outcomes.csv bit for bit.
//
// It exercises the macro, facility, thermal and power layers and bypasses
// the DES kernel, the federation, the epoch engine and telemetry.
#include <cstddef>
#include <vector>

#include "core/time_series.h"
#include "core/units.h"
#include "harness.h"
#include "macro/coordinator.h"
#include "macro/facility.h"
#include "macro/uncoordinated.h"
#include "sensing/invariants.h"
#include "workload/messenger.h"

namespace epmbench {
namespace {

using namespace epm;

/// One stack's week, as repro::fig4_stack_outcomes tallies it.
struct StackOutcome {
  double it_kwh = 0.0;
  double mech_kwh = 0.0;
  double mean_pue = 0.0;
  double mean_servers = 0.0;
  std::size_t sla_violations = 0;
  std::size_t alarms = 0;
  std::size_t overloads = 0;
  bool invariants_ok = false;
};

template <typename Step>
StackOutcome run_week(macro::Facility& facility, const TimeSeries& level,
                      Step&& step, Tracer* tracer, const char* span) {
  sensing::InvariantMonitorConfig monitor_config;
  monitor_config.throw_on_violation = false;
  sensing::InvariantMonitor monitor(monitor_config);
  facility.attach_invariant_monitor(&monitor);
  StackOutcome out;
  double pue_sum = 0.0;
  double servers_sum = 0.0;
  for (std::size_t i = 0; i < level.size(); ++i) {
    const double l = level[i];
    macro::FacilityStep result;
    {
      Scope scope(tracer, span);
      result = step({l * 4000.0, l * 2500.0}, 18.0);
    }
    pue_sum += result.pue;
    for (const auto& svc : result.services) {
      servers_sum += static_cast<double>(svc.serving);
      if (svc.sla_violated) ++out.sla_violations;
    }
    out.overloads += result.power_overloaded ? 1 : 0;
  }
  const auto epochs = static_cast<double>(level.size());
  out.it_kwh = to_kwh(facility.total_it_energy_j());
  out.mech_kwh = to_kwh(facility.total_mechanical_energy_j());
  out.mean_pue = pue_sum / epochs;
  out.alarms = facility.total_thermal_alarms();
  out.mean_servers = servers_sum / epochs / 2.0;
  out.invariants_ok = monitor.ok();
  return out;
}

class Fig4Week final : public Workload {
 public:
  explicit Fig4Week(const Params& params) : params_(params) {}

  void setup() override {
    level_ = demand_level();
    facility_ = macro::make_reference_facility(60);
  }

  /// Normalized Messenger connection curve, one sample per 60 s epoch.
  TimeSeries demand_level() const {
    workload::MessengerConfig config;
    config.step_s = 60.0;
    config.seed = scenario_seed(4, params_.seed);
    const auto trace = workload::generate_messenger_trace(
        config, params_.smoke ? days(1.0) : weeks(1.0));
    return trace.connections.scaled(1.0 / trace.connections.stats().max());
  }

  double sim_seconds() const override {
    return 3.0 * static_cast<double>(level_.size()) * level_.step_s();
  }

  RepResult run(Tracer* tracer) override {
    StackOutcome outs[3];
    {
      Scope scope(tracer, "fig4.static_week");
      macro::Facility facility(facility_);
      outs[0] = run_week(
          facility, level_,
          [&](const std::vector<double>& demand, double outside_c) {
            return facility.step(demand, outside_c);
          },
          tracer, "macro.Facility::step");
    }
    {
      Scope scope(tracer, "fig4.uncoordinated_week");
      macro::Facility facility(facility_);
      macro::UncoordinatedStack stack(facility);
      outs[1] = run_week(
          facility, level_,
          [&](const std::vector<double>& demand, double outside_c) {
            return stack.step(demand, outside_c);
          },
          tracer, "macro.UncoordinatedStack::step");
    }
    std::size_t decisions = 0;
    Digest digest;
    {
      Scope scope(tracer, "fig4.macro_week");
      macro::Facility facility(facility_);
      macro::MacroResourceManager manager(facility);
      outs[2] = run_week(
          facility, level_,
          [&](const std::vector<double>& demand, double outside_c) {
            return manager.step(demand, outside_c);
          },
          tracer, "macro.MacroResourceManager::step");
      decisions = manager.log().size();
      for (const auto& [kind, count] : manager.log().counts_by_kind()) {
        digest.add(kind).add(count);
      }
    }
    decisions_ = decisions;

    RepResult result;
    result.checks_ok = true;
    static const char* const kStacks[3] = {"static", "uncoordinated", "macro"};
    for (std::size_t s = 0; s < 3; ++s) {
      const StackOutcome& o = outs[s];
      digest.add(o.it_kwh).add(o.mech_kwh).add(o.mean_pue).add(o.mean_servers);
      digest.add(o.sla_violations).add(o.alarms).add(o.overloads);
      digest.add(o.invariants_ok);
      result.checks_ok = result.checks_ok && o.invariants_ok;
      const std::string prefix = kStacks[s];
      result.headline.emplace_back(prefix + ".it_kwh", o.it_kwh);
      result.headline.emplace_back(prefix + ".mech_kwh", o.mech_kwh);
      result.headline.emplace_back(prefix + ".mean_pue", o.mean_pue);
      result.headline.emplace_back(prefix + ".mean_servers_per_svc",
                                   o.mean_servers);
      result.headline.emplace_back(prefix + ".sla_violations",
                                   static_cast<double>(o.sla_violations));
      result.headline.emplace_back(prefix + ".thermal_alarms",
                                   static_cast<double>(o.alarms));
      result.headline.emplace_back(prefix + ".power_overloads",
                                   static_cast<double>(o.overloads));
    }
    result.headline.emplace_back("macro.decisions",
                                 static_cast<double>(decisions));
    result.digest = digest.value();
    return result;
  }

  void probe(Tracer& tracer, double, std::uint64_t, LayerMetrics& layer,
             CheckTally&) override {
    const auto step_us = [&](const char* span, const char* metric) {
      std::vector<double> ms = tracer.durations_ms(span);
      for (double& v : ms) v *= 1e3;
      layer[std::string(metric) + "_p50"] = quantile(ms, 0.5);
      layer[std::string(metric) + "_p99"] = quantile(ms, 0.99);
    };
    step_us("macro.Facility::step", "macro.facility_step_us");
    step_us("macro.UncoordinatedStack::step", "macro.uncoordinated_step_us");
    step_us("macro.MacroResourceManager::step", "macro.manager_step_us");
    layer["macro.decisions"] = static_cast<double>(decisions_);

    // The Messenger trace is the set-up's main cost; time it on its own.
    for (int i = 0; i < 5; ++i) {
      Scope scope(&tracer, "workload.generate_messenger_trace");
      level_ = demand_level();
    }
    layer["workload.messenger_trace_ms"] =
        quantile(tracer.durations_ms("workload.generate_messenger_trace"), 0.5);
  }

 private:
  Params params_;
  TimeSeries level_;
  macro::FacilityConfig facility_;
  std::size_t decisions_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fig4_week(const Params& params) {
  return std::make_unique<Fig4Week>(params);
}

}  // namespace epmbench
