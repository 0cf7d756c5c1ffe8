// InvariantMonitor: the simulation must never silently produce nonsense.
//
// A runtime checker over per-epoch facility state: energy conservation
// across the power tree (utility draw covers IT + mechanical load), PUE >= 1,
// served <= offered, non-negative power, bounded temperatures, bounded
// state of charge, and finiteness of every field. macro::Facility feeds it
// every step via attach_invariant_monitor(); benches construct it with
// throw_on_violation so a broken model aborts the run with a named report
// instead of emitting plausible-looking garbage. In Debug builds throwing is
// the default; Release defaults to recording only.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace epm::sensing {

/// One epoch of facility state, flattened so the monitor depends on no
/// other subsystem.
struct InvariantInputs {
  double time_s = 0.0;
  double it_power_w = 0.0;
  double mechanical_power_w = 0.0;
  double utility_draw_w = 0.0;
  double pue = 0.0;
  double max_zone_temp_c = 0.0;
  std::vector<double> zone_temps_c;
  std::vector<double> arrival_rate_per_s;  ///< per service, offered locally
  std::vector<double> dropped_rate_per_s;  ///< per service
  double state_of_charge = -1.0;  ///< UPS SoC; negative = not provided
};

struct InvariantViolation {
  std::string name;    ///< stable identifier, e.g. "energy-conservation"
  double time_s = 0.0;
  std::string detail;
};

struct InvariantMonitorConfig {
  /// Throw std::logic_error with the report on the first violation.
#ifndef NDEBUG
  bool throw_on_violation = true;
#else
  bool throw_on_violation = false;
#endif
  /// Violations kept verbatim; later ones only counted.
  std::size_t max_recorded = 64;
};

class InvariantMonitor {
 public:
  explicit InvariantMonitor(const InvariantMonitorConfig& config = {});

  /// Checks one epoch; records (and optionally throws on) violations.
  void check(const InvariantInputs& inputs);

  /// Checks a single bounded quantity (e.g. UPS state of charge in [0, 1])
  /// under the violation name `name`; also rejects non-finite values.
  void check_scalar(const std::string& name, double value, double lo, double hi,
                    double time_s);

  /// Closed-loop request-flow invariants: all counts finite and
  /// non-negative, goodput <= served <= offered, and retries amplify
  /// offered load consistently (offered == intents + retries, so
  /// offered >= intents). Counts are cumulative request totals since the
  /// start of the run — per-epoch served can legitimately exceed per-epoch
  /// offered while a backlog drains.
  struct RequestFlow {
    double time_s = 0.0;
    double offered = 0.0;   ///< attempts presented to the admission stack
    double served = 0.0;    ///< completions (fresh + stale)
    double goodput = 0.0;   ///< fresh completions (client still waiting)
    double intents = 0.0;   ///< first attempts
    double retries = 0.0;   ///< re-offered attempts
  };
  void check_request_flow(const RequestFlow& flow);

  /// Records a violation under `name` unless `ok` — the escape hatch for
  /// model-specific conservation checks (e.g. the retry-budget ledger).
  void check_condition(const std::string& name, bool ok,
                       const std::string& detail, double time_s);

  bool ok() const { return violation_count_ == 0; }
  std::size_t checks() const { return checks_; }
  std::size_t violation_count() const { return violation_count_; }
  const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  /// Human-readable multi-line report ("all invariants held" when ok).
  std::string report() const;

 private:
  void record(const std::string& name, double time_s, const std::string& detail);

  InvariantMonitorConfig config_;
  std::vector<InvariantViolation> violations_;
  std::size_t violation_count_ = 0;
  std::size_t checks_ = 0;
};

}  // namespace epm::sensing
