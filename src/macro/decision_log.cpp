#include "macro/decision_log.h"

#include "core/table.h"
#include "power/server_power.h"

namespace epm::macro {

std::string to_string(DecisionKind kind) {
  switch (kind) {
    case DecisionKind::kServerAllocation:
      return "server-allocation";
    case DecisionKind::kDvfs:
      return "dvfs";
    case DecisionKind::kCoolingControl:
      return "cooling-control";
    case DecisionKind::kPlacement:
      return "placement";
    case DecisionKind::kPowerCapping:
      return "power-capping";
    case DecisionKind::kLoadBalancing:
      return "load-balancing";
    case DecisionKind::kRiskAlert:
      return "risk-alert";
    case DecisionKind::kLoadShedding:
      return "load-shedding";
    case DecisionKind::kActuation:
      return "actuation";
  }
  return "?";
}

std::uint32_t DecisionLog::add_subject(std::string name) {
  subjects_.push_back(std::move(name));
  return static_cast<std::uint32_t>(subjects_.size() - 1);
}

void DecisionLog::record_text(double time_s, DecisionKind kind,
                              std::string detail) {
  Decision decision;
  decision.time_s = time_s;
  decision.kind = kind;
  decision.count = static_cast<std::uint32_t>(texts_.size());
  texts_.push_back(std::move(detail));
  record(decision);
}

std::string DecisionLog::service(const Decision& decision) const {
  return decision.subject == Decision::kNoSubject ? std::string{}
                                                  : subjects_[decision.subject];
}

std::string DecisionLog::detail(const Decision& decision) const {
  switch (decision.shape) {
    case DecisionShape::kText:
      return texts_[decision.count];
    case DecisionShape::kAllocation:
      return "servers=" + std::to_string(decision.count) +
             " pstate=" + power::pstate_name(decision.pstate) +
             " predicted_lambda=" + fmt(decision.value, 1) +
             "/s predicted_power=" + fmt(decision.power_w / 1e3, 1) + "kW";
    case DecisionShape::kDvfs:
      return power::pstate_name(decision.pstate);
    case DecisionShape::kSlaUnreachable:
      return "SLA unreachable even at full fleet/P0";
    case DecisionShape::kCapping:
      return "budget=" + fmt(decision.value / 1e3, 0) +
             "kW capped_to=" + fmt(decision.power_w / 1e3, 0) + "kW";
    case DecisionShape::kCoolingSupply:
      return "supply=" + fmt(decision.value, 1) + "C";
    case DecisionShape::kPlacementShift:
      return "shifted " + fmt_percent(decision.value, 0) +
             " of heat out of hot zone " + std::to_string(decision.count);
  }
  return {};
}

std::map<std::string, std::size_t> DecisionLog::counts_by_kind() const {
  std::map<std::string, std::size_t> out;
  for (std::size_t k = 0; k < kDecisionKindCount; ++k) {
    if (tallies_[k] > 0) out[to_string(static_cast<DecisionKind>(k))] = tallies_[k];
  }
  return out;
}

}  // namespace epm::macro
