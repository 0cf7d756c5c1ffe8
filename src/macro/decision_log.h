// Structured decision log of the macro-resource management layer (Fig. 4:
// the layer "makes decisions that affect power provisioning, cooling
// control, server allocation, service placement, load balancing, and job
// priorities"). Experiments print excerpts and tally categories.
//
// A record is typed: its time and kind, the subject it concerns (an index
// into a name table the log copies once — services, CRACs) and the numbers
// its text needs. The text itself, `service()` and `detail()`, is rendered
// only when a reader asks for it, so recording formats and (amortized)
// allocates nothing. Records whose text is made elsewhere — risk findings,
// actuator retry/fence/timeout lines, degradation posture changes — keep
// that text and are read through the same accessors.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace epm::macro {

enum class DecisionKind : std::uint8_t {
  kServerAllocation,  ///< On/Off fleet sizing
  kDvfs,              ///< P-state selection
  kCoolingControl,    ///< CRAC setpoint override
  kPlacement,         ///< zone/service load shares
  kPowerCapping,      ///< budget enforcement
  kLoadBalancing,
  kRiskAlert,
  kLoadShedding,      ///< graceful degradation under faults
  kActuation,         ///< actuator-plane retries / failures / timeouts
};

inline constexpr std::size_t kDecisionKindCount =
    static_cast<std::size_t>(DecisionKind::kActuation) + 1;

std::string to_string(DecisionKind kind);

/// Which numbers a record carries, and so how its detail reads.
enum class DecisionShape : std::uint8_t {
  kText,            ///< detail kept as text (DecisionLog::record_text)
  kAllocation,      ///< "servers=N pstate=Pk predicted_lambda=X/s predicted_power=YkW"
  kDvfs,            ///< "Pk"
  kSlaUnreachable,  ///< "SLA unreachable even at full fleet/P0"
  kCapping,         ///< "budget=XkW capped_to=YkW"
  kCoolingSupply,   ///< "supply=XC"
  kPlacementShift,  ///< "shifted F% of heat out of hot zone Z"
};

struct Decision {
  static constexpr std::uint32_t kNoSubject = 0xffffffffu;

  double time_s = 0.0;
  DecisionKind kind = DecisionKind::kServerAllocation;
  DecisionShape shape = DecisionShape::kText;
  /// Index into the log's subject table; kNoSubject for facility-wide
  /// records (rendered as an empty service).
  std::uint32_t subject = kNoSubject;
  /// Servers (kAllocation), hot zone (kPlacementShift) or text slot (kText).
  std::uint32_t count = 0;
  std::uint32_t pstate = 0;  ///< kAllocation, kDvfs
  /// Predicted arrivals per second (kAllocation), budget in W (kCapping),
  /// supply temperature in °C (kCoolingSupply) or the fraction of a
  /// service's heat moved (kPlacementShift).
  double value = 0.0;
  /// Predicted power (kAllocation) or capped power (kCapping), in W.
  double power_w = 0.0;

  static Decision allocation(double time_s, std::uint32_t service,
                             std::size_t servers, std::size_t pstate,
                             double predicted_rate_per_s,
                             double predicted_power_w) {
    return {time_s, DecisionKind::kServerAllocation, DecisionShape::kAllocation,
            service, static_cast<std::uint32_t>(servers),
            static_cast<std::uint32_t>(pstate), predicted_rate_per_s,
            predicted_power_w};
  }
  static Decision dvfs(double time_s, std::uint32_t service, std::size_t pstate) {
    return {time_s, DecisionKind::kDvfs, DecisionShape::kDvfs, service, 0,
            static_cast<std::uint32_t>(pstate), 0.0, 0.0};
  }
  static Decision sla_unreachable(double time_s, std::uint32_t service) {
    return {time_s, DecisionKind::kRiskAlert, DecisionShape::kSlaUnreachable,
            service, 0, 0, 0.0, 0.0};
  }
  static Decision capping(double time_s, double budget_w, double capped_w) {
    return {time_s, DecisionKind::kPowerCapping, DecisionShape::kCapping,
            kNoSubject, 0, 0, budget_w, capped_w};
  }
  static Decision cooling_supply(double time_s, std::uint32_t crac, double supply_c) {
    return {time_s, DecisionKind::kCoolingControl, DecisionShape::kCoolingSupply,
            crac, 0, 0, supply_c, 0.0};
  }
  static Decision placement_shift(double time_s, std::uint32_t service,
                                  std::size_t hot_zone, double moved_fraction) {
    return {time_s, DecisionKind::kPlacement, DecisionShape::kPlacementShift,
            service, static_cast<std::uint32_t>(hot_zone), 0, moved_fraction,
            0.0};
  }
};

class DecisionLog {
 public:
  /// Appends `name` to the subject table and returns its index.
  std::uint32_t add_subject(std::string name);

  void record(const Decision& decision) {
    decisions_.push_back(decision);
    ++tallies_[static_cast<std::size_t>(decision.kind)];
  }
  /// A facility-wide record whose detail is already text.
  void record_text(double time_s, DecisionKind kind, std::string detail);

  const std::vector<Decision>& all() const { return decisions_; }
  std::size_t size() const { return decisions_.size(); }

  /// The record's subject name; empty for a facility-wide record.
  std::string service(const Decision& decision) const;
  /// The record's detail text, rendered from its numbers.
  std::string detail(const Decision& decision) const;

  std::size_t count(DecisionKind kind) const {
    return tallies_[static_cast<std::size_t>(kind)];
  }
  /// Tallies of the kinds that occurred, keyed by to_string(kind).
  std::map<std::string, std::size_t> counts_by_kind() const;

 private:
  std::vector<Decision> decisions_;
  std::vector<std::string> subjects_;
  std::vector<std::string> texts_;
  std::array<std::size_t, kDecisionKindCount> tallies_{};
};

}  // namespace epm::macro
