#include "macro/tiers.h"

#include <limits>

#include "core/require.h"

namespace epm::macro {
namespace {

void validate(const TieredServiceSpec& spec, double external_rate,
              const TierSizingConfig& config) {
  require(!spec.tiers.empty(), "size_tiers: no tiers");
  require(spec.end_to_end_sla_s > 0.0, "size_tiers: SLA must be positive");
  require(external_rate >= 0.0, "size_tiers: negative demand");
  require(config.budget_steps >= spec.tiers.size(),
          "size_tiers: need at least one budget step per tier");
  for (const auto& t : spec.tiers) {
    require(t.fanout >= 1.0, "size_tiers: fanout must be >= 1");
    require(t.service_demand_s > 0.0, "size_tiers: demand must be positive");
    require(t.max_servers >= 1, "size_tiers: tier with no servers");
  }
}

/// The joint policy's defaults, with no switching penalty: pure sizing,
/// with no incumbent fleet. Its headroom applies within each tier's budget.
constexpr JointPolicyConfig kSizingPolicy = [] {
  JointPolicyConfig joint;
  joint.switching_penalty_w = 0.0;
  return joint;
}();

/// Solves one tier for a given latency budget; returns feasibility.
bool solve_tier(const TierSpec& tier, const power::ServerPowerModel& model,
                double external_rate, double budget_s, TierAllocation& out) {
  const double rate = external_rate * tier.fanout;
  const auto decision = decide_joint(model, tier.max_servers, /*current=*/0, rate,
                                     tier.service_demand_s, budget_s, kSizingPolicy);
  if (!decision.feasible) return false;
  out.servers = decision.servers;
  out.pstate = decision.pstate;
  out.latency_budget_s = budget_s;
  out.predicted_response_s = decision.predicted_response_s;
  out.predicted_utilization = decision.predicted_utilization;
  out.predicted_power_w = decision.predicted_power_w;
  return true;
}

}  // namespace

TieredServiceSpec make_reference_tiered_service(double sla_s) {
  const auto tier = [](const char* name, double fanout, double service_demand_s) {
    TierSpec t;
    t.name = name;
    t.fanout = fanout;
    t.service_demand_s = service_demand_s;
    return t;
  };
  TieredServiceSpec spec;
  spec.tiers = {tier("web", 1.0, 0.002), tier("app", 2.0, 0.005), tier("db", 4.0, 0.001)};
  spec.end_to_end_sla_s = sla_s;
  return spec;
}

TieredDecision size_tiers_equal_split(const TieredServiceSpec& spec,
                                      double external_rate,
                                      const TierSizingConfig& config) {
  validate(spec, external_rate, config);

  TieredDecision decision;
  decision.feasible = true;
  const double budget = spec.end_to_end_sla_s / static_cast<double>(spec.tiers.size());
  const power::ServerPowerModel model(power::ServerPowerConfig{});
  for (const auto& tier : spec.tiers) {
    TierAllocation alloc;
    if (!solve_tier(tier, model, external_rate, budget, alloc)) {
      decision.feasible = false;
    }
    decision.total_power_w += alloc.predicted_power_w;
    decision.end_to_end_response_s += alloc.predicted_response_s;
    decision.tiers.push_back(alloc);
  }
  return decision;
}

TieredDecision size_tiers(const TieredServiceSpec& spec, double external_rate,
                          const TierSizingConfig& config) {
  validate(spec, external_rate, config);

  const std::size_t tiers = spec.tiers.size();
  const power::ServerPowerModel model(power::ServerPowerConfig{});

  const double step_s =
      spec.end_to_end_sla_s / static_cast<double>(config.budget_steps);

  TieredDecision best;
  double best_power = std::numeric_limits<double>::infinity();
  const auto total_steps = config.budget_steps;
  // Recursive enumeration via explicit stack over the first (tiers-1) parts.
  std::vector<TierAllocation> allocs(tiers);
  auto evaluate = [&](const std::vector<std::size_t>& split) {
    TieredDecision candidate;
    candidate.feasible = true;
    for (std::size_t i = 0; i < tiers; ++i) {
      const double budget = static_cast<double>(split[i]) * step_s;
      if (!solve_tier(spec.tiers[i], model, external_rate, budget, allocs[i])) {
        candidate.feasible = false;
        break;
      }
      candidate.total_power_w += allocs[i].predicted_power_w;
      candidate.end_to_end_response_s += allocs[i].predicted_response_s;
    }
    if (!candidate.feasible) return;
    if (candidate.total_power_w < best_power) {
      best_power = candidate.total_power_w;
      candidate.tiers = allocs;
      best = std::move(candidate);
    }
  };

  // Enumerate compositions of budget_steps into `tiers` positive parts: the
  // first (tiers-1) parts odometer over [0, free_steps] extra steps each,
  // the last part absorbs the remainder.
  std::vector<std::size_t> split(tiers, 1);
  const std::size_t free_steps = total_steps - tiers;  // beyond the 1 each
  std::vector<std::size_t> extra(tiers, 0);
  while (true) {
    std::size_t used = 0;
    for (std::size_t i = 0; i + 1 < tiers; ++i) used += extra[i];
    if (used <= free_steps) {
      extra[tiers - 1] = free_steps - used;
      for (std::size_t i = 0; i < tiers; ++i) split[i] = 1 + extra[i];
      evaluate(split);
    }
    std::size_t pos = 0;
    while (pos + 1 < tiers) {
      if (extra[pos] < free_steps) {
        ++extra[pos];
        break;
      }
      extra[pos] = 0;
      ++pos;
    }
    if (pos + 1 >= tiers) break;  // odometer exhausted (or single tier)
  }
  return best;
}

}  // namespace epm::macro
