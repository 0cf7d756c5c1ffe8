#include "reliability/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/require.h"
#include "core/rng.h"
#include "core/stats.h"

namespace epm::reliability {
namespace {

constexpr double kHoursPerYear = 8760.0;
/// Seed the replica streams derive from.
constexpr std::uint64_t kReplicaSeed = 2025;

struct LeafState {
  const ComponentSpec* spec;
  bool failed = false;
  bool in_maintenance = false;
  double next_fail_toggle_h = 0.0;
  double next_maint_h = std::numeric_limits<double>::infinity();
  bool maint_is_start = true;

  bool up() const { return !failed && !in_maintenance; }
};

/// Recursive system evaluation; `cursor` walks leaves in the same preorder
/// as Block::collect_leaves.
bool system_up(const Block& block, const std::vector<LeafState>& states,
               std::size_t& cursor) {
  if (block.is_leaf()) return states[cursor++].up();
  if (block.required() == 0) {
    bool all = true;
    for (const auto& c : block.children()) {
      // Evaluate every child so the cursor stays consistent.
      if (!system_up(c, states, cursor)) all = false;
    }
    return all;
  }
  std::size_t up = 0;
  for (const auto& c : block.children()) {
    if (system_up(c, states, cursor)) ++up;
  }
  return up >= block.required();
}

/// One independent replica's contribution, reduced across replicas in
/// replica order so the result is invariant to the thread count.
struct ReplicaOutcome {
  double availability = 0.0;
  OnlineStats outages;
  double max_outage_h = 0.0;
};

ReplicaOutcome run_replica(const Block& topology,
                           const std::vector<const Block*>& leaves,
                           double horizon_h, Rng& rng) {
  ReplicaOutcome outcome;
  std::vector<LeafState> states;
  states.reserve(leaves.size());
  for (const Block* leaf : leaves) {
    LeafState s;
    s.spec = &leaf->spec();
    s.next_fail_toggle_h = rng.exponential(1.0 / s.spec->mtbf_h);
    if (s.spec->maintenance_h_per_year > 0.0) {
      // One planned window per year at a random phase.
      s.next_maint_h = rng.uniform(0.0, kHoursPerYear);
      s.maint_is_start = true;
    }
    states.push_back(s);
  }

  double t = 0.0;
  double downtime_h = 0.0;
  double outage_started_h = -1.0;
  std::size_t cursor = 0;
  bool up = system_up(topology, states, cursor);

  while (t < horizon_h) {
    // Next event over all components.
    double t_next = horizon_h;
    for (const auto& s : states) {
      t_next = std::min({t_next, s.next_fail_toggle_h, s.next_maint_h});
    }
    const double dt = t_next - t;
    if (!up) downtime_h += dt;
    t = t_next;
    if (t >= horizon_h) break;

    for (auto& s : states) {
      if (s.next_fail_toggle_h <= t + 1e-12) {
        if (!s.failed && s.spec->mttr_h <= 0.0) {
          // Instant repair: the failure contributes no downtime.
          s.next_fail_toggle_h = t + rng.exponential(1.0 / s.spec->mtbf_h);
        } else {
          s.failed = !s.failed;
          const double rate = s.failed ? 1.0 / s.spec->mttr_h : 1.0 / s.spec->mtbf_h;
          s.next_fail_toggle_h = t + rng.exponential(rate);
        }
      }
      if (s.next_maint_h <= t + 1e-12) {
        if (s.maint_is_start) {
          s.in_maintenance = true;
          s.next_maint_h = t + s.spec->maintenance_h_per_year;
          s.maint_is_start = false;
        } else {
          s.in_maintenance = false;
          s.next_maint_h = t + (kHoursPerYear - s.spec->maintenance_h_per_year);
          s.maint_is_start = true;
        }
      }
    }
    cursor = 0;
    const bool now_up = system_up(topology, states, cursor);
    if (up && !now_up) {
      outage_started_h = t;
    } else if (!up && now_up && outage_started_h >= 0.0) {
      const double duration = t - outage_started_h;
      outcome.outages.add(duration);
      outcome.max_outage_h = std::max(outcome.max_outage_h, duration);
    }
    up = now_up;
  }
  outcome.availability = 1.0 - downtime_h / horizon_h;
  return outcome;
}

}  // namespace

void validate_monte_carlo_config(const Block& topology, const MonteCarloConfig& config) {
  require(config.years > 0.0, "simulate_availability: years must be positive");
  require(config.replicas >= 1, "simulate_availability: need at least one replica");
  std::vector<const Block*> leaves;
  topology.collect_leaves(leaves);
  require(!leaves.empty(), "simulate_availability: topology has no components");
  double per_hour = 0.0;
  for (const Block* leaf : leaves) {
    const ComponentSpec& spec = leaf->spec();
    per_hour += 2.0 / (spec.mtbf_h + spec.mttr_h);
    if (spec.maintenance_h_per_year > 0.0) per_hour += 2.0 / kHoursPerYear;
  }
  const double expected =
      per_hour * config.years * kHoursPerYear * static_cast<double>(config.replicas);
  require(expected <= kMaxExpectedTransitions, [&] {
    char text[112];
    std::snprintf(text, sizeof text,
                  "simulate_availability: %g expected transitions exceed the %g bound",
                  expected, kMaxExpectedTransitions);
    return std::string(text);
  });
}

MonteCarloResult simulate_availability(const Block& topology,
                                       const MonteCarloConfig& config) {
  validate_monte_carlo_config(topology, config);
  std::vector<const Block*> leaves;
  topology.collect_leaves(leaves);

  const double horizon_h = config.years * kHoursPerYear;
  ThreadPool pool(resolve_thread_count(static_cast<std::int64_t>(config.threads)));
  const auto outcomes = pool.parallel_replicate(
      config.replicas, kReplicaSeed, [&](Rng& rng, std::size_t) {
        return run_replica(topology, leaves, horizon_h, rng);
      });

  // Ordered reduction: replica index order, independent of completion order.
  OnlineStats replica_availability;
  OnlineStats outage_durations;
  double max_outage = 0.0;
  for (const auto& outcome : outcomes) {
    replica_availability.add(outcome.availability);
    outage_durations.merge(outcome.outages);
    max_outage = std::max(max_outage, outcome.max_outage_h);
  }

  MonteCarloResult result;
  result.availability = replica_availability.mean();
  result.availability_stddev = replica_availability.stddev();
  result.mean_outage_h = outage_durations.count() ? outage_durations.mean() : 0.0;
  result.max_outage_h = max_outage;
  result.outage_count = outage_durations.count();

  // 95% interval. The normal interval across replicas collapses to zero
  // width when every replica reports the same availability — in particular
  // when none of them sampled a failure. Union it with a Wilson score
  // interval on the pooled downtime fraction, treating each simulated hour
  // as one Bernoulli down/up trial, which stays strictly positive-width for
  // any finite horizon.
  constexpr double kZ = 1.959963984540054;  // Phi^-1(0.975)
  const double n_replicas = static_cast<double>(config.replicas);
  const double normal_half =
      kZ * result.availability_stddev / std::sqrt(n_replicas);
  double lo = result.availability - normal_half;
  double hi = result.availability + normal_half;

  const double trials = n_replicas * horizon_h;
  const double p_down = std::clamp(1.0 - result.availability, 0.0, 1.0);
  const double z2 = kZ * kZ;
  const double denom = 1.0 + z2 / trials;
  const double center = (p_down + z2 / (2.0 * trials)) / denom;
  const double half =
      kZ *
      std::sqrt(p_down * (1.0 - p_down) / trials + z2 / (4.0 * trials * trials)) /
      denom;
  lo = std::min(lo, 1.0 - (center + half));
  hi = std::max(hi, 1.0 - (center - half));

  result.ci_lo = std::clamp(lo, 0.0, 1.0);
  result.ci_hi = std::clamp(hi, 0.0, 1.0);
  return result;
}

}  // namespace epm::reliability
