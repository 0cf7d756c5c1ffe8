// Extension experiment (EXP-U): retry storms and metastable overload.
//
// The paper's elastic-service scenarios (§3: Messenger login spikes, the
// Animoto flash crowd, utility-outage ride-through) involve clients that
// come back: dropped load is re-offered as reconnect/retry floods. This
// experiment closes the loop — a ClientPopulation with per-request
// timeouts, configurable retry backoff, and outage-driven session drops —
// and sweeps outage duration x retry policy x {naive, defended}:
//
//   naive    — a huge accept queue and nothing else: the post-outage
//              reconnect surge grows a backlog whose sojourn exceeds the
//              client timeout, every completion is stale, goodput pins at
//              zero, and retries keep offered load above capacity long
//              after the fault cleared (metastable failure);
//   defended — bounded accept queue + token-bucket admission + circuit
//              breaker, with the macro degradation policy shedding the
//              batch tier while the admission stack reports congestion.
//
// The gate requires the defended arm to recover to pre-fault SLA within a
// bounded time at EVERY swept point, the naive arm to exhibit at least one
// metastable point, and the retry-budget conservation ledger plus the
// request-flow invariants to hold on every run.
//
// Emits one BENCH_retrystorm.json record per swept point (set
// EPM_BENCH_REPORT to redirect).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/table.h"
#include "faults/retry_storm.h"
#include "sweep_runner.h"

using namespace epm;

namespace {

struct Point {
  double outage_s = 0.0;
  workload::RetryBackoff backoff = workload::RetryBackoff::kExponential;
  bool defended = false;
};

constexpr double kRecoveryLimitS = 300.0;

void append_retrystorm_record(const Point& point,
                              const faults::RetryStormOutcome& out) {
  auto file = bench::open_scenario_report("BENCH_retrystorm.json");
  if (!file) return;
  file << "{\"name\":\"retry_storm\",\"outage_s\":" << point.outage_s
       << ",\"policy\":\"" << workload::to_string(point.backoff) << "\""
       << ",\"defended\":" << (point.defended ? "true" : "false")
       << ",\"intents\":" << out.intents << ",\"attempts\":" << out.attempts
       << ",\"retries\":" << out.retries
       << ",\"served_fresh\":" << out.served_fresh
       << ",\"served_stale\":" << out.served_stale
       << ",\"timed_out\":" << out.timed_out
       << ",\"abandoned\":" << out.abandoned
       << ",\"dark_failures\":" << out.dark_failures
       << ",\"shed_breaker\":" << out.shed_breaker
       << ",\"shed_bucket\":" << out.shed_bucket
       << ",\"shed_queue\":" << out.shed_queue
       << ",\"prefault_goodput_rps\":" << out.prefault_goodput_rps
       << ",\"end_offered_rps\":" << out.end_offered_rps
       << ",\"end_goodput_rps\":" << out.end_goodput_rps
       << ",\"recovered\":" << (out.recovered ? "true" : "false")
       << ",\"recovery_s\":" << out.recovery_s
       << ",\"metastable\":" << (out.metastable ? "true" : "false")
       << ",\"breaker_trips\":" << out.breaker_trips
       << ",\"max_queue_depth\":" << out.max_queue_depth
       << ",\"conservation_ok\":" << (out.conservation_ok ? "true" : "false")
       << ",\"invariants_ok\":" << (out.invariants_ok ? "true" : "false")
       << "}\n";
}

}  // namespace

int main() {
  std::cout << banner("EXP-U: retry storms and metastable overload");

  const std::vector<double> outages = {60.0, 120.0, 240.0};
  const std::vector<workload::RetryBackoff> policies = {
      workload::RetryBackoff::kImmediate, workload::RetryBackoff::kFixed,
      workload::RetryBackoff::kExponential};
  std::vector<Point> grid;
  for (const double outage_s : outages) {
    for (const auto backoff : policies) {
      grid.push_back({outage_s, backoff, false});
      grid.push_back({outage_s, backoff, true});
    }
  }

  const auto results = bench::run_sweep(
      grid,
      [&](const Point& point) {
        return faults::run_retry_storm(faults::make_reference_retry_storm_config(
            point.backoff, point.outage_s, point.defended));
      },
      "retry_storm_sweep");

  Table table({"outage", "policy", "arm", "prefault", "end offered",
               "end goodput", "recovery", "metastable", "trips", "shed",
               "stale"});
  bool defended_all_recover = true;
  bool any_naive_metastable = false;
  bool ledgers_clean = true;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& point = grid[i];
    const auto& out = results[i];
    append_retrystorm_record(point, out);
    const std::uint64_t shed =
        out.shed_breaker + out.shed_bucket + out.shed_queue;
    table.add_row(
        {fmt(point.outage_s, 0) + " s", workload::to_string(point.backoff),
         point.defended ? "defended" : "naive",
         fmt(out.prefault_goodput_rps, 0) + "/s",
         fmt(out.end_offered_rps, 0) + "/s",
         fmt(out.end_goodput_rps, 0) + "/s",
         out.recovered ? fmt(out.recovery_s, 0) + " s" : "never",
         out.metastable ? "YES" : "no", std::to_string(out.breaker_trips),
         std::to_string(shed), std::to_string(out.served_stale)});
    if (point.defended &&
        (!out.recovered || out.recovery_s > kRecoveryLimitS)) {
      defended_all_recover = false;
    }
    if (!point.defended && out.metastable) any_naive_metastable = true;
    if (!out.conservation_ok) {
      ledgers_clean = false;
      std::cout << "  RETRY-BUDGET CONSERVATION VIOLATION (outage "
                << point.outage_s << " s, " << workload::to_string(point.backoff)
                << ", " << (point.defended ? "defended" : "naive")
                << "): " << out.conservation_report << "\n";
    }
    if (!out.invariants_ok) {
      ledgers_clean = false;
      std::cout << "  INVARIANT VIOLATIONS (outage " << point.outage_s << " s, "
                << workload::to_string(point.backoff) << ", "
                << (point.defended ? "defended" : "naive") << "):\n"
                << out.invariant_report << "\n";
    }
  }
  std::cout << table.render();

  std::cout << "\n  Defended arm recovers to pre-fault SLA within "
            << fmt(kRecoveryLimitS, 0) << " s at every point: "
            << (defended_all_recover ? "yes" : "NO") << "\n";
  std::cout << "  Naive arm exhibits at least one metastable point: "
            << (any_naive_metastable ? "yes" : "NO") << "\n";
  std::cout << "  Retry-budget conservation + request-flow invariants clean: "
            << (ledgers_clean ? "yes" : "NO") << "\n";
  std::cout
      << "  Paper: elastic services face reconnect floods after outages "
         "(§3) — load that fights back.\n  Measured: an undefended queue "
         "turns a cleared fault into sustained congestion (stale work,\n  "
         "zero goodput); bounded queues + token-bucket admission + a circuit "
         "breaker + batch-tier\n  shedding drain the same surge back to SLA "
         "in bounded time.\n";
  return (defended_all_recover && any_naive_metastable && ledgers_clean) ? 0
                                                                         : 1;
}
