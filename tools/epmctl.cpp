// epmctl — command-line front end to the EPM library.
//
//   epmctl messenger    --days 7 --seed 42 --csv trace.csv
//   epmctl simulate     --servers 120 --policy joint --days 7 --peak-rps 8000
//   epmctl facility     --days 2 --servers 60
//   epmctl tiers        --rate 2000 --sla-ms 60
//   epmctl availability --tier 2
//
// Every command is one row of kCommands: its name, its lines of `epmctl
// help`, and a function that reads its flags and returns its run. main()
// looks the row up and owns the exit-code contract of every row.
#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>

#include "bench/kernel_bench.h"
#include "bench/telemetry_bench.h"
#include "cluster/request_des.h"
#include "cluster/service_cluster.h"
#include "core/cli_args.h"
#include "core/table.h"
#include "core/units.h"
#include "faults/chaos_fleet.h"
#include "faults/control_chaos.h"
#include "faults/fault_plan.h"
#include "faults/fleet_storm.h"
#include "faults/retry_storm.h"
#include "faults/storm.h"
#include "macro/coordinator.h"
#include "macro/joint_policy.h"
#include "macro/tiers.h"
#include "onoff/provisioners.h"
#include "reliability/availability.h"
#include "reliability/monte_carlo.h"
#include "sensing/scenario.h"
#include "workload/messenger.h"
#include "workload/trace_io.h"

using namespace epm;

namespace {

/// A command's run, once its flags are read: returns 0, or 1 when the
/// scenario's verdict fails.
using Job = std::function<int()>;

struct Command {
  std::string_view name;
  std::string_view usage;  ///< the command's lines of `epmctl help`
  /// Reads and range-checks the flags and returns the run, which main
  /// starts once no flag is left unread. A bad flag throws UsageError, or
  /// std::invalid_argument from a library check of its value (both exit 2).
  Job (*run)(const CliArgs& args);
};

/// A run that broke its determinism or resilience contract (exit 3), with
/// the coordinates that reproduce it.
struct ConformanceFailure {
  std::string what;
  std::uint64_t seed;
  std::size_t shards = 1;
  std::size_t threads = 1;
};

/// "1 thread", "2 threads".
std::string plural(std::size_t n, const char* noun) {
  return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
}

/// The Fig. 3 Messenger trace sampled once a minute: the load the
/// trace-driven commands replay.
workload::MessengerTrace minute_trace(std::uint64_t seed, double sim_days) {
  workload::MessengerConfig config;
  config.step_s = 60.0;
  config.seed = seed;
  return workload::generate_messenger_trace(config, days(sim_days));
}

/// A storm's fault plan as one count per fault type; a sampled plan also
/// names its intensity.
void print_plan(const char* title, const faults::FaultPlan& plan, bool sampled,
                double intensity) {
  std::cout << title << " (" << plan.size() << " events";
  if (sampled) std::cout << ", intensity " << fmt(intensity, 1);
  std::cout << "):\n";
  for (std::size_t i = 0; i < faults::kFaultTypeCount; ++i) {
    const auto type = static_cast<faults::FaultType>(i);
    if (const std::size_t n = plan.count(type)) {
      std::cout << "  " << faults::to_string(type) << ": " << n << "\n";
    }
  }
}

/// `--dcs` of the fleet commands: from `min` up to the reference fleet's
/// six sites.
std::size_t fleet_dcs(const CliArgs& args, std::int64_t min,
                      const std::string& why = {}) {
  const std::int64_t dcs = args.get("dcs", std::int64_t{4});
  if (dcs < min || dcs > 6) {
    throw UsageError("--dcs must be " + std::to_string(min) + "..6" + why);
  }
  return static_cast<std::size_t>(dcs);
}

const Command kCommands[] = {
    {"messenger",
     "  epmctl messenger    --days N --seed S [--csv PATH]    synthetic Fig.3 workload\n"
     "                      [--step-s S]\n",
     [](const CliArgs& args) -> Job {
       workload::MessengerConfig config;
       config.seed = args.seed(42);
       config.step_s = args.positive("step-s", 60.0);
       const double horizon = days(static_cast<double>(args.count("days", 7)));
       const std::string csv = args.get("csv", std::string{});
       return [=] {
         const auto trace = workload::generate_messenger_trace(config, horizon);
         const auto shape =
             summarize_messenger_trace(trace, workload::DiurnalModel(config.diurnal));
         std::cout << "Generated " << trace.connections.size() << " samples over "
                   << fmt(to_days(horizon), 0) << " days\n"
                   << "  afternoon/midnight ratio: "
                   << fmt(shape.afternoon_to_midnight_ratio, 2)
                   << "x\n  weekday/weekend ratio:    "
                   << (shape.weekday_to_weekend_ratio > 0.0
                           ? fmt(shape.weekday_to_weekend_ratio, 2) + "x"
                           : std::string{"n/a (no weekend in range)"})
                   << "\n  flash crowds:             " << shape.flash_crowd_count
                   << "\n";
         if (!csv.empty()) {
           workload::write_csv_file(csv, {{"connections", trace.connections},
                                          {"login_rate_per_s", trace.login_rate_per_s}});
           std::cout << "Wrote " << csv << "\n";
         }
         // One sample per step over the horizon.
         const auto expected = static_cast<std::size_t>(horizon / config.step_s);
         if (trace.connections.size() != expected ||
             trace.login_rate_per_s.size() != expected) {
           throw ConformanceFailure{"messenger trace ledger mismatch (" +
                                        std::to_string(trace.connections.size()) +
                                        " samples, expected " +
                                        std::to_string(expected) + ")",
                                    config.seed};
         }
         return 0;
       };
     }},

    {"simulate",
     "  epmctl simulate     --servers N --policy P --days D   cluster under a policy\n"
     "                      --peak-rps R [--seed S]           (static|reactive|predictive|joint)\n",
     [](const CliArgs& args) -> Job {
       const std::size_t servers = args.count("servers", 120);
       const auto sim_days = static_cast<double>(args.count("days", 7));
       const double peak_rps = args.positive("peak-rps", 8000.0);
       const std::string policy = args.get("policy", std::string{"joint"});
       const std::uint64_t seed = args.seed(18);
       if (policy != "static" && policy != "reactive" && policy != "predictive" &&
           policy != "joint") {
         throw UsageError("unknown --policy '" + policy +
                          "' (static|reactive|predictive|joint)");
       }
       return [=] {
         const auto trace = minute_trace(seed, sim_days);
         const auto rate =
             trace.connections.scaled(peak_rps / trace.connections.stats().max());

         cluster::ServiceClusterConfig config;
         config.server_count = servers;
         config.initially_active = servers;
         config.sla.target_mean_response_s = 0.1;
         cluster::ServiceCluster cluster(config);

         onoff::UtilizationBandProvisioner reactive;
         onoff::PredictiveConfig predictive_config;
         predictive_config.hysteresis_servers = 4;
         onoff::PredictiveProvisioner predictive(predictive_config);

         for (std::size_t i = 0; i < rate.size(); ++i) {
           workload::OfferedLoad load;
           load.arrival_rate_per_s = rate[i];
           load.service_demand_s = 0.01;
           const auto r = cluster.run_epoch(60.0, load);
           if (policy == "static") {
             // leave the fleet alone
           } else if (policy == "reactive") {
             cluster.set_target_committed(reactive.decide(cluster, r), true);
           } else if (policy == "predictive") {
             cluster.set_target_committed(predictive.decide(cluster, r), true);
           } else {
             const auto d = macro::decide_joint(
                 cluster.power_model(), servers, cluster.committed_count(),
                 r.arrival_rate_per_s, r.service_demand_s,
                 config.sla.target_mean_response_s);
             cluster.set_uniform_pstate(d.pstate);
             cluster.set_target_committed(d.servers, true);
           }
         }

         std::cout << "Policy '" << policy << "' over " << fmt(sim_days, 0)
                   << " days, " << servers << " servers, peak " << fmt(peak_rps, 0)
                   << " rps:\n"
                   << "  energy:          " << fmt(to_kwh(cluster.total_energy_j()), 1)
                   << " kWh\n"
                   << "  SLA violations:  " << cluster.sla_violation_epochs() << " / "
                   << cluster.epochs_run() << " epochs\n"
                   << "  dropped:         " << fmt(cluster.total_dropped_requests(), 0)
                   << " requests\n";
         // One epoch per trace step, with finite positive energy.
         if (cluster.epochs_run() != rate.size() ||
             !std::isfinite(cluster.total_energy_j()) ||
             cluster.total_energy_j() <= 0.0) {
           throw ConformanceFailure{"simulate epoch ledger mismatch (ran " +
                                        std::to_string(cluster.epochs_run()) +
                                        ", expected " + std::to_string(rate.size()) +
                                        ")",
                                    seed};
         }
         return 0;
       };
     }},

    {"facility",
     "  epmctl facility     --days D --servers N              macro-managed facility week\n"
     "                      [--seed S]\n",
     [](const CliArgs& args) -> Job {
       const auto sim_days = static_cast<double>(args.count("days", 2));
       const std::size_t servers = args.count("servers", 60);
       const std::uint64_t seed = args.seed(4);
       return [=] {
         const auto trace = minute_trace(seed, sim_days);
         const double peak = trace.connections.stats().max();

         macro::Facility facility(macro::make_reference_facility(servers));
         macro::MacroResourceManager manager(facility);
         double pue_sum = 0.0;
         for (std::size_t i = 0; i < trace.connections.size(); ++i) {
           const double level = trace.connections[i] / peak;
           pue_sum += manager.step({level * 4000.0, level * 2500.0}, 18.0).pue;
         }
         const double mean_pue =
             facility.epochs_run() > 0
                 ? pue_sum / static_cast<double>(facility.epochs_run())
                 : 0.0;
         std::cout << "Macro-managed reference facility, " << fmt(sim_days, 0)
                   << " days:\n"
                   << "  IT energy:       " << fmt(to_kwh(facility.total_it_energy_j()), 0)
                   << " kWh\n  cooling energy:  "
                   << fmt(to_kwh(facility.total_mechanical_energy_j()), 0) << " kWh\n"
                   << "  mean PUE:        " << fmt(mean_pue, 2) << "\n"
                   << "  SLA violations:  " << facility.total_sla_violation_epochs()
                   << " service-epochs\n  thermal alarms:  "
                   << facility.total_thermal_alarms() << "\n  decisions logged: "
                   << manager.log().size() << "\n";
         // A facility ran, and its PUE is at or above the physical floor 1.
         if (facility.epochs_run() == 0 || !std::isfinite(mean_pue) || mean_pue < 1.0) {
           throw ConformanceFailure{
               "facility PUE ledger violated (mean PUE " + fmt(mean_pue, 3) + ")", seed};
         }
         return 0;
       };
     }},

    {"tiers",
     "  epmctl tiers        --rate R --sla-ms MS              multi-tier joint sizing\n",
     [](const CliArgs& args) -> Job {
       const double rate = args.positive("rate", 1000.0);
       const double sla_ms = args.positive("sla-ms", 60.0);
       return [=] {
         const auto spec = macro::make_reference_tiered_service(sla_ms / 1e3);
         const auto decision = macro::size_tiers(spec, rate);
         std::cout << "Sizing for " << fmt(rate, 0) << " external rps under "
                   << fmt(sla_ms, 0) << " ms end-to-end:\n";
         // An infeasible SLA is a verdict, not a usage error: the flags were
         // well-formed, the sizing just cannot meet them.
         if (!decision.feasible) {
           std::cout << "  VERDICT: SLA infeasible for this demand at any P-state\n";
           return 1;
         }
         Table table({"tier", "servers", "P-state", "budget (ms)", "response (ms)",
                      "power (kW)"});
         for (std::size_t i = 0; i < decision.tiers.size(); ++i) {
           const auto& t = decision.tiers[i];
           table.add_row({spec.tiers[i].name, std::to_string(t.servers),
                          power::pstate_name(t.pstate),
                          fmt(t.latency_budget_s * 1e3, 1),
                          fmt(t.predicted_response_s * 1e3, 1),
                          fmt(t.predicted_power_w / 1e3, 2)});
         }
         std::cout << table.render()
                   << "  total: " << fmt(decision.total_power_w / 1e3, 2)
                   << " kW, end-to-end "
                   << fmt(decision.end_to_end_response_s * 1e3, 1) << " ms\n";
         return 0;
       };
     }},

    {"availability",
     "  epmctl availability --tier K [--years Y]              tier availability model\n"
     "                      [--replicas N] [--threads T]      (Monte Carlo fan-out)\n",
     [](const CliArgs& args) -> Job {
       const std::int64_t tier_flag = args.get("tier", std::int64_t{2});
       if (tier_flag < 1 || tier_flag > 4) throw UsageError("--tier must be 1..4");
       const auto tier = static_cast<int>(tier_flag);
       reliability::MonteCarloConfig mc;
       mc.years = args.positive("years", 50.0);
       mc.replicas = args.count("replicas", 8);
       mc.threads = args.threads();
       const auto topology = reliability::make_tier_topology(tier);
       reliability::validate_monte_carlo_config(topology, mc);
       return [=] {
         const double analytic = topology.availability(true);
         const auto simulated = reliability::simulate_availability(topology, mc);
         std::cout << "Tier " << tier << ":\n"
                   << "  Uptime Institute reference: "
                   << fmt_percent(reliability::uptime_institute_reference(tier), 3)
                   << "\n"
                   << "  analytic:                   " << fmt_percent(analytic, 3) << "\n"
                   << "  Monte Carlo (" << fmt(mc.years, 0) << " yr x " << mc.replicas
                   << "): " << fmt_percent(simulated.availability, 3) << "\n"
                   << "  95% CI:                     ["
                   << fmt_percent(simulated.ci_lo, 4) << ", "
                   << fmt_percent(simulated.ci_hi, 4) << "]\n"
                   << "  downtime:                   "
                   << fmt(reliability::downtime_hours_per_year(analytic), 1)
                   << " h/yr\n";
         // The estimate is a probability inside its ordered confidence
         // interval.
         if (!std::isfinite(simulated.availability) || simulated.availability < 0.0 ||
             simulated.availability > 1.0 || simulated.ci_lo > simulated.availability ||
             simulated.availability > simulated.ci_hi) {
           throw ConformanceFailure{"availability Monte Carlo estimate out of range",
                                    static_cast<std::uint64_t>(tier), mc.replicas,
                                    mc.threads};
         }
         return 0;
       };
     }},

    {"replications",
     "  epmctl replications --rate R --service-ms MS          N independent request-level\n"
     "                      --servers N [--reps K]            DES replications, pooled\n"
     "                      [--seed S] [--threads T]          stats + confidence interval\n"
     "                      [--requests N]\n",
     [](const CliArgs& args) -> Job {
       cluster::ReplicationConfig config;
       config.base.arrival_rate_per_s = args.positive("rate", 70.0);
       config.base.mean_service_s = args.positive("service-ms", 10.0) / 1e3;
       config.base.servers = args.count("servers", 1);
       config.base.measured_requests = args.count("requests", 40000);
       config.replications = args.count("reps", 8);
       config.seed = args.seed(2027);
       config.threads = args.threads();
       cluster::validate_replication_config(config);
       return [=] {
         const auto result = cluster::simulate_replications(config);
         // 95% CI from the independent replication means (t ~ 2 for small K).
         const double half_width = 2.0 * result.replication_mean_response_s.stddev() /
                                   std::sqrt(static_cast<double>(config.replications));
         std::cout << config.replications << " replications x "
                   << config.base.measured_requests << " requests ("
                   << plural(config.threads, "thread") << "):\n"
                   << "  mean response:   " << fmt(result.response_s.mean() * 1e3, 2)
                   << " ms  (95% CI +/- " << fmt(half_width * 1e3, 2) << " ms)\n"
                   << "  p~worst sojourn: " << fmt(result.response_s.max() * 1e3, 1)
                   << " ms\n"
                   << "  queue depth:     " << fmt(result.queue_depth.mean(), 2) << "\n"
                   << "  utilization:     " << fmt_percent(result.utilization.mean(), 1)
                   << "\n  completed:       " << result.completed << " requests\n";
         // Every measured request of every replication is accounted for,
         // with finite statistics.
         const std::size_t expected = config.replications * config.base.measured_requests;
         if (result.completed != expected || !std::isfinite(result.response_s.mean()) ||
             result.response_s.mean() <= 0.0) {
           throw ConformanceFailure{"replication ledger mismatch (completed " +
                                        std::to_string(result.completed) +
                                        ", expected " + std::to_string(expected) + ")",
                                    config.seed, config.replications, config.threads};
         }
         return 0;
       };
     }},

    {"faults",
     "  epmctl faults       [--intensity X] [--hours H]       fault storm vs. graceful\n"
     "                      [--plan SPEC] [--seed S]          degradation (SPEC:\n"
     "                      [--servers N] [--no-policy]       \"outage@3600+1200;crac:0@...\")\n",
     [](const CliArgs& args) -> Job {
       const double intensity = args.get("intensity", 1.0);
       const double hours = args.positive("hours", 6.0);
       const std::uint64_t seed = args.seed(2009);
       const std::size_t servers = args.count("servers", 60);
       const std::string plan_spec = args.get("plan", std::string{});
       const bool no_policy = args.get_switch("no-policy");
       faults::StormConfig config = faults::make_reference_storm_config(servers);
       config.horizon_s = hours * 3600.0;
       faults::storm_epochs(config);  // before a plan is sampled over the horizon
       const faults::FaultPlan plan =
           plan_spec.empty() ? faults::make_storm_plan(intensity, config.horizon_s, seed,
                                                       config.demand_rps.size(), 1)
                             : faults::FaultPlan::parse(plan_spec);
       faults::validate_storm_plan(config, plan);
       return [=] {
         print_plan("Fault plan", plan, plan_spec.empty(), intensity);

         Table table({"arm", "served", "shed", "re-routed", "dropped", "brownout",
                      "trip", "max zone", "min SoC"});
         const auto run_arm = [&](const char* name, bool policy) {
           faults::StormConfig arm = config;
           arm.policy_enabled = policy;
           const faults::StormOutcome out = faults::run_fault_storm(arm, plan);
           table.add_row({name,
                          fmt_percent((out.served_requests + out.rerouted_requests) /
                                          out.offered_requests,
                                      1),
                          fmt_percent(out.shed_requests / out.offered_requests, 1),
                          fmt_percent(out.rerouted_requests / out.offered_requests, 1),
                          fmt_percent(out.dropped_requests / out.offered_requests, 1),
                          std::to_string(out.brownout_epochs),
                          std::to_string(out.trip_epochs),
                          fmt(out.max_zone_temp_c, 1) + " C",
                          fmt_percent(out.min_state_of_charge, 0)});
           return out;
         };
         const ConformanceFailure unconserved{"fault storm conservation ledger violated",
                                              seed};
         const auto baseline = run_arm("uncoordinated", false);
         if (no_policy) {
           std::cout << table.render();
           if (!baseline.faults_conserved) throw unconserved;
           return 0;
         }
         const auto managed = run_arm("degradation policy", true);
         std::cout << table.render();
         const double gain = (managed.served_requests + managed.rerouted_requests) -
                             (baseline.served_requests + baseline.rerouted_requests);
         const bool conserved = managed.faults_conserved && baseline.faults_conserved;
         std::cout << "  policy saved " << fmt(gain, 0) << " requests over the storm ("
                   << (conserved ? "all faults conserved" : "CONSERVATION VIOLATED")
                   << ")\n";
         if (!managed.decision_counts.empty()) {
           std::cout << "  decisions:";
           for (const auto& [kind, count] : managed.decision_counts) {
             std::cout << " " << kind << "=" << count;
           }
           std::cout << "\n";
         }
         if (!conserved) throw unconserved;
         if (gain < 0.0) {
           std::cout << "  VERDICT: degradation policy served fewer requests than "
                        "the uncoordinated arm\n";
           return 1;
         }
         return 0;
       };
     }},

    {"sensing",
     "  epmctl sensing      [--intensity X] [--hours H]       degraded sensing/actuation:\n"
     "                      [--plan SPEC] [--seed S]          naive vs. hardened controller\n"
     "                      [--servers N]                     (validation + retry/backoff)\n",
     [](const CliArgs& args) -> Job {
       const double intensity = args.get("intensity", 1.0);
       sensing::DegradedScenarioConfig config;
       config.horizon_s = args.positive("hours", 4.0) * 3600.0;
       config.seed = args.seed(2009);
       config.servers_per_service = args.count("servers", 64);
       const std::string plan_spec = args.get("plan", std::string{});
       sensing::degraded_scenario_epochs(config);  // before a plan is sampled
       const faults::FaultPlan plan =
           plan_spec.empty()
               ? sensing::make_sensing_fault_plan(intensity, config.horizon_s,
                                                  config.seed + 17,
                                                  /*service_count=*/2)
               : faults::FaultPlan::parse(plan_spec);
       sensing::validate_sensing_plan(config, plan);
       return [=] {
         print_plan("Sensing/actuation fault plan", plan, plan_spec.empty(), intensity);

         Table table({"arm", "served", "SLA viol", "alarms", "max zone", "stale max",
                      "fallbacks", "retries", "failed"});
         const auto run_arm = [&](const char* name, bool hardened) {
           sensing::DegradedScenarioConfig arm = config;
           arm.hardened = hardened;
           const auto out = sensing::run_degraded_scenario(arm, plan);
           table.add_row({name, fmt_percent(out.served_fraction(), 2),
                          std::to_string(out.sla_violation_epochs),
                          std::to_string(out.thermal_alarms),
                          fmt(out.max_zone_temp_c, 1) + " C",
                          fmt(out.max_estimate_age_s, 0) + " s",
                          std::to_string(out.estimator_fallbacks),
                          std::to_string(out.command_retries),
                          std::to_string(out.commands_failed)});
           return out;
         };
         const auto naive = run_arm("naive", false);
         const auto hardened = run_arm("hardened", true);
         std::cout << table.render();

         std::cout << "  invariants: naive "
                   << (naive.invariants_ok ? "clean" : "VIOLATED") << ", hardened "
                   << (hardened.invariants_ok ? "clean" : "VIOLATED") << " ("
                   << (naive.faults_conserved && hardened.faults_conserved
                           ? "all faults conserved"
                           : "CONSERVATION VIOLATED")
                   << ")\n";
         if (!naive.invariants_ok) std::cout << naive.invariant_report;
         if (!hardened.invariants_ok) std::cout << hardened.invariant_report;
         if (!hardened.invariants_ok || !naive.faults_conserved ||
             !hardened.faults_conserved) {
           throw ConformanceFailure{"sensing invariants/conservation violated",
                                    config.seed};
         }
         if (hardened.served_fraction() < naive.served_fraction()) {
           std::cout << "  VERDICT: hardened controller served less than the naive "
                        "one ("
                     << fmt_percent(hardened.served_fraction(), 2) << " vs "
                     << fmt_percent(naive.served_fraction(), 2) << ")\n";
           return 1;
         }
         return 0;
       };
     }},

    {"retrystorm",
     "  epmctl retrystorm   [--outage S] [--policy P]         closed-loop retry storm:\n"
     "                      [--clients N] [--seed S]          naive vs. defended admission\n"
     "                                                        (P: immediate|fixed|exponential)\n",
     [](const CliArgs& args) -> Job {
       const double outage_s = args.get("outage", 120.0);
       if (outage_s <= 0.0) throw UsageError("--outage must be > 0 seconds");
       const std::string policy = args.get("policy", std::string{"immediate"});
       const std::size_t clients = args.count("clients", 20000);
       const std::uint64_t seed = args.seed(7);
       const workload::RetryBackoff backoff = [&] {
         try {
           return workload::retry_backoff_from_string(policy);
         } catch (const std::invalid_argument&) {
           throw UsageError("unknown --policy '" + policy +
                            "' (immediate|fixed|exponential)");
         }
       }();
       return [=] {
         Table table({"arm", "prefault", "end offered", "end goodput", "recovery",
                      "metastable", "trips", "shed", "stale"});
         const auto run_arm = [&](bool defended) {
           faults::RetryStormConfig config =
               faults::make_reference_retry_storm_config(backoff, outage_s, defended);
           config.clients.clients = clients;
           config.clients.seed = seed;
           const auto out = faults::run_retry_storm(config);
           table.add_row(
               {defended ? "defended" : "naive",
                fmt(out.prefault_goodput_rps, 0) + "/s",
                fmt(out.end_offered_rps, 0) + "/s", fmt(out.end_goodput_rps, 0) + "/s",
                out.recovered ? fmt(out.recovery_s, 0) + " s" : "never",
                out.metastable ? "YES" : "no", std::to_string(out.breaker_trips),
                std::to_string(out.shed_breaker + out.shed_bucket + out.shed_queue),
                std::to_string(out.served_stale)});
           return out;
         };

         std::cout << "Retry storm: " << clients << " clients, " << policy
                   << " backoff, " << fmt(outage_s, 0) << " s outage:\n";
         const auto naive = run_arm(false);
         const auto defended = run_arm(true);
         std::cout << table.render();

         const bool ledgers_clean = naive.conservation_ok && naive.invariants_ok &&
                                    defended.conservation_ok && defended.invariants_ok;
         std::cout << "  defense "
                   << (defended.recovered ? "recovered " + fmt(defended.recovery_s, 0) +
                                                " s after the outage cleared"
                                          : "FAILED TO RECOVER")
                   << "; naive arm "
                   << (naive.metastable ? "metastable (offered " +
                                              fmt(naive.end_offered_rps, 0) +
                                              "/s still above capacity)"
                       : naive.recovered ? "recovered"
                                         : "degraded")
                   << "; ledgers " << (ledgers_clean ? "clean" : "VIOLATED") << "\n";
         if (!naive.conservation_ok) {
           std::cout << "  naive: " << naive.conservation_report << "\n";
         }
         if (!defended.conservation_ok) {
           std::cout << "  defended: " << defended.conservation_report << "\n";
         }
         if (!naive.invariants_ok) std::cout << naive.invariant_report;
         if (!defended.invariants_ok) std::cout << defended.invariant_report;
         if (!ledgers_clean) {
           throw ConformanceFailure{"retrystorm conservation/invariant ledgers violated",
                                    seed};
         }
         return defended.recovered ? 0 : 1;
       };
     }},

    {"kernelbench",
     "  epmctl kernelbench  [--threads T] [--seed S] [--smoke] DES-kernel + epoch-engine\n"
     "                                                        throughput bench; exits non-\n"
     "                                                        zero on any missed perf gate.\n"
     "                                                        --smoke = reduced 100k-client\n"
     "                                                        CI configuration (skips the\n"
     "                                                        1M A/B and 10M sections)\n",
     [](const CliArgs& args) -> Job {
       bench::KernelBenchConfig config;
       config.threads = args.threads();
       config.seed = args.seed(42);
       if (args.get_switch("smoke")) bench::apply_smoke_preset(config);
       return [=] {
         std::cout << "DES kernel throughput (seed " << config.seed << "):\n";
         const auto outcome = bench::run_kernel_bench(config);
         if (!outcome.gate_ok) {
           throw ConformanceFailure{"kernel bench missed a perf gate (hold " +
                                        fmt(outcome.hold_speedup, 2) + "x, storm " +
                                        fmt(outcome.storm_speedup, 2) +
                                        "x; see PASS/FAIL lines)",
                                    config.seed, 1, config.threads};
         }
         return 0;
       };
     }},

    {"federation",
     "  epmctl federation   [--dcs N] [--clients N]           multi-datacenter retry-storm\n"
     "                      [--shards S] [--threads T]        fleet on the sharded federation,\n"
     "                      [--seed S] [--smoke]              conformance-checked bit-for-bit\n"
     "                                                        against the single-kernel run;\n"
     "                                                        exits non-zero on divergence.\n"
     "                                                        --smoke = reduced CI population\n",
     [](const CliArgs& args) -> Job {
       const bool smoke = args.get_switch("smoke");
       const std::size_t dcs = fleet_dcs(args, 2);
       const std::size_t clients = args.count("clients", smoke ? 2'000 : 20'000);
       auto shards = static_cast<std::size_t>(args.get("shards", std::int64_t{0}));
       const std::uint64_t seed = args.seed(2009);
       const std::size_t threads = args.threads();
       if (shards == 0) shards = dcs;
       if (shards > dcs || dcs % shards != 0) {
         throw UsageError("--shards must divide --dcs");
       }
       return [=] {
         const faults::FleetStormConfig config =
             faults::make_reference_fleet_storm_config(dcs, clients, seed);
         const network::InterDcNetwork net = faults::make_fleet_network(config);

         // The sharded run must agree bit-for-bit with the identical world on
         // one kernel (the reference, listed first).
         faults::FleetStormOutcome outcome;
         std::size_t windows = 0;
         std::uint64_t messages = 0;
         const faults::SweepReport sweep = faults::sweep_conformance(
             {{seed, faults::kSingleKernel, 1}, {seed, shards, threads}},
             [&](const faults::SweepPoint& p) {
               if (p.shards == faults::kSingleKernel) {
                 return faults::run_fleet_storm(config, p.shards, p.threads);
               }
               sim::ShardedSimulator fed(
                   faults::make_fleet_sharded_config(net, p.shards, p.threads));
               sim::ShardedFabric fabric(fed);
               outcome = faults::run_fleet_storm(config, fabric);
               windows = fed.windows_run();
               messages = fed.messages_sent();
               return outcome;
             });

         std::cout << "Federated fleet storm: " << dcs << " datacenters x " << clients
                   << " clients on " << plural(shards, "shard") << " ("
                   << plural(threads, "thread") << "), outage at '"
                   << config.sites[config.disruptions.front().dc].name << "':\n";
         Table table({"datacenter", "intents", "fresh", "stale", "timed out",
                      "forwarded", "remote served", "recovery"});
         for (const auto& dc : outcome.dcs) {
           table.add_row({dc.site, std::to_string(dc.intents),
                          std::to_string(dc.served_fresh),
                          std::to_string(dc.served_stale), std::to_string(dc.timed_out),
                          std::to_string(dc.forwarded), std::to_string(dc.remote_served),
                          dc.recovered ? fmt(dc.recovery_s, 0) + " s" : "never"});
         }
         std::cout << table.render();

         std::cout << "  fleet goodput:   "
                   << fmt_percent(outcome.fleet_goodput_fraction, 1) << " ("
                   << outcome.forwarded << " forwards, " << outcome.remote_served
                   << " served remotely, " << outcome.remote_shed << " shed)\n"
                   << "  federation:      " << windows << " windows, " << messages
                   << " cross-shard messages, lookahead "
                   << fmt(net.min_latency_floor_s() * 1e3, 1) << " ms\n"
                   << "  conformance:     "
                   << (sweep.ok ? "bit-identical to the single-kernel run"
                                : "DIVERGED FROM THE SINGLE-KERNEL RUN")
                   << "\n  ledgers:         "
                   << (outcome.conservation_ok ? "clean" : "VIOLATED") << "\n";
         if (!outcome.conservation_ok) std::cout << outcome.conservation_report;
         if (!sweep.ok || !outcome.conservation_ok) {
           throw ConformanceFailure{
               sweep.ok ? "federation conservation ledgers violated"
                        : "federation diverged from the single-kernel run",
               seed, shards, threads};
         }
         return 0;
       };
     }},

    {"chaos",
     "  epmctl chaos        [--dcs N] [--clients N]           chaos drills: correlated regional\n"
     "                      [--threads T] [--seed S]          outage recovery gate, kill-and-\n"
     "                      [--script SPEC] [--smoke]         restore bit-identical continuation,\n"
     "                                                        partition/heal zero-loss drill\n"
     "                                                        (SPEC: \"outage:region/americas@\n"
     "                                                        32+16;brownout:feed/grid-eu@...\")\n",
     [](const CliArgs& args) -> Job {
       const bool smoke = args.get_switch("smoke");
       const std::size_t dcs = fleet_dcs(args, 2);
       const std::size_t clients = args.count("clients", smoke ? 2'000 : 20'000);
       const std::uint64_t seed = args.seed(42);
       const std::size_t threads = args.threads();
       const std::string script =
           args.get("script", faults::make_reference_grid_script());
       faults::chaos_grid_disruptions(dcs, seed, script);
       return [=] {
         // Drill 1: correlated regional grid event, defended vs naive recovery.
         const auto rec = faults::run_chaos_recovery(dcs, clients, seed, script);
         std::cout << "Chaos drills: " << dcs << " datacenters x " << clients
                   << " clients, grid script \"" << script << "\":\n";
         Table recovery({"arm", "prefault", "end", "ratio", "signals", "recovered"});
         for (const bool defended : {true, false}) {
           const auto& arm = defended ? rec.defended : rec.naive;
           recovery.add_row({defended ? "defended" : "naive",
                             fmt(arm.fleet_prefault_goodput_rps, 1) + "/s",
                             fmt(arm.fleet_end_goodput_rps, 1) + "/s",
                             fmt(arm.ratio, 4), std::to_string(arm.grid_signals),
                             arm.recovered ? "yes" : "NO"});
         }
         std::cout << recovery.render();

         // Drill 2: kill-and-restore at this thread count.
         faults::ChaosFleetConfig chaos;
         chaos.dcs = dcs;
         chaos.threads = threads;
         const auto restore = faults::run_chaos_fleet_with_restore(chaos, 20.0, 35.0);
         std::cout << "  kill-and-restore: snapshot " << restore.snapshot_bytes
                   << " bytes, continuation "
                   << (restore.identical ? "bit-identical" : "DIVERGED") << "\n";

         // Drill 3: partition, park, heal, drain.
         const auto part = faults::run_chaos_partition_drill(chaos, 15.0, 30.0, 32.0);
         std::cout << "  partition drill:  " << part.parked_at_check
                   << " parked at check, " << part.redelivered << " redelivered, "
                   << (part.drained ? "drained" : "NOT DRAINED") << ", "
                   << (part.zero_loss ? "zero loss" : "LOST MESSAGES") << ", FIFO "
                   << (part.fifo_ok ? "intact" : "BROKEN") << "\n";

         const bool ledgers = rec.defended.conservation_ok && rec.naive.conservation_ok;
         std::cout << "  recovery gate:    defended "
                   << (rec.defended.recovered ? "recovers" : "FAILS") << " at "
                   << fmt_percent(rec.defended.ratio, 1) << ", naive "
                   << (rec.naive.recovered ? "RECOVERS TOO" : "fails") << " at "
                   << fmt_percent(rec.naive.ratio, 1) << " (threshold "
                   << fmt_percent(rec.threshold, 0) << ")\n  ledgers:          "
                   << (ledgers ? "clean" : "VIOLATED") << "\n";

         if (!rec.gate_ok || !ledgers) {
           throw ConformanceFailure{"chaos recovery gate failed", seed, dcs, threads};
         }
         if (!restore.identical) {
           throw ConformanceFailure{"chaos restore continuation diverged", chaos.seed,
                                    dcs, threads};
         }
         if (!part.passed) {
           throw ConformanceFailure{"chaos partition drill lost or reordered messages",
                                    chaos.seed, dcs, threads};
         }
         return 0;
       };
     }},

    {"telemetry",
     "  epmctl telemetry    [--threads T] [--seed S] [--smoke] columnar telemetry firehose\n"
     "                                                        bench: shard-parallel ingest,\n"
     "                                                        sealed-block compression,\n"
     "                                                        legacy bit-identity at 1/2/8\n"
     "                                                        threads, in-stream anomaly\n"
     "                                                        recall; exits non-zero on any\n"
     "                                                        missed gate. --smoke = reduced\n"
     "                                                        CI mix with a loose absolute\n"
     "                                                        throughput floor\n",
     [](const CliArgs& args) -> Job {
       bench::TelemetryBenchConfig config;
       config.threads = args.threads();
       config.seed = args.seed(42);
       if (args.get_switch("smoke")) bench::apply_smoke_preset(config);
       return [=] {
         std::cout << "Columnar telemetry firehose (seed " << config.seed << "):\n";
         const auto outcome = bench::run_telemetry_bench(config);
         // A missed perf gate or a broken bit-identity or anomaly contract.
         if (!outcome.gate_ok) {
           throw ConformanceFailure{
               "telemetry bench missed a gate (ingest " +
                   fmt(outcome.points_per_min / 1e6, 1) + "M/min, compression " +
                   fmt(outcome.compression_ratio, 1) + "x, flush " +
                   (outcome.flush_identical ? "ok" : "FAIL") + ", equivalence " +
                   (outcome.legacy_identical ? "ok" : "FAIL") + ", anomalies " +
                   (outcome.anomalies_recalled && outcome.anomalies_deterministic
                        ? "ok"
                        : "FAIL") +
                   ")",
               config.seed, 1, config.threads};
         }
         return 0;
       };
     }},

    {"controlplane",
     "  epmctl controlplane [--dcs N] [--seed S]              survivable-control-plane drills:\n"
     "                      [--threads T] [--smoke]           kill-the-leader (defended vs\n"
     "                                                        naive, with WAN partition),\n"
     "                                                        split-brain fencing, shard/thread\n"
     "                                                        conformance sweep, mid-failover\n"
     "                                                        restore. --smoke = reduced sweep,\n"
     "                                                        no partition variant\n",
     [](const CliArgs& args) -> Job {
       const bool smoke = args.get_switch("smoke");
       const std::size_t dcs =
           fleet_dcs(args, 3, " (leader failover needs >= 3 replicas)");
       const std::uint64_t seed = args.seed(7);
       const std::size_t threads = args.threads();
       return [=] {
         std::cout << "Survivable control plane: " << dcs << " datacenters, seed "
                   << seed << ", " << plural(threads, "thread")
                   << (smoke ? " (smoke)" : "") << ":\n";

         const auto add_arm = [](Table& table, const char* name,
                                 const faults::ControlChaosOutcome& out) {
           std::uint64_t fenced = 0;
           std::uint64_t doubles = 0;
           std::uint64_t safe_trips = 0;
           for (const faults::ControlDcOutcome& dc : out.dcs) {
             fenced += dc.fencing_rejections;
             doubles += dc.double_actuations;
             safe_trips += dc.safe_state_trips;
           }
           table.add_row({name, fmt_percent(out.fleet_prefault_frac, 1),
                          fmt_percent(out.fleet_end_frac, 1),
                          std::to_string(out.total_sla_violations),
                          std::to_string(out.total_alarms), std::to_string(fenced),
                          std::to_string(doubles), std::to_string(safe_trips)});
         };

         // Drill 1: kill-the-leader mid-transition, defended vs naive, then
         // the variant that also partitions DC 0 through the failover window.
         Table drill({"drill", "prefault", "end", "SLA viol", "alarms", "fenced",
                      "doubles", "safe trips"});
         const auto kill =
             faults::run_leader_kill_drill(dcs, threads, seed, /*with_partition=*/false);
         add_arm(drill, "leader-kill defended", kill.defended);
         add_arm(drill, "leader-kill naive", kill.naive);
         bool partition_gate_ok = true;
         bool partition_deadman_ok = true;
         if (!smoke) {
           const auto part =
               faults::run_leader_kill_drill(dcs, threads, seed, /*with_partition=*/true);
           add_arm(drill, "kill+partition defended", part.defended);
           add_arm(drill, "kill+partition naive", part.naive);
           partition_gate_ok = part.gate_ok;
           partition_deadman_ok = part.defended.dcs[0].safe_state_trips >= 1;
         }
         std::cout << drill.render();

         // Drill 2: split-brain — the hung leader wakes with a stale lease.
         const auto sb = faults::run_split_brain_drill(dcs, threads, seed);
         std::cout << "  split-brain:      " << sb.stale_fenced
                   << " stale actuations fenced, " << sb.double_actuations
                   << " double actuations, imposter "
                   << (sb.stale_leader_deposed ? "deposed" : "STILL LEADING") << "\n";

         // Drill 3: conformance sweep — the leader-kill world must be
         // bit-identical at every shard/thread count.
         std::vector<std::size_t> shard_counts{1};
         if (!smoke && dcs % 2 == 0 && dcs > 2) shard_counts.push_back(2);
         shard_counts.push_back(dcs);
         const std::vector<std::size_t> thread_counts =
             smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 8};
         faults::ControlChaosConfig base;
         base.dcs = dcs;
         base.seed = seed;
         base.controller_faults = faults::make_leader_kill_plan();
         const faults::SweepReport sweep = faults::sweep_control_plane(
             base, faults::sweep_grid({seed}, shard_counts, thread_counts));
         std::cout << "  conformance:      " << sweep.runs << " runs across shards {";
         for (std::size_t i = 0; i < shard_counts.size(); ++i) {
           std::cout << (i ? "," : "") << shard_counts[i];
         }
         std::cout << "} x threads {";
         for (std::size_t i = 0; i < thread_counts.size(); ++i) {
           std::cout << (i ? "," : "") << thread_counts[i];
         }
         std::cout << "}, " << (sweep.ok ? "all bit-identical" : "DIVERGED") << "\n";

         // Drill 4: snapshot mid-failover (after the kill, before the
         // successor's claim), restore, finish — must equal the
         // uninterrupted run exactly.
         const auto restore = faults::run_control_plane_with_restore(
             base, /*snapshot_at_s=*/14.0, /*kill_at_s=*/16.5);
         std::cout << "  restore:          snapshot " << restore.snapshot_bytes
                   << " bytes mid-failover, continuation "
                   << (restore.identical ? "bit-identical" : "DIVERGED") << "\n";

         const bool verdict_ok = kill.gate_ok && partition_gate_ok && sb.passed;
         std::cout << "  gates:            leader-kill "
                   << (kill.gate_ok ? "pass" : "FAILED") << ", partition "
                   << (smoke ? "skipped"
                             : (partition_gate_ok && partition_deadman_ok ? "pass"
                                                                          : "FAILED"))
                   << ", split-brain " << (sb.passed ? "pass" : "FAILED") << "\n";

         if (!sweep.ok) {
           throw ConformanceFailure{"control plane diverged across shard/thread counts",
                                    sweep.failed.seed, sweep.failed.shards,
                                    sweep.failed.threads};
         }
         if (!restore.identical) {
           throw ConformanceFailure{"control plane restore continuation diverged", seed,
                                    dcs, threads};
         }
         if (!partition_deadman_ok) {
           throw ConformanceFailure{
               "partitioned DC 0 never tripped its dead-man safe state", seed, dcs,
               threads};
         }
         if (!verdict_ok) {
           std::cout << "  VERDICT: a control-plane drill gate failed (see above)\n";
           return 1;
         }
         return 0;
       };
     }},
};

int help() {
  std::cout << "epmctl — elastic power management toolkit\n\n";
  for (const Command& command : kCommands) std::cout << command.usage;
  std::cout << R"(
  --threads T (1..1024) applies to the commands with parallel backends
  (availability, replications, kernelbench, federation, chaos, telemetry,
  controlplane); it defaults to the EPM_THREADS environment variable, else
  the machine's hardware concurrency. Results never depend on T.

  Exit codes: 0 success; 1 scenario verdict failed (e.g. the defended arm
  did not recover); 2 usage error; 3 conformance/gate failure (federation
  divergence, chaos gate, ledger violation — the failing seed/shards/threads
  are printed); 4 runtime error (exception).
)";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    const std::string& name = args.command();
    if (name.empty() || name == "help" || args.get_switch("help")) return help();
    const Command* command =
        std::find_if(std::begin(kCommands), std::end(kCommands),
                     [&](const Command& c) { return c.name == name; });
    if (command == std::end(kCommands)) {
      throw UsageError("unknown command '" + name + "' (see 'epmctl help')");
    }
    Job job;
    try {
      job = command->run(args);
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
    if (const auto unused = args.unused(); !unused.empty()) {
      throw UsageError("unknown flag --" + unused.front() + " (see 'epmctl help')");
    }
    return job();
  } catch (const UsageError& e) {
    std::cerr << "epmctl: " << e.what() << "\n";
    return 2;
  } catch (const ConformanceFailure& failure) {
    std::cerr << "epmctl: " << failure.what << " (seed " << failure.seed
              << ", shards " << failure.shards << ", threads " << failure.threads
              << ")\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "epmctl: runtime error: " << e.what() << "\n";
    return 4;
  } catch (...) {
    std::cerr << "epmctl: runtime error: unexpected non-standard exception\n";
    return 4;
  }
}
