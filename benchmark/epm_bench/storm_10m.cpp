// storm_10m: the 10M-client closed-loop retry storm (30 s horizon, 5 s
// utility outage) on the vectorized epoch engine — the same slice as the
// kernel_retry_storm_10m record, with the population sweeping on T threads.
//
// The working set is ~200 MB of client SoA, so this is the DRAM-resident
// end of the epoch engine; the DES kernel sees about one batch event per
// epoch.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <vector>

#include "faults/retry_storm.h"
#include "harness.h"
#include "sim/sharded_simulator.h"
#include "workload/client_population.h"

namespace epmbench {
namespace {

using namespace epm;

void add_outcome(Digest& d, const faults::RetryStormOutcome& o) {
  d.add(o.intents).add(o.attempts).add(o.retries).add(o.served_fresh);
  d.add(o.served_stale).add(o.timed_out).add(o.abandoned);
  d.add(o.dark_failures).add(o.shed_breaker).add(o.shed_bucket).add(o.shed_queue);
  d.add(o.prefault_goodput_rps).add(o.end_offered_rps).add(o.end_goodput_rps);
  d.add(o.end_interactive_capacity_rps);
  d.add(o.recovered).add(o.recovery_s).add(o.metastable);
  d.add(o.epochs).add(o.max_queue_depth).add(o.breaker_trips).add(o.breaker_probes);
  d.add(o.telemetry_samples).add(o.telemetry_shed).add(o.telemetry_retried);
  d.add(o.telemetry_abandoned);
  d.add(o.conservation_ok).add(o.conservation_report);
  d.add(o.invariants_ok).add(o.invariant_violations).add(o.invariant_report);
  for (const auto& [kind, count] : o.decision_counts) d.add(kind).add(count);
}

class Storm10m final : public Workload {
 public:
  explicit Storm10m(const Params& params) : params_(params) {}

  void setup() override {
    // The kernel_retry_storm_10m slice: service capacity scales with the
    // population (20k reference clients -> 1000 rps), so the service is
    // loaded but stable at any size.
    const std::size_t clients = params_.smoke ? 100'000 : 10'000'000;
    const double scale = static_cast<double>(clients) / 20000.0;
    config_ = faults::RetryStormConfig{};
    config_.clients.clients = clients;
    config_.clients.seed = scenario_seed(42, params_.seed);
    config_.clients.threads = params_.threads;
    config_.horizon_s = 30.0;
    config_.epoch_s = 1.0;
    config_.outage_start_s = 10.0;
    config_.outage_duration_s = 5.0;
    config_.recovery_window_epochs = 2;
    config_.service_capacity_rps = 1000.0 * scale;
    config_.batch_rps = 300.0 * scale;
    config_.naive_queue_capacity = static_cast<std::size_t>(120000.0 * scale);
  }

  double sim_seconds() const override { return config_.horizon_s; }

  RepResult run(Tracer* tracer) override {
    faults::RetryStormOutcome outcome;
    if (tracer == nullptr) {
      outcome = faults::run_retry_storm(config_);
    } else {
      // Traced: the same scenario as a driver-event chain on a 1-shard
      // federation, stepped one epoch per span; it replays run_retry_storm
      // bit for bit (the degenerate-federation invariant).
      Scope scope(tracer, "faults.FederatedRetryStorm");
      sim::ShardedConfig sharded;
      sharded.shards = 1;
      sharded.threads = 1;
      sim::ShardedSimulator fed(sharded);
      faults::FederatedRetryStorm storm(config_, fed, 0);
      for (std::size_t k = 1; static_cast<double>(k) * config_.epoch_s < storm.end_s();
           ++k) {
        Scope epoch(tracer, "faults.storm_epoch");
        fed.run_until(static_cast<double>(k) * config_.epoch_s);
      }
      {
        Scope epoch(tracer, "faults.storm_epoch");
        fed.run_until(storm.end_s());
      }
      outcome = storm.finish();
    }
    attempts_ = outcome.attempts;

    RepResult result;
    Digest digest;
    add_outcome(digest, outcome);
    result.digest = digest.value();
    result.checks_ok = outcome.conservation_ok && outcome.invariants_ok;
    result.headline = {
        {"attempts", static_cast<double>(outcome.attempts)},
        {"intents", static_cast<double>(outcome.intents)},
        {"served_fresh", static_cast<double>(outcome.served_fresh)},
        {"dark_failures", static_cast<double>(outcome.dark_failures)},
        {"max_queue_depth", static_cast<double>(outcome.max_queue_depth)},
        {"recovered", outcome.recovered ? 1.0 : 0.0},
    };
    return result;
  }

  void probe(Tracer& tracer, double rep_s, std::uint64_t reference,
             LayerMetrics& layer, CheckTally& checks) override {
    const std::vector<double> epochs = tracer.durations_ms("faults.storm_epoch");
    layer["faults.storm_epoch_ms_p50"] = quantile(epochs, 0.5);
    layer["faults.storm_epoch_ms_max"] = quantile(epochs, 1.0);
    layer["faults.attempts"] = static_cast<double>(attempts_);

    // Thread attribution of the whole storm: the same run with a serial
    // population sweep must give the same outcome.
    {
      faults::RetryStormConfig serial = config_;
      serial.clients.threads = 1;
      double wall = 0.0;
      faults::RetryStormOutcome outcome;
      {
        Scope scope(&tracer, "faults.run_retry_storm@1t");
        const double t0 = now_s();
        outcome = faults::run_retry_storm(serial);
        wall = now_s() - t0;
      }
      Digest digest;
      add_outcome(digest, outcome);
      checks.expect(digest.value() == reference);
      layer["faults.storm_speedup_vs_1t"] = wall / rep_s;
    }

    // The epoch engine alone, driven through its public calls.
    Drive parallel;
    {
      Scope scope(&tracer, "workload.ClientPopulation@Tt");
      parallel = drive_population(params_.threads, &tracer);
    }
    const Drive serial = drive_population(1, nullptr);
    checks.expect(parallel.conserved && serial.conserved &&
                  parallel.digest == serial.digest);
    layer["workload.collect_due_ms_p50"] =
        quantile(tracer.durations_ms("workload.collect_due"), 0.5);
    layer["workload.serve_batch_ms_p50"] =
        quantile(tracer.durations_ms("workload.on_served_batch"), 0.5);
    layer["workload.expire_timeouts_ms_p50"] =
        quantile(tracer.durations_ms("workload.expire_timeouts"), 0.5);
    layer["workload.disconnect_all_ms"] =
        quantile(tracer.durations_ms("workload.disconnect_all"), 0.5);
    layer["workload.sweep_speedup_vs_1t"] = serial.wall_s / parallel.wall_s;
  }

 private:
  struct Drive {
    double wall_s = 0.0;
    std::uint64_t digest = 0;
    bool conserved = false;
  };

  /// Drives a ClientPopulation with the storm's config and epoch pattern:
  /// collect the due batch, reject while dark or when the FIFO is full,
  /// admit otherwise, serve the interactive capacity as one cohort at the
  /// epoch end, then fire client deadlines; sessions drop at outage onset.
  Drive drive_population(std::size_t threads, Tracer* tracer) const {
    workload::ClientPopulationConfig clients = config_.clients;
    clients.threads = threads;
    workload::ClientPopulation population(clients);
    const double dt = config_.epoch_s;
    const auto epochs = static_cast<std::size_t>(std::ceil(config_.horizon_s / dt));
    const auto capacity = static_cast<std::size_t>(
        (config_.service_capacity_rps - config_.batch_rps) * dt);
    const double outage_end = config_.outage_start_s + config_.outage_duration_s;
    std::deque<std::uint32_t> queue;
    std::vector<std::uint32_t> cohort;
    bool dropped = false;

    Drive drive;
    const double t_begin = now_s();
    for (std::size_t e = 0; e < epochs; ++e) {
      const double t0 = static_cast<double>(e) * dt;
      const double t1 = t0 + dt;
      const bool outage = t0 >= config_.outage_start_s && t0 < outage_end;
      if (outage && !dropped) {
        Scope scope(tracer, "workload.disconnect_all");
        population.disconnect_all(t0);
        dropped = true;
      }
      const std::vector<std::uint32_t>* due = nullptr;
      {
        Scope scope(tracer, "workload.collect_due");
        due = &population.collect_due(t0, dt);
      }
      {
        Scope scope(tracer, "workload.admit");
        for (const std::uint32_t id : *due) {
          if (outage || queue.size() >= config_.naive_queue_capacity) {
            population.on_rejected(id, t0);
          } else {
            queue.push_back(id);
            population.on_admitted(id, t0);
          }
        }
      }
      cohort.clear();
      if (!outage) {
        const std::size_t n = std::min(capacity, queue.size());
        cohort.assign(queue.begin(), queue.begin() + static_cast<std::ptrdiff_t>(n));
        queue.erase(queue.begin(), queue.begin() + static_cast<std::ptrdiff_t>(n));
      }
      if (!cohort.empty()) {
        Scope scope(tracer, "workload.on_served_batch");
        population.on_served_batch(cohort.data(), cohort.size(), t1);
      }
      {
        Scope scope(tracer, "workload.expire_timeouts");
        population.expire_timeouts(t1);
      }
    }
    drive.wall_s = now_s() - t_begin;

    const workload::ClientLedger& l = population.ledger();
    Digest digest;
    digest.add(l.intents).add(l.attempts).add(l.retries).add(l.served);
    digest.add(l.stale_served).add(l.rejected).add(l.timed_out).add(l.dropped);
    digest.add(l.abandoned).add(l.retry_cancelled).add(l.disconnected_intents);
    digest.add(l.disconnects).add(population.waiting_count());
    digest.add(population.backoff_count()).add(population.lost_count());
    drive.digest = digest.value();
    drive.conserved = population.conservation_ok();
    return drive;
  }

  Params params_;
  faults::RetryStormConfig config_;
  std::uint64_t attempts_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_storm_10m(const Params& params) {
  return std::make_unique<Storm10m>(params);
}

}  // namespace epmbench
