// fleet_4dc: the multi-datacenter retry-storm fleet (4 DCs x 250k clients,
// 120 s horizon, 20 s outage at DC 0) on a 4-shard ShardedFabric run by T
// threads — the kernel_federation record's world. Each DC's population
// fits in cache, so the federation is compute-bound here, unlike the
// DRAM-resident storm_10m.
#include <cmath>
#include <cstddef>
#include <vector>

#include "faults/fleet_storm.h"
#include "harness.h"
#include "sim/fabric.h"
#include "sim/sharded_simulator.h"

namespace epmbench {
namespace {

using namespace epm;

void add_outcome(Digest& d, const faults::FleetStormOutcome& o) {
  for (const faults::FleetDcOutcome& dc : o.dcs) {
    d.add(dc.site).add(dc.intents).add(dc.attempts).add(dc.retries);
    d.add(dc.served_fresh).add(dc.served_stale).add(dc.timed_out).add(dc.abandoned);
    d.add(dc.dark_failures).add(dc.shed_breaker).add(dc.shed_bucket).add(dc.shed_queue);
    d.add(dc.forwarded).add(dc.remote_admitted).add(dc.remote_served);
    d.add(dc.remote_shed).add(dc.prefault_goodput_rps).add(dc.end_offered_rps);
    d.add(dc.end_goodput_rps).add(dc.grid_signals).add(dc.recovered);
    d.add(dc.recovery_s).add(dc.max_queue_depth).add(dc.breaker_trips);
    d.add(dc.conservation_ok).add(dc.conservation_report);
  }
  d.add(o.epochs).add(o.forwarded).add(o.remote_served).add(o.remote_shed);
  d.add(o.fleet_goodput_fraction).add(o.fleet_prefault_goodput_rps);
  d.add(o.fleet_end_goodput_rps).add(o.conservation_ok).add(o.conservation_report);
  d.add(o.events_run).add(o.events_pending);
}

std::uint64_t digest_of(const faults::FleetStormOutcome& o) {
  Digest d;
  add_outcome(d, o);
  return d.value();
}

/// Fabric decorator for the traced rep: splits every run_until into 1 s
/// chunks, one span each, and forwards everything else unchanged.
class ChunkedFabric final : public sim::Fabric {
 public:
  ChunkedFabric(sim::ShardedFabric& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  using Fabric::send;

  std::size_t shard_count() const override { return inner_.shard_count(); }
  sim::Simulator& kernel(std::size_t shard) override {
    return inner_.kernel(shard);
  }
  void send(std::size_t src, std::size_t dst, double delay_s,
            sim::EventFn fn) override {
    inner_.send(src, dst, delay_s, std::move(fn));
  }
  std::size_t run_until(double until_s) override {
    std::size_t events = 0;
    for (double next = std::floor(inner_.federation().now()) + 1.0;
         next < until_s; next += 1.0) {
      Scope scope(tracer_, "sim.fed_epoch");
      events += inner_.run_until(next);
    }
    Scope scope(tracer_, "sim.fed_epoch");
    return events + inner_.run_until(until_s);
  }
  std::size_t pending() const override { return inner_.pending(); }

 private:
  sim::ShardedFabric& inner_;
  Tracer* tracer_;
};

class Fleet4dc final : public Workload {
 public:
  explicit Fleet4dc(const Params& params) : params_(params) {}

  void setup() override {
    config_ = faults::make_reference_fleet_storm_config(
        4, params_.smoke ? 10'000 : 250'000, scenario_seed(42, params_.seed));
    // The fabric owns the parallelism; populations sweep serially.
    config_.clients.threads = 1;
    sharded_ = faults::make_fleet_sharded_config(faults::make_fleet_network(config_),
                                                 4, params_.threads);
  }

  double sim_seconds() const override { return config_.horizon_s; }

  RepResult run(Tracer* tracer) override {
    sim::ShardedSimulator fed(sharded_);
    sim::ShardedFabric fabric(fed);
    faults::FleetStormOutcome outcome;
    if (tracer == nullptr) {
      outcome = faults::run_fleet_storm(config_, fabric);
    } else {
      Scope scope(tracer, "faults.run_fleet_storm");
      ChunkedFabric chunked(fabric, tracer);
      outcome = faults::run_fleet_storm(config_, chunked);
    }
    windows_ = fed.windows_run();
    messages_ = fed.messages_sent();
    events_ = outcome.events_run;

    std::uint64_t attempts = 0;
    for (const auto& dc : outcome.dcs) attempts += dc.attempts;
    RepResult result;
    result.digest = digest_of(outcome);
    result.checks_ok = outcome.conservation_ok;
    result.headline = {
        {"fleet_attempts", static_cast<double>(attempts)},
        {"forwarded", static_cast<double>(outcome.forwarded)},
        {"fleet_goodput_fraction", outcome.fleet_goodput_fraction},
        {"events_run", static_cast<double>(outcome.events_run)},
    };
    return result;
  }

  void probe(Tracer& tracer, double rep_s, std::uint64_t reference,
             LayerMetrics& layer, CheckTally& checks) override {
    const std::vector<double> chunks = tracer.durations_ms("sim.fed_epoch");
    layer["sim.fed_epoch_ms_p50"] = quantile(chunks, 0.5);
    layer["sim.fed_epoch_ms_max"] = quantile(chunks, 1.0);
    layer["sim.events"] = static_cast<double>(events_);
    layer["sim.windows"] = static_cast<double>(windows_);
    layer["sim.messages_sent"] = static_cast<double>(messages_);

    // Federation attribution: the same world on one kernel, and sharded
    // but serial. Both must reproduce the rep's outcome.
    const int reps = params_.smoke ? 1 : 3;
    std::vector<double> single;
    std::vector<double> serial;
    for (int r = 0; r < reps; ++r) {
      {
        Scope scope(&tracer, "sim.SingleKernelFabric");
        const double t0 = now_s();
        sim::SingleKernelFabric fabric(config_.sites.size());
        const auto outcome = faults::run_fleet_storm(config_, fabric);
        single.push_back(now_s() - t0);
        checks.expect(digest_of(outcome) == reference);
      }
      {
        Scope scope(&tracer, "sim.ShardedFabric@1t");
        const double t0 = now_s();
        sim::ShardedConfig one_thread = sharded_;
        one_thread.threads = 1;
        sim::ShardedSimulator fed(one_thread);
        sim::ShardedFabric fabric(fed);
        const auto outcome = faults::run_fleet_storm(config_, fabric);
        serial.push_back(now_s() - t0);
        checks.expect(digest_of(outcome) == reference);
      }
    }
    const double single_s = quantile(single, 0.5);
    layer["sim.fed_speedup_vs_single"] = single_s / rep_s;
    layer["sim.fed_serial_overhead"] = quantile(serial, 0.5) / single_s;
  }

 private:
  Params params_;
  faults::FleetStormConfig config_;
  sim::ShardedConfig sharded_;
  std::uint64_t windows_ = 0;
  std::uint64_t messages_ = 0;
  std::size_t events_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_4dc(const Params& params) {
  return std::make_unique<Fleet4dc>(params);
}

}  // namespace epmbench
