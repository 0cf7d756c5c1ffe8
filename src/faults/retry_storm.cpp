#include "faults/retry_storm.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/require.h"
#include "faults/storm_dc.h"
#include "macro/decision_log.h"
#include "sensing/channels.h"
#include "sensing/estimator.h"
#include "sensing/invariants.h"
#include "sensing/sensor_plane.h"
#include "sensing/telemetry_feed.h"
#include "sim/event_fn.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "telemetry/store.h"
#include "workload/client_population_legacy.h"

namespace epm::faults {
namespace {

/// The single-datacenter storm, phase-split at each epoch's completion
/// cohort:
///
///   begin_epoch(e)  [t0 = e*dt]   outage edge, admission of the attempts
///                                 due this epoch, and the queue drain
///                                 within the interactive capacity, whose
///                                 cohort goes to a caller-supplied kernel
///                                 at t1 = t0 + dt;
///   (kernel fires the cohort at t1)
///   end_epoch(e)    [t1]          the datacenter's close, then shed/retry
///                                 telemetry through the sensor plane, the
///                                 macro overload posture and the invariant
///                                 checks.
///
/// The same code drives a plain epoch loop with a private kernel
/// (run_retry_storm) and a driver-event chain on a federation shard
/// (FederatedRetryStorm) with bit-identical results.
template <typename Population>
class RetryStormEngine {
 public:
  explicit RetryStormEngine(const RetryStormConfig& config)
      : config_(config),
        dc_(config.clients, config.defense, config.naive_queue_capacity),
        policy_(config.policy, /*service_count=*/2, &log_),
        sensors_(sensing::SensorPlaneConfig{}),
        estimator_(sensing::EstimatorConfig{}),
        monitor_(sensing::InvariantMonitorConfig{}) {
    require(config.epoch_s > 0.0, "RetryStorm: epoch must be positive");
    require(config.service_capacity_rps > 0.0,
            "RetryStorm: service capacity must be positive");
    require(config.batch_rps >= 0.0 &&
                config.batch_rps < config.service_capacity_rps,
            "RetryStorm: batch tier must leave interactive capacity");
    require(config.outage_start_s > 0.0 && config.outage_duration_s > 0.0,
            "RetryStorm: outage must have positive start and duration");
    require(config.horizon_s >
                config.outage_start_s + config.outage_duration_s,
            "RetryStorm: horizon must extend past the outage");
    require(config.sla_goodput_fraction > 0.0 &&
                config.sla_goodput_fraction <= 1.0,
            "RetryStorm: SLA fraction outside (0, 1]");
    require(config.recovery_window_epochs >= 1,
            "RetryStorm: recovery window must be at least one epoch");
    dt_ = config.epoch_s;
    epochs_ = checked_count(std::ceil(config.horizon_s / dt_),
                            "RetryStorm: horizon / epoch");
    const auto window = config.recovery_window_epochs;
    outage_start_epoch_ = checked_count(config.outage_start_s / dt_,
                                        "RetryStorm: outage start / epoch");
    require(outage_start_epoch_ / 2 + window <= outage_start_epoch_,
            "RetryStorm: outage starts too early for a pre-fault SLA window");
    outage_end_s_ = config.outage_start_s + config.outage_duration_s;

    interactive_capacity_rps_ =
        config.service_capacity_rps - config.batch_rps;
  }

  RetryStormEngine(const RetryStormEngine&) = delete;
  RetryStormEngine& operator=(const RetryStormEngine&) = delete;

  std::size_t epochs() const { return epochs_; }
  double epoch_s() const { return dt_; }

  /// Phase A of epoch e, at t0 = e*dt. `kernel` receives the epoch's
  /// completion cohort at t1 = t0 + dt (any Simulator-shaped scheduler: the
  /// serial runner's private kernel, or a federation shard).
  template <typename Kernel>
  void begin_epoch(std::size_t e, Kernel& kernel) {
    const double t0 = static_cast<double>(e) * dt_;
    const double t1 = t0 + dt_;
    const bool outage = t0 >= config_.outage_start_s && t0 < outage_end_s_;
    const bool defended = config_.defense.enabled;

    // Outage onset: every session drops; reconnects spread out like the
    // Fig. 3 login spike.
    if (outage && !sessions_dropped_) {
      dc_.population.disconnect_all(t0);
      sessions_dropped_ = true;
    }

    // 1. Client attempts due this epoch, through the admission stack: one
    // verdict byte per batch position, then one answer for the batch.
    const std::vector<std::uint32_t>& due = dc_.open(t0, dt_);
    for (std::size_t i = 0; i < due.size(); ++i) {
      if (defended && !dc_.breaker.allow()) {
        ++dc_.shed_breaker;
      } else if (outage) {
        ++dc_.dark;  // reached a dark service: connection failure
      } else if (defended && !dc_.bucket.try_acquire()) {
        ++dc_.shed_bucket;
      } else if (!dc_.queue.try_push(due[i], t0)) {
        ++dc_.shed_queue;
      } else {
        dc_.verdicts[i] = 1;  // admitted
      }
    }
    dc_.answer(t0);

    // 2. Interactive capacity: total minus the surviving batch tier (the
    // macro overload posture sheds batch to make headroom).
    const double batch_served_rps =
        outage ? 0.0 : config_.batch_rps * (1.0 - batch_shed_frac_);
    interactive_capacity_rps_ =
        outage ? 0.0 : config_.service_capacity_rps - batch_served_rps;

    // 3. Drain the accept queue FIFO; completions land at the epoch end.
    const std::vector<std::uint32_t>& cohort =
        dc_.take_cohort(dc_.carry() + interactive_capacity_rps_ * dt_);
    Population* population = &dc_.population;
    if constexpr (Population::kBatchServe) {
      // One event serves the cohort, whose vector is not reused before the
      // event fires at t1 (ahead of begin_epoch(e + 1)); the kernel stays
      // O(1) per epoch instead of O(completions).
      if (!cohort.empty()) {
        const std::uint32_t* ids = cohort.data();
        const std::size_t n = cohort.size();
        sim::EventFn event{[population, ids, n, t1] {
          population->on_served_batch(ids, n, t1);
        }};
        kernel.schedule_batch_at(t1, &event, &event + 1);
      }
    } else {
      completion_batch_.clear();
      for (const std::uint32_t id : cohort) {
        completion_batch_.emplace_back(
            [population, id, t1] { population->on_served(id, t1); });
      }
      kernel.schedule_batch_at(t1, completion_batch_.begin(),
                               completion_batch_.end());
    }
  }

  /// Phase B of epoch e, at t1 = (e+1)*dt, after the kernel fired the
  /// epoch's completion cohort.
  void end_epoch(std::size_t e) {
    const double t1 = static_cast<double>(e) * dt_ + dt_;

    // 4. Deadlines, breaker verdict and rates: the datacenter's close.
    const StormEpochCounts counts = dc_.close(t1, dt_);

    // 5. Shed/retry telemetry through the sensor plane, and the overload
    // signal (from the *estimated* rates, like every macro observation)
    // into the degradation policy for next epoch's posture.
    const double shed_rps = static_cast<double>(counts.shed) / dt_;
    const double retry_rps = static_cast<double>(counts.retries) / dt_;
    telemetry_.record_shed(counts.shed);
    telemetry_.record_retried(counts.retries);
    telemetry_.record_abandoned(counts.abandoned);
    macro::OverloadSignal signal;
    signal.breaker_open =
        config_.defense.enabled &&
        dc_.breaker.state() != cluster::BreakerState::kClosed;
    {
      const auto readings = sensors_.sample(shed_channel_, shed_rps, t1);
      feed_.publish(shed_key_, readings, t1);
      signal.shed_rate_per_s =
          estimator_.update(shed_channel_, readings, t1).value;
    }
    {
      const auto readings = sensors_.sample(retry_channel_, retry_rps, t1);
      feed_.publish(retry_key_, readings, t1);
      signal.retry_rate_per_s =
          estimator_.update(retry_channel_, readings, t1).value;
    }
    if (config_.policy_enabled) {
      policy_.observe_overload(signal, t1);
      const auto action = policy_.react(t1, /*battery_ride_through_s=*/1e12);
      batch_shed_frac_ = action.shed_scale[config_.policy.low_tier_service];
    }

    // 6. Invariants: cumulative flow identities and the retry-budget
    // conservation ledger, every epoch.
    const workload::ClientLedger& led = dc_.population.ledger();
    sensing::InvariantMonitor::RequestFlow flow;
    flow.time_s = t1;
    flow.offered = static_cast<double>(led.attempts);
    flow.served = static_cast<double>(led.served + led.stale_served);
    flow.goodput = static_cast<double>(led.served);
    flow.intents = static_cast<double>(led.intents);
    flow.retries = static_cast<double>(led.retries);
    monitor_.check_request_flow(flow);
    monitor_.check_condition("retry-budget-conservation",
                             dc_.population.conservation_ok(),
                             dc_.population.conservation_report(), t1);
  }

  /// Post-loop summary: recovery scan, metastability verdict, ledger
  /// copy-out. Call once, after end_epoch(epochs() - 1).
  RetryStormOutcome finish() const {
    RetryStormOutcome out;
    dc_.fill(out, {dt_, outage_start_epoch_, outage_end_s_,
                   config_.sla_goodput_fraction,
                   config_.recovery_window_epochs});
    out.epochs = dc_.epochs_closed();
    out.end_interactive_capacity_rps = interactive_capacity_rps_;
    out.metastable = !out.recovered &&
                     out.end_offered_rps > out.end_interactive_capacity_rps;
    out.breaker_probes = dc_.breaker.probes_issued();
    out.telemetry_samples = telemetry_.total_samples();
    out.telemetry_shed = telemetry_.shed_requests();
    out.telemetry_retried = telemetry_.retried_requests();
    out.telemetry_abandoned = telemetry_.abandoned_requests();
    out.invariants_ok = monitor_.ok();
    out.invariant_violations = monitor_.violation_count();
    out.invariant_report = monitor_.report();
    out.decision_counts = log_.counts_by_kind();
    return out;
  }

 private:
  RetryStormConfig config_;
  double dt_ = 1.0;
  std::size_t epochs_ = 0;
  std::size_t outage_start_epoch_ = 0;
  double outage_end_s_ = 0.0;

  StormDc<Population> dc_;
  macro::DecisionLog log_;
  macro::DegradationPolicy policy_;
  /// Exact single sensors in one fault domain for the shed/retry channels,
  /// read raw.
  sensing::SensorPlane sensors_;
  sensing::ValidatedEstimator estimator_;
  sensing::InvariantMonitor monitor_;
  telemetry::TelemetryStore telemetry_;
  sensing::TelemetryFeed feed_{telemetry_};
  const std::uint64_t shed_channel_ =
      sensing::make_channel(sensing::ChannelKind::kShedRate, 0);
  const std::uint64_t retry_channel_ =
      sensing::make_channel(sensing::ChannelKind::kRetryRate, 0);
  const std::uint64_t shed_key_ = telemetry::make_key(0, 1);
  const std::uint64_t retry_key_ = telemetry::make_key(0, 2);

  bool sessions_dropped_ = false;
  std::vector<sim::EventFn> completion_batch_;
  double batch_shed_frac_ = 0.0;  // from last epoch's policy reaction
  double interactive_capacity_rps_ = 0.0;
};

/// The serial runner: a plain epoch loop with a private completion kernel.
template <typename Population>
RetryStormOutcome run_retry_storm_impl(const RetryStormConfig& config) {
  RetryStormEngine<Population> engine(config);
  sim::Simulator completions;
  const double dt = engine.epoch_s();
  for (std::size_t e = 0; e < engine.epochs(); ++e) {
    engine.begin_epoch(e, completions);
    completions.run_until(static_cast<double>(e) * dt + dt);
    engine.end_epoch(e);
  }
  return engine.finish();
}

}  // namespace

RetryStormOutcome run_retry_storm(const RetryStormConfig& config) {
  return run_retry_storm_impl<workload::ClientPopulation>(config);
}

RetryStormOutcome run_retry_storm_legacy(const RetryStormConfig& config) {
  return run_retry_storm_impl<workload::LegacyClientPopulation>(config);
}

struct FederatedRetryStorm::Impl {
  explicit Impl(const RetryStormConfig& config) : engine(config) {}
  RetryStormEngine<workload::ClientPopulation> engine;
};

FederatedRetryStorm::FederatedRetryStorm(const RetryStormConfig& config,
                                         sim::ShardedSimulator& fed,
                                         std::size_t shard)
    : impl_(std::make_unique<Impl>(config)) {
  auto* eng = &impl_->engine;
  sim::Simulator* kernel = &fed.shard(shard);
  const double dt = eng->epoch_s();
  const std::size_t epochs = eng->epochs();
  end_s_ = static_cast<double>(epochs) * dt;

  // Driver event chain: D(e) fires at t = e*dt and runs phase B of epoch
  // e-1, then phase A of epoch e, then schedules D(e+1). Because phase A
  // schedules epoch e's completion cohort at (e+1)*dt BEFORE D(e+1) is
  // pushed, the kernel's same-timestamp FIFO fires the cohort first — the
  // serial loop's "completions.run_until(t1); end_epoch(e)" order, replayed
  // event-by-event. D(epochs) closes the final epoch.
  struct Driver {
    RetryStormEngine<workload::ClientPopulation>* eng;
    sim::Simulator* kernel;
    double dt;
    std::size_t epochs;
    void operator()(std::size_t e) {
      if (e > 0) eng->end_epoch(e - 1);
      if (e >= epochs) return;
      eng->begin_epoch(e, *kernel);
      kernel->schedule_at(static_cast<double>(e) * dt + dt,
                          [self = *this, e]() mutable { self(e + 1); });
    }
  };
  kernel->schedule_at(0.0, [driver = Driver{eng, kernel, dt, epochs}]() mutable {
    driver(0);
  });
}

FederatedRetryStorm::~FederatedRetryStorm() = default;

RetryStormOutcome FederatedRetryStorm::finish() {
  ensure(impl_ != nullptr, "FederatedRetryStorm: finish() called twice");
  RetryStormOutcome out = impl_->engine.finish();
  impl_.reset();
  return out;
}

RetryStormConfig make_reference_retry_storm_config(
    workload::RetryBackoff backoff, double outage_duration_s, bool defended) {
  RetryStormConfig config;
  config.clients.clients = 20000;
  config.clients.think_time_s = 40.0;
  config.clients.request_timeout_s = 4.0;
  config.clients.reconnect_spread_s = 60.0;
  config.clients.start_spread_s = 40.0;
  config.clients.seed = 7;
  config.clients.retry.backoff = backoff;
  config.clients.retry.base_delay_s = 2.0;
  config.clients.retry.multiplier = 2.0;
  config.clients.retry.max_delay_s = 60.0;
  config.clients.retry.jitter_frac = 0.5;
  config.clients.retry.max_attempts = 8;
  // Abandoned users come back: a login storm is not solved by losing the
  // customers (and a cooldown that returns them is what sustains the
  // congestion the defense must survive).
  config.clients.retry.abandon_cooldown_s = 30.0;

  config.service_capacity_rps = 1000.0;
  config.batch_rps = 300.0;
  config.outage_start_s = 180.0;
  config.outage_duration_s = outage_duration_s;
  config.horizon_s = 1200.0;

  config.defense.enabled = defended;
  config.defense.bucket = {900.0, 900.0};
  // Worst-case sojourn 1800 / 1000 rps = 1.8 s < the 4 s client timeout:
  // everything the queue accepts is still fresh when served.
  config.defense.queue_capacity = 1800;
  config.defense.breaker.failure_ratio = 0.5;
  config.defense.breaker.min_volume = 20;
  config.defense.breaker.open_duration_s = 5.0;
  config.defense.breaker.half_open_probes = 5;
  config.defense.breaker.close_after_healthy_epochs = 2;

  config.policy_enabled = defended;
  config.policy.low_tier_service = 1;  // batch
  config.policy.overload_shed_fraction = 1.0;
  config.policy.overload_min_shed_rate_per_s = 1.0;
  return config;
}

}  // namespace epm::faults
