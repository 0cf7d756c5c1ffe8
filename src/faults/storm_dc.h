// One datacenter of a retry storm: the admission stack and per-epoch ledger
// that the single-datacenter storm (retry_storm.cpp) and every site of the
// fleet storm (fleet_storm.cpp) step.
//
// A world steps epoch [t0, t1 = t0 + dt) as
//
//   open(t0, dt)          breaker epoch, bucket refill, ledger marks; the
//                         attempts due this epoch
//   (world)               one verdict per due position into `verdicts`,
//                         counting what went dark or was shed
//   answer(t0)            the whole batch answered in one call
//   take_cohort(credit)   the accept queue drained FIFO within the credit
//   (kernel serves the cohort at t1)
//   close(t1, dt)         client deadlines, breaker verdict, rate series
//
// and summarizes the run with fill(). The verdict loops stay in the worlds
// because their orders differ: the single-datacenter storm asks the breaker
// before it checks for the outage, while a fleet site forwards a dark
// attempt before the breaker sees it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/admission.h"
#include "faults/drill.h"
#include "faults/retry_storm.h"
#include "workload/client_population.h"

namespace epm::faults {

/// What one epoch added to the counters a world reports beyond the rates.
struct StormEpochCounts {
  std::uint64_t shed = 0;
  std::uint64_t retries = 0;
  std::uint64_t abandoned = 0;
};

/// Population is the client engine: workload::ClientPopulation, or the
/// legacy heap engine the equivalence suites compare it with.
template <typename Population>
class StormDc {
 public:
  StormDc(workload::ClientPopulationConfig clients,
          const RetryStormDefenseConfig& defense,
          std::size_t naive_queue_capacity)
      : population(std::move(clients)),
        queue(defense.enabled ? defense.queue_capacity
                              : naive_queue_capacity),
        bucket(defense.bucket),
        breaker(defense.breaker),
        defended_(defense.enabled) {}

  StormDc(const StormDc&) = delete;
  StormDc& operator=(const StormDc&) = delete;

  // What a world's verdict loop acts on.
  Population population;
  cluster::BoundedQueue queue;
  cluster::TokenBucket bucket;
  cluster::CircuitBreaker breaker;
  std::vector<std::uint8_t> verdicts;  ///< admission verdict per due position
  // Run totals of the attempts that never reached the queue.
  std::uint64_t dark = 0;  ///< reached a dark service
  std::uint64_t shed_breaker = 0;
  std::uint64_t shed_bucket = 0;
  std::uint64_t shed_queue = 0;
  std::size_t max_queue_depth = 0;

  /// Opens the epoch at t0: starts the breaker's epoch and refills the
  /// bucket (defended only), marks the ledger and counters, and returns the
  /// attempts due in [t0, t0 + dt) with every verdict cleared.
  const std::vector<std::uint32_t>& open(double t0, double dt) {
    if (defended_) {
      breaker.begin_epoch(t0);
      bucket.refill(dt);
    }
    led0_ = population.ledger();
    dark0_ = dark;
    shed0_ = shed_breaker + shed_bucket + shed_queue;
    const std::vector<std::uint32_t>& due = population.collect_due(t0, dt);
    verdicts.assign(due.size(), 0);
    return due;
  }

  /// Answers the due batch with `verdicts` and records the queue depth.
  void answer(double t0) {
    population.answer_due(verdicts, t0);
    max_queue_depth = std::max(max_queue_depth, queue.size());
  }

  /// Service credit left over from the last drain: fractional credit
  /// carries over only while the server is backlogged (an idle server
  /// cannot bank capacity).
  double carry() const { return carry_; }

  /// Drains the accept queue FIFO, one request per unit of `credit` (the
  /// caller includes carry()), and returns the drained ids. The vector is
  /// reused by the next call.
  const std::vector<std::uint32_t>& take_cohort(double credit) {
    cohort_.clear();
    queue.pop_run(queue.charge(credit), cohort_);
    carry_ = queue.empty() ? 0.0 : credit;
    return cohort_;
  }

  /// Closes the epoch at t1, after its cohort was served: fires the client
  /// deadlines, lets the breaker judge the epoch (defended only), and
  /// appends the offered, goodput and failure rates.
  StormEpochCounts close(double t1, double dt) {
    population.expire_timeouts(t1);
    const workload::ClientLedger& led = population.ledger();
    const std::uint64_t fresh = led.served - led0_.served;
    const std::uint64_t stale = led.stale_served - led0_.stale_served;
    const std::uint64_t expired = led.timed_out - led0_.timed_out;
    const std::uint64_t dark_delta = dark - dark0_;
    const std::uint64_t shed =
        shed_breaker + shed_bucket + shed_queue - shed0_;
    // The verdict comes from downstream outcomes: completions, client
    // timeouts and dark failures. The stack's own sheds are deliberate and
    // must not trip it.
    if (defended_) {
      const std::uint64_t observed = dark_delta + fresh + stale + expired;
      breaker.on_epoch_end(observed, observed - fresh, t1);
    }
    offered_.push_back(static_cast<double>(led.attempts - led0_.attempts) /
                       dt);
    goodput_.push_back(static_cast<double>(fresh) / dt);
    failure_.push_back(
        static_cast<double>(stale + expired + shed + dark_delta) / dt);
    return {shed, led.retries - led0_.retries,
            led.abandoned - led0_.abandoned};
  }

  /// Epochs closed so far.
  std::size_t epochs_closed() const { return offered_.size(); }

  /// Copies the ledger, the counters and the recovery scan into `out` (a
  /// RetryStormOutcome or a FleetDcOutcome), with the conservation result.
  template <typename Outcome>
  void fill(Outcome& out, const RecoveryCriteria& criteria) const {
    const workload::ClientLedger& led = population.ledger();
    out.intents = led.intents;
    out.attempts = led.attempts;
    out.retries = led.retries;
    out.served_fresh = led.served;
    out.served_stale = led.stale_served;
    out.timed_out = led.timed_out;
    out.abandoned = led.abandoned;
    out.dark_failures = dark;
    out.shed_breaker = shed_breaker;
    out.shed_bucket = shed_bucket;
    out.shed_queue = shed_queue;
    out.max_queue_depth = max_queue_depth;
    out.breaker_trips = breaker.trips();
    const RecoveryScan scan =
        scan_recovery(criteria, offered_, goodput_, failure_);
    out.prefault_goodput_rps = scan.prefault_goodput_rps;
    out.recovered = scan.recovered;
    out.recovery_s = scan.recovery_s;
    out.end_offered_rps = scan.end_offered_rps;
    out.end_goodput_rps = scan.end_goodput_rps;
    out.conservation_ok = population.conservation_ok();
    out.conservation_report = population.conservation_report();
  }

 private:
  bool defended_;
  std::vector<std::uint32_t> cohort_;
  double carry_ = 0.0;
  // Marks taken by open(), consumed by close() of the same epoch.
  workload::ClientLedger led0_;
  std::uint64_t dark0_ = 0;
  std::uint64_t shed0_ = 0;
  // Per-epoch rate series (req/s) for the recovery scan.
  std::vector<double> offered_;
  std::vector<double> goodput_;
  std::vector<double> failure_;
};

}  // namespace epm::faults
