#include "cluster/request_des.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "core/parallel.h"
#include "core/require.h"
#include "sim/simulator.h"

namespace epm::cluster {
namespace {

class ServiceSampler {
 public:
  ServiceSampler(const RequestDesConfig& config, Rng& rng)
      : config_(config), rng_(rng) {
    if (config.distribution == ServiceDistribution::kLognormal) {
      const double cv = std::max(config.service_cv, 1e-6);
      sigma_ = std::sqrt(std::log(1.0 + cv * cv));
      mu_ = std::log(config.mean_service_s) - 0.5 * sigma_ * sigma_;
    }
  }

  double next() {
    switch (config_.distribution) {
      case ServiceDistribution::kExponential:
        return rng_.exponential(1.0 / config_.mean_service_s);
      case ServiceDistribution::kDeterministic:
        return config_.mean_service_s;
      case ServiceDistribution::kLognormal:
        return rng_.lognormal(mu_, sigma_);
    }
    return config_.mean_service_s;
  }

 private:
  const RequestDesConfig& config_;
  Rng& rng_;
  double mu_ = 0.0;
  double sigma_ = 0.0;
};

/// Per-server next-free times as a dense min-heap over a flat vector. Only
/// the earliest-free server is ever observed, so this is value-identical to
/// the ordered multiset it replaced — without the red-black node allocation
/// per completion.
class FreeAtHeap {
 public:
  /// All servers free at t = 0 (an all-equal vector is a valid heap).
  explicit FreeAtHeap(std::size_t servers) : free_at_(servers, 0.0) {}

  double pop_min() {
    std::pop_heap(free_at_.begin(), free_at_.end(), std::greater<>());
    const double earliest = free_at_.back();
    free_at_.pop_back();
    return earliest;
  }

  void push(double when_s) {
    free_at_.push_back(when_s);
    std::push_heap(free_at_.begin(), free_at_.end(), std::greater<>());
  }

 private:
  std::vector<double> free_at_;
};

void validate(const RequestDesConfig& config) {
  require(config.arrival_rate_per_s > 0.0, "simulate_requests: rate must be positive");
  require(config.mean_service_s > 0.0, "simulate_requests: service must be positive");
  require(config.servers >= 1, "simulate_requests: need at least one server");
  require(config.measured_requests >= 1, "simulate_requests: nothing to measure");
  const double capacity = static_cast<double>(config.servers) / config.mean_service_s;
  require(config.arrival_rate_per_s < capacity,
          "simulate_requests: unstable configuration (rate >= capacity)");
}

/// Exact sweep for FCFS with a shared queue: each arrival (in time order)
/// starts on the earliest-free server.
RequestDesResult run_fcfs(const RequestDesConfig& config) {
  Rng rng(config.seed);
  Rng arrivals_rng = rng.fork();
  Rng service_rng = rng.fork();
  ServiceSampler sampler(config, service_rng);

  RequestDesResult result;
  FreeAtHeap free_at(config.servers);
  // Jobs in the system, tracked by kernel departure events instead of a
  // departure-time multiset: each admitted job schedules a calendar event at
  // its finish time whose inline closure decrements the counter.
  sim::Simulator timeline;
  std::size_t in_system = 0;

  double t = 0.0;
  double busy_time = 0.0;
  const std::size_t total = config.warmup_requests + config.measured_requests;
  for (std::size_t i = 0; i < total; ++i) {
    t += arrivals_rng.exponential(config.arrival_rate_per_s);
    // Depart everything that finished before this arrival.
    timeline.run_until(t);
    const bool measured = i >= config.warmup_requests;
    if (measured) {
      result.queue_depth.add(static_cast<double>(in_system));
    }
    const double earliest_free = free_at.pop_min();
    const double start = std::max(t, earliest_free);
    const double service = sampler.next();
    const double finish = start + service;
    free_at.push(finish);
    ++in_system;
    timeline.schedule_at(finish, [&in_system] { --in_system; });
    busy_time += service;
    if (measured) {
      result.response_s.add(finish - t);
      ++result.completed;
    }
  }
  result.simulated_time_s = t;
  result.utilization =
      busy_time / (static_cast<double>(config.servers) * std::max(t, 1e-12));
  return result;
}

/// Processor sharing: arrivals join the server with the fewest jobs; each
/// server divides its unit capacity among its resident jobs.
RequestDesResult run_ps(const RequestDesConfig& config) {
  Rng rng(config.seed);
  Rng arrivals_rng = rng.fork();
  Rng service_rng = rng.fork();
  ServiceSampler sampler(config, service_rng);

  struct Job {
    double remaining_s;
    double arrived_s;
    bool measured;
  };
  std::vector<std::vector<Job>> servers(config.servers);
  std::vector<double> last_update(config.servers, 0.0);

  auto advance_server = [&](std::size_t s, double now) {
    auto& jobs = servers[s];
    if (!jobs.empty()) {
      const double share = (now - last_update[s]) / static_cast<double>(jobs.size());
      for (auto& job : jobs) job.remaining_s -= share;
    }
    last_update[s] = now;
  };
  auto next_departure = [&](std::size_t s) {
    const auto& jobs = servers[s];
    if (jobs.empty()) return std::numeric_limits<double>::infinity();
    double min_remaining = std::numeric_limits<double>::infinity();
    for (const auto& job : jobs) min_remaining = std::min(min_remaining, job.remaining_s);
    return last_update[s] + min_remaining * static_cast<double>(jobs.size());
  };

  RequestDesResult result;
  double busy_time = 0.0;
  const std::size_t total = config.warmup_requests + config.measured_requests;
  std::size_t generated = 0;
  double next_arrival = arrivals_rng.exponential(config.arrival_rate_per_s);
  double now = 0.0;

  while (result.completed < config.measured_requests) {
    // Next event: arrival or earliest departure across servers.
    double next_dep = std::numeric_limits<double>::infinity();
    std::size_t dep_server = 0;
    for (std::size_t s = 0; s < config.servers; ++s) {
      const double d = next_departure(s);
      if (d < next_dep) {
        next_dep = d;
        dep_server = s;
      }
    }
    const bool arrival_next = generated < total && next_arrival <= next_dep;
    ensure(arrival_next || next_dep < std::numeric_limits<double>::infinity(),
           "request_des: no next event (lost jobs?)");

    if (arrival_next) {
      now = next_arrival;
      // Busy-time accounting: a server is busy whenever it has jobs.
      for (std::size_t s = 0; s < config.servers; ++s) {
        if (!servers[s].empty()) busy_time += now - last_update[s];
        advance_server(s, now);
      }
      // Join the shortest queue.
      std::size_t target = 0;
      for (std::size_t s = 1; s < config.servers; ++s) {
        if (servers[s].size() < servers[target].size()) target = s;
      }
      const bool measured = generated >= config.warmup_requests;
      if (measured) {
        std::size_t in_system = 0;
        for (const auto& jobs : servers) in_system += jobs.size();
        result.queue_depth.add(static_cast<double>(in_system));
      }
      servers[target].push_back(Job{sampler.next(), now, measured});
      ++generated;
      next_arrival = now + arrivals_rng.exponential(config.arrival_rate_per_s);
    } else {
      now = next_dep;
      for (std::size_t s = 0; s < config.servers; ++s) {
        if (!servers[s].empty()) busy_time += now - last_update[s];
        advance_server(s, now);
      }
      auto& jobs = servers[dep_server];
      // Remove every job that has (numerically) finished.
      for (std::size_t j = jobs.size(); j-- > 0;) {
        if (jobs[j].remaining_s <= 1e-12) {
          if (jobs[j].measured) {
            result.response_s.add(now - jobs[j].arrived_s);
            ++result.completed;
          }
          jobs.erase(jobs.begin() + static_cast<std::ptrdiff_t>(j));
        }
      }
    }
  }
  result.simulated_time_s = now;
  result.utilization =
      busy_time / (static_cast<double>(config.servers) * std::max(now, 1e-12));
  return result;
}

}  // namespace

RequestDesResult simulate_requests(const RequestDesConfig& config) {
  validate(config);
  return config.discipline == ServiceDiscipline::kFcfs ? run_fcfs(config)
                                                       : run_ps(config);
}

void validate_replication_config(const ReplicationConfig& config) {
  require(config.replications >= 1,
          "simulate_replications: need at least one replication");
  validate(config.base);
}

ReplicationResult simulate_replications(const ReplicationConfig& config) {
  validate_replication_config(config);

  ThreadPool pool(resolve_thread_count(static_cast<std::int64_t>(config.threads)));
  const auto runs = pool.parallel_replicate(
      config.replications, config.seed, [&](Rng& rng, std::size_t) {
        RequestDesConfig rep = config.base;
        rep.seed = rng.next_u64();
        return simulate_requests(rep);
      });

  // Ordered reduction keeps the merged floating-point state identical at
  // every thread count.
  ReplicationResult result;
  for (const auto& run : runs) {
    result.response_s.merge(run.response_s);
    result.queue_depth.merge(run.queue_depth);
    result.utilization.add(run.utilization);
    result.replication_mean_response_s.add(run.response_s.mean());
    result.completed += run.completed;
  }
  return result;
}

}  // namespace epm::cluster
