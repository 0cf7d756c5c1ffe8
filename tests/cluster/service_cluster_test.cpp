#include "cluster/service_cluster.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/queueing.h"
#include "core/rng.h"

namespace epm::cluster {
namespace {

ServiceClusterConfig small_cluster(std::size_t total = 10, std::size_t active = 10) {
  ServiceClusterConfig config;
  config.server_count = total;
  config.initially_active = active;
  return config;
}

workload::OfferedLoad load_of(double rate, double demand = 0.01) {
  workload::OfferedLoad load;
  load.arrival_rate_per_s = rate;
  load.service_demand_s = demand;
  return load;
}

TEST(ServiceCluster, UtilizationMatchesLoad) {
  ServiceCluster cluster(small_cluster());
  // 10 servers at 100 rps each = 1000 rps capacity; offer 500 -> rho 0.5.
  const auto r = cluster.run_epoch(60.0, load_of(500.0));
  EXPECT_EQ(r.serving, 10u);
  EXPECT_NEAR(r.utilization, 0.5, 1e-9);
  EXPECT_FALSE(r.sla_violated);
  EXPECT_DOUBLE_EQ(r.dropped_rate_per_s, 0.0);
  // M/G/1-PS: 0.01 / 0.5 = 0.02 s.
  EXPECT_NEAR(r.mean_response_s, 0.02, 1e-9);
}

TEST(ServiceCluster, PowerAccountsIdleFloor) {
  ServiceCluster cluster(small_cluster());
  const auto idle = cluster.run_epoch(60.0, load_of(0.0));
  EXPECT_NEAR(idle.server_power_w, 10.0 * 180.0, 1e-6);  // 60% of 300 W
  const auto busy = cluster.run_epoch(60.0, load_of(950.0));
  EXPECT_GT(busy.server_power_w, idle.server_power_w);
  EXPECT_LE(busy.server_power_w, 10.0 * 300.0 + 1e-6);
}

TEST(ServiceCluster, EnergyAccumulates) {
  ServiceCluster cluster(small_cluster());
  cluster.run_epoch(60.0, load_of(100.0));
  cluster.run_epoch(60.0, load_of(100.0));
  EXPECT_GT(cluster.total_energy_j(), 0.0);
  EXPECT_EQ(cluster.epochs_run(), 2u);
}

TEST(ServiceCluster, OverloadShedsAndViolatesSla) {
  ServiceCluster cluster(small_cluster());
  const auto r = cluster.run_epoch(60.0, load_of(2000.0));  // 2x capacity
  EXPECT_TRUE(r.sla_violated);
  EXPECT_GT(r.dropped_rate_per_s, 900.0);
  EXPECT_DOUBLE_EQ(r.mean_response_s, cluster.config().sla.overload_response_s);
  EXPECT_GT(cluster.total_dropped_requests(), 0.0);
}

TEST(ServiceCluster, BrownOutWithNoServers) {
  ServiceCluster cluster(small_cluster(10, 0));
  const auto r = cluster.run_epoch(60.0, load_of(100.0));
  EXPECT_EQ(r.serving, 0u);
  EXPECT_DOUBLE_EQ(r.dropped_rate_per_s, 100.0);
  EXPECT_TRUE(r.sla_violated);
}

TEST(ServiceCluster, SlaViolationWhenResponseExceedsTarget) {
  ServiceClusterConfig config = small_cluster();
  config.sla.target_mean_response_s = 0.015;  // tight: rho>1/3 violates
  ServiceCluster cluster(config);
  const auto ok = cluster.run_epoch(60.0, load_of(200.0));  // rho 0.2
  EXPECT_FALSE(ok.sla_violated);
  const auto slow = cluster.run_epoch(60.0, load_of(800.0));  // rho 0.8
  EXPECT_TRUE(slow.sla_violated);
  EXPECT_EQ(cluster.sla_violation_epochs(), 1u);
}

TEST(ServiceCluster, TargetCommittedScalesUpWithBootDelay) {
  ServiceCluster cluster(small_cluster(10, 2));
  EXPECT_EQ(cluster.committed_count(), 2u);
  cluster.set_target_committed(6, /*use_sleep=*/false);
  EXPECT_EQ(cluster.committed_count(), 6u);
  EXPECT_EQ(cluster.serving_count(), 2u);  // boots take time
  // First epoch: boots not yet done (120 s boot > 60 s epoch).
  auto r = cluster.run_epoch(60.0, load_of(100.0));
  EXPECT_EQ(r.serving, 2u);
  EXPECT_EQ(r.booting, 4u);
  // Second epoch: boots complete at its start.
  r = cluster.run_epoch(60.0, load_of(100.0));
  EXPECT_EQ(r.serving, 6u);
}

TEST(ServiceCluster, TargetCommittedScalesDown) {
  ServiceCluster cluster(small_cluster(10, 8));
  cluster.set_target_committed(3, /*use_sleep=*/true);
  EXPECT_EQ(cluster.committed_count(), 3u);
  EXPECT_EQ(cluster.count_in_state(ServerState::kSleeping), 5u);
  cluster.set_target_committed(5, true);
  // Wakes sleepers first (fast transition).
  EXPECT_EQ(cluster.count_in_state(ServerState::kWaking), 2u);
}

TEST(ServiceCluster, TargetClampedToFleet) {
  ServiceCluster cluster(small_cluster(4, 4));
  cluster.set_target_committed(100, false);
  EXPECT_EQ(cluster.committed_count(), 4u);
}

TEST(ServiceCluster, SleepersUseSleepPower) {
  ServiceCluster cluster(small_cluster(4, 4));
  cluster.set_target_committed(2, /*use_sleep=*/true);
  const auto r = cluster.run_epoch(60.0, load_of(0.0));
  // 2 active idle (180 W) + 2 sleeping (9 W).
  EXPECT_NEAR(r.server_power_w, 2 * 180.0 + 2 * 9.0, 1e-6);
}

TEST(ServiceCluster, OffPowerIsZero) {
  ServiceCluster cluster(small_cluster(4, 4));
  cluster.set_target_committed(1, /*use_sleep=*/false);
  const auto r = cluster.run_epoch(60.0, load_of(0.0));
  EXPECT_NEAR(r.server_power_w, 180.0, 1e-6);
  EXPECT_EQ(r.off, 3u);
}

TEST(ServiceCluster, UniformDvfsLowersCapacityAndPower) {
  ServiceCluster cluster(small_cluster());
  cluster.set_uniform_pstate(cluster.power_model().pstate_count() - 1);
  const auto r = cluster.run_epoch(60.0, load_of(400.0));
  // Capacity halved: 500 rps -> rho 0.8.
  EXPECT_NEAR(r.utilization, 0.8, 1e-9);
}

TEST(ServiceCluster, RejectsBadInput) {
  ServiceClusterConfig zero_servers;
  zero_servers.server_count = 0;
  EXPECT_THROW(ServiceCluster{zero_servers}, std::invalid_argument);
  ServiceClusterConfig bad;
  bad.initially_active = bad.server_count + 1;
  EXPECT_THROW(ServiceCluster{bad}, std::invalid_argument);
  ServiceCluster cluster(small_cluster());
  EXPECT_THROW(cluster.run_epoch(0.0, load_of(1.0)), std::invalid_argument);
  EXPECT_THROW(cluster.run_epoch(60.0, load_of(1.0, 0.0)), std::invalid_argument);
  EXPECT_THROW(cluster.server(99), std::invalid_argument);
  EXPECT_THROW(cluster.set_uniform_pstate(99), std::invalid_argument);
  EXPECT_THROW(cluster.set_uniform_duty(0.0), std::invalid_argument);
  EXPECT_THROW(cluster.set_uniform_duty(1.5), std::invalid_argument);
  EXPECT_EQ(cluster.server(0).pstate(), 0u);
  EXPECT_EQ(cluster.server(0).duty(), 1.0);
}

// ---------------------------------------------------------------------------
// Differential check of the two-pass epoch and the kept state counts
// ---------------------------------------------------------------------------

/// The cluster as written before its epoch became two passes and its state
/// counts were kept: every command and the epoch go through the public
/// Server API, every count is a fresh walk over the servers, and an epoch
/// walks them nine times (tick, five state counts, capacity, utilization,
/// power). It is the oracle ServiceCluster must match bit for bit.
class NinePassCluster {
 public:
  explicit NinePassCluster(const ServiceClusterConfig& config)
      : config_(config), model_(config.server) {
    servers_.reserve(config_.server_count);
    for (std::size_t i = 0; i < config_.server_count; ++i) {
      servers_.emplace_back(i, model_,
                            i < config_.initially_active ? ServerState::kActive
                                                         : ServerState::kOff);
    }
  }
  NinePassCluster(const NinePassCluster&) = delete;  // servers point at model_
  NinePassCluster& operator=(const NinePassCluster&) = delete;

  const Server& server(std::size_t i) const { return servers_.at(i); }

  std::size_t count_in_state(ServerState state) const {
    std::size_t n = 0;
    for (const auto& s : servers_) {
      if (s.state() == state) ++n;
    }
    return n;
  }

  std::size_t committed_count() const {
    std::size_t n = 0;
    for (const auto& s : servers_) {
      const auto st = s.state();
      if (st == ServerState::kActive || st == ServerState::kBooting ||
          st == ServerState::kWaking) {
        ++n;
      }
    }
    return n;
  }

  std::size_t set_target_committed(std::size_t target, bool use_sleep) {
    const std::size_t usable = servers_.size() - unavailable_;
    target = std::min(target, usable);
    std::size_t committed = committed_count();
    std::size_t commands = 0;
    if (committed < target) {
      for (std::size_t i = 0; i < usable; ++i) {
        if (committed >= target) break;
        auto& s = servers_[i];
        if (s.state() == ServerState::kSleeping && s.wake()) {
          ++committed;
          ++commands;
        }
      }
      for (std::size_t i = 0; i < usable; ++i) {
        if (committed >= target) break;
        auto& s = servers_[i];
        if (s.state() == ServerState::kOff && s.power_on()) {
          ++committed;
          ++commands;
        }
      }
    } else if (committed > target) {
      for (std::size_t i = usable; i-- > 0 && committed > target;) {
        auto& s = servers_[i];
        if (s.state() != ServerState::kActive) continue;
        const bool done = use_sleep ? s.sleep() : s.power_off();
        if (done) {
          --committed;
          ++commands;
        }
      }
    }
    return commands;
  }

  void set_unavailable(std::size_t n) {
    n = std::min(n, servers_.size());
    for (std::size_t i = servers_.size() - n; i < servers_.size() - unavailable_;
         ++i) {
      if (servers_[i].state() != ServerState::kOff) servers_[i].power_off();
    }
    unavailable_ = n;
  }

  void set_uniform_pstate(std::size_t pstate) {
    for (auto& s : servers_) s.set_pstate(pstate);
  }

  void set_uniform_duty(double duty) {
    for (auto& s : servers_) s.set_duty(duty);
  }

  EpochResult run_epoch(double epoch_s, const workload::OfferedLoad& load) {
    for (auto& s : servers_) s.tick(epoch_s);

    EpochResult r;
    r.time_s = now_s_;
    r.epoch_s = epoch_s;
    r.arrival_rate_per_s = load.arrival_rate_per_s;
    r.service_demand_s = load.service_demand_s;
    r.serving = count_in_state(ServerState::kActive);
    r.booting = count_in_state(ServerState::kBooting) +
                count_in_state(ServerState::kWaking);
    r.sleeping = count_in_state(ServerState::kSleeping);
    r.off = count_in_state(ServerState::kOff);

    double capacity_rps = 0.0;
    for (const auto& s : servers_) {
      capacity_rps += s.capacity_fraction() / load.service_demand_s;
    }

    if (capacity_rps <= 0.0) {
      r.dropped_rate_per_s = load.arrival_rate_per_s;
      r.mean_response_s = config_.sla.overload_response_s;
      r.p99_response_s = config_.sla.overload_response_s;
      r.sla_violated = load.arrival_rate_per_s > 0.0;
    } else {
      double rho = load.arrival_rate_per_s / capacity_rps;
      if (rho > config_.max_utilization) {
        r.dropped_rate_per_s =
            load.arrival_rate_per_s - config_.max_utilization * capacity_rps;
        rho = config_.max_utilization;
        r.mean_response_s = config_.sla.overload_response_s;
        r.p99_response_s = config_.sla.overload_response_s;
        r.sla_violated = true;
      } else {
        const double total_capacity_fraction = capacity_rps * load.service_demand_s;
        const double mean_capacity_fraction =
            total_capacity_fraction / static_cast<double>(r.serving);
        const double service_s = load.service_demand_s / mean_capacity_fraction;
        r.mean_response_s = mg1ps_response_time_s(service_s, rho);
        r.p99_response_s = response_quantile_s(r.mean_response_s, 0.99);
        r.sla_violated = r.mean_response_s > config_.sla.target_mean_response_s;
      }
      r.utilization = rho;
      for (auto& s : servers_) {
        if (s.serving()) s.set_utilization(rho);
      }
    }

    for (const auto& s : servers_) r.server_power_w += s.power_w();
    r.energy_j = r.server_power_w * epoch_s;
    now_s_ += epoch_s;
    return r;
  }

 private:
  ServiceClusterConfig config_;
  power::ServerPowerModel model_;
  std::vector<Server> servers_;
  std::size_t unavailable_ = 0;
  double now_s_ = 0.0;
};

void expect_same_bits(double got, double want, const char* field,
                      const std::string& where) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << where << ": " << field << " " << got << " vs " << want;
}

void expect_same_epoch(const EpochResult& got, const EpochResult& want,
                       const std::string& where) {
  expect_same_bits(got.time_s, want.time_s, "time_s", where);
  expect_same_bits(got.epoch_s, want.epoch_s, "epoch_s", where);
  expect_same_bits(got.arrival_rate_per_s, want.arrival_rate_per_s,
                   "arrival_rate_per_s", where);
  expect_same_bits(got.service_demand_s, want.service_demand_s,
                   "service_demand_s", where);
  EXPECT_EQ(got.serving, want.serving) << where;
  EXPECT_EQ(got.booting, want.booting) << where;
  EXPECT_EQ(got.sleeping, want.sleeping) << where;
  EXPECT_EQ(got.off, want.off) << where;
  expect_same_bits(got.utilization, want.utilization, "utilization", where);
  expect_same_bits(got.mean_response_s, want.mean_response_s, "mean_response_s",
                   where);
  expect_same_bits(got.p99_response_s, want.p99_response_s, "p99_response_s",
                   where);
  expect_same_bits(got.dropped_rate_per_s, want.dropped_rate_per_s,
                   "dropped_rate_per_s", where);
  EXPECT_EQ(got.sla_violated, want.sla_violated) << where;
  expect_same_bits(got.server_power_w, want.server_power_w, "server_power_w",
                   where);
  expect_same_bits(got.energy_j, want.energy_j, "energy_j", where);
}

/// The kept counts must equal a recount over the servers' states, and every
/// server must match its oracle twin field for field.
void expect_same_fleet(const ServiceCluster& cluster, const NinePassCluster& oracle,
                       const std::string& where) {
  std::size_t recount[5] = {};
  for (std::size_t i = 0; i < cluster.server_count(); ++i) {
    const Server& s = cluster.server(i);
    const Server& o = oracle.server(i);
    ++recount[static_cast<std::size_t>(s.state())];
    ASSERT_EQ(s.state(), o.state()) << where << " server " << i;
    ASSERT_EQ(s.pstate(), o.pstate()) << where << " server " << i;
    expect_same_bits(s.duty(), o.duty(), "duty", where);
    expect_same_bits(s.utilization(), o.utilization(), "utilization", where);
    expect_same_bits(s.transition_energy_j(), o.transition_energy_j(),
                     "transition_energy_j", where);
    ASSERT_EQ(s.boot_count(), o.boot_count()) << where << " server " << i;
  }
  for (const ServerState state :
       {ServerState::kOff, ServerState::kBooting, ServerState::kActive,
        ServerState::kSleeping, ServerState::kWaking}) {
    EXPECT_EQ(cluster.count_in_state(state), recount[static_cast<std::size_t>(state)])
        << where << " " << to_string(state);
  }
  EXPECT_EQ(cluster.serving_count(),
            recount[static_cast<std::size_t>(ServerState::kActive)])
      << where;
  EXPECT_EQ(cluster.committed_count(),
            recount[static_cast<std::size_t>(ServerState::kActive)] +
                recount[static_cast<std::size_t>(ServerState::kBooting)] +
                recount[static_cast<std::size_t>(ServerState::kWaking)])
      << where;
  EXPECT_EQ(cluster.committed_count(), oracle.committed_count()) << where;
}

TEST(ServiceCluster, TwoPassEpochMatchesTheNinePassOracleOnSeededCommands) {
  std::size_t brown_outs = 0;
  std::size_t overloads = 0;
  std::size_t normal = 0;
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 2026ULL}) {
    for (const std::size_t servers : {std::size_t{1}, std::size_t{3}, std::size_t{10},
                                      std::size_t{60}}) {
      Rng rng(seed * 1000 + servers);
      ServiceClusterConfig config = small_cluster(
          servers, static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(servers))));
      config.server.boot_time_s = 90.0;  // boots finish mid-epoch, or not
      config.server.wake_from_sleep_s = 20.0;
      ServiceCluster cluster(config);
      NinePassCluster oracle(config);
      const double full_rps = static_cast<double>(servers) *
                              cluster.power_model().config().reference_capacity_rps;
      const auto n = static_cast<std::int64_t>(servers);
      for (int step = 0; step < 400; ++step) {
        const std::string where = "seed " + std::to_string(seed) + " servers " +
                                  std::to_string(servers) + " step " +
                                  std::to_string(step);
        switch (rng.uniform_int(0, 5)) {
          case 0: {
            const auto target = static_cast<std::size_t>(rng.uniform_int(0, n + 2));
            const bool use_sleep = rng.bernoulli(0.5);
            ASSERT_EQ(cluster.set_target_committed(target, use_sleep),
                      oracle.set_target_committed(target, use_sleep))
                << where;
            break;
          }
          case 1: {
            const auto pstate = static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(cluster.power_model().pstate_count()) - 1));
            cluster.set_uniform_pstate(pstate);
            oracle.set_uniform_pstate(pstate);
            break;
          }
          case 2: {
            const double duty = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.05, 1.0);
            cluster.set_uniform_duty(duty);
            oracle.set_uniform_duty(duty);
            break;
          }
          case 3: {
            // Grows or shrinks the fault, including to the whole fleet.
            const auto down = static_cast<std::size_t>(rng.uniform_int(0, n));
            cluster.set_unavailable(down);
            oracle.set_unavailable(down);
            break;
          }
          default: {
            workload::OfferedLoad load;
            load.service_demand_s = rng.bernoulli(0.5) ? 0.01 : rng.uniform(0.002, 0.05);
            // Zero, light to heavy, and well past the whole fleet's capacity.
            const double scale = full_rps * 0.01 / load.service_demand_s;
            const std::int64_t regime = rng.uniform_int(0, 3);
            load.arrival_rate_per_s = regime == 0   ? 0.0
                                      : regime == 3 ? scale * rng.uniform(1.0, 3.0)
                                                    : scale * rng.uniform(0.0, 1.0);
            const double epoch_s = rng.bernoulli(0.5) ? 60.0 : rng.uniform(1.0, 150.0);
            const EpochResult got = cluster.run_epoch(epoch_s, load);
            const EpochResult want = oracle.run_epoch(epoch_s, load);
            expect_same_epoch(got, want, where);
            if (want.serving == 0 && load.arrival_rate_per_s > 0.0) {
              ++brown_outs;
            } else if (want.dropped_rate_per_s > 0.0) {
              ++overloads;
            } else if (load.arrival_rate_per_s > 0.0) {
              ++normal;
            }
            break;
          }
        }
        expect_same_fleet(cluster, oracle, where);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  // Every regime of the epoch was exercised.
  EXPECT_GT(brown_outs, 20u);
  EXPECT_GT(overloads, 20u);
  EXPECT_GT(normal, 20u);
}

}  // namespace
}  // namespace epm::cluster
