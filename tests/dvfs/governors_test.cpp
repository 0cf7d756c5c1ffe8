#include "dvfs/governors.h"

#include <gtest/gtest.h>

namespace epm::dvfs {
namespace {

cluster::ServiceClusterConfig cluster_config() {
  cluster::ServiceClusterConfig config;
  config.server_count = 10;
  config.initially_active = 10;
  return config;
}

workload::OfferedLoad load_of(double rate) {
  workload::OfferedLoad load;
  load.arrival_rate_per_s = rate;
  load.service_demand_s = 0.01;
  return load;
}

TEST(OndemandGovernor, StepsDownWhenUnderloaded) {
  cluster::ServiceCluster cluster(cluster_config());
  OndemandGovernor gov(0, OndemandConfig{});
  const auto r = cluster.run_epoch(60.0, load_of(100.0));  // rho 0.1
  EXPECT_EQ(gov.decide(cluster, r), 1u);
  EXPECT_EQ(gov.decide(cluster, r), 2u);  // keeps stepping down
}

TEST(OndemandGovernor, JumpsToMaxWhenOverloaded) {
  cluster::ServiceCluster cluster(cluster_config());
  OndemandGovernor gov(3, OndemandConfig{});
  const auto r = cluster.run_epoch(60.0, load_of(900.0));  // rho 0.9
  EXPECT_EQ(gov.decide(cluster, r), 0u);
}

TEST(OndemandGovernor, HoldsInsideBand) {
  cluster::ServiceCluster cluster(cluster_config());
  OndemandGovernor gov(2, OndemandConfig{});
  const auto r = cluster.run_epoch(60.0, load_of(600.0));  // rho 0.6
  EXPECT_EQ(gov.decide(cluster, r), 2u);
}

TEST(OndemandGovernor, ClampsAtSlowest) {
  cluster::ServiceCluster cluster(cluster_config());
  OndemandGovernor gov(4, OndemandConfig{});
  const auto r = cluster.run_epoch(60.0, load_of(10.0));
  EXPECT_EQ(gov.decide(cluster, r), 4u);  // already slowest (5 states)
}

TEST(OndemandGovernor, RejectsBadBand) {
  OndemandConfig bad;
  bad.downscale_utilization = 0.9;
  EXPECT_THROW(OndemandGovernor(0, bad), std::invalid_argument);
}

}  // namespace
}  // namespace epm::dvfs
