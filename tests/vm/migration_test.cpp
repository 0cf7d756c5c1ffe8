#include "vm/migration.h"

#include <gtest/gtest.h>

#include "vm/placement.h"

namespace epm::vm {
namespace {

TEST(MigrationCost, ScalesWithMemory) {
  VmSpec small;
  small.memory_gb = 4.0;
  VmSpec large;
  large.memory_gb = 16.0;
  const auto cs = migration_cost(small);
  const auto cl = migration_cost(large);
  EXPECT_NEAR(cl.duration_s / cs.duration_s, 4.0, 1e-9);
  EXPECT_NEAR(cl.bytes_moved / cs.bytes_moved, 4.0, 1e-9);
  EXPECT_GT(cl.energy_j, cs.energy_j);
}

TEST(MigrationCost, ClosedForm) {
  VmSpec vm;
  vm.memory_gb = 8.0;
  MigrationCostConfig config;
  config.network_gbps = 10.0;
  config.dirty_factor = 1.25;
  const auto cost = migration_cost(vm, config);
  EXPECT_DOUBLE_EQ(cost.bytes_moved, 8.0e9 * 1.25);
  EXPECT_DOUBLE_EQ(cost.duration_s, cost.bytes_moved / (10.0e9 / 8.0));
  EXPECT_DOUBLE_EQ(cost.energy_j, 2.0 * config.overhead_power_w * cost.duration_s);
  EXPECT_DOUBLE_EQ(cost.downtime_s, kStopAndCopyDowntimeS);
}

TEST(MigrationCost, RejectsBadConfig) {
  MigrationCostConfig bad;
  bad.network_gbps = 0.0;
  EXPECT_THROW(migration_cost(VmSpec{}, bad), std::invalid_argument);
  bad = MigrationCostConfig{};
  bad.dirty_factor = 0.9;
  EXPECT_THROW(migration_cost(VmSpec{}, bad), std::invalid_argument);
}

TEST(PlanMigration, DiffsAssignments) {
  std::vector<VmSpec> vms(3);
  for (std::size_t i = 0; i < 3; ++i) vms[i].id = i;
  const std::vector<std::size_t> from{0, 1, 2};
  const std::vector<std::size_t> to{0, 2, 1};
  const auto plan = plan_migration(vms, from, to);
  ASSERT_EQ(plan.moves.size(), 2u);
  EXPECT_EQ(plan.moves[0].vm_index, 1u);
  EXPECT_EQ(plan.moves[0].from_host, 1u);
  EXPECT_EQ(plan.moves[0].to_host, 2u);
  EXPECT_GT(plan.total_duration_s, 0.0);
  EXPECT_GT(plan.total_energy_j, 0.0);
}

TEST(PlanMigration, SkipsUnplacedAndUnmoved) {
  std::vector<VmSpec> vms(3);
  const std::vector<std::size_t> from{0, kUnplaced, 1};
  const std::vector<std::size_t> to{0, 1, kUnplaced};
  const auto plan = plan_migration(vms, from, to);
  EXPECT_TRUE(plan.moves.empty());
}

TEST(PlanMigration, SizeMismatchRejected) {
  std::vector<VmSpec> vms(2);
  EXPECT_THROW(plan_migration(vms, {0}, {0, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace epm::vm
