#include "power/distribution.h"

#include <gtest/gtest.h>

namespace epm::power {
namespace {

TEST(PowerDistributionTree, SingleNodeConservation) {
  PowerDistributionTree tree(NodeSpec{NodeKind::kUtility, "grid", 0.0, 0.0, 0.0});
  tree.set_direct_load(tree.root(), 1000.0);
  const auto report = tree.evaluate();
  EXPECT_DOUBLE_EQ(report.utility_draw_w, 1000.0);
  EXPECT_DOUBLE_EQ(report.total_loss_w, 0.0);
}

TEST(PowerDistributionTree, LossesPropagateUpstream) {
  PowerDistributionTree tree(NodeSpec{NodeKind::kUtility, "grid", 0.0, 0.0, 0.0});
  const NodeId ups = tree.add_node(
      tree.root(), NodeSpec{NodeKind::kUps, "ups", 10000.0, 100.0, 0.10});
  const NodeId rack =
      tree.add_node(ups, NodeSpec{NodeKind::kRack, "rack", 5000.0, 0.0, 0.0});
  tree.set_direct_load(rack, 900.0);
  const auto report = tree.evaluate();
  // Rack is lossless: input == output == 900.
  EXPECT_DOUBLE_EQ(report.flows[rack].input_w, 900.0);
  // UPS: fixed 100 + 900 / 0.9 = 1100.
  EXPECT_NEAR(report.flows[ups].input_w, 1100.0, 1e-9);
  EXPECT_NEAR(report.utility_draw_w, 1100.0, 1e-9);
  EXPECT_NEAR(report.total_loss_w, 200.0, 1e-9);
  EXPECT_DOUBLE_EQ(report.critical_power_w, 900.0);
}

TEST(PowerDistributionTree, OverloadFlagged) {
  PowerDistributionTree tree(NodeSpec{NodeKind::kUtility, "grid", 0.0, 0.0, 0.0});
  const NodeId rack =
      tree.add_node(tree.root(), NodeSpec{NodeKind::kRack, "rack", 500.0, 0.0, 0.0});
  tree.set_direct_load(rack, 600.0);
  const auto report = tree.evaluate();
  ASSERT_EQ(report.overloaded.size(), 1u);
  EXPECT_EQ(report.overloaded[0], rack);
  EXPECT_TRUE(report.flows[rack].overloaded);
}

TEST(PowerDistributionTree, ZeroCapacityMeansUnlimited) {
  PowerDistributionTree tree(NodeSpec{NodeKind::kUtility, "grid", 0.0, 0.0, 0.0});
  tree.set_direct_load(tree.root(), 1e9);
  EXPECT_TRUE(tree.evaluate().overloaded.empty());
}

TEST(PowerDistributionTree, AccessorsAndValidation) {
  PowerDistributionTree tree(NodeSpec{NodeKind::kUtility, "grid", 0.0, 0.0, 0.0});
  EXPECT_THROW(tree.add_node(99, NodeSpec{}), std::invalid_argument);
  EXPECT_THROW(tree.set_direct_load(0, -5.0), std::invalid_argument);
  NodeSpec bad;
  bad.loss_fraction = 1.0;
  EXPECT_THROW(tree.add_node(0, bad), std::invalid_argument);
  EXPECT_EQ(tree.parent(tree.root()), kNoNode);
}

// Critical power is the direct load of every UPS and of every node below
// one; mechanical power is the direct load of mechanical nodes outside UPS
// subtrees. The three trees below pin that split, worked by hand with loss
// fractions whose complements (0.75, 0.5) are exact in binary.

TEST(PowerDistributionTree, UpsAtTheRootMakesEveryLoadCritical) {
  PowerDistributionTree tree(NodeSpec{NodeKind::kUps, "ups", 0.0, 100.0, 0.25});
  const NodeId rack =
      tree.add_node(tree.root(), NodeSpec{NodeKind::kRack, "rack", 0.0, 0.0, 0.0});
  tree.set_direct_load(tree.root(), 150.0);
  tree.set_direct_load(rack, 600.0);
  const auto report = tree.evaluate();
  // UPS output 150 + 600 = 750; input 100 + 750 / 0.75 = 1100.
  EXPECT_DOUBLE_EQ(report.utility_draw_w, 1100.0);
  EXPECT_DOUBLE_EQ(report.critical_power_w, 750.0);
  EXPECT_DOUBLE_EQ(report.mechanical_power_w, 0.0);
  EXPECT_DOUBLE_EQ(report.pue, 1100.0 / 750.0);
}

TEST(PowerDistributionTree, PduOffTheTransformerIsNeitherCriticalNorMechanical) {
  PowerDistributionTree tree(NodeSpec{NodeKind::kUtility, "grid", 0.0, 0.0, 0.0});
  const NodeId xfmr = tree.add_node(
      tree.root(), NodeSpec{NodeKind::kTransformer, "xfmr", 0.0, 0.0, 0.5});
  const NodeId ups =
      tree.add_node(xfmr, NodeSpec{NodeKind::kUps, "ups", 0.0, 0.0, 0.25});
  const NodeId rack =
      tree.add_node(ups, NodeSpec{NodeKind::kRack, "rack", 0.0, 0.0, 0.0});
  const NodeId pdu =
      tree.add_node(xfmr, NodeSpec{NodeKind::kPdu, "bypass", 0.0, 0.0, 0.0});
  const NodeId bypass_rack =
      tree.add_node(pdu, NodeSpec{NodeKind::kRack, "rack2", 0.0, 0.0, 0.0});
  const NodeId mech =
      tree.add_node(xfmr, NodeSpec{NodeKind::kMechanical, "mech", 0.0, 0.0, 0.0});
  tree.set_direct_load(rack, 300.0);
  tree.set_direct_load(pdu, 200.0);
  tree.set_direct_load(bypass_rack, 100.0);
  tree.set_direct_load(mech, 400.0);
  const auto report = tree.evaluate();
  // UPS input 300 / 0.75 = 400; PDU input 200 + 100 = 300; transformer
  // output 400 + 300 + 400 = 1100, input 1100 / 0.5 = 2200.
  EXPECT_DOUBLE_EQ(report.flows[pdu].input_w, 300.0);
  EXPECT_DOUBLE_EQ(report.utility_draw_w, 2200.0);
  EXPECT_DOUBLE_EQ(report.critical_power_w, 300.0);
  EXPECT_DOUBLE_EQ(report.mechanical_power_w, 400.0);
  EXPECT_DOUBLE_EQ(report.pue, 2200.0 / 300.0);
}

TEST(PowerDistributionTree, MechanicalFeedUnderTheUpsCountsAsCritical) {
  PowerDistributionTree tree(NodeSpec{NodeKind::kUtility, "grid", 0.0, 0.0, 0.0});
  const NodeId ups =
      tree.add_node(tree.root(), NodeSpec{NodeKind::kUps, "ups", 0.0, 50.0, 0.25});
  const NodeId rack =
      tree.add_node(ups, NodeSpec{NodeKind::kRack, "rack", 0.0, 0.0, 0.0});
  const NodeId mech =
      tree.add_node(ups, NodeSpec{NodeKind::kMechanical, "crac", 0.0, 0.0, 0.0});
  tree.set_direct_load(rack, 600.0);
  tree.set_direct_load(mech, 150.0);
  const auto report = tree.evaluate();
  // UPS output 600 + 150 = 750; input 50 + 750 / 0.75 = 1050.
  EXPECT_DOUBLE_EQ(report.utility_draw_w, 1050.0);
  EXPECT_DOUBLE_EQ(report.critical_power_w, 750.0);
  EXPECT_DOUBLE_EQ(report.mechanical_power_w, 0.0);
  EXPECT_DOUBLE_EQ(report.pue, 1050.0 / 750.0);
}

TEST(Tier2Topology, StructureMatchesConfig) {
  Tier2TopologyConfig config;
  config.pdu_count = 3;
  config.racks_per_pdu = 5;
  auto topo = build_tier2_topology(config);
  EXPECT_EQ(topo.rack_ids.size(), 15u);
  EXPECT_EQ(topo.tree.nodes_of_kind(NodeKind::kPdu).size(), 3u);
  EXPECT_EQ(topo.tree.nodes_of_kind(NodeKind::kUps).size(), 1u);
  EXPECT_EQ(topo.tree.nodes_of_kind(NodeKind::kMechanical).size(), 1u);
  EXPECT_EQ(topo.tree.spec(topo.ups_id).kind, NodeKind::kUps);
}

TEST(Tier2Topology, PueNearTwoWithConservativeCooling) {
  // Paper §2.2: "most data centers have PUE close to 2". With distribution
  // losses and a mechanical load comparable to ~80% of IT power, the model
  // should land in that neighborhood.
  Tier2TopologyConfig config;
  auto topo = build_tier2_topology(config);
  const double it_load = 600.0e3;  // 60% of a 1 MW UPS
  const double per_rack = it_load / static_cast<double>(topo.rack_ids.size());
  for (NodeId rack : topo.rack_ids) topo.tree.set_direct_load(rack, per_rack);
  topo.tree.set_direct_load(topo.mechanical_id, 0.8 * it_load);
  const auto report = topo.tree.evaluate();
  EXPECT_DOUBLE_EQ(report.critical_power_w, it_load);
  EXPECT_NEAR(report.mechanical_power_w, 0.8 * it_load, 1e-6);
  EXPECT_GT(report.pue, 1.8);
  EXPECT_LT(report.pue, 2.2);
}

TEST(Tier2Topology, PueImprovesWithLessCooling) {
  Tier2TopologyConfig config;
  auto topo = build_tier2_topology(config);
  const double it_load = 600.0e3;
  const double per_rack = it_load / static_cast<double>(topo.rack_ids.size());
  for (NodeId rack : topo.rack_ids) topo.tree.set_direct_load(rack, per_rack);
  topo.tree.set_direct_load(topo.mechanical_id, 0.8 * it_load);
  const double pue_heavy = topo.tree.evaluate().pue;
  topo.tree.set_direct_load(topo.mechanical_id, 0.2 * it_load);
  const double pue_light = topo.tree.evaluate().pue;
  EXPECT_LT(pue_light, pue_heavy);
  EXPECT_GT(pue_light, 1.0);
}

TEST(ToString, NodeKinds) {
  EXPECT_EQ(to_string(NodeKind::kUps), "UPS");
  EXPECT_EQ(to_string(NodeKind::kRack), "rack");
  EXPECT_EQ(to_string(NodeKind::kMechanical), "mechanical");
}

}  // namespace
}  // namespace epm::power
