#include "power/distribution.h"

#include <algorithm>

#include "core/require.h"

namespace epm::power {

std::string to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::kUtility:
      return "utility";
    case NodeKind::kTransformer:
      return "transformer";
    case NodeKind::kUps:
      return "UPS";
    case NodeKind::kPdu:
      return "PDU";
    case NodeKind::kRack:
      return "rack";
    case NodeKind::kMechanical:
      return "mechanical";
  }
  return "?";
}

namespace {
void validate_spec(const NodeSpec& spec) {
  require(spec.capacity_w >= 0.0, "PowerDistributionTree: negative capacity");
  require(spec.fixed_loss_w >= 0.0, "PowerDistributionTree: negative fixed loss");
  require(spec.loss_fraction >= 0.0 && spec.loss_fraction < 1.0,
          "PowerDistributionTree: loss fraction outside [0,1)");
}
}  // namespace

PowerDistributionTree::PowerDistributionTree(NodeSpec root) {
  validate_spec(root);
  under_ups_.push_back(root.kind == NodeKind::kUps);
  specs_.push_back(std::move(root));
  parents_.push_back(kNoNode);
  direct_loads_.push_back(0.0);
}

NodeId PowerDistributionTree::add_node(NodeId parent, NodeSpec spec) {
  require(parent < specs_.size(), "PowerDistributionTree: unknown parent");
  validate_spec(spec);
  under_ups_.push_back(spec.kind == NodeKind::kUps || under_ups_[parent]);
  specs_.push_back(std::move(spec));
  parents_.push_back(parent);
  direct_loads_.push_back(0.0);
  return specs_.size() - 1;
}

const NodeSpec& PowerDistributionTree::spec(NodeId id) const {
  require(id < specs_.size(), "PowerDistributionTree: unknown node");
  return specs_[id];
}

NodeId PowerDistributionTree::parent(NodeId id) const {
  require(id < parents_.size(), "PowerDistributionTree: unknown node");
  return parents_[id];
}

std::vector<NodeId> PowerDistributionTree::nodes_of_kind(NodeKind kind) const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < specs_.size(); ++id) {
    if (specs_[id].kind == kind) out.push_back(id);
  }
  return out;
}

void PowerDistributionTree::set_direct_load(NodeId id, double load_w) {
  require(id < specs_.size(), "PowerDistributionTree: unknown node");
  require(load_w >= 0.0, "PowerDistributionTree: negative load");
  direct_loads_[id] = load_w;
}

DistributionReport PowerDistributionTree::evaluate() const {
  DistributionReport report;
  evaluate(report);
  return report;
}

void PowerDistributionTree::evaluate(DistributionReport& report) const {
  report.flows.assign(specs_.size(), NodeFlow{});
  report.overloaded.clear();
  report.critical_power_w = 0.0;
  report.mechanical_power_w = 0.0;
  report.total_loss_w = 0.0;
  report.pue = 0.0;

  // Children were added after parents, so a reverse pass accumulates inputs
  // bottom-up in one sweep.
  for (NodeId id = specs_.size(); id-- > 0;) {
    NodeFlow& flow = report.flows[id];
    flow.direct_load_w = direct_loads_[id];
    flow.output_w += direct_loads_[id];  // children already accumulated
    const NodeSpec& s = specs_[id];
    flow.input_w = s.fixed_loss_w + flow.output_w / (1.0 - s.loss_fraction);
    flow.loss_w = flow.input_w - flow.output_w;
    flow.overloaded = s.capacity_w > 0.0 && flow.output_w > s.capacity_w;
    if (flow.overloaded) report.overloaded.push_back(id);
    if (parents_[id] != kNoNode) {
      report.flows[parents_[id]].output_w += flow.input_w;
    }
  }

  report.utility_draw_w = report.flows[root()].input_w;
  for (NodeId id = 0; id < specs_.size(); ++id) {
    report.total_loss_w += report.flows[id].loss_w;
    // Critical power = load delivered inside UPS-protected subtrees; we count
    // the direct load of racks plus any load attached directly to PDUs/UPS.
    if (under_ups_[id]) {
      report.critical_power_w += direct_loads_[id];
    } else if (specs_[id].kind == NodeKind::kMechanical) {
      report.mechanical_power_w += direct_loads_[id];
    }
  }
  // `overloaded` was filled in reverse id order; restore insertion order.
  std::reverse(report.overloaded.begin(), report.overloaded.end());
  if (report.critical_power_w > 0.0) {
    report.pue = report.utility_draw_w / report.critical_power_w;
  }
}

// The tier-2 topology's conversion losses and mechanical feed.
constexpr double kUpsLossFraction = 0.08;  ///< double-conversion UPS
constexpr double kUpsFixedLossW = 5.0e3;
constexpr double kTransformerLossFraction = 0.02;
constexpr double kPduLossFraction = 0.03;
constexpr double kMechanicalCapacityW = 1.2e6;  ///< chiller/CRAC feed

Tier2Topology build_tier2_topology(const Tier2TopologyConfig& config) {
  require(config.pdu_count > 0 && config.racks_per_pdu > 0,
          "build_tier2_topology: need at least one PDU and one rack");
  require(config.critical_capacity_w > 0.0,
          "build_tier2_topology: critical capacity must be positive");

  PowerDistributionTree tree(NodeSpec{NodeKind::kUtility, "utility", 0.0, 0.0, 0.0});
  const NodeId xfmr = tree.add_node(
      tree.root(),
      NodeSpec{NodeKind::kTransformer, "transformer",
               config.critical_capacity_w + kMechanicalCapacityW, 2.0e3,
               kTransformerLossFraction});
  const NodeId ups = tree.add_node(
      xfmr, NodeSpec{NodeKind::kUps, "ups", config.critical_capacity_w,
                     kUpsFixedLossW, kUpsLossFraction});
  const NodeId mech = tree.add_node(
      xfmr, NodeSpec{NodeKind::kMechanical, "mechanical", kMechanicalCapacityW,
                     0.0, 0.0});

  Tier2Topology topo{std::move(tree), {}, mech, ups};
  const double pdu_capacity =
      config.critical_capacity_w / static_cast<double>(config.pdu_count);
  for (std::size_t p = 0; p < config.pdu_count; ++p) {
    const NodeId pdu = topo.tree.add_node(
        ups, NodeSpec{NodeKind::kPdu, "pdu" + std::to_string(p), pdu_capacity, 500.0,
                      kPduLossFraction});
    for (std::size_t r = 0; r < config.racks_per_pdu; ++r) {
      topo.rack_ids.push_back(topo.tree.add_node(
          pdu, NodeSpec{NodeKind::kRack,
                        "rack" + std::to_string(p) + "." + std::to_string(r),
                        config.rack_capacity_w, 0.0, 0.0}));
    }
  }
  return topo;
}

}  // namespace epm::power
