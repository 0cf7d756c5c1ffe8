// Power distribution tree (paper §2.1, Fig. 1).
//
// "Power drawn from the grid is transformed and conditioned to charge the
//  UPS system... The uninterrupted power is distributed through power
//  distribution units (PDUs) to supply power to the server and networking
//  racks. This portion is called critical power... The power is also used by
//  water chillers, computer room air conditioning (CRAC) systems, and
//  humidifiers."
//
// Nodes form a tree rooted at the utility feed. Each node has a capacity, a
// fixed (always-on) loss, and a proportional conversion loss. Critical load
// hangs under PDUs; mechanical (cooling) load hangs under the transformer,
// bypassing the UPS, which is how real tier-2 sites are plumbed.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace epm::power {

enum class NodeKind { kUtility, kTransformer, kUps, kPdu, kRack, kMechanical };

/// Human-readable name of a node kind, for reports.
std::string to_string(NodeKind kind);

using NodeId = std::size_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

struct NodeSpec {
  NodeKind kind = NodeKind::kRack;
  std::string name;
  double capacity_w = 0.0;       ///< max deliverable output power
  double fixed_loss_w = 0.0;     ///< loss drawn whenever energized
  double loss_fraction = 0.0;    ///< fraction of input lost in conversion
};

/// Per-node evaluation result.
struct NodeFlow {
  double direct_load_w = 0.0;  ///< load attached directly to this node
  double output_w = 0.0;       ///< power delivered downstream (incl. direct)
  double input_w = 0.0;        ///< power drawn from the parent
  double loss_w = 0.0;         ///< input - output
  bool overloaded = false;     ///< output exceeded capacity
};

/// Result of evaluating the whole tree for one operating point.
struct DistributionReport {
  std::vector<NodeFlow> flows;    ///< indexed by NodeId
  double utility_draw_w = 0.0;    ///< input at the root
  double critical_power_w = 0.0;  ///< total load under UPS-protected paths
  double mechanical_power_w = 0.0;  ///< cooling & friends (non-critical)
  double total_loss_w = 0.0;
  std::vector<NodeId> overloaded;  ///< nodes whose capacity was exceeded
  /// Power usage effectiveness: utility draw / critical power (paper §2.2:
  /// "most data centers have PUE close to 2"). 0 when no critical load.
  double pue = 0.0;
};

class PowerDistributionTree {
 public:
  /// Creates the root (utility feed). Additional nodes attach via add_node.
  explicit PowerDistributionTree(NodeSpec root);

  /// Adds a node under `parent`. Children must be added after their parent.
  NodeId add_node(NodeId parent, NodeSpec spec);

  std::size_t node_count() const { return specs_.size(); }
  const NodeSpec& spec(NodeId id) const;
  NodeId parent(NodeId id) const;
  NodeId root() const { return 0; }
  /// All node ids of a given kind, in insertion order.
  std::vector<NodeId> nodes_of_kind(NodeKind kind) const;

  /// Sets the load attached directly to a node (e.g. servers on a rack,
  /// chiller load on the mechanical node). Persists across evaluations.
  void set_direct_load(NodeId id, double load_w);

  /// Propagates loads up the tree and computes all flows. Does not throw on
  /// overload; the report flags overloaded nodes so policies can react.
  DistributionReport evaluate() const;
  /// Same, into a caller-owned report: every field is overwritten, and its
  /// vectors keep their capacity, so a report reused step after step makes
  /// no heap allocation.
  void evaluate(DistributionReport& report) const;

 private:
  std::vector<NodeSpec> specs_;
  std::vector<NodeId> parents_;
  std::vector<double> direct_loads_;
  /// Whether a node is a UPS or lies below one (its load is critical power);
  /// fixed when the node is added, since a node's ancestors never change.
  std::vector<bool> under_ups_;
};

/// Parameters for the canonical tier-2 topology used across experiments.
struct Tier2TopologyConfig {
  double critical_capacity_w = 1.0e6;  ///< UPS capacity ("defines the DC")
  std::size_t pdu_count = 4;
  std::size_t racks_per_pdu = 10;
  double rack_capacity_w = 30.0e3;
};

/// Builds grid -> transformer -> { UPS -> PDUs -> racks, mechanical }.
/// Rack ids are returned in `rack_ids`, the mechanical node in
/// `mechanical_id`, for load attachment.
struct Tier2Topology {
  PowerDistributionTree tree;
  std::vector<NodeId> rack_ids;
  NodeId mechanical_id;
  NodeId ups_id;
};

Tier2Topology build_tier2_topology(const Tier2TopologyConfig& config);

}  // namespace epm::power
