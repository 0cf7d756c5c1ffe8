// Hierarchical correlated fault domains: grid feed -> region -> datacenter
// -> cluster.
//
// The paper's §3.2 fleet-level picture makes one thing explicit: failures
// are not independent across datacenters. A regional grid disturbance takes
// every DC on that feed down (or brown) *together*, and demand-response /
// price-spike signals arrive fleet-wide, not per-site. This module models
// that correlation structure as a four-level containment tree. A scripted
// grid event names a node at ANY level ("outage on region americas",
// "brownout on feed grid-na") and fans out to every descendant datacenter
// with a small deterministic per-descendant stagger — breakers do not trip
// in perfect lockstep, but the correlation (same cause, near-same time) is
// preserved.
//
// Determinism: the tree is plain data; expansion draws its onset/clear
// stagger from SplitMix64 counter streams keyed by (seed, event index,
// datacenter index), so the expanded schedule is bit-identical across
// machines and never perturbed by unrelated events.
//
// Unknown target names are rejected at expansion time with a one-line
// diagnostic listing the known names at that level — a fat-fingered region
// name must fail loudly, not silently fault nothing.
//
// Text syntax for grid-event scripts (round-trips through parse/to_string):
//
//   plan   := entry (';' entry)*
//   entry  := kind ':' level '/' name '@' start '+' duration ['x' severity]
//   kind   := outage | brownout | price-spike | demand-response | ctl-kill
//   level  := feed | region | dc | cluster
//
// Times are seconds. Example:
//   "outage:region/americas@40+25;brownout:feed/grid-eu@70+30x0.6"
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace epm::faults {

enum class DomainLevel : std::uint8_t {
  kGridFeed = 0,
  kRegion,
  kDatacenter,
  kCluster,
};

/// Level token used by the plan syntax: "feed", "region", "dc", "cluster".
std::string to_string(DomainLevel level);
DomainLevel domain_level_from_string(const std::string& token);

/// The containment tree. Nodes are added top-down (a region names its feed,
/// a datacenter its region, a cluster its datacenter); names are unique per
/// level. Datacenter indices are assigned in insertion order and are the
/// indices the federation shards / macro fleet use.
class FaultDomainTree {
 public:
  std::size_t add_grid_feed(std::string name);
  std::size_t add_region(std::string name, const std::string& grid_feed);
  std::size_t add_datacenter(std::string name, const std::string& region);
  std::size_t add_cluster(std::string name, const std::string& datacenter);

  std::size_t feed_count() const { return feeds_.size(); }
  std::size_t region_count() const { return regions_.size(); }
  std::size_t datacenter_count() const { return datacenters_.size(); }
  std::size_t cluster_count() const { return clusters_.size(); }

  /// Region index owning datacenter `dc`.
  std::size_t region_of(std::size_t dc) const;
  /// Grid-feed index powering datacenter `dc`.
  std::size_t feed_of(std::size_t dc) const;

  /// Index of the named node at `level`. Unknown names throw
  /// std::invalid_argument with a one-line diagnostic naming the level and
  /// listing every known name at it.
  std::size_t resolve(DomainLevel level, const std::string& name) const;
  bool has(DomainLevel level, const std::string& name) const;

  /// Every datacenter index in the subtree under the named node, ascending.
  /// A cluster maps to its owning datacenter. Resolution failures throw as
  /// in resolve().
  std::vector<std::size_t> datacenters_under(DomainLevel level,
                                             const std::string& name) const;

 private:
  struct Region {
    std::string name;
    std::size_t feed;
  };
  struct Datacenter {
    std::string name;
    std::size_t region;
  };
  struct Cluster {
    std::string name;
    std::size_t datacenter;
  };

  void check_fresh(DomainLevel level, const std::string& name) const;

  std::vector<std::string> feeds_;
  std::vector<Region> regions_;
  std::vector<Datacenter> datacenters_;
  std::vector<Cluster> clusters_;
};

/// Grid-side event kinds delivered down the tree. Outage and brownout
/// remove capacity; price-spike and demand-response are elastic-power
/// signals (§3.2) that ask the fleet to shed or shift load without any
/// physical capacity loss.
enum class GridEventKind : std::uint8_t {
  kOutage = 0,
  kBrownout,
  kPriceSpike,
  kDemandResponse,
  /// Kills the macro controller replicas co-located with the target's
  /// datacenters without touching serving capacity — the control plane goes
  /// dark while the plant keeps running. (An outage implies this too: a
  /// dark DC's controller dies with it; ctl-kill isolates the control-plane
  /// loss.) No effect on worlds without a control plane.
  kControllerKill,
};

std::string to_string(GridEventKind kind);
GridEventKind grid_event_from_string(const std::string& token);

struct DomainFault {
  GridEventKind kind = GridEventKind::kOutage;
  DomainLevel level = DomainLevel::kRegion;
  std::string target;  ///< node name at `level`
  double start_s = 0.0;
  double duration_s = 0.0;
  /// Brownout: fraction of capacity lost, in (0, 1]. Price-spike: price
  /// multiplier. Ignored for outage (always full) and demand-response.
  double severity = 1.0;

  double end_s() const { return start_s + duration_s; }
};

class DomainFaultPlan {
 public:
  DomainFaultPlan() = default;

  /// Validates fields (finite non-negative times, positive duration,
  /// severity > 0) and sorts by (start, kind, level, target).
  static DomainFaultPlan scripted(std::vector<DomainFault> events);
  /// Parses the text syntax documented at the top of this header.
  static DomainFaultPlan parse(const std::string& spec);

  const std::vector<DomainFault>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Round-trips through parse().
  std::string to_string() const;

 private:
  std::vector<DomainFault> events_;
};

struct DomainExpansionConfig {
  /// Max per-datacenter onset delay after the scripted start (uniform
  /// jitter): correlated, not lockstep.
  double onset_stagger_s = 0.5;
  /// Max per-datacenter extra recovery time after the scripted end —
  /// restoration is raggeder than failure.
  double clear_stagger_s = 2.0;
  std::uint64_t seed = 1;
};

/// One datacenter's share of a scripted grid event.
struct ExpandedDcFault {
  std::size_t dc = 0;
  GridEventKind kind = GridEventKind::kOutage;
  double onset_s = 0.0;
  double clear_s = 0.0;
  double severity = 1.0;
  /// Index of the originating event in the plan (events() order).
  std::size_t source_event = 0;
};

/// Fans every scripted event out to the datacenters under its target, with
/// deterministic jittered onset/clear staggers. Unknown target names throw
/// the resolve() diagnostic. Result is sorted by (onset, dc, source_event).
std::vector<ExpandedDcFault> expand_to_datacenters(
    const FaultDomainTree& tree, const DomainFaultPlan& plan,
    const DomainExpansionConfig& config);

/// Containment tree for the reference fleet (macro::make_reference_fleet_
/// sites): regions americas {pnw, virginia, saopaulo}, emea {ireland},
/// apac {singapore, tokyo}; feeds grid-na/grid-eu/grid-apac; clusters
/// "<dc>/interactive" and "<dc>/batch" per datacenter. Unrecognized
/// datacenter names get a private "<name>-region" on a private
/// "grid-<name>" feed, so any fleet gets a valid tree.
FaultDomainTree make_reference_fault_domains(
    const std::vector<std::string>& dc_names);

}  // namespace epm::faults
