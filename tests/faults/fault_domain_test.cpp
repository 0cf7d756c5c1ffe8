// Hierarchical fault domains: tree resolution diagnostics, plan parsing,
// correlated expansion determinism, the reference topology, and the
// unknown-target rejection regression for FaultPlan (the injector's input).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault_domain.h"
#include "faults/fault_plan.h"
#include "faults/fleet_storm.h"
#include "faults/storm.h"
#include "macro/geo.h"

namespace epm::faults {
namespace {

FaultDomainTree reference_tree(std::size_t dcs) {
  std::vector<std::string> names;
  for (const macro::SiteConfig& s : macro::make_reference_fleet_sites(dcs)) {
    names.push_back(s.name);
  }
  return make_reference_fault_domains(names);
}

TEST(FaultDomainTree, ReferenceTopology) {
  const FaultDomainTree tree = reference_tree(6);
  EXPECT_EQ(6U, tree.datacenter_count());
  EXPECT_EQ(3U, tree.feed_count());
  EXPECT_EQ(3U, tree.region_count());
  EXPECT_EQ(12U, tree.cluster_count());  // interactive + batch per DC

  // americas covers pnw, virginia, saopaulo — exactly the reference-site
  // datacenter indices 0, 1, 4.
  EXPECT_EQ((std::vector<std::size_t>{0, 1, 4}),
            tree.datacenters_under(DomainLevel::kRegion, "americas"));
  EXPECT_EQ((std::vector<std::size_t>{2}),
            tree.datacenters_under(DomainLevel::kGridFeed, "grid-eu"));
  EXPECT_EQ((std::vector<std::size_t>{3, 5}),
            tree.datacenters_under(DomainLevel::kGridFeed, "grid-apac"));
  EXPECT_EQ((std::vector<std::size_t>{1}),
            tree.datacenters_under(DomainLevel::kDatacenter, "virginia"));
  EXPECT_EQ((std::vector<std::size_t>{3}),
            tree.datacenters_under(DomainLevel::kCluster, "singapore/batch"));
  EXPECT_EQ(tree.region_of(0), tree.region_of(4));
  EXPECT_NE(tree.feed_of(0), tree.feed_of(2));
}

TEST(FaultDomainTree, UnknownDatacentersGetPrivateDomains) {
  const FaultDomainTree tree =
      make_reference_fault_domains({"pnw", "mars-base"});
  EXPECT_EQ((std::vector<std::size_t>{1}),
            tree.datacenters_under(DomainLevel::kRegion, "mars-base-region"));
  EXPECT_EQ((std::vector<std::size_t>{1}),
            tree.datacenters_under(DomainLevel::kGridFeed, "grid-mars-base"));
  // The two datacenters share nothing upstream.
  EXPECT_NE(tree.feed_of(0), tree.feed_of(1));
}

TEST(FaultDomainTree, ResolveRejectsUnknownNamesWithOneLineDiagnostic) {
  const FaultDomainTree tree = reference_tree(4);
  try {
    tree.resolve(DomainLevel::kRegion, "atlantis");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(std::string::npos, message.find("unknown region 'atlantis'"));
    EXPECT_NE(std::string::npos, message.find("americas"));
    EXPECT_EQ(std::string::npos, message.find('\n'));  // one line
  }
  EXPECT_THROW(tree.datacenters_under(DomainLevel::kGridFeed, "grid-xx"),
               std::invalid_argument);
  EXPECT_FALSE(tree.has(DomainLevel::kDatacenter, "atlantis"));
  EXPECT_TRUE(tree.has(DomainLevel::kDatacenter, "ireland"));
}

TEST(DomainFaultPlan, ParseRoundTripsAndValidates) {
  const std::string spec =
      "outage:region/americas@40+25;"
      "brownout:feed/grid-eu@70+30x0.6;"
      "price-spike:dc/tokyo@100+50x2.5;"
      "demand-response:cluster/pnw/batch@120+60";
  const DomainFaultPlan plan = DomainFaultPlan::parse(spec);
  ASSERT_EQ(4U, plan.size());
  EXPECT_EQ(spec, plan.to_string());
  EXPECT_EQ(GridEventKind::kOutage, plan.events()[0].kind);
  EXPECT_EQ(DomainLevel::kCluster, plan.events()[3].level);
  EXPECT_EQ("pnw/batch", plan.events()[3].target);
  EXPECT_DOUBLE_EQ(0.6, plan.events()[1].severity);

  EXPECT_THROW(DomainFaultPlan::parse("meteor:region/americas@40+25"),
               std::invalid_argument);
  EXPECT_THROW(DomainFaultPlan::parse("outage:americas@40+25"),
               std::invalid_argument);  // missing level
  EXPECT_THROW(DomainFaultPlan::parse("outage:region/americas@40"),
               std::invalid_argument);  // missing duration
  EXPECT_THROW(DomainFaultPlan::parse("brownout:region/americas@40+25x1.5"),
               std::invalid_argument);  // brownout severity outside (0, 1]
}

// The unknown-kind diagnostic lists every token the grammar accepts,
// ctl-kill included, so an operator can copy a valid one from it.
TEST(DomainFaultPlan, UnknownKindDiagnosticListsEveryValidToken) {
  try {
    (void)DomainFaultPlan::parse("meteor:region/americas@40+25");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(std::string::npos, message.find("'meteor'"));
    for (const GridEventKind kind :
         {GridEventKind::kOutage, GridEventKind::kBrownout,
          GridEventKind::kPriceSpike, GridEventKind::kDemandResponse,
          GridEventKind::kControllerKill}) {
      EXPECT_NE(std::string::npos, message.find(to_string(kind)))
          << "'" << message << "' omits " << to_string(kind);
    }
    EXPECT_EQ(std::string::npos, message.find('\n'));  // one line
  }
}

TEST(DomainExpansion, FansOutCorrelatedStaggeredFaults) {
  const FaultDomainTree tree = reference_tree(6);
  const DomainFaultPlan plan =
      DomainFaultPlan::parse("outage:region/americas@40+25");
  const auto expanded = expand_to_datacenters(tree, plan, 7);
  ASSERT_EQ(3U, expanded.size());  // pnw, virginia, saopaulo
  std::vector<std::size_t> hit;
  for (const ExpandedDcFault& f : expanded) {
    hit.push_back(f.dc);
    // Correlated: every onset within the stagger of the scripted start,
    // every clear within the (larger) stagger of the scripted end.
    EXPECT_GE(f.onset_s, 40.0);
    EXPECT_LT(f.onset_s, 40.0 + kDomainOnsetStaggerS);
    EXPECT_GE(f.clear_s, 65.0);
    EXPECT_LT(f.clear_s, 65.0 + kDomainClearStaggerS);
    EXPECT_EQ(GridEventKind::kOutage, f.kind);
    EXPECT_EQ(0U, f.source_event);
  }
  std::sort(hit.begin(), hit.end());
  EXPECT_EQ((std::vector<std::size_t>{0, 1, 4}), hit);
  // Not lockstep: the staggers differ across datacenters.
  EXPECT_NE(expanded[0].onset_s, expanded[1].onset_s);

  // Deterministic: same seed reproduces bit-identically; a different seed
  // moves the staggers.
  const auto again = expand_to_datacenters(tree, plan, 7);
  ASSERT_EQ(expanded.size(), again.size());
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    EXPECT_EQ(expanded[i].onset_s, again[i].onset_s);
    EXPECT_EQ(expanded[i].clear_s, again[i].clear_s);
  }
  const auto moved = expand_to_datacenters(tree, plan, 8);
  EXPECT_NE(expanded[0].onset_s, moved[0].onset_s);

  // Unknown targets fail at expansion with the resolve() diagnostic.
  const DomainFaultPlan bad =
      DomainFaultPlan::parse("outage:region/atlantis@40+25");
  EXPECT_THROW(expand_to_datacenters(tree, bad, 7),
               std::invalid_argument);
}

TEST(DomainExpansion, MapsOntoFleetDisruptions) {
  const FaultDomainTree tree = reference_tree(4);
  const DomainFaultPlan plan = DomainFaultPlan::parse(
      "outage:dc/pnw@30+20;brownout:feed/grid-eu@35+10x0.4;"
      "price-spike:dc/singapore@50+5x3.0");
  const auto disruptions =
      to_fleet_disruptions(expand_to_datacenters(tree, plan, /*seed=*/1));
  ASSERT_EQ(3U, disruptions.size());
  const auto find_dc = [&](std::size_t dc) {
    for (const FleetDisruption& d : disruptions) {
      if (d.dc == dc) return d;
    }
    throw std::logic_error("dc not found");
  };
  const FleetDisruption outage = find_dc(0);
  EXPECT_DOUBLE_EQ(0.0, outage.capacity_factor);
  EXPECT_TRUE(outage.drop_sessions);
  const FleetDisruption brownout = find_dc(2);  // ireland
  EXPECT_DOUBLE_EQ(0.6, brownout.capacity_factor);
  EXPECT_FALSE(brownout.drop_sessions);
  const FleetDisruption spike = find_dc(3);
  EXPECT_DOUBLE_EQ(1.0, spike.capacity_factor);  // signal-only
  for (const FleetDisruption& d : disruptions) EXPECT_TRUE(d.broadcast);
}

// The ctl-kill grid token (controller-kill at a fault domain): it parses
// and round-trips like the power events, expands to every datacenter under
// the domain with the same correlated staggers, and maps onto a
// signal-only disruption — serving capacity is untouched, only the
// co-located controllers die.
TEST(DomainFaultPlan, ControllerKillRoundTripsAndExpands) {
  const std::string spec =
      "ctl-kill:region/americas@13+10;ctl-kill:dc/ireland@40+5";
  const DomainFaultPlan plan = DomainFaultPlan::parse(spec);
  ASSERT_EQ(2U, plan.size());
  EXPECT_EQ(spec, plan.to_string());
  EXPECT_EQ(GridEventKind::kControllerKill, plan.events()[0].kind);
  EXPECT_EQ(GridEventKind::kControllerKill, plan.events()[1].kind);
  EXPECT_EQ(DomainLevel::kRegion, plan.events()[0].level);
  EXPECT_EQ("ireland", plan.events()[1].target);
  EXPECT_EQ(DomainFaultPlan::parse(plan.to_string()).to_string(),
            plan.to_string());

  const FaultDomainTree tree = reference_tree(4);
  const auto expanded = expand_to_datacenters(tree, plan, 7);
  // americas in the 4-DC reference fleet is pnw + virginia (DCs 0-1);
  // ireland is DC 2.
  ASSERT_EQ(3U, expanded.size());
  std::vector<std::size_t> hit;
  for (const ExpandedDcFault& f : expanded) {
    hit.push_back(f.dc);
    EXPECT_EQ(GridEventKind::kControllerKill, f.kind);
  }
  std::sort(hit.begin(), hit.end());
  EXPECT_EQ((std::vector<std::size_t>{0, 1, 2}), hit);

  // Signal-only on the fleet side: full capacity, no dropped sessions.
  const auto disruptions = to_fleet_disruptions(expanded);
  ASSERT_EQ(3U, disruptions.size());
  for (const FleetDisruption& d : disruptions) {
    EXPECT_DOUBLE_EQ(1.0, d.capacity_factor);
    EXPECT_FALSE(d.drop_sessions);
  }

  // Near-miss tokens stay rejected.
  EXPECT_THROW(DomainFaultPlan::parse("ctl-crash:region/americas@13+10"),
               std::invalid_argument);
  EXPECT_THROW(DomainFaultPlan::parse("ctlkill:region/americas@13+10"),
               std::invalid_argument);
}

// Satellite regression: a fat-fingered fault plan must be rejected with a
// one-line diagnostic before anything is armed, not silently fault nothing.
TEST(FaultPlanTargets, UnknownTargetsRejectedBeforeInjection) {
  const FaultPlan plan = FaultPlan::parse("crash:7@100+60");
  try {
    plan.validate_targets(/*service_count=*/2, /*crac_count=*/1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(std::string::npos, message.find("unknown service 7"));
    EXPECT_NE(std::string::npos, message.find("facility has 2"));
    EXPECT_EQ(std::string::npos, message.find('\n'));
  }
  EXPECT_THROW(FaultPlan::parse("crac:3@100+60").validate_targets(2, 2),
               std::invalid_argument);
  // In-range plans pass; outages carry no index to validate.
  EXPECT_NO_THROW(FaultPlan::parse("crash:1@100+60;outage@10+5")
                      .validate_targets(2, 1));

  // End-to-end: the storm runner rejects the plan before running anything.
  StormConfig config = make_reference_storm_config(8);
  config.horizon_s = 600.0;
  EXPECT_THROW(
      run_fault_storm(config, FaultPlan::parse("crash:99@100+60")),
      std::invalid_argument);
  EXPECT_THROW(validate_storm_plan(config, FaultPlan::parse("crash:99@100+60")),
               std::invalid_argument);
  EXPECT_NO_THROW(validate_storm_plan(config, FaultPlan::parse("crash:1@100+60")));
}

}  // namespace
}  // namespace epm::faults
