#include "macro/decision_log.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "macro/coordinator.h"

namespace epm::macro {
namespace {

TEST(DecisionLog, CountsByKind) {
  DecisionLog log;
  const std::uint32_t web = log.add_subject("web");
  log.record(Decision::dvfs(0.0, web, 1));
  log.record(Decision::dvfs(1.0, web, 2));
  log.record_text(2.0, DecisionKind::kRiskAlert, "x");
  EXPECT_EQ(log.count(DecisionKind::kDvfs), 2u);
  EXPECT_EQ(log.count(DecisionKind::kPlacement), 0u);
  const auto counts = log.counts_by_kind();
  EXPECT_EQ(counts.at("dvfs"), 2u);
  EXPECT_EQ(to_string(DecisionKind::kCoolingControl), "cooling-control");
}

// Every typed shape renders the text the coordinator used to format when it
// recorded: the expected strings below are the output of those `fmt` /
// `pstate_name` / ostringstream expressions for the same numbers.
TEST(DecisionLog, RendersEveryShapeAsTheCoordinatorFormattedIt) {
  DecisionLog log;
  const std::uint32_t web = log.add_subject("web");
  const std::uint32_t batch = log.add_subject("batch");
  const std::uint32_t crac = log.add_subject("crac0");
  log.record(Decision::allocation(300.0, web, 28, 1, 2126.2999, 7049.99));
  log.record(Decision::allocation(300.0, batch, 0, 12, 0.0, 0.0));
  log.record(Decision::allocation(300.0, web, 4096, 0, 123456.75, 1.5e6));
  log.record(Decision::dvfs(300.0, batch, 3));
  log.record(Decision::sla_unreachable(300.0, web));
  log.record(Decision::capping(300.0, 180000.0, 179499.5));
  log.record(Decision::capping(300.0, 2.5e6, 1.25e6));
  log.record(Decision::cooling_supply(300.0, crac, 25.449999));
  log.record(Decision::cooling_supply(300.0, crac, -3.25));
  log.record(Decision::placement_shift(300.0, batch, 1, 0.2));
  log.record_text(360.0, DecisionKind::kRiskAlert, "fault onset: crash");

  const struct {
    DecisionKind kind;
    const char* service;
    const char* detail;
  } expected[] = {
      {DecisionKind::kServerAllocation, "web",
       "servers=28 pstate=P1 predicted_lambda=2126.3/s predicted_power=7.0kW"},
      {DecisionKind::kServerAllocation, "batch",
       "servers=0 pstate=P12 predicted_lambda=0.0/s predicted_power=0.0kW"},
      {DecisionKind::kServerAllocation, "web",
       "servers=4096 pstate=P0 predicted_lambda=123456.8/s "
       "predicted_power=1500.0kW"},
      {DecisionKind::kDvfs, "batch", "P3"},
      {DecisionKind::kRiskAlert, "web", "SLA unreachable even at full fleet/P0"},
      {DecisionKind::kPowerCapping, "", "budget=180kW capped_to=179kW"},
      {DecisionKind::kPowerCapping, "", "budget=2500kW capped_to=1250kW"},
      {DecisionKind::kCoolingControl, "crac0", "supply=25.4C"},
      {DecisionKind::kCoolingControl, "crac0", "supply=-3.2C"},
      {DecisionKind::kPlacement, "batch", "shifted 20% of heat out of hot zone 1"},
      {DecisionKind::kRiskAlert, "", "fault onset: crash"},
  };
  ASSERT_EQ(log.size(), std::size(expected));
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Decision& d = log.all()[i];
    EXPECT_EQ(d.kind, expected[i].kind) << i;
    EXPECT_EQ(log.service(d), expected[i].service) << i;
    EXPECT_EQ(log.detail(d), expected[i].detail) << i;
  }
  EXPECT_EQ(log.all().back().time_s, 360.0);
}

// The per-kind tallies `record` keeps agree with a walk over the records,
// typed and text alike, after a week that caps power and raises alerts.
TEST(DecisionLog, TalliesMatchAWalkOverAManagerWeek) {
  Facility facility(make_reference_facility(40));
  MacroManagerConfig config;
  config.power_budget_w = 14000.0;  // binds around each day's peak
  MacroResourceManager manager(facility, config);
  constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
  for (int i = 0; i < 7 * 1440; ++i) {
    const double phase = facility.now_s() / 86400.0 * kTwoPi;
    manager.step({2500.0 + 2400.0 * std::sin(phase),
                  1500.0 + 1400.0 * std::sin(phase + 1.0)},
                 22.0);
  }
  const DecisionLog& log = manager.log();
  std::map<std::string, std::size_t> walked;
  std::size_t per_kind[kDecisionKindCount] = {};
  for (const Decision& d : log.all()) {
    ++walked[to_string(d.kind)];
    ++per_kind[static_cast<std::size_t>(d.kind)];
    EXPECT_FALSE(log.detail(d).empty());
  }
  EXPECT_EQ(log.counts_by_kind(), walked);
  for (std::size_t k = 0; k < kDecisionKindCount; ++k) {
    EXPECT_EQ(log.count(static_cast<DecisionKind>(k)), per_kind[k]) << k;
  }
  for (const auto kind :
       {DecisionKind::kServerAllocation, DecisionKind::kDvfs,
        DecisionKind::kCoolingControl, DecisionKind::kPowerCapping,
        DecisionKind::kRiskAlert}) {
    EXPECT_GT(log.count(kind), 0u) << to_string(kind);
  }
}

}  // namespace
}  // namespace epm::macro
