#include "faults/fault_plan.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace {

using epm::faults::FaultEvent;
using epm::faults::FaultPlan;
using epm::faults::FaultPlanConfig;
using epm::faults::FaultType;

TEST(FaultPlan, ParseToStringRoundTrip) {
  const std::string spec =
      "outage@3600+1200;crac:0@7200+1800;surge:1@10000+300x3";
  const FaultPlan plan = FaultPlan::parse(spec);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].type, FaultType::kUtilityOutage);
  EXPECT_DOUBLE_EQ(plan.events()[0].start_s, 3600.0);
  EXPECT_DOUBLE_EQ(plan.events()[0].duration_s, 1200.0);
  EXPECT_EQ(plan.events()[1].type, FaultType::kCracFailure);
  EXPECT_EQ(plan.events()[2].type, FaultType::kFlashCrowd);
  EXPECT_EQ(plan.events()[2].target, 1u);
  EXPECT_DOUBLE_EQ(plan.events()[2].severity, 3.0);

  const FaultPlan again = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(again.fingerprint(), plan.fingerprint());
  EXPECT_EQ(again.to_string(), plan.to_string());
}

TEST(FaultPlan, TypeTokensRoundTripForAllTypes) {
  for (std::size_t i = 0; i < epm::faults::kFaultTypeCount; ++i) {
    const auto type = static_cast<FaultType>(i);
    EXPECT_EQ(epm::faults::fault_type_from_string(epm::faults::to_string(type)),
              type);
  }
  EXPECT_THROW(epm::faults::fault_type_from_string("melts"),
               std::invalid_argument);
}

TEST(FaultPlan, ScriptedValidatesAndSortsEvents) {
  std::vector<FaultEvent> events;
  events.push_back({FaultType::kServerCrash, 500.0, 60.0, 1, 0.2});
  events.push_back({FaultType::kUtilityOutage, 100.0, 300.0, 0, 1.0});
  const FaultPlan plan = FaultPlan::scripted(events);
  EXPECT_DOUBLE_EQ(plan.events().front().start_s, 100.0);
  EXPECT_DOUBLE_EQ(plan.events().back().start_s, 500.0);
  EXPECT_DOUBLE_EQ(plan.horizon_s(), 560.0);
  EXPECT_EQ(plan.count(FaultType::kUtilityOutage), 1u);
  EXPECT_EQ(plan.count(FaultType::kCracFailure), 0u);

  EXPECT_THROW(FaultPlan::scripted({{FaultType::kServerCrash, -1.0, 60.0}}),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::scripted({{FaultType::kServerCrash, 0.0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      FaultPlan::scripted({{FaultType::kServerCrash, 0.0, 60.0, 0, -0.5}}),
      std::invalid_argument);
}

TEST(FaultPlan, ParseRejectsMalformedEntries) {
  EXPECT_THROW(FaultPlan::parse("outage3600+1200"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("outage@3600"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("meteor@0+60"), std::invalid_argument);
}

// Fuzz-style malformed-input corpus: every entry must be rejected with a
// std::invalid_argument whose message contains the expected fragment —
// usually the offending token itself — so a bad plan string is diagnosable
// from the exception alone.
TEST(FaultPlan, ParseNamesTheBadTokenForEveryMalformedEntry) {
  struct Case {
    const char* spec;
    const char* needle;  // must appear in the exception message
  };
  const Case corpus[] = {
      // Structural damage.
      {"outage@100+60@200", "duplicate '@'"},
      {"crash:0@@100+60", "duplicate '@'"},
      {"@100+60", "missing type"},
      {":0@100+60", "missing type"},
      {"outage@", "missing '+duration'"},
      {"crash:0@100", "missing '+duration'"},
      // Truncated numeric tokens.
      {"crash:0@+60", "empty start"},
      {"crash:0@100+", "empty duration"},
      {"crash:0@100+60x", "empty severity"},
      // Non-numeric and non-finite values.
      {"crash:0@12abc+60", "'12abc'"},
      {"crash:0@nan+60", "'nan'"},
      {"crash:0@inf+60", "'inf'"},
      {"crash:0@1e400+60", "'1e400'"},  // overflows to +inf
      {"crash:0@100+nan", "'nan'"},
      {"crash:0@100+60xabc", "'abc'"},
      // Out-of-domain values.
      {"crash:0@-5+60", "start must be >= 0"},
      {"crash:0@100+-60", "duration must be > 0"},
      {"crash:0@100+0", "duration must be > 0"},
      {"crash:0@100+60x-1", "severity must be >= 0"},
      // Broken target indices.
      {"crash:@100+60", "bad target token"},
      {"crash:-1@100+60", "'-1'"},
      {"crash:1e3@100+60", "'1e3'"},
      {"crash:7up@100+60", "'7up'"},
      {"crash:99999999999999999999999@100+60", "bad target token"},
      // Unknown types.
      {"meteor@0+60", "meteor"},
      {"sensor-dropp@0+60", "sensor-dropp"},
  };
  for (const auto& c : corpus) {
    try {
      (void)FaultPlan::parse(c.spec);
      FAIL() << "accepted malformed spec: " << c.spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
          << "spec '" << c.spec << "' threw '" << e.what()
          << "' which does not mention '" << c.needle << "'";
    }
  }
}

// Whitespace and empty entries are tolerated, not errors.
TEST(FaultPlan, ParseToleratesWhitespaceAndEmptyEntries) {
  const FaultPlan plan =
      FaultPlan::parse(" outage@100+60 ; ;; crash : 1 @ 10 + 30 x 0.5 ");
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.events()[0].type, FaultType::kServerCrash);
  EXPECT_EQ(plan.events()[0].target, 1u);
  EXPECT_DOUBLE_EQ(plan.events()[0].severity, 0.5);
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse(" ; ; ").empty());
}

// Property: format -> parse -> fingerprint is the identity for any valid
// plan, including the sensing/actuation fault types and doubles whose
// default formatting is awkward (1e+06 collides with the '+' separator,
// 17-significant-digit values need full round-trip precision).
TEST(FaultPlan, FormatParseFingerprintRoundTripsEveryTypeAndAwkwardDoubles) {
  std::vector<FaultEvent> events;
  for (std::size_t i = 0; i < epm::faults::kFaultTypeCount; ++i) {
    events.push_back({static_cast<FaultType>(i), 1e6 + 7.0 * i,
                      600.0 + 0.1 * i, i, 0.25 + 0.05 * i});
  }
  events.push_back(
      {FaultType::kSensorNoise, 0.1234567890123456789, 2e6, 3, 1e-9});
  events.push_back({FaultType::kActuatorFail, 3.0e7, 86400.0 / 3.0, 1, 0.97});
  const FaultPlan plan = FaultPlan::scripted(events);

  const FaultPlan again = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(again.fingerprint(), plan.fingerprint());
  ASSERT_EQ(again.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(again.events()[i].start_s, plan.events()[i].start_s);
    EXPECT_EQ(again.events()[i].duration_s, plan.events()[i].duration_s);
    EXPECT_EQ(again.events()[i].severity, plan.events()[i].severity);
  }

  // Sampled plans across several seeds round-trip too: the plan text is a
  // faithful serialization, not an approximation.
  for (const std::uint64_t seed : {1ull, 2009ull, 0xdeadbeefull}) {
    FaultPlanConfig config;
    config.horizon_s = 7.0 * 86400.0;
    config.seed = seed;
    for (std::size_t i = 0; i < epm::faults::kFaultTypeCount; ++i) {
      config.rates[i] = {2.0 + static_cast<double>(i), 900.0, 60.0,
                         0.05, 0.95, 3};
    }
    const FaultPlan sampled = FaultPlan::sampled(config);
    ASSERT_FALSE(sampled.empty());
    EXPECT_EQ(FaultPlan::parse(sampled.to_string()).fingerprint(),
              sampled.fingerprint())
        << "seed " << seed;
  }
}

TEST(FaultPlan, SampledIsDeterministicInSeed) {
  FaultPlanConfig config;
  config.horizon_s = 7.0 * 86400.0;
  config.seed = 2009;
  config.rate(FaultType::kServerCrash) = {4.0, 900.0, 60.0, 0.05, 0.25, 2};
  config.rate(FaultType::kCoolingDerate) = {2.0, 1800.0, 300.0, 0.2, 0.6, 1};
  config.rate(FaultType::kFlashCrowd) = {1.0, 600.0, 120.0, 1.5, 3.0, 2};

  const FaultPlan a = FaultPlan::sampled(config);
  const FaultPlan b = FaultPlan::sampled(config);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  config.seed = 2010;
  const FaultPlan c = FaultPlan::sampled(config);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

// Per-type streams are independent: enabling a second fault type must not
// perturb the first type's arrivals, durations, or severities.
TEST(FaultPlan, SampledStreamsAreIndependentAcrossTypes) {
  FaultPlanConfig crash_only;
  crash_only.horizon_s = 7.0 * 86400.0;
  crash_only.seed = 7;
  crash_only.rate(FaultType::kServerCrash) = {3.0, 900.0, 60.0, 0.1, 0.3, 2};

  FaultPlanConfig crash_plus_surge = crash_only;
  crash_plus_surge.rate(FaultType::kFlashCrowd) = {2.0, 600.0, 120.0, 1.5,
                                                   2.5, 2};

  const FaultPlan lean = FaultPlan::sampled(crash_only);
  const FaultPlan rich = FaultPlan::sampled(crash_plus_surge);
  ASSERT_FALSE(lean.empty());
  EXPECT_GT(rich.size(), lean.size());

  std::vector<FaultEvent> lean_crashes;
  for (const auto& e : lean.events()) {
    if (e.type == FaultType::kServerCrash) lean_crashes.push_back(e);
  }
  std::vector<FaultEvent> rich_crashes;
  for (const auto& e : rich.events()) {
    if (e.type == FaultType::kServerCrash) rich_crashes.push_back(e);
  }
  ASSERT_EQ(lean_crashes.size(), rich_crashes.size());
  for (std::size_t i = 0; i < lean_crashes.size(); ++i) {
    EXPECT_DOUBLE_EQ(lean_crashes[i].start_s, rich_crashes[i].start_s);
    EXPECT_DOUBLE_EQ(lean_crashes[i].duration_s, rich_crashes[i].duration_s);
    EXPECT_DOUBLE_EQ(lean_crashes[i].severity, rich_crashes[i].severity);
    EXPECT_EQ(lean_crashes[i].target, rich_crashes[i].target);
  }
}

TEST(FaultPlan, SampledRespectsHorizonAndDurationFloor) {
  FaultPlanConfig config;
  config.horizon_s = 86400.0;
  config.seed = 11;
  config.rate(FaultType::kPsuTrip) = {20.0, 300.0, 120.0, 0.1, 0.3, 3};
  const FaultPlan plan = FaultPlan::sampled(config);
  ASSERT_FALSE(plan.empty());
  for (const auto& e : plan.events()) {
    EXPECT_GE(e.start_s, 0.0);
    EXPECT_LT(e.start_s, config.horizon_s);
    EXPECT_GE(e.duration_s, 120.0);
    EXPECT_LT(e.target, 3u);
    EXPECT_GE(e.severity, 0.1);
    EXPECT_LE(e.severity, 0.3);
  }
}

TEST(FaultPlan, SampledRefusesMoreExpectedEventsThanTheBound) {
  FaultPlanConfig config;
  config.horizon_s = 86400.0;
  config.rate(FaultType::kPsuTrip).rate_per_day = FaultPlan::kMaxExpectedEvents;
  EXPECT_NO_THROW(FaultPlan::sampled(FaultPlanConfig{}));
  config.rate(FaultType::kServerCrash).rate_per_day = 1.0;
  EXPECT_THROW(FaultPlan::sampled(config), std::invalid_argument);
  EXPECT_THROW(epm::faults::make_storm_plan(1e300, 6.0 * 3600.0, 1, 2, 1),
               std::invalid_argument);
}

TEST(FaultPlan, MergedWithConcatenatesAndResorts) {
  const FaultPlan early = FaultPlan::parse("outage@100+60");
  const FaultPlan late = FaultPlan::parse("crash:0@10+30x0.2");
  const FaultPlan merged = early.merged_with(late);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.events()[0].type, FaultType::kServerCrash);
  EXPECT_EQ(merged.events()[1].type, FaultType::kUtilityOutage);
}

// The storm profile must always contain its scripted utility-outage +
// CRAC-failure core — that pair is what the acceptance sweep stresses.
TEST(FaultPlan, StormPlanAlwaysContainsOutageAndCracCore) {
  for (const double intensity : {0.0, 0.5, 1.0, 2.0}) {
    const FaultPlan plan =
        epm::faults::make_storm_plan(intensity, 6.0 * 3600.0, 42, 2, 1);
    EXPECT_GE(plan.count(FaultType::kUtilityOutage), 1u) << intensity;
    EXPECT_GE(plan.count(FaultType::kCracFailure), 1u) << intensity;
    if (intensity == 0.0) {
      EXPECT_EQ(plan.size(), plan.count(FaultType::kUtilityOutage) +
                                 plan.count(FaultType::kCracFailure));
    } else {
      EXPECT_GT(plan.size(), 2u) << intensity;
    }
  }
  EXPECT_THROW(epm::faults::make_storm_plan(-0.1, 3600.0, 1, 2, 1),
               std::invalid_argument);
}

// Controller fault tokens (the survivable-control-plane extension): the
// three ctl-* types parse, print, and fingerprint like every other type,
// and validate_targets checks the replica index against the controller
// count when one is given.
TEST(FaultPlan, ControllerTokensRoundTripAndValidate) {
  const std::string spec =
      "ctl-crash:0@13.25+40;ctl-hang:2@10.25+6;ctl-restart:1@30+0.5";
  const FaultPlan plan = FaultPlan::parse(spec);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].type, FaultType::kControllerHang);  // sorted
  EXPECT_EQ(plan.events()[1].type, FaultType::kControllerCrash);
  EXPECT_EQ(plan.events()[2].type, FaultType::kControllerRestart);
  EXPECT_EQ(plan.events()[0].target, 2u);
  EXPECT_DOUBLE_EQ(plan.events()[1].start_s, 13.25);

  const FaultPlan again = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(again.fingerprint(), plan.fingerprint());
  EXPECT_EQ(again.to_string(), plan.to_string());

  // Replica indices are validated only when a controller count is supplied:
  // the default kAnyTarget keeps pre-control-plane callers unchanged.
  EXPECT_NO_THROW(plan.validate_targets(8, 2));
  EXPECT_NO_THROW(plan.validate_targets(8, 2, /*controller_count=*/3));
  try {
    plan.validate_targets(8, 2, /*controller_count=*/2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(std::string::npos, message.find("controller replica"));
    EXPECT_NE(std::string::npos, message.find("2"));
    EXPECT_EQ(std::string::npos, message.find('\n'));  // one line
  }
  // Controller indices are NOT clamped by the service/CRAC counts.
  EXPECT_NO_THROW(
      FaultPlan::parse("ctl-crash:5@1+1").validate_targets(1, 1, 6));
  EXPECT_THROW(FaultPlan::parse("ctl-crash:6@1+1").validate_targets(1, 1, 6),
               std::invalid_argument);
}

// The malformed-entry corpus extends to the ctl-* tokens: near-miss type
// names and structurally damaged controller entries are rejected with the
// same diagnosable one-line messages as every other fault type.
TEST(FaultPlan, ControllerTokenCorpusRejectsNearMisses) {
  struct Case {
    const char* spec;
    const char* needle;
  };
  const Case corpus[] = {
      {"ctl@0+60", "ctl"},                      // bare prefix is not a type
      {"ctl-@0+60", "ctl-"},                    // empty suffix
      {"ctl-kill:0@0+60", "ctl-kill"},          // grid-script token, not a
                                                // FaultPlan type
      {"ctl-crashh:0@0+60", "ctl-crashh"},      // trailing typo
      {"ctlcrash:0@0+60", "ctlcrash"},          // missing dash
      {"CTL-CRASH:0@0+60", "CTL-CRASH"},        // tokens are case-sensitive
      {"ctl-crash:0@@0+60", "duplicate '@'"},
      {"ctl-hang:0@10", "missing '+duration'"},
      {"ctl-restart:-1@0+60", "'-1'"},
      {"ctl-crash:0@10+0", "duration must be > 0"},
  };
  for (const auto& c : corpus) {
    try {
      (void)FaultPlan::parse(c.spec);
      FAIL() << "accepted malformed spec: " << c.spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
          << "spec '" << c.spec << "' threw '" << e.what()
          << "' which does not mention '" << c.needle << "'";
    }
  }
}

TEST(FaultPlan, FingerprintIsSensitiveToEveryField) {
  const FaultPlan base = FaultPlan::parse("crash:0@100+60x0.2");
  EXPECT_NE(base.fingerprint(),
            FaultPlan::parse("crash:0@101+60x0.2").fingerprint());
  EXPECT_NE(base.fingerprint(),
            FaultPlan::parse("crash:0@100+61x0.2").fingerprint());
  EXPECT_NE(base.fingerprint(),
            FaultPlan::parse("crash:1@100+60x0.2").fingerprint());
  EXPECT_NE(base.fingerprint(),
            FaultPlan::parse("crash:0@100+60x0.3").fingerprint());
  EXPECT_NE(base.fingerprint(),
            FaultPlan::parse("psu:0@100+60x0.2").fingerprint());
}

}  // namespace
