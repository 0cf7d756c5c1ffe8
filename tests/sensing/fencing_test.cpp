// Actuator-side fencing: the monotone token ledger, the dead-man's switch,
// and the ActuatorPlane's fenced issue path — including the guarantee that
// the pre-control-plane issue() path is untouched.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sensing/actuator_plane.h"
#include "sensing/fencing.h"
#include "sim/snapshot.h"

namespace epm::sensing {
namespace {

TEST(FencingLedger, TokenWatermarkIsMonotone) {
  FencingLedger ledger;
  EXPECT_EQ(FencingVerdict::kApplied, ledger.admit(5, 1));
  EXPECT_EQ(FencingVerdict::kApplied, ledger.admit(7, 2));
  // A deposed leader's token can never come back, no matter the uid.
  EXPECT_EQ(FencingVerdict::kStaleToken, ledger.admit(5, 3));
  EXPECT_EQ(FencingVerdict::kStaleToken, ledger.admit(6, 4));
  EXPECT_EQ(7U, ledger.max_token());
  EXPECT_EQ(2U, ledger.rejected_stale());
  EXPECT_EQ(2U, ledger.applied());
  // Equal tokens are fine — same leader, several commands.
  EXPECT_EQ(FencingVerdict::kApplied, ledger.admit(7, 5));
}

TEST(FencingLedger, DuplicateUidsAreSuppressedAcrossTokens) {
  FencingLedger ledger;
  EXPECT_EQ(FencingVerdict::kApplied, ledger.admit(3, 42));
  // The failover replay re-sends uid 42 under the successor's token: the
  // token is fresh, the uid is not — idempotent, no double actuation.
  EXPECT_EQ(FencingVerdict::kDuplicate, ledger.admit(9, 42));
  EXPECT_EQ(1U, ledger.suppressed_duplicates());
  EXPECT_EQ(0U, ledger.double_actuations());
  // The duplicate still did NOT raise the watermark (it was not applied).
  EXPECT_EQ(FencingVerdict::kApplied, ledger.admit(4, 43));
}

TEST(FencingLedger, AuditOnlyModeCountsTheHarmItAllows) {
  FencingLedger naive(/*enforce=*/false);
  EXPECT_EQ(FencingVerdict::kApplied, naive.admit(5, 1));
  // Replay duplicate and stale token both get through — and are counted.
  EXPECT_EQ(FencingVerdict::kApplied, naive.admit(9, 1));
  EXPECT_EQ(FencingVerdict::kApplied, naive.admit(2, 7));
  EXPECT_EQ(1U, naive.double_actuations());
  EXPECT_EQ(1U, naive.stale_applied());
  EXPECT_EQ(3U, naive.applied());
}

TEST(FencingLedger, SaveRestoreRoundTripsAndChecksMode) {
  FencingLedger a;
  a.admit(5, 1);
  a.admit(7, 2);
  a.admit(5, 3);
  sim::SnapshotWriter w;
  a.save(w);
  const std::vector<std::uint8_t> bytes = w.take();

  FencingLedger b;
  sim::SnapshotReader r(bytes);
  b.restore(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(a.max_token(), b.max_token());
  EXPECT_EQ(a.applied(), b.applied());
  EXPECT_EQ(a.rejected_stale(), b.rejected_stale());
  // The uid set survives: the same replay is still a duplicate.
  EXPECT_EQ(FencingVerdict::kDuplicate, b.admit(8, 1));

  FencingLedger wrong(/*enforce=*/false);
  sim::SnapshotReader r2(bytes);
  EXPECT_THROW(wrong.restore(r2), std::invalid_argument);
}

TEST(DeadMansSwitch, TripsOnceThenReArmsOnFeed) {
  DeadMansSwitch dm(4.0);
  dm.feed(10.0);
  EXPECT_FALSE(dm.expired(13.9));
  EXPECT_TRUE(dm.expired(14.0));   // the edge: apply the safe state
  EXPECT_FALSE(dm.expired(15.0));  // edge-triggered, not level-triggered
  EXPECT_EQ(1U, dm.trips());
  EXPECT_TRUE(dm.tripped());
  dm.feed(16.0);  // leadership restored
  EXPECT_FALSE(dm.tripped());
  EXPECT_FALSE(dm.expired(19.9));
  EXPECT_TRUE(dm.expired(20.0));
  EXPECT_EQ(2U, dm.trips());
}

TEST(DeadMansSwitch, DisabledSwitchNeverTrips) {
  DeadMansSwitch off(0.0);
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.expired(1e9));
  EXPECT_EQ(0U, off.trips());
}

TEST(DeadMansSwitch, SaveRestoreKeepsTheStarvationClock) {
  DeadMansSwitch a(4.0);
  a.feed(10.0);
  sim::SnapshotWriter w;
  a.save(w);
  const std::vector<std::uint8_t> bytes = w.take();
  DeadMansSwitch b(4.0);
  sim::SnapshotReader r(bytes);
  b.restore(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(10.0, b.last_feed_s());
  EXPECT_TRUE(b.expired(14.0));
}

TEST(ActuatorPlane, FencedIssueRejectsStaleAndDuplicate) {
  FencingLedger ledger;
  ActuatorPlane plane(ActuatorPlaneConfig{});
  plane.set_fencing(&ledger);
  std::vector<double> applied_values;
  plane.set_applier([&applied_values](const ActuatorCommand& c) {
    applied_values.push_back(c.value);
    return true;
  });

  ActuatorCommand cap;
  cap.kind = CommandKind::kPowerCap;
  cap.target = 0;
  cap.value = 0.7;
  EXPECT_NE(0U, plane.issue_fenced(cap, 1.0, /*token=*/5, /*uid=*/100));
  // Stale leader: rejected before the applier ever runs.
  cap.value = 0.3;
  EXPECT_EQ(0U, plane.issue_fenced(cap, 2.0, /*token=*/4, /*uid=*/101));
  // Failover replay of uid 100 under a higher token: suppressed.
  cap.value = 0.9;
  EXPECT_EQ(0U, plane.issue_fenced(cap, 3.0, /*token=*/6, /*uid=*/100));
  EXPECT_EQ(2U, plane.fencing_rejections());
  ASSERT_EQ(1U, applied_values.size());
  EXPECT_EQ(0.7, applied_values[0]);
  // A fresh command from the live leader still applies.
  cap.value = 1.0;
  EXPECT_NE(0U, plane.issue_fenced(cap, 4.0, /*token=*/6, /*uid=*/102));
  EXPECT_EQ(1.0, applied_values.back());
}

TEST(ActuatorPlane, UnfencedIssuePathIsUntouchedByTheLedger) {
  FencingLedger ledger;
  ActuatorPlane plane(ActuatorPlaneConfig{});
  plane.set_fencing(&ledger);
  std::size_t applications = 0;
  plane.set_applier([&applications](const ActuatorCommand&) {
    ++applications;
    return true;
  });
  ActuatorCommand cmd;
  cmd.kind = CommandKind::kFleetSize;
  cmd.value = 10.0;
  // The plain issue() path — what every pre-control-plane caller uses —
  // never consults the ledger, so the default path is bit-identical.
  plane.issue(cmd, 1.0);
  plane.issue(cmd, 2.0);
  EXPECT_EQ(2U, applications);
  EXPECT_EQ(0U, ledger.applied());
  EXPECT_EQ(0U, plane.fencing_rejections());
}

TEST(ActuatorPlane, FencedIssueWithoutLedgerIsPlainIssue) {
  ActuatorPlane plane(ActuatorPlaneConfig{});
  std::size_t applications = 0;
  plane.set_applier([&applications](const ActuatorCommand&) {
    ++applications;
    return true;
  });
  ActuatorCommand cmd;
  cmd.kind = CommandKind::kConsolidation;
  cmd.value = 1.0;
  EXPECT_NE(0U, plane.issue_fenced(cmd, 1.0, 3, 50));
  EXPECT_NE(0U, plane.issue_fenced(cmd, 2.0, 1, 50));  // no ledger, no fence
  EXPECT_EQ(2U, applications);
}

TEST(ActuatorPlane, SaveRestoreRoundTripsCountersAndPending) {
  ActuatorPlaneConfig config;
  config.max_attempts = 3;
  ActuatorPlane a(config);
  // An applier that always refuses leaves a pending retry in the queue.
  a.set_applier([](const ActuatorCommand&) { return false; });
  ActuatorCommand cmd;
  cmd.kind = CommandKind::kCracSupply;
  cmd.target = 1;
  cmd.value = 18.0;
  a.issue(cmd, 5.0);
  ASSERT_EQ(1U, a.pending_count());

  sim::SnapshotWriter w;
  a.save(w);
  const std::vector<std::uint8_t> bytes = w.take();
  ActuatorPlane b(config);
  sim::SnapshotReader r(bytes);
  b.restore(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(a.pending_count(), b.pending_count());
  EXPECT_EQ(a.issued(), b.issued());
  EXPECT_EQ(a.retries(), b.retries());
  // The restored plane retries the same command at the same time: wire an
  // accepting applier and advance past the backoff.
  std::size_t applications = 0;
  b.set_applier([&applications](const ActuatorCommand& c) {
    applications += c.value == 18.0 ? 1 : 0;
    return true;
  });
  b.tick(500.0);
  EXPECT_EQ(1U, applications);
  EXPECT_EQ(0U, b.pending_count());
}

TEST(ActuatorPlane, RestoreRejectsCountsLargerThanTheSnapshot) {
  // Patches the little-endian u64 at `offset` and restores the result.
  const auto restore_patched = [](std::vector<std::uint8_t> bytes,
                                  std::size_t offset, std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      bytes.at(offset + byte) = static_cast<std::uint8_t>(value >> (byte * 8));
    }
    ActuatorPlane plane(ActuatorPlaneConfig{});
    sim::SnapshotReader r(bytes);
    plane.restore(r);
  };
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 60;

  // An idle plane: section header, 7 counters, two empty fault-severity
  // vectors and an empty pending queue.
  sim::SnapshotWriter idle_writer;
  ActuatorPlane(ActuatorPlaneConfig{}).save(idle_writer);
  const std::vector<std::uint8_t> idle = idle_writer.take();
  ASSERT_EQ(88U, idle.size());
  for (const std::size_t offset : {64U, 72U, 80U}) {
    EXPECT_THROW(restore_patched(idle, offset, kHuge), std::runtime_error)
        << "count at byte " << offset;
  }

  // One pending command carrying two values; its `values` count sits after
  // the command's kind, target and value.
  ActuatorPlaneConfig config;
  config.max_attempts = 3;
  ActuatorPlane busy(config);
  busy.set_applier([](const ActuatorCommand&) { return false; });
  ActuatorCommand cmd;
  cmd.kind = CommandKind::kCracSupply;
  cmd.values = {1.0, 2.0};
  busy.issue(cmd, 5.0);
  ASSERT_EQ(1U, busy.pending_count());
  sim::SnapshotWriter busy_writer;
  busy.save(busy_writer);
  const std::vector<std::uint8_t> pending = busy_writer.take();
  constexpr std::size_t kValuesCount = 88 + 4 + 8 + 8;
  ASSERT_EQ(2U, sim::SnapshotReader(pending.data() + kValuesCount, 8).read_u64());
  EXPECT_THROW(restore_patched(pending, kValuesCount, kHuge),
               std::runtime_error);
}

TEST(ActuatorPlane, ConsolidationKindRoutesTheComputeDomain) {
  EXPECT_EQ(0U, actuation_domain(CommandKind::kConsolidation));
  EXPECT_EQ("consolidation", to_string(CommandKind::kConsolidation));
}

}  // namespace
}  // namespace epm::sensing
