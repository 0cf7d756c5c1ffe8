// The snapshot byte format, pinned. Each public snapshot type is driven
// into a scripted state that exercises every field of its section, saved,
// and checked against the length and FNV-1a hash of the bytes the format
// has always produced. A layout change — a field moved, widened, dropped or
// added — changes the hash; a deliberate format change must bump the
// section's version and re-pin the constants here. Each test also restores
// the bytes into a fresh object and saves again: restore must read exactly
// what save wrote, so the second save reproduces the first byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/types.h"
#include "macro/control_plane/controller.h"
#include "macro/control_plane/journal.h"
#include "macro/control_plane/lease.h"
#include "network/interdc_link.h"
#include "sensing/actuator_plane.h"
#include "sensing/fencing.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"

namespace epm::sim {
namespace {

/// FNV-1a over every byte.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
std::vector<std::uint8_t> saved(const T& object) {
  SnapshotWriter w;
  object.save(w);
  return w.take();
}

/// Restores `bytes` into `fresh`, checks every byte was consumed, and
/// returns what `fresh` saves in turn.
template <typename T>
std::vector<std::uint8_t> round_trip(const std::vector<std::uint8_t>& bytes,
                                     T& fresh) {
  SnapshotReader r(bytes);
  fresh.restore(r);
  EXPECT_TRUE(r.at_end());
  return saved(fresh);
}

TEST(SnapshotFormat, TaggedKernel) {
  const auto build = [](Simulator& sim) {
    auto tk = std::make_unique<TaggedKernel>(sim);
    tk->on(3, [](double, const TagPayload&) {});
    tk->on(9, [](double, const TagPayload&) {});
    return tk;
  };
  Simulator sim;
  auto tk = build(sim);
  tk->schedule_tagged_at(0.5, 3, {1});
  tk->schedule_tagged_at(4.0, 3, {2, 0xfeedULL, 3});
  tk->schedule_tagged_periodic(1.0, 0.75, 9, {});
  const std::uint64_t cancelled = tk->schedule_tagged_at(6.0, 9, {4});
  tk->schedule_tagged_at(4.0, 9, {5, 6});
  tk->cancel_tagged(cancelled);
  sim.run_until(2.6);  // fires the 0.5 record and three periodic ticks

  const std::vector<std::uint8_t> bytes = saved(*tk);
  EXPECT_EQ(192U, bytes.size());
  EXPECT_EQ(0x3b9afc1b0545db33ULL, fnv1a(bytes));

  Simulator sim2;
  auto tk2 = build(sim2);
  EXPECT_EQ(bytes, round_trip(bytes, *tk2));
}

TEST(SnapshotFormat, ShardedSimulator) {
  const auto config = [] {
    ShardedConfig c;
    c.shards = 3;
    c.threads = 1;
    c.uniform_lookahead_s = 0.05;
    return c;
  };
  const auto plan = [] {
    network::InterDcLinkPlan p(3);
    p.partition(0, 1, 1.0);  // open: messages park behind it
    p.slow(1, 2, 0.0, 1.5, 3.0);
    p.lose(2, 0, 0.5, 1.2, 0.5);
    return p;
  };
  const auto ignore = [](std::size_t, double, std::uint64_t,
                         const std::vector<std::uint64_t>&) {};
  network::InterDcLinkPlan links = plan();
  ShardedSimulator fed(config());
  fed.set_tagged_delivery(ignore);
  fed.set_link_plan(&links);
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::uint64_t k = 0; k < 12; ++k) {
      fed.shard(s).schedule_at(
          0.05 + 0.15 * static_cast<double>(k), [&fed, s, k] {
            fed.send_tagged(s, (s + 1) % 3, 0.06, 40 + s, {k, s, k * k});
          });
    }
  }
  fed.run_until(2.0);
  ASSERT_GT(fed.messages_parked(), 0U);

  SnapshotWriter w;
  fed.save_state(w);
  const std::vector<std::uint8_t> bytes = w.take();
  EXPECT_EQ(624U, bytes.size());
  EXPECT_EQ(0x44709044a0d182e5ULL, fnv1a(bytes));

  network::InterDcLinkPlan links2 = plan();
  ShardedSimulator fed2(config());
  fed2.set_tagged_delivery(ignore);
  fed2.set_link_plan(&links2);
  SnapshotReader r(bytes);
  fed2.restore_state(r);
  EXPECT_TRUE(r.at_end());
  SnapshotWriter w2;
  fed2.save_state(w2);
  EXPECT_EQ(bytes, w2.take());
}

TEST(SnapshotFormat, FencingLedger) {
  // One enforcing ledger and one audit-only ledger, so every counter moves,
  // and neighbouring counters differ, so a swapped pair changes the bytes.
  sensing::FencingLedger enforced(true);
  enforced.admit(4, 100);
  enforced.admit(8, 101);
  enforced.admit(5, 102);   // stale
  enforced.admit(6, 103);   // stale
  enforced.admit(8, 101);   // duplicate
  enforced.admit(12, 7);
  sensing::FencingLedger audit(false);
  audit.admit(6, 1);
  audit.admit(3, 2);        // stale, applied anyway
  audit.admit(4, 3);        // stale, applied anyway
  audit.admit(6, 1);        // double actuation
  SnapshotWriter w;
  enforced.save(w);
  audit.save(w);
  const std::vector<std::uint8_t> bytes = w.take();
  EXPECT_EQ(178U, bytes.size());
  EXPECT_EQ(0x73cc19287b7d0e83ULL, fnv1a(bytes));

  sensing::FencingLedger enforced2(true);
  sensing::FencingLedger audit2(false);
  SnapshotReader r(bytes);
  enforced2.restore(r);
  audit2.restore(r);
  EXPECT_TRUE(r.at_end());
  SnapshotWriter w2;
  enforced2.save(w2);
  audit2.save(w2);
  EXPECT_EQ(bytes, w2.take());
}

TEST(SnapshotFormat, DeadMansSwitch) {
  sensing::DeadMansSwitch deadman(2.5);
  deadman.feed(1.25);
  ASSERT_TRUE(deadman.expired(4.0));
  deadman.feed(5.0);
  ASSERT_TRUE(deadman.expired(8.0));
  const std::vector<std::uint8_t> bytes = saved(deadman);
  EXPECT_EQ(33U, bytes.size());
  EXPECT_EQ(0x5ca470b867cf3e15ULL, fnv1a(bytes));

  sensing::DeadMansSwitch fresh(2.5);
  EXPECT_EQ(bytes, round_trip(bytes, fresh));
}

TEST(SnapshotFormat, ActuatorPlane) {
  sensing::ActuatorPlaneConfig config;
  config.max_attempts = 4;
  config.retry_backoff_s = 30.0;
  sensing::FencingLedger ledger;
  sensing::ActuatorPlane plane(config);
  plane.set_fencing(&ledger);
  // The plant refuses CRAC commands, so they stay pending with retries.
  plane.set_applier([](const sensing::ActuatorCommand& c) {
    return c.kind != sensing::CommandKind::kCracSupply &&
           c.kind != sensing::CommandKind::kZoneShare;
  });
  faults::FaultEvent fault;
  fault.type = faults::FaultType::kActuatorFail;
  fault.target = 1;
  fault.severity = 0.25;
  plane.on_fault(fault, /*onset=*/true, 0.0);
  fault.target = 0;
  fault.severity = 0.125;
  plane.on_fault(fault, /*onset=*/true, 0.0);
  fault.severity = 0.5;
  plane.on_fault(fault, /*onset=*/true, 0.0);

  sensing::ActuatorCommand fleet;
  fleet.kind = sensing::CommandKind::kFleetSize;
  fleet.target = 2;
  fleet.value = 40.0;
  plane.issue(fleet, 1.0);
  sensing::ActuatorCommand crac;
  crac.kind = sensing::CommandKind::kCracSupply;
  crac.target = 1;
  crac.value = 18.5;
  plane.issue(crac, 2.0);
  sensing::ActuatorCommand share;
  share.kind = sensing::CommandKind::kZoneShare;
  share.target = 0;
  share.values = {0.5, 0.25, 0.25};
  plane.issue_fenced(share, 3.0, /*token=*/6, /*uid=*/61);
  plane.issue_fenced(share, 3.5, /*token=*/2, /*uid=*/62);  // stale token
  plane.issue_fenced(share, 3.6, /*token=*/5, /*uid=*/63);  // stale token
  crac.value = 19.0;
  plane.issue(crac, 4.0);  // supersedes the pending CRAC command
  plane.tick(40.0);
  ASSERT_GT(plane.pending_count(), 0U);

  const std::vector<std::uint8_t> bytes = saved(plane);
  EXPECT_EQ(256U, bytes.size());
  EXPECT_EQ(0xfccd25fca74fcc1fULL, fnv1a(bytes));

  sensing::ActuatorPlane fresh(config);
  EXPECT_EQ(bytes, round_trip(bytes, fresh));
}

macro::LeaseConfig lease_config(std::uint64_t id) {
  macro::LeaseConfig c;
  c.replicas = 3;
  c.id = id;
  c.ttl_s = 2.0;
  c.ttl_stagger_s = 0.5;
  c.initial_leader = 0;
  return c;
}

TEST(SnapshotFormat, LeaseState) {
  // Ends deposed, so the replica's own token sits below the highest seen.
  macro::LeaseState lease(lease_config(1));
  lease.on_heartbeat(3, 0, 1.0);
  ASSERT_EQ(macro::LeaseAction::kClaimed, lease.tick(4.0));
  lease.on_heartbeat(3, 0, 4.2);   // stale
  lease.on_heartbeat(6, 0, 4.5);   // deposes
  ASSERT_EQ(macro::LeaseAction::kClaimed, lease.tick(8.0));
  lease.on_heartbeat(9, 0, 8.5);   // deposes again
  lease.hang();
  const std::vector<std::uint8_t> bytes = saved(lease);
  EXPECT_EQ(106U, bytes.size());
  EXPECT_EQ(0xacbd304f42adf02fULL, fnv1a(bytes));

  macro::LeaseState fresh(lease_config(1));
  EXPECT_EQ(bytes, round_trip(bytes, fresh));
}

TEST(SnapshotFormat, CommandJournal) {
  macro::CommandJournal journal;
  journal.append_new(3, macro::ControlOp::kPowerCap, 1, 0.75, 0);
  journal.append_new(3, macro::ControlOp::kCracSetpoint, 2, 21.5, 1);
  macro::ControlCommand remote;
  remote.uid = (6ULL << macro::kJournalSeqBits) | 2;
  remote.seq = 2;
  remote.token = 6;
  remote.op = macro::ControlOp::kFleetActive;
  remote.dc = 0;
  remote.value = 120.0;
  remote.program_step = macro::kAdHocStep;
  ASSERT_TRUE(journal.merge(remote, 3));
  EXPECT_FALSE(journal.merge(remote, 3));  // duplicate
  macro::ControlCommand stale = remote;
  stale.uid = (2ULL << macro::kJournalSeqBits) | 5;
  stale.token = 2;
  EXPECT_FALSE(journal.merge(stale, 3));   // below the fence
  stale.uid = (1ULL << macro::kJournalSeqBits) | 6;
  stale.token = 1;
  EXPECT_FALSE(journal.merge(stale, 3));   // below the fence
  journal.append_new(6, macro::ControlOp::kPauseConsolidation, 1, 1.0, 4);
  const std::vector<std::uint8_t> bytes = saved(journal);
  EXPECT_EQ(304U, bytes.size());
  EXPECT_EQ(0x2ac0a4d476aba334ULL, fnv1a(bytes));

  macro::CommandJournal fresh;
  EXPECT_EQ(bytes, round_trip(bytes, fresh));
}

TEST(SnapshotFormat, ControllerReplica) {
  const auto build = [] {
    macro::ControllerConfig config;
    config.lease = lease_config(1);
    config.datacenters = 3;
    config.max_steps_per_tick = 2;
    std::vector<macro::ProgramStep> program = {
        {0.0, 0, macro::ControlOp::kPowerCap, 0.8},
        {1.0, 1, macro::ControlOp::kCracSetpoint, 22.0},
        {2.0, 2, macro::ControlOp::kFleetActive, 90.0},
        {9.0, 0, macro::ControlOp::kPauseConsolidation, 1.0},
    };
    return macro::ControllerReplica(config, std::move(program));
  };
  macro::ControllerReplica replica = build();
  replica.on_heartbeat(3, 0, 1.0);
  macro::ControlCommand peer;
  peer.uid = (3ULL << macro::kJournalSeqBits) | 0;
  peer.seq = 0;
  peer.token = 3;
  peer.op = macro::ControlOp::kPowerCap;
  peer.value = 0.8;
  peer.program_step = 0;
  replica.on_journal_record(peer);
  replica.tick(2.0);
  replica.tick(4.0);  // the leader went quiet: claim and replay
  replica.tick(5.0);
  replica.on_heartbeat(6, 0, 5.5);  // deposed by a higher token
  replica.hang();
  for (int i = 0; i < 3; ++i) replica.on_journal_record(peer);  // dropped
  const std::vector<std::uint8_t> bytes = saved(replica);
  EXPECT_EQ(370U, bytes.size());
  EXPECT_EQ(0xbce3a1253dcca074ULL, fnv1a(bytes));

  macro::ControllerReplica fresh = build();
  EXPECT_EQ(bytes, round_trip(bytes, fresh));
}

}  // namespace
}  // namespace epm::sim
