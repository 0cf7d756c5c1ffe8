// Checkpoint/restore plumbing: the snapshot byte streams, the TaggedKernel
// record table, and the bit-identical continuation invariant (record-id
// order == kernel seq order among pending events).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/simulator.h"
#include "sim/snapshot.h"

namespace epm::sim {
namespace {

TEST(Snapshot, WriterReaderRoundTrip) {
  SnapshotWriter w;
  w.section(0x74736574, 3);  // "test"
  w.write_u8(7);
  w.write_u32(123456789U);
  w.write_u64(0xdeadbeefcafef00dULL);
  w.write_f64(-1.25e-3);
  w.write_payload({1, 2, 3});

  SnapshotReader r(w.bytes());
  r.section(0x74736574, 3);
  EXPECT_EQ(7, r.read_u8());
  EXPECT_EQ(123456789U, r.read_u32());
  EXPECT_EQ(0xdeadbeefcafef00dULL, r.read_u64());
  EXPECT_DOUBLE_EQ(-1.25e-3, r.read_f64());
  EXPECT_EQ((std::vector<std::uint64_t>{1, 2, 3}), r.read_payload());
  EXPECT_TRUE(r.at_end());
}

TEST(Snapshot, ReaderRejectsCorruption) {
  SnapshotWriter w;
  w.section(0x74736574, 3);
  w.write_u64(42);

  // Wrong magic and wrong version both fail loudly.
  SnapshotReader wrong_magic(w.bytes());
  EXPECT_THROW(wrong_magic.section(0x74736575, 3), std::runtime_error);
  SnapshotReader wrong_version(w.bytes());
  EXPECT_THROW(wrong_version.section(0x74736574, 2), std::runtime_error);

  // Truncation fails on the read, never silently zero-fills.
  std::vector<std::uint8_t> cut(w.bytes().begin(), w.bytes().end() - 3);
  SnapshotReader truncated(cut);
  truncated.section(0x74736574, 3);
  EXPECT_THROW(truncated.read_u64(), std::runtime_error);
}

TEST(Snapshot, ReaderBoundsCountsBeforeAllocating) {
  // A count is accepted only if that many elements fit in the bytes left.
  SnapshotWriter w;
  w.write_u64(3);
  for (int i = 0; i < 3; ++i) w.write_u64(0);
  SnapshotReader exact(w.bytes());
  EXPECT_EQ(3U, exact.read_count(8));
  SnapshotReader too_wide(w.bytes());
  EXPECT_THROW(too_wide.read_count(9), std::runtime_error);

  // 2^61 + 1 elements of 8 bytes is 2^64 + 8 bytes, which wraps to 8 when
  // multiplied: the check must still refuse the count.
  SnapshotWriter huge;
  huge.write_payload({7});
  std::vector<std::uint8_t> bytes = huge.take();
  const std::uint64_t count = (std::uint64_t{1} << 61) + 1;
  for (int byte = 0; byte < 8; ++byte) {
    bytes[byte] = static_cast<std::uint8_t>(count >> (byte * 8));
  }
  SnapshotReader r(bytes);
  EXPECT_THROW(r.read_payload(), std::runtime_error);
}

TEST(TaggedKernel, FiresRecordsAndSurvivesSaveRestore) {
  Simulator sim;
  TaggedKernel tk(sim);
  std::vector<std::pair<double, std::uint64_t>> fired;
  tk.on(1, [&](double now, const TagPayload& p) {
    fired.emplace_back(now, p.at(0));
  });
  tk.schedule_tagged_at(1.0, 1, {10});
  tk.schedule_tagged_at(3.0, 1, {30});
  tk.schedule_tagged_at(2.0, 1, {20});
  EXPECT_EQ(3U, tk.tagged_pending());

  sim.run_until(1.5);
  ASSERT_EQ(1U, fired.size());
  EXPECT_EQ(10U, fired[0].second);

  // Snapshot mid-run, rebuild a cold kernel, restore, finish: the
  // continuation fires the remaining records identically.
  SnapshotWriter w;
  tk.save(w);
  const auto bytes = w.take();

  Simulator sim2;
  TaggedKernel tk2(sim2);
  std::vector<std::pair<double, std::uint64_t>> fired2;
  tk2.on(1, [&](double now, const TagPayload& p) {
    fired2.emplace_back(now, p.at(0));
  });
  SnapshotReader r(bytes);
  tk2.restore(r);
  EXPECT_DOUBLE_EQ(1.5, sim2.now());
  EXPECT_EQ(2U, tk2.tagged_pending());

  sim.run_all();
  sim2.run_all();
  ASSERT_EQ(3U, fired.size());
  EXPECT_EQ((std::vector<std::pair<double, std::uint64_t>>(
                fired.begin() + 1, fired.end())),
            fired2);
  EXPECT_DOUBLE_EQ(sim.now(), sim2.now());
}

TEST(TaggedKernel, SameTimestampTiesResolveInRecordIdOrder) {
  // Two records at the same timestamp must fire in scheduling order, and a
  // restore must preserve that order (fresh seq numbers are assigned in
  // record-id order).
  const auto run = [](bool through_snapshot) {
    Simulator sim;
    TaggedKernel tk(sim);
    std::vector<std::uint64_t> order;
    tk.on(1, [&](double, const TagPayload& p) { order.push_back(p.at(0)); });
    for (std::uint64_t i = 0; i < 8; ++i) tk.schedule_tagged_at(5.0, 1, {i});
    if (through_snapshot) {
      SnapshotWriter w;
      tk.save(w);
      const auto bytes = w.take();
      Simulator sim2;
      TaggedKernel tk2(sim2);
      std::vector<std::uint64_t> order2;
      tk2.on(1, [&](double, const TagPayload& p) { order2.push_back(p.at(0)); });
      SnapshotReader r(bytes);
      tk2.restore(r);
      sim2.run_all();
      return order2;
    }
    sim.run_all();
    return order;
  };
  const auto direct = run(false);
  const auto restored = run(true);
  EXPECT_EQ((std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7}), direct);
  EXPECT_EQ(direct, restored);
}

TEST(TaggedKernel, PeriodicRecordsReArmAcrossRestore) {
  Simulator sim;
  TaggedKernel tk(sim);
  std::vector<double> ticks;
  tk.on(2, [&](double now, const TagPayload&) { ticks.push_back(now); });
  tk.schedule_tagged_periodic(1.0, 2.0, 2, {});
  sim.run_until(4.0);  // fires at 1, 3
  EXPECT_EQ((std::vector<double>{1.0, 3.0}), ticks);
  EXPECT_EQ(1U, tk.tagged_pending());  // the self-rescheduled next firing

  SnapshotWriter w;
  tk.save(w);
  const auto bytes = w.take();
  Simulator sim2;
  TaggedKernel tk2(sim2);
  std::vector<double> ticks2;
  tk2.on(2, [&](double now, const TagPayload&) { ticks2.push_back(now); });
  SnapshotReader r(bytes);
  tk2.restore(r);
  sim2.run_until(8.0);
  EXPECT_EQ((std::vector<double>{5.0, 7.0}), ticks2);
}

TEST(TaggedKernel, CancelAndErrorPaths) {
  Simulator sim;
  TaggedKernel tk(sim);
  int fired = 0;
  tk.on(1, [&](double, const TagPayload&) { ++fired; });
  // Double registration of a tag is a bug.
  EXPECT_THROW(tk.on(1, [](double, const TagPayload&) {}),
               std::invalid_argument);
  // Scheduling an unregistered tag is rejected up front.
  EXPECT_THROW(tk.schedule_tagged_at(1.0, 99, {}), std::invalid_argument);

  const std::uint64_t id = tk.schedule_tagged_at(1.0, 1, {});
  tk.cancel_tagged(id);
  tk.cancel_tagged(id);  // unknown/already-cancelled ids are a no-op
  sim.run_all();
  EXPECT_EQ(0, fired);

  // An untagged pending event makes the kernel unsnapshottable.
  tk.schedule_tagged_at(10.0, 1, {});
  sim.schedule_at(11.0, [] {});
  SnapshotWriter w;
  EXPECT_THROW(tk.save(w), std::runtime_error);
}

TEST(SimulatorRestoreClock, RewindsAndSweepsCancelledEntries) {
  Simulator sim;
  int fired = 0;
  auto h = sim.schedule_at(5.0, [&] { ++fired; });
  sim.cancel(h);
  sim.run_until(20.0);
  EXPECT_DOUBLE_EQ(20.0, sim.now());
  // restore_clock rebases an idle kernel to any time, past included; the
  // cancelled tombstone must not block the rewind.
  sim.restore_clock(2.5);
  EXPECT_DOUBLE_EQ(2.5, sim.now());
  sim.schedule_at(3.0, [&] { ++fired; });
  sim.run_all();
  EXPECT_EQ(1, fired);
  EXPECT_DOUBLE_EQ(3.0, sim.now());
}

}  // namespace
}  // namespace epm::sim
