#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <utility>
#include <vector>

namespace epm::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SameTimeFifoBySchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_after(2.0, [&] { fired_at = sim.now(); });
  });
  sim.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 7.0);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run_all();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, EmptyCallbackRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, EventFn{}), std::invalid_argument);
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&] { ++fired; });
  const std::size_t ran = sim.run_until(3.0);
  EXPECT_EQ(ran, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);  // clock advances even with no event
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(3.0, [&] { ++fired; });
  sim.run_until(3.0);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  auto h = sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.cancel(h);
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelInvalidHandleIsNoop) {
  Simulator sim;
  sim.cancel(EventHandle{});
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, PeriodicFiresRepeatedly) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_periodic(10.0, 5.0, [&] { times.push_back(sim.now()); });
  sim.run_until(26.0);
  EXPECT_EQ(times, (std::vector<double>{10.0, 15.0, 20.0, 25.0}));
}

TEST(Simulator, PeriodicCancelStopsFutureFirings) {
  Simulator sim;
  int fired = 0;
  auto h = sim.schedule_periodic(1.0, 1.0, [&] { ++fired; });
  sim.run_until(3.0);
  EXPECT_EQ(fired, 3);
  sim.cancel(h);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, PeriodicCanCancelItself) {
  Simulator sim;
  int fired = 0;
  EventHandle h;
  h = sim.schedule_periodic(1.0, 1.0, [&] {
    if (++fired == 2) sim.cancel(h);
  });
  sim.run_until(100.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, PendingCountsLiveEvents) {
  Simulator sim;
  auto h1 = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(h1);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, NestedSchedulingDuringRun) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_at(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_at(1.5, [&] { times.push_back(sim.now()); });
  });
  sim.schedule_at(2.0, [&] { times.push_back(sim.now()); });
  sim.run_all();
  EXPECT_EQ(times, (std::vector<double>{1.0, 1.5, 2.0}));
}

TEST(Simulator, MassCancellationStress) {
  // 10k periodic events cancelled up front: cancellation is an O(1) status
  // flip and the drain skips dead entries in O(1) each, where a linear
  // queue scan per cancel was O(n) — minutes instead of milliseconds.
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();

  Simulator sim;
  int fired = 0;
  std::vector<EventHandle> handles;
  handles.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    handles.push_back(
        sim.schedule_periodic(1.0 + 0.001 * i, 1.0, [&] { ++fired; }));
  }
  EXPECT_EQ(sim.pending(), 10000u);
  for (const auto& h : handles) sim.cancel(h);
  EXPECT_EQ(sim.pending(), 0u);
  sim.run_until(1000.0);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending(), 0u);  // tombstones drained with the queue

  const std::chrono::duration<double> wall = clock::now() - start;
  EXPECT_LT(wall.count(), 2.0);
}

TEST(Simulator, PendingExactAcrossCancelThenDrain) {
  // Regression: pending() must drop at cancel() time and stay exact while
  // the cancelled calendar entries drain lazily through the freelist.
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sim.schedule_at(1.0 + i, [] {}));
  }
  for (int i = 0; i < 100; i += 2) sim.cancel(handles[i]);
  EXPECT_EQ(sim.pending(), 50u);
  sim.run_until(50.5);  // drains a mix of live and cancelled entries
  EXPECT_EQ(sim.pending(), 25u);
  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, SelfCancelFromCallbackKeepsPendingExact) {
  Simulator sim;
  EventHandle h;
  h = sim.schedule_at(1.0, [&] { sim.cancel(h); });  // fires, then self-cancels
  sim.schedule_at(2.0, [] {});
  sim.run_until(1.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  auto h = sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(3.0, [&] { ++fired; });
  sim.run_until(2.0);
  sim.cancel(h);  // already fired; must not disturb accounting
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RecycledSlotIgnoresStaleHandle) {
  // A handle kept across its event's firing must never cancel the unrelated
  // event that later reuses the slot (generation counters).
  Simulator sim;
  auto stale = sim.schedule_at(1.0, [] {});
  sim.run_all();
  int fired = 0;
  sim.schedule_at(2.0, [&] { ++fired; });  // recycles the freed slot
  sim.cancel(stale);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, BatchKeepsFifoOrderAtOneTimestamp) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] { order.push_back(-1); });  // scheduled first
  std::vector<EventFn> batch;
  for (int i = 0; i < 8; ++i) {
    batch.emplace_back(EventFn{[&order, i] { order.push_back(i); }});
  }
  sim.schedule_batch_at(5.0, batch.begin(), batch.end());
  sim.schedule_at(5.0, [&] { order.push_back(99); });  // scheduled last
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7, 99}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, OversizedCaptureIsHeapBoxed) {
  Simulator sim;
  std::array<double, 16> payload{};  // 128 bytes: over EventFn::kInlineSize
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<double>(i);
  }
  double sum = 0.0;
  sim.schedule_at(1.0, [payload, &sum] {
    for (const double v : payload) sum += v;
  });
  sim.run_all();
  EXPECT_DOUBLE_EQ(sum, 120.0);
}

TEST(EventFn, InlineAndBoxedCapturesBothInvoke) {
  int hits = 0;
  EventFn small{[&hits] { ++hits; }};
  EXPECT_TRUE(small.is_inline());
  small();

  std::array<char, 256> big{};
  big[0] = 1;
  EventFn boxed{[big, &hits] { hits += big[0]; }};
  EXPECT_FALSE(boxed.is_inline());
  boxed();
  EXPECT_EQ(hits, 2);

  EventFn moved = std::move(boxed);  // boxed pointer relocates, no re-copy
  moved();
  EXPECT_EQ(hits, 3);
  EXPECT_FALSE(static_cast<bool>(boxed));  // NOLINT(bugprone-use-after-move)
}

TEST(CalendarSimulator, WheelGrowsWithOccupancy) {
  CalendarSimulator sim;
  const std::size_t initial = sim.bucket_count();
  for (int i = 0; i < 100000; ++i) {
    sim.schedule_at(static_cast<double>(i) * 1e-3, [] {});
  }
  EXPECT_GT(sim.bucket_count(), initial);
  EXPECT_GT(sim.bucket_width_s(), 0.0);
  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(CalendarSimulator, FarFutureEventsFireInOrder) {
  // Events far beyond the wheel horizon sit in the overflow tier and must
  // still interleave correctly with near-future events as the wheel rebases.
  CalendarSimulator sim;
  std::vector<double> times;
  for (const double t : {1e9, 1.0, 1e6, 2.0, 5e8, 1e3}) {
    sim.schedule_at(t, [&times, &sim] { times.push_back(sim.now()); });
  }
  sim.run_all();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 1e3, 1e6, 5e8, 1e9}));
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace epm::sim
