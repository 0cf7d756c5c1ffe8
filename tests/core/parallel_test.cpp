#include "core/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace epm {
namespace {

TEST(ThreadPool, ThreadCountResolution) {
  EXPECT_GE(default_thread_count(), 1u);
  EXPECT_EQ(resolve_thread_count(3), 3u);
  EXPECT_EQ(resolve_thread_count(0), default_thread_count());
  EXPECT_EQ(resolve_thread_count(-5), default_thread_count());
  ThreadPool pool(5);
  EXPECT_EQ(pool.thread_count(), 5u);
}

TEST(ThreadPool, EmptyRangeRunsNothing) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  // Chunks get disjoint index ranges, so these writes never race.
  std::vector<int> hits(1000, 0);
  pool.parallel_for(hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(hits.size()));
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
  EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
}

TEST(ThreadPool, MapReturnsResultsInInputOrder) {
  ThreadPool pool(8);
  const auto squares =
      pool.parallel_map(257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 257u);
  for (std::size_t i = 0; i < squares.size(); ++i) EXPECT_EQ(squares[i], i * i);
}

TEST(ThreadPool, ExceptionsPropagateAndPoolSurvives) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t, std::size_t) {
                          throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must stay usable after a failed call.
  std::atomic<int> total{0};
  pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
    total += static_cast<int>(end - begin);
  });
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPool, NestedCallsRejected) {
  // At 1 thread every chunk runs on the submitting thread itself, which must
  // be rejected just like a worker.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ThreadPool pool(threads);
    EXPECT_THROW(pool.parallel_for(4,
                                   [&](std::size_t, std::size_t) {
                                     pool.parallel_for(
                                         2, [](std::size_t, std::size_t) {});
                                   }),
                 std::logic_error)
        << threads << " threads";
    // The caller's tag is dropped once the call returns.
    EXPECT_FALSE(pool.on_worker_thread());
    pool.parallel_for(1, [](std::size_t, std::size_t) {});
  }
}

TEST(ThreadPool, CallerRunsChunksAndIsTaggedWhileItDoes) {
  const auto caller = std::this_thread::get_id();
  ThreadPool solo(1);
  std::size_t on_caller = 0;
  bool tagged = true;
  solo.parallel_for(10, [&](std::size_t, std::size_t) {
    if (std::this_thread::get_id() == caller) ++on_caller;
    tagged = tagged && solo.on_worker_thread();
  });
  EXPECT_EQ(on_caller, 4u);  // min(n, 4 * threads) chunks, all on the caller
  EXPECT_TRUE(tagged);
  EXPECT_FALSE(solo.on_worker_thread());

  ThreadPool pool(4);
  std::atomic<bool> all_tagged{true};
  pool.parallel_for(64, [&](std::size_t, std::size_t) {
    if (!pool.on_worker_thread()) all_tagged = false;
  });
  EXPECT_TRUE(all_tagged.load());
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(ThreadPool, ExceptionFromTheCallersChunkPropagates) {
  // Only the chunk the submitting thread runs throws. Worker-run chunks hold
  // until the caller has run one; with 3 workers and 16 chunks the caller is
  // then guaranteed a chunk of its own.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> caller_ran{false};
    std::atomic<std::size_t> covered{0};
    EXPECT_THROW(
        pool.parallel_for(64,
                          [&](std::size_t begin, std::size_t end) {
                            covered += end - begin;
                            if (std::this_thread::get_id() != caller) {
                              while (!caller_ran.load()) std::this_thread::yield();
                              return;
                            }
                            if (!caller_ran.exchange(true)) {
                              throw std::runtime_error("caller chunk");
                            }
                          }),
        std::runtime_error)
        << threads << " threads";
    // The remaining chunks still ran to completion.
    EXPECT_EQ(covered.load(), 64u) << threads << " threads";
  }
}

TEST(ThreadPool, BackToBackTinyCallsHandOffExactly) {
  // Covers the generation handoff: every call must see its own job and
  // return only once all of its chunks are done.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  std::uint64_t expect = 0;
  for (std::uint64_t k = 0; k < 100000; ++k) {
    const std::size_t n = 1 + k % 9;
    std::atomic<std::size_t> done{0};
    pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) total += k + i;
      done += end - begin;
    });
    ASSERT_EQ(done.load(), n) << "call " << k;
    expect += n * k + n * (n - 1) / 2;
  }
  EXPECT_EQ(total.load(), expect);
}

TEST(ThreadPool, ParkedWorkersWakeForLaterCalls) {
  // Gaps far longer than the spin budget, so workers park between calls.
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::atomic<std::size_t> covered{0};
    pool.parallel_for(100, [&](std::size_t begin, std::size_t end) {
      covered += end - begin;
    });
    EXPECT_EQ(covered.load(), 100u) << "round " << round;
  }
}

TEST(ThreadPool, DestroyedWhileWorkersParkOrSpin) {
  {
    ThreadPool never_used(4);  // workers parked since start-up
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    ThreadPool parked(4);
    parked.parallel_for(8, [](std::size_t, std::size_t) {});
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (int i = 0; i < 200; ++i) {
    ThreadPool spinning(4);
    std::atomic<std::size_t> covered{0};
    spinning.parallel_for(16, [&](std::size_t begin, std::size_t end) {
      covered += end - begin;
    });
    ASSERT_EQ(covered.load(), 16u);
  }  // destroyed right after the call, workers still spinning
}

TEST(ThreadPool, ConcurrentExternalSubmittersSerialize) {
  ThreadPool pool(4);
  auto submit = [&pool](std::uint64_t salt, std::uint64_t* out) {
    std::uint64_t sum = 0;
    for (std::uint64_t k = 0; k < 2000; ++k) {
      std::vector<std::uint64_t> vals(37, 0);
      pool.parallel_for(vals.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) vals[i] = salt * k + i;
      });
      sum += std::accumulate(vals.begin(), vals.end(), std::uint64_t{0});
    }
    *out = sum;
  };
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::thread ta(submit, 3, &a);
  std::thread tb(submit, 5, &b);
  ta.join();
  tb.join();
  // sum over k < 2000, i < 37 of (salt * k + i)
  const std::uint64_t k_sum = 2000ULL * 1999 / 2;
  const std::uint64_t i_sum = 2000ULL * (37 * 36 / 2);
  EXPECT_EQ(a, 3 * 37 * k_sum + i_sum);
  EXPECT_EQ(b, 5 * 37 * k_sum + i_sum);
}

TEST(ThreadPool, DifferentPoolsMayNest) {
  ThreadPool outer(2);
  std::atomic<int> total{0};
  std::atomic<bool> outer_tag_kept{true};
  outer.parallel_for(2, [&](std::size_t begin, std::size_t end) {
    ThreadPool inner(2);
    inner.parallel_for(5, [&](std::size_t b, std::size_t e) {
      total += static_cast<int>(e - b);
    });
    // Submitting to the inner pool must not clear the outer pool's tag.
    if (!outer.on_worker_thread()) outer_tag_kept = false;
    total += static_cast<int>(end - begin);
  });
  EXPECT_EQ(total.load(), 12);
  EXPECT_TRUE(outer_tag_kept.load());
}

TEST(ThreadPool, ReplicateBitIdenticalAcrossThreadCounts) {
  auto draw = [](std::size_t threads) {
    ThreadPool pool(threads);
    return pool.parallel_replicate(
        33, 99, [](Rng& rng, std::size_t) { return rng.uniform01(); });
  };
  const auto at1 = draw(1);
  const auto at2 = draw(2);
  const auto at8 = draw(8);
  ASSERT_EQ(at1.size(), 33u);
  for (std::size_t i = 0; i < at1.size(); ++i) {
    EXPECT_DOUBLE_EQ(at1[i], at2[i]) << "replica " << i;
    EXPECT_DOUBLE_EQ(at1[i], at8[i]) << "replica " << i;
  }
}

TEST(ThreadPool, ReplicateStreamsAreIndependentOfIndexNeighbors) {
  // Stream i must not depend on how much randomness stream i-1 consumed.
  ThreadPool pool(2);
  const auto greedy = pool.parallel_replicate(4, 7, [](Rng& rng, std::size_t i) {
    if (i == 0) {
      for (int k = 0; k < 1000; ++k) rng.next_u64();  // burn
    }
    return rng.uniform01();
  });
  const auto frugal = pool.parallel_replicate(
      4, 7, [](Rng& rng, std::size_t) { return rng.uniform01(); });
  for (std::size_t i = 1; i < 4; ++i) EXPECT_DOUBLE_EQ(greedy[i], frugal[i]);
}

TEST(ThreadPool, ReplicateSeedChangesStreams) {
  ThreadPool pool(2);
  const auto a = pool.parallel_replicate(
      8, 1, [](Rng& rng, std::size_t) { return rng.uniform01(); });
  const auto b = pool.parallel_replicate(
      8, 2, [](Rng& rng, std::size_t) { return rng.uniform01(); });
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace epm
