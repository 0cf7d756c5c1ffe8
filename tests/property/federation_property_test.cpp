// Property tests for the conservative federation protocol.
//
// These pin the safety contract itself rather than any one world model:
// no event fires before the committed horizon, cross-shard deliveries
// respect the per-pair lookahead floor, per-(src,dst) mailboxes are FIFO
// at equal timestamps, and every way of breaking the protocol (undersized
// delays, shard impersonation, re-entrant runs, malformed configs) is
// rejected loudly instead of silently corrupting the event order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "sim/sharded_simulator.h"

namespace epm::sim {
namespace {

ShardedConfig uniform_config(std::size_t shards, std::size_t threads,
                             double lookahead_s) {
  ShardedConfig config;
  config.shards = shards;
  config.threads = threads;
  config.uniform_lookahead_s = lookahead_s;
  return config;
}

// ---------------------------------------------------------------------------
// Conservative safety
// ---------------------------------------------------------------------------

TEST(FederationProperty, NoEventFiresBeforeTheCommittedHorizon) {
  // horizon_s() is the completed execution horizon, advanced at each
  // barrier AFTER the window runs — so from inside any event callback the
  // current event's timestamp must be at or beyond it, or the coordinator
  // committed a range it had not actually finished. Serial federation
  // (threads = 1) so reading horizon_s() from callbacks is race-free.
  ShardedSimulator fed(uniform_config(3, 1, 0.05));
  std::vector<std::pair<double, double>> samples;  // (event time, horizon)
  SplitMix64 rng(99);

  // A little mesh of relaying events: each hop logs, then relays to the
  // next shard with a delay just above the floor plus jitter.
  struct Relay {
    ShardedSimulator* fed;
    std::vector<std::pair<double, double>>* samples;
    SplitMix64* rng;
    void operator()(std::size_t shard, int hops) const {
      const double now = fed->shard(shard).now();
      samples->emplace_back(now, fed->horizon_s());
      if (hops <= 0) return;
      const double jitter =
          static_cast<double>(rng->next() >> 11) * 0x1.0p-53 * 0.2;
      const std::size_t dst = (shard + 1) % fed->shard_count();
      fed->send(shard, dst, 0.05 + 1e-9 + jitter,
                [self = *this, dst, hops] { self(dst, hops - 1); });
    }
  };
  const Relay relay{&fed, &samples, &rng};
  for (std::size_t s = 0; s < 3; ++s) {
    for (int r = 0; r < 20; ++r) {
      const double start =
          static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
      fed.shard(s).schedule_at(start, [relay, s] { relay(s, 40); });
    }
  }
  fed.run_all();

  ASSERT_GE(samples.size(), 60u * 41u);
  for (const auto& [when, horizon] : samples) {
    ASSERT_GE(when, horizon);
  }
  EXPECT_EQ(fed.pending(), 0u);
}

TEST(FederationProperty, CrossShardDeliveryRespectsTheLookaheadFloor) {
  // Every cross-shard message carries its send time; on arrival the
  // destination clock must be at least send time + the pair's floor.
  // Violations are counted per destination shard (each shard's kernel only
  // writes its own slot), so this runs race-free at 8 worker threads.
  ShardedConfig config;
  config.shards = 4;
  config.threads = 8;
  config.lookahead_s.assign(16, 0.0);
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::size_t d = 0; d < 4; ++d) {
      if (s != d) config.lookahead_s[s * 4 + d] = 0.01 + 0.002 * (s * 4 + d);
    }
  }
  ShardedSimulator fed(config);
  std::vector<std::size_t> violations(4, 0);
  std::vector<std::size_t> arrivals(4, 0);
  SplitMix64 seeder(7);

  struct Hop {
    ShardedSimulator* fed;
    const std::vector<double>* floors;
    std::vector<std::size_t>* violations;
    std::vector<std::size_t>* arrivals;
    void operator()(std::size_t shard, std::uint64_t id) const {
      const double now = fed->shard(shard).now();
      if (id > 4000) return;
      SplitMix64 rng(id * 0x9e3779b97f4a7c15ULL + shard);
      const std::size_t dst = (shard + 1 + rng.next() % 3) % 4;
      const double floor = (*floors)[shard * 4 + dst];
      const double delay =
          floor + static_cast<double>(rng.next() >> 11) * 0x1.0p-53 * 0.5;
      fed->send(shard, dst, delay,
                [self = *this, dst, id, now, floor] {
                  ++(*self.arrivals)[dst];
                  if (self.fed->shard(dst).now() < now + floor) {
                    ++(*self.violations)[dst];
                  }
                  self(dst, id * 2 + 1);
                });
    }
  };
  const Hop hop{&fed, &config.lookahead_s, &violations, &arrivals};
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::uint64_t r = 1; r <= 50; ++r) {
      const double start =
          static_cast<double>(SplitMix64::mix(seeder.next()) >> 11) *
          0x1.0p-53;
      fed.shard(s).schedule_at(start, [hop, s, r] { hop(s, r); });
    }
  }
  fed.run_all();

  std::size_t total = 0;
  for (std::size_t d = 0; d < 4; ++d) {
    total += arrivals[d];
    EXPECT_EQ(violations[d], 0u) << "destination shard " << d;
  }
  EXPECT_GT(total, 1000u);
}

// ---------------------------------------------------------------------------
// Mailbox ordering
// ---------------------------------------------------------------------------

TEST(FederationProperty, MailboxIsFifoPerPairAtEqualTimestamps) {
  // Two sources interleave sends to one destination, all for the same
  // delivery instant. Per-(src,dst) FIFO must hold, and the barrier drain
  // order (src ascending, then append order) pins the cross-source tie
  // deterministically.
  ShardedSimulator fed(uniform_config(3, 1, 0.5));
  std::vector<int> order;
  const auto mark = [&order](int tag) { return [&order, tag] { order.push_back(tag); }; };
  fed.send(0, 2, 1.0, mark(1));  // src 0, first
  fed.send(1, 2, 1.0, mark(3));  // src 1, first
  fed.send(0, 2, 1.0, mark(2));  // src 0, second
  fed.send(1, 2, 1.0, mark(4));  // src 1, second
  fed.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(FederationProperty, MidRunEqualTimestampsDrainInSourceOrder) {
  // The same tie arranged from inside events: shard 1 and shard 0 both
  // target shard 2 with messages landing at the same instant; the barrier
  // drain delivers source 0's first regardless of which worker ran first.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ShardedSimulator fed(uniform_config(3, threads, 0.5));
    std::vector<int> order;
    fed.shard(1).schedule_at(1.0, [&fed, &order] {
      fed.send(1, 2, 2.0, [&order] { order.push_back(10); });
    });
    fed.shard(0).schedule_at(1.0, [&fed, &order] {
      fed.send(0, 2, 2.0, [&order] { order.push_back(20); });
    });
    fed.run_until(4.0);
    EXPECT_EQ(order, (std::vector<int>{20, 10})) << "threads " << threads;
  }
}

TEST(FederationProperty, SetupSendsAloneStillRun) {
  // A federation whose only work arrives through send() (no local events
  // anywhere) must still execute it — setup-time mailboxes are drained on
  // run entry, not just at window barriers.
  ShardedSimulator fed(uniform_config(2, 1, 0.1));
  bool ran = false;
  fed.send(0, 1, 0.5, [&ran] { ran = true; });
  EXPECT_EQ(fed.run_all(), 1u);
  EXPECT_TRUE(ran);
  EXPECT_EQ(fed.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Protocol violations are rejected loudly
// ---------------------------------------------------------------------------

TEST(FederationProperty, UndersizedSendRejectedAtSetup) {
  ShardedSimulator fed(uniform_config(2, 1, 0.25));
  EXPECT_THROW(fed.send(0, 1, 0.1, [] {}), std::invalid_argument);
  EXPECT_THROW(fed.send(0, 1, 0.24999, [] {}), std::invalid_argument);
  fed.send(0, 1, 0.25, [] {});  // exactly the floor is legal
  // Loopbacks carry no conservative constraint but still reject negatives.
  fed.send(0, 0, 0.0, [] {});
  EXPECT_THROW(fed.send(0, 0, -0.1, [] {}), std::invalid_argument);
}

TEST(FederationProperty, UndersizedSendRejectedFromInsideAnEvent) {
  // The rejection must also fire mid-run, and the exception must surface
  // from run_until on both the serial and the pooled path (worker-thread
  // exceptions are rethrown on the coordinator).
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ShardedSimulator fed(uniform_config(2, threads, 0.25));
    fed.shard(0).schedule_at(1.0, [&fed] { fed.send(0, 1, 0.1, [] {}); });
    EXPECT_THROW(fed.run_until(5.0), std::invalid_argument)
        << "threads " << threads;
  }
}

TEST(FederationProperty, ShardImpersonationRejected) {
  // An event executing on shard 0 may only send as shard 0: sending as
  // shard 1 would corrupt the (src,dst) FIFO and the lookahead proof.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ShardedSimulator fed(uniform_config(2, threads, 0.25));
    fed.shard(0).schedule_at(1.0, [&fed] { fed.send(1, 0, 9.0, [] {}); });
    EXPECT_THROW(fed.run_until(5.0), std::logic_error)
        << "threads " << threads;
  }
}

TEST(FederationProperty, ReentrantRunRejected) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ShardedSimulator fed(uniform_config(2, threads, 0.25));
    fed.shard(0).schedule_at(1.0, [&fed] { fed.run_until(10.0); });
    fed.shard(1).schedule_at(1.0, [] {});  // keep both shards busy
    EXPECT_THROW(fed.run_until(5.0), std::logic_error)
        << "threads " << threads;
  }
}

TEST(FederationProperty, GuardsHoldOnTheShardTheCoordinatorRuns) {
  // The pool's submitting thread runs shard windows too, so an event can
  // execute on the coordinator thread itself. It must hit the same guards
  // as a worker-run event. Worker-run events hold until the coordinator has
  // run one; with 4 shards and 3 workers it is then guaranteed a shard.
  // A first window that busy-waits past the pool threshold sends the t = 1
  // window to the pool (cheap windows run inline on the coordinator).
  const auto coordinator = std::this_thread::get_id();
  ShardedSimulator fed(uniform_config(4, 4, 0.25));
  fed.shard(0).schedule_at(0.5, [] {
    const auto until = std::chrono::steady_clock::now() +
                       2 * ShardedSimulator::kPoolWindowCost;
    while (std::chrono::steady_clock::now() < until) {
    }
  });
  std::atomic<bool> coordinator_ran{false};
  std::string reentry_error;
  std::string impersonation_error;
  for (std::size_t s = 0; s < 4; ++s) {
    fed.shard(s).schedule_at(1.0, [&, s] {
      if (std::this_thread::get_id() != coordinator) {
        while (!coordinator_ran.load()) std::this_thread::yield();
        return;
      }
      if (coordinator_ran.load()) return;
      try {
        fed.run_until(10.0);
      } catch (const std::logic_error& e) {
        reentry_error = e.what();
      }
      try {
        fed.send((s + 1) % 4, s, 9.0, [] {});
      } catch (const std::logic_error& e) {
        impersonation_error = e.what();
      }
      coordinator_ran = true;
    });
  }
  fed.run_until(5.0);
  EXPECT_EQ(fed.windows_pooled(), 1u);
  EXPECT_TRUE(coordinator_ran.load());
  EXPECT_NE(reentry_error.find("re-entered"), std::string::npos) << reentry_error;
  EXPECT_NE(impersonation_error.find("tried to send as shard"), std::string::npos)
      << impersonation_error;
  EXPECT_EQ(fed.messages_sent(), 0u);
}

TEST(FederationProperty, ConfigValidation) {
  // Multi-shard with no lookahead at all: the conservative window width
  // would be zero and no progress is provable.
  EXPECT_THROW(ShardedSimulator(uniform_config(2, 1, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(ShardedSimulator(uniform_config(0, 1, 1.0)),
               std::invalid_argument);

  ShardedConfig bad_size;
  bad_size.shards = 2;
  bad_size.lookahead_s = {1.0, 1.0, 1.0};  // must be 2x2
  EXPECT_THROW(ShardedSimulator{bad_size}, std::invalid_argument);

  ShardedConfig zero_entry;
  zero_entry.shards = 2;
  zero_entry.lookahead_s = {0.0, 1.0, 0.0, 0.0};  // [1][0] == 0
  EXPECT_THROW(ShardedSimulator{zero_entry}, std::invalid_argument);

  ShardedConfig negative_entry;
  negative_entry.shards = 2;
  negative_entry.lookahead_s = {0.0, 1.0, -0.5, 0.0};
  EXPECT_THROW(ShardedSimulator{negative_entry}, std::invalid_argument);

  ShardedConfig infinite_entry;
  infinite_entry.shards = 2;
  infinite_entry.lookahead_s = {0.0, 1.0,
                                std::numeric_limits<double>::infinity(), 0.0};
  EXPECT_THROW(ShardedSimulator{infinite_entry}, std::invalid_argument);

  // Diagonal entries are ignored — garbage there must not reject.
  ShardedConfig garbage_diagonal;
  garbage_diagonal.shards = 2;
  garbage_diagonal.lookahead_s = {-7.0, 0.5, 0.5, -7.0};
  ShardedSimulator ok{garbage_diagonal};
  EXPECT_EQ(ok.min_lookahead_s(), 0.5);
  EXPECT_EQ(ok.lookahead_s(0, 1), 0.5);
  EXPECT_EQ(ok.lookahead_s(0, 0),
            std::numeric_limits<double>::infinity());
}

TEST(FederationProperty, IndexAndArgumentValidation) {
  ShardedSimulator fed(uniform_config(2, 1, 0.25));
  EXPECT_THROW(fed.shard(2), std::invalid_argument);
  EXPECT_THROW(fed.send(2, 0, 1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(fed.send(0, 2, 1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(fed.send(0, 1, 1.0, EventFn{}), std::invalid_argument);
  EXPECT_THROW(fed.run_until(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(fed.lookahead_s(0, 2), std::invalid_argument);
}

}  // namespace
}  // namespace epm::sim
