// Equivalence, determinism, and conservation suites for the vectorized
// client-population epoch engine:
//
//   * ClientSweepStreams     — the block RNG contract: draws rebuilt from a
//     per-client draw count reproduce a SplitMix64 object's stream
//     bit-for-bit, per client;
//   * ClientSweepEquivalence — the sweep engine reproduces the legacy heap
//     engine's batches (order included), ledger, and occupancy exactly
//     under randomized drives (answered with answer_due on the sweep engine
//     and per id on the legacy one), a cohort that lists one client twice
//     serves it fresh then stale, a first batch packed into one sort bucket
//     comes out in the heap engine's order, and the templated storm driver
//     produces identical outcomes on both engines;
//   * ClientSweepContract    — answer_due and on_served_batch check their
//     whole input before any client changes, and a NaN due (which only a
//     non-finite retry config can make) is collected;
//   * ClientSweepDeterminism — the sharded sweep is bit-identical at 1, 2,
//     4 and 8 threads (fixed shard, due-range and chunk partitions);
//   * ClientSweepProperty    — the 12-counter ledger and all four
//     conservation identities hold every epoch on a randomized 100k-client
//     storm driven through the branch-free transitions.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/block_mask.h"
#include "core/rng.h"
#include "faults/retry_storm.h"
#include "workload/client_population.h"
#include "workload/client_population_legacy.h"

namespace epm {
namespace {

workload::ClientPopulationConfig random_sweep_config(Rng& rng,
                                                     std::size_t clients) {
  workload::ClientPopulationConfig config;
  config.clients = clients;
  config.think_time_s = rng.uniform(2.0, 30.0);
  config.request_timeout_s = rng.uniform(1.0, 6.0);
  config.reconnect_spread_s = rng.uniform(1.0, 20.0);
  config.start_spread_s = rng.uniform(0.0, 10.0);
  const workload::RetryBackoff backoffs[] = {
      workload::RetryBackoff::kImmediate, workload::RetryBackoff::kFixed,
      workload::RetryBackoff::kExponential};
  config.retry.backoff = backoffs[rng.uniform_int(0, 2)];
  config.retry.base_delay_s = rng.uniform(0.0, 3.0);
  config.retry.multiplier = rng.uniform(1.0, 3.0);
  config.retry.max_delay_s = rng.uniform(3.0, 30.0);
  config.retry.jitter_frac = rng.uniform(0.0, 0.9);
  config.retry.max_attempts = static_cast<std::size_t>(rng.uniform_int(1, 6));
  config.retry.abandon_cooldown_s =
      rng.uniform(0.0, 1.0) < 0.5 ? rng.uniform(1.0, 20.0) : 0.0;
  config.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  return config;
}

bool ledgers_equal(const workload::ClientLedger& a,
                   const workload::ClientLedger& b) {
  return a.intents == b.intents && a.attempts == b.attempts &&
         a.retries == b.retries && a.served == b.served &&
         a.stale_served == b.stale_served && a.rejected == b.rejected &&
         a.timed_out == b.timed_out && a.dropped == b.dropped &&
         a.abandoned == b.abandoned &&
         a.retry_cancelled == b.retry_cancelled &&
         a.disconnected_intents == b.disconnected_intents &&
         a.disconnects == b.disconnects;
}

// The epoch engine derives per-client streams from the closed-form counter
// seed instead of walking a sequential seeder and per-client SplitMix64
// objects, and keeps only a 32-bit draw count per client. This is the
// regression pin: for every client, draw k = mix(seed_id + k·γ) with
// seed_id = mix(seed + (id + 2)·γ) must reproduce the object stream
// bit-for-bit, far past the few draws a client makes per epoch.
TEST(ClientSweepStreams, BlockDrawsMatchSplitMix64PerClient) {
  for (const std::uint64_t seed : {0ull, 7ull, 42ull, 0xdeadbeefull}) {
    SplitMix64 seeder(seed);
    (void)seeder.next();  // draw 1 seeds the disconnect stream
    for (std::uint64_t id = 0; id < 1000; ++id) {
      SplitMix64 object(seeder.next());
      const std::uint64_t stream_seed =
          SplitMix64::mix(seed + (id + 2) * SplitMix64::kGamma);
      ASSERT_EQ(stream_seed, object.state())
          << "seed " << seed << " client " << id;
      for (std::uint32_t k = 1; k <= 1000; ++k) {
        const std::uint64_t counted = SplitMix64::mix(
            stream_seed + std::uint64_t{k} * SplitMix64::kGamma);
        ASSERT_EQ(counted, object.next())
            << "seed " << seed << " client " << id << " draw " << k;
      }
    }
  }
}

// Lockstep drive: both engines see the identical verdict/serve/disconnect
// script. Batches must match element-for-element (the (due, id) batch order
// is contractual), and the ledger and occupancy must agree after every
// epoch.
void expect_lockstep_with_legacy(const workload::ClientPopulationConfig& config,
                                 std::uint64_t drive_seed,
                                 const std::string& label) {
  workload::ClientPopulation sweep(config);
  workload::LegacyClientPopulation legacy(config);
  Rng drive(drive_seed);
  std::deque<std::uint32_t> queued;
  std::vector<std::uint32_t> cohort;
  std::vector<std::uint8_t> verdicts;
  for (int epoch = 0; epoch < 80; ++epoch) {
    const double t0 = epoch;
    const double t1 = t0 + 1.0;
    if (epoch == 25) {
      const double fraction = drive.uniform(0.0, 1.0);
      sweep.disconnect_fraction(fraction, t0);
      legacy.disconnect_fraction(fraction, t0);
    }
    if (epoch == 50) {
      sweep.disconnect_all(t0);
      legacy.disconnect_all(t0);
    }
    const auto batch = sweep.collect_due(t0, 1.0);  // copy: batch_ reused
    const auto& legacy_batch = legacy.collect_due(t0, 1.0);
    ASSERT_EQ(batch, legacy_batch) << label << " epoch " << epoch;
    // The sweep engine takes the verdicts as one answer; the legacy engine
    // is answered one id at a time.
    verdicts.clear();
    for (const std::uint32_t id : batch) {
      if (drive.uniform(0.0, 1.0) < 0.3) {
        verdicts.push_back(0);
        legacy.on_rejected(id, t0);
      } else {
        verdicts.push_back(1);
        legacy.on_admitted(id, t0);
        queued.push_back(id);
      }
    }
    sweep.answer_due(verdicts, t0);
    const auto serves = static_cast<std::size_t>(
        drive.uniform_int(0, static_cast<std::int64_t>(queued.size())));
    cohort.assign(queued.begin(),
                  queued.begin() + static_cast<std::ptrdiff_t>(serves));
    queued.erase(queued.begin(),
                 queued.begin() + static_cast<std::ptrdiff_t>(serves));
    // The sweep engine takes the cohort as one batch; the legacy engine
    // serves one at a time — the contract says these are equivalent.
    sweep.on_served_batch(cohort.data(), cohort.size(), t1);
    for (const std::uint32_t id : cohort) legacy.on_served(id, t1);
    sweep.expire_timeouts(t1);
    legacy.expire_timeouts(t1);

    ASSERT_TRUE(ledgers_equal(sweep.ledger(), legacy.ledger()))
        << label << " epoch " << epoch;
    ASSERT_EQ(sweep.waiting_count(), legacy.waiting_count()) << label;
    ASSERT_EQ(sweep.backoff_count(), legacy.backoff_count()) << label;
    ASSERT_EQ(sweep.lost_count(), legacy.lost_count()) << label;
    ASSERT_TRUE(sweep.conservation_ok()) << sweep.conservation_report();
    ASSERT_TRUE(legacy.conservation_ok()) << legacy.conservation_report();
  }
}

// Random policies at 2000 clients, then the due partition's edge cases:
// the immediate policy (its retries all fall due at the epoch start, equal
// dues that form already-ordered ranges), fewer clients than shards (empty
// shards) down to one client, and a first batch whose distinct dues all
// land in one due range (a span too small to scale). Last, 64·(16 + r)
// clients for r = 0..15: every shard holds one 16-client block and a tail
// of r, so the masked walks run every tail length. Each at 1 and 4 threads.
TEST(ClientSweepEquivalence, MatchesLegacyEngineUnderRandomDrive) {
  struct Case {
    std::string label;
    workload::ClientPopulationConfig config;
    std::uint64_t drive_seed;
  };
  Rng meta(2024);
  std::vector<Case> cases;
  // Each case's drive seed is drawn right after its config.
  const auto add = [&](std::string label,
                       const workload::ClientPopulationConfig& config) {
    cases.push_back({std::move(label), config, meta.next_u64()});
  };
  for (int round = 0; round < 6; ++round) {
    add("round " + std::to_string(round), random_sweep_config(meta, 2000));
  }
  auto immediate = random_sweep_config(meta, 2000);
  immediate.retry.backoff = workload::RetryBackoff::kImmediate;
  immediate.start_spread_s = 0.0;  // the first batch is all equal dues too
  immediate.retry.max_attempts = 5;
  add("immediate", immediate);
  add("40 clients", random_sweep_config(meta, 40));
  add("1 client", random_sweep_config(meta, 1));
  auto one_range = random_sweep_config(meta, 2000);
  one_range.start_spread_s = 1e-310;  // dues span ~1e-309: 64 / span = inf
  add("one range", one_range);
  for (std::size_t tail = 0; tail < kBlockLanes; ++tail) {
    const std::size_t clients =
        workload::ClientPopulation::kShards * (kBlockLanes + tail);
    add("tail " + std::to_string(tail), random_sweep_config(meta, clients));
  }

  for (const Case& c : cases) {
    for (const std::size_t threads : {1u, 4u}) {
      auto config = c.config;
      config.threads = threads;
      expect_lockstep_with_legacy(
          config, c.drive_seed,
          c.label + " at " + std::to_string(threads) + " threads");
    }
  }
}

// A first batch of 200k dues packed into a span of ~1e-309: too small to
// scale, so every candidate lands in one due range and one sort bucket. The
// insertion pass that orders a bucket then gives up after its shift budget
// and sorts the range outright; without the budget this batch takes seconds.
TEST(ClientSweepEquivalence, SkewedFirstBatchMatchesLegacyEngine) {
  workload::ClientPopulationConfig config;
  config.clients = 200000;
  config.start_spread_s = 1e-310;
  config.seed = 31;
  workload::ClientPopulation sweep(config);
  workload::LegacyClientPopulation legacy(config);
  const auto& batch = sweep.collect_due(0.0, 1.0);
  ASSERT_EQ(batch.size(), config.clients);
  EXPECT_EQ(batch, legacy.collect_due(0.0, 1.0));
}

// The templated storm driver must produce the same scenario outcome on both
// engines — the in-run A/B in bench/exp_kernel_throughput gates on exactly
// this equality at 1M clients; this pins it at test scale for every build.
TEST(ClientSweepEquivalence, StormDriverMatchesLegacyEngineOutcomes) {
  for (const bool defended : {false, true}) {
    auto config = faults::make_reference_retry_storm_config(
        workload::RetryBackoff::kExponential, 120.0, defended);
    config.clients.clients = 4000;
    config.service_capacity_rps = 200.0;
    config.batch_rps = 60.0;
    config.defense.bucket = {180.0, 180.0};
    config.defense.queue_capacity = 360;
    config.naive_queue_capacity = 24000;
    config.horizon_s = 600.0;
    const auto engine = faults::run_retry_storm(config);
    const auto legacy = faults::run_retry_storm_legacy(config);
    EXPECT_TRUE(engine == legacy) << (defended ? "defended" : "naive");
    EXPECT_TRUE(engine.conservation_ok) << engine.conservation_report;
    EXPECT_TRUE(legacy.conservation_ok) << legacy.conservation_report;
  }
}

/// One scripted drive, returning a digest of everything observable: batch
/// order checksum, full ledger, and final occupancy.
struct SweepDigest {
  std::uint64_t batch_checksum = 0;
  std::size_t straddling_cohorts = 0;  ///< cohorts with chunk-split repeats
  workload::ClientLedger ledger;
  std::size_t waiting = 0;
  std::size_t backoff = 0;
  std::size_t lost = 0;
};

/// Drives the population through collect/answer/serve/expire epochs.
/// Every cohort longer than 64 entries also lists some of its clients a
/// second time at its end, so a duplicate's two entries fall in different
/// input chunks of the parallel grouping.
SweepDigest drive_sharded(const workload::ClientPopulationConfig& base,
                          std::size_t threads, std::uint64_t drive_seed) {
  workload::ClientPopulationConfig config = base;
  config.threads = threads;
  workload::ClientPopulation pop(config);
  Rng drive(drive_seed);
  std::deque<std::uint32_t> queued;
  std::vector<std::uint32_t> cohort;
  std::vector<std::uint8_t> verdicts;
  SweepDigest digest;
  for (int epoch = 0; epoch < 60; ++epoch) {
    const double t0 = epoch;
    const double t1 = t0 + 1.0;
    if (epoch == 30) pop.disconnect_all(t0);
    verdicts.clear();
    for (const std::uint32_t id : pop.collect_due(t0, 1.0)) {
      digest.batch_checksum = digest.batch_checksum * 1315423911u + id;
      const bool admitted = drive.uniform(0.0, 1.0) >= 0.3;
      verdicts.push_back(admitted ? 1 : 0);
      if (admitted) queued.push_back(id);
    }
    pop.answer_due(verdicts, t0);
    const auto serves = static_cast<std::size_t>(
        drive.uniform_int(0, static_cast<std::int64_t>(queued.size())));
    cohort.assign(queued.begin(),
                  queued.begin() + static_cast<std::ptrdiff_t>(serves));
    queued.erase(queued.begin(),
                 queued.begin() + static_cast<std::ptrdiff_t>(serves));
    if (cohort.size() > 64) {
      const std::size_t n = cohort.size();
      for (std::size_t k = 0; k < 8; ++k) cohort.push_back(cohort[k * n / 8]);
      ++digest.straddling_cohorts;
    }
    pop.on_served_batch(cohort.data(), cohort.size(), t1);
    pop.expire_timeouts(t1);
  }
  digest.ledger = pop.ledger();
  digest.waiting = pop.waiting_count();
  digest.backoff = pop.backoff_count();
  digest.lost = pop.lost_count();
  return digest;
}

// The fixed 64-shard, 64-range and 64-chunk partitions mean the thread
// count can never leak into results: 1, 2, 4 and 8 workers must agree on
// every bit of the batch stream and ledger, across seeds. The drive answers
// through answer_due, so the answer and serve sweeps run on the pool too,
// and its cohorts repeat clients across input chunks.
TEST(ClientSweepDeterminism, BitIdenticalAcrossThreadCounts) {
  Rng meta(77);
  for (const std::uint64_t seed : {11ull, 222ull, 3333ull}) {
    auto config = random_sweep_config(meta, 5000);
    config.seed = seed;
    const std::uint64_t drive_seed = meta.next_u64();
    const auto one = drive_sharded(config, 1, drive_seed);
    EXPECT_GT(one.straddling_cohorts, 0u) << "seed " << seed;
    const auto two = drive_sharded(config, 2, drive_seed);
    const auto four = drive_sharded(config, 4, drive_seed);
    const auto eight = drive_sharded(config, 8, drive_seed);
    for (const auto* other : {&two, &four, &eight}) {
      EXPECT_EQ(one.batch_checksum, other->batch_checksum) << "seed " << seed;
      EXPECT_TRUE(ledgers_equal(one.ledger, other->ledger)) << "seed " << seed;
      EXPECT_EQ(one.waiting, other->waiting);
      EXPECT_EQ(one.backoff, other->backoff);
      EXPECT_EQ(one.lost, other->lost);
    }
  }
}

workload::ClientPopulationConfig all_due_at_zero(std::size_t clients) {
  workload::ClientPopulationConfig config;
  config.clients = clients;
  config.think_time_s = 10.0;
  config.request_timeout_s = 1.5;
  config.start_spread_s = 0.0;  // everyone due at t = 0
  config.retry.backoff = workload::RetryBackoff::kImmediate;
  config.retry.max_attempts = 4;
  config.seed = 99;
  return config;
}

// A client admitted, timed out and admitted again sits in the service queue
// twice, so one cohort can list it twice. Served in cohort order, the first
// entry completes its open attempt (fresh) and the second finds it thinking
// (stale) — exactly what the legacy engine's per-id serves give, at every
// thread count.
TEST(ClientSweepEquivalence, DuplicateCohortEntryServesFreshThenStale) {
  const std::size_t clients = 1000;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    auto config = all_due_at_zero(clients);
    config.threads = threads;
    workload::ClientPopulation sweep(config);
    workload::LegacyClientPopulation legacy(config);
    std::vector<std::uint32_t> queue;
    for (const double t0 : {0.0, 2.0}) {
      const auto batch = sweep.collect_due(t0, 1.0);
      ASSERT_EQ(batch, legacy.collect_due(t0, 1.0));
      // t = 2 re-offers every client that timed out.
      ASSERT_EQ(batch.size(), clients);
      const std::vector<std::uint8_t> admit_all(batch.size(), 1);
      sweep.answer_due(admit_all, t0);
      legacy.answer_due(admit_all, t0);
      queue.insert(queue.end(), batch.begin(), batch.end());
      sweep.expire_timeouts(t0 + 1.0);
      legacy.expire_timeouts(t0 + 1.0);
      if (t0 == 0.0) {
        // Nobody served in time: every first attempt expires by t = 2.
        sweep.expire_timeouts(2.0);
        legacy.expire_timeouts(2.0);
        ASSERT_EQ(sweep.backoff_count(), clients);
      }
    }
    // Serve the odd clients from both queue entries, the even ones from the
    // second only.
    std::vector<std::uint32_t> cohort;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (i >= clients || queue[i] % 2 == 1) cohort.push_back(queue[i]);
    }
    const auto before = sweep.ledger();
    sweep.on_served_batch(cohort.data(), cohort.size(), 3.0);
    for (const std::uint32_t id : cohort) legacy.on_served(id, 3.0);
    EXPECT_EQ(sweep.ledger().served - before.served, clients) << threads;
    EXPECT_EQ(sweep.ledger().stale_served - before.stale_served, clients / 2)
        << threads;
    EXPECT_TRUE(ledgers_equal(sweep.ledger(), legacy.ledger())) << threads;
    EXPECT_EQ(sweep.waiting_count(), legacy.waiting_count());
    // One think-time draw per fresh serve: the next intents line up.
    for (double t = 3.0; t < 40.0; t += 1.0) {
      const auto batch = sweep.collect_due(t, 1.0);
      ASSERT_EQ(batch, legacy.collect_due(t, 1.0)) << threads << " t " << t;
      const std::vector<std::uint8_t> reject_all(batch.size(), 0);
      sweep.answer_due(reject_all, t);
      legacy.answer_due(reject_all, t);
    }
    EXPECT_TRUE(ledgers_equal(sweep.ledger(), legacy.ledger())) << threads;
    EXPECT_TRUE(sweep.conservation_ok()) << sweep.conservation_report();
  }
}

/// Everything a caller can observe of a population, for before/after checks.
struct Observed {
  workload::ClientLedger ledger;
  std::size_t waiting = 0;
  std::size_t backoff = 0;
  std::size_t lost = 0;
};

Observed observe(const workload::ClientPopulation& pop) {
  return {pop.ledger(), pop.waiting_count(), pop.backoff_count(),
          pop.lost_count()};
}

void expect_same(const Observed& a, const Observed& b) {
  EXPECT_TRUE(ledgers_equal(a.ledger, b.ledger));
  EXPECT_EQ(a.waiting, b.waiting);
  EXPECT_EQ(a.backoff, b.backoff);
  EXPECT_EQ(a.lost, b.lost);
}

// A wrong-length answer, or a second answer to one batch, is a driver bug
// that must be refused before any client moves: the population then behaves
// exactly like a twin that never saw the bad calls.
TEST(ClientSweepContract, AnswerDueRejectsWrongLengthAndSecondAnswer) {
  for (const std::size_t threads : {1u, 2u}) {
    auto config = all_due_at_zero(500);
    config.threads = threads;
    workload::ClientPopulation pop(config);
    workload::ClientPopulation twin(config);
    EXPECT_THROW(pop.answer_due({}, 0.0), std::invalid_argument);  // no batch

    const auto batch = pop.collect_due(0.0, 1.0);
    ASSERT_EQ(batch, twin.collect_due(0.0, 1.0));
    std::vector<std::uint8_t> verdicts(batch.size());
    for (std::size_t i = 0; i < verdicts.size(); ++i) verdicts[i] = i % 3 != 0;

    const Observed collected = observe(pop);
    const std::vector<std::uint8_t> short_answer(batch.size() - 1, 1);
    EXPECT_THROW(pop.answer_due(short_answer, 0.0), std::invalid_argument);
    std::vector<std::uint8_t> long_answer = verdicts;
    long_answer.push_back(1);
    EXPECT_THROW(pop.answer_due(long_answer, 0.0), std::invalid_argument);
    expect_same(observe(pop), collected);

    pop.answer_due(verdicts, 0.0);
    twin.answer_due(verdicts, 0.0);
    const Observed answered = observe(pop);
    EXPECT_EQ(answered.ledger.rejected, (batch.size() + 2) / 3);
    EXPECT_THROW(pop.answer_due(verdicts, 0.0), std::invalid_argument);
    expect_same(observe(pop), answered);

    for (double t = 1.0; t < 20.0; t += 1.0) {
      pop.expire_timeouts(t);
      twin.expire_timeouts(t);
      const auto next = pop.collect_due(t, 1.0);
      ASSERT_EQ(next, twin.collect_due(t, 1.0)) << "t " << t;
      const std::vector<std::uint8_t> reject_all(next.size(), 0);
      pop.answer_due(reject_all, t);
      twin.answer_due(reject_all, t);
    }
    expect_same(observe(pop), observe(twin));
  }
}

// An out-of-range id in the middle of a cohort is refused before the ids
// ahead of it are served.
TEST(ClientSweepContract, ServedBatchChecksEveryIdBeforeServing) {
  for (const std::size_t threads : {1u, 2u}) {
    auto config = all_due_at_zero(300);
    config.threads = threads;
    workload::ClientPopulation pop(config);
    const auto batch = pop.collect_due(0.0, 1.0);
    pop.answer_due(std::vector<std::uint8_t>(batch.size(), 1), 0.0);

    const Observed admitted = observe(pop);
    std::vector<std::uint32_t> cohort(batch.begin(), batch.begin() + 100);
    cohort.insert(cohort.begin() + 50, 300);  // one past the last client
    EXPECT_THROW(pop.on_served_batch(cohort.data(), cohort.size(), 1.0),
                 std::invalid_argument);
    expect_same(observe(pop), admitted);

    cohort.erase(cohort.begin() + 50);
    pop.on_served_batch(cohort.data(), cohort.size(), 1.0);
    EXPECT_EQ(pop.ledger().served, 100u);
    EXPECT_EQ(pop.waiting_count(), admitted.waiting - 100);
  }
}

// The due scan collects every client whose due is not >= the epoch end, so
// a NaN due is collected next epoch, whether the client sits in a shard's
// 16-client block or in its tail. Times must be finite, but a backoff of
// 0 x inf^k still makes a NaN due: base delay 0 and an infinite multiplier
// give the second retry of an exponential backoff one.
TEST(ClientSweepContract, NanDueIsCollectedInBlockAndTail) {
  const std::size_t clients =
      workload::ClientPopulation::kShards * (kBlockLanes + 1);
  // Shard 0 holds clients 0..16: 3 is in its block, 16 is its tail.
  const std::vector<std::uint32_t> rejected = {3, 16};
  const auto answer = [&rejected](workload::ClientPopulation& pop,
                                  const std::vector<std::uint32_t>& batch,
                                  double now_s) {
    std::vector<std::uint8_t> verdicts(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      verdicts[i] = std::count(rejected.begin(), rejected.end(), batch[i])
                        ? 0
                        : 1;
    }
    pop.answer_due(verdicts, now_s);
  };
  for (const std::size_t threads : {1u, 4u}) {
    auto config = all_due_at_zero(clients);
    config.threads = threads;
    config.request_timeout_s = 100.0;  // the admitted stay waiting
    config.retry.backoff = workload::RetryBackoff::kExponential;
    config.retry.base_delay_s = 0.0;
    config.retry.multiplier = std::numeric_limits<double>::infinity();
    workload::ClientPopulation pop(config);
    const auto first = pop.collect_due(0.0, 1.0);
    ASSERT_EQ(first.size(), clients);
    answer(pop, first, 0.0);  // 3 and 16 retry after 0 x inf^0 = 0 s
    const auto second = pop.collect_due(1.0, 1.0);
    ASSERT_EQ(second, rejected) << threads;
    // Now after 0 x inf^1 = NaN s. Answered at t = 10, a finite delay could
    // not fall due before 10, so only a NaN due is collected in [2, 3).
    answer(pop, second, 10.0);
    EXPECT_EQ(pop.collect_due(2.0, 1.0), rejected) << threads;
  }
}

// 100k clients through a randomized storm drive: the 12-counter ledger and
// all four conservation identities (attempt flow, attempt composition,
// failure routing, intent settlement — see ClientPopulation::conservation_ok)
// must hold at every epoch boundary, and the run must end with the books
// balanced under the branch-free table/mask transitions.
TEST(ClientSweepProperty, ConservationHoldsOnRandomized100kStorm) {
  Rng meta(424242);
  auto config = random_sweep_config(meta, 100'000);
  config.threads = 2;  // conservation must also hold on the parallel sweep
  workload::ClientPopulation pop(config);
  Rng drive(meta.next_u64());
  std::deque<std::uint32_t> queued;
  std::vector<std::uint32_t> cohort;
  for (int epoch = 0; epoch < 40; ++epoch) {
    const double t0 = epoch;
    const double t1 = t0 + 1.0;
    if (epoch == 12) pop.disconnect_all(t0);  // outage onset mid-run
    if (epoch == 24) pop.disconnect_fraction(0.25, t0);
    for (const std::uint32_t id : pop.collect_due(t0, 1.0)) {
      if (drive.uniform(0.0, 1.0) < 0.4) {
        pop.on_rejected(id, t0);
      } else {
        pop.on_admitted(id, t0);
        queued.push_back(id);
      }
    }
    const auto serves = static_cast<std::size_t>(
        drive.uniform_int(0, static_cast<std::int64_t>(queued.size())));
    cohort.assign(queued.begin(),
                  queued.begin() + static_cast<std::ptrdiff_t>(serves));
    queued.erase(queued.begin(),
                 queued.begin() + static_cast<std::ptrdiff_t>(serves));
    pop.on_served_batch(cohort.data(), cohort.size(), t1);
    pop.expire_timeouts(t1);
    ASSERT_TRUE(pop.conservation_ok())
        << "epoch " << epoch << ": " << pop.conservation_report();
  }
  const auto& led = pop.ledger();
  EXPECT_EQ(led.attempts, led.intents + led.retries);
  EXPECT_GT(led.attempts, 0u);
}

}  // namespace
}  // namespace epm
