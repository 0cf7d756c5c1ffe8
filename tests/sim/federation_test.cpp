// Differential conformance suite for the sharded federation.
//
// Ground truth is a single sim::Simulator (via SingleKernelFabric): the
// same randomized cross-shard script runs on it and on ShardedSimulator at
// every shard/thread combination, and every firing (timestamp + identity,
// per shard), every pending() probe, and the final clocks must match
// exactly. The script derives every decision from a per-event hash of
// (seed, shard, event id) — never from global execution order — so both
// executions see the very same event tree even though their interleavings
// differ.
//
// Also here: the thread-dispatch suite (windows costlier than
// ShardedSimulator::kPoolWindowCost run on the pool, cheaper ones on the
// coordinator, with identical results), the "degenerate federation" golden
// invariants (figure tables and the retry-storm scenario replayed through a
// 1-shard federation are bit-identical to their direct computations),
// concurrent storms on different shards of one federation, and the
// cross-kernel regression tests for faults::FaultInjector and
// sensing::ActuatorPlane.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "faults/retry_storm.h"
#include "network/interdc_link.h"
#include "repro/figures.h"
#include "sensing/actuator_plane.h"
#include "sim/fabric.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"

namespace epm::sim {
namespace {

// ---------------------------------------------------------------------------
// Randomized cross-shard scripts
// ---------------------------------------------------------------------------

/// Distinct per-pair lookahead floors; the continuous event times the
/// script draws never coincide across shards, so the merged fire order the
/// single kernel produces is unambiguous. `scale` widens every window.
std::vector<double> script_floors(std::size_t shards, double scale = 1.0) {
  std::vector<double> floors(shards * shards, 0.0);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t d = 0; d < shards; ++d) {
      if (s != d) floors[s * shards + d] = scale * (0.011 + 0.003 * (s * shards + d));
    }
  }
  return floors;
}

/// Busy-waits for `d` of wall-clock time: an event this long makes its
/// window cost more than the federation's inline-dispatch threshold.
void spin_for(std::chrono::steady_clock::duration d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Twice the pool threshold: a window holding one such event sends the
/// federation's next window to the pool.
constexpr auto kHeavyEvent = 2 * ShardedSimulator::kPoolWindowCost;

/// Two events, on different shards of one window, that wait for each other:
/// the first to arrive waits up to `bound` for the second. They meet only
/// when two threads run the two shards at once. One thread running both
/// shards in turn never meets (the first gives up before the second
/// starts), and a worker that is slow to wake only makes the first wait
/// longer.
struct Rendezvous {
  std::atomic<int> arrived{0};
  std::atomic<bool> met{false};

  void arrive(std::chrono::steady_clock::duration bound) {
    if (arrived.fetch_add(1) > 0) return;  // the second: the first waits
    const auto until = std::chrono::steady_clock::now() + bound;
    while (arrived.load() < 2) {
      if (std::chrono::steady_clock::now() >= until) return;
      std::this_thread::yield();
    }
    met.store(true);
  }
};

/// The shape of a randomized script; the defaults are the conformance
/// script's.
struct ScriptShape {
  std::uint64_t roots_per_shard = 800;
  /// Scales every lookahead floor (see script_floors).
  double floor_scale = 1.0;
  /// Wall-clock busy-wait per event (zero: none).
  std::chrono::steady_clock::duration spin{};
};

/// A self-expanding event forest over a Fabric. Event (shard, id) logs its
/// firing, then spawns 0-2 local children and possibly one cross-shard
/// message, all decided by SplitMix64(hash(seed, shard, id)) — identical on
/// every fabric because nothing depends on execution order. Ids grow by 8x
/// per generation (children id*8+k) and spawning stops past kMaxSpawnId,
/// which bounds every tree without any order-dependent state.
struct ScriptWorld {
  static constexpr std::uint64_t kMaxSpawnId = 500000;

  Fabric& fab;
  std::uint64_t seed;
  std::size_t shards;
  ScriptShape shape;
  std::vector<double> floors;
  /// Per-shard logs: only the shard's own kernel appends to its log, so
  /// multi-threaded federation runs are race-free, and the per-kernel order
  /// is exactly the kernel's execution order.
  std::vector<std::vector<std::pair<double, std::uint64_t>>> logs;
  /// Per-shard ids of the threads that ran each firing (same ownership).
  std::vector<std::vector<std::thread::id>> ran_on;

  ScriptWorld(Fabric& fabric, std::uint64_t s, ScriptShape script_shape = {})
      : fab(fabric),
        seed(s),
        shards(fabric.shard_count()),
        shape(script_shape),
        floors(script_floors(shards, shape.floor_scale)),
        logs(shards),
        ran_on(shards) {}

  static double uniform(SplitMix64& rng) {
    return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  }

  void seed_roots() {
    for (std::size_t s = 0; s < shards; ++s) {
      for (std::uint64_t r = 0; r < shape.roots_per_shard; ++r) {
        SplitMix64 rng(seed ^ 0x5eedULL ^ (s * SplitMix64::kGamma) ^
                       (r * 0x94d049bb133111ebULL));
        const double start = uniform(rng);
        const std::uint64_t id = r + 1;
        fab.kernel(s).schedule_at(start, [this, s, id] { fire(s, id); });
      }
    }
  }

  void fire(std::size_t shard, std::uint64_t id) {
    const double now = fab.kernel(shard).now();
    logs[shard].emplace_back(now, id);
    ran_on[shard].push_back(std::this_thread::get_id());
    spin_for(shape.spin);
    if (id > kMaxSpawnId) return;
    SplitMix64 rng(seed ^ (0xbf58476d1ce4e5b9ULL * (shard + 1)) ^
                   (id * 0x94d049bb133111ebULL));
    const std::uint64_t locals = rng.next() % 3;
    for (std::uint64_t k = 0; k < locals; ++k) {
      const std::uint64_t child = id * 8 + 1 + k;
      const double delay = 1e-7 + uniform(rng) * 2.0;
      fab.kernel(shard).schedule_at(
          now + delay, [this, shard, child] { fire(shard, child); });
    }
    if (rng.next() % 100 < 60) {
      // Cross-shard message (a loopback when shards == 1). The delay sits
      // just above the pair's floor, exercising deliveries barely past the
      // conservative horizon.
      const std::size_t dst =
          shards == 1 ? shard
                      : (shard + 1 + rng.next() % (shards - 1)) % shards;
      const double delay =
          floors[shard * shards + dst] + 1e-7 + uniform(rng) * 1.5;
      const std::uint64_t child = id * 8 + 7;
      fab.send(shard, dst, delay, [this, dst, child] { fire(dst, child); });
    }
  }
};

struct ScriptResult {
  std::vector<std::vector<std::pair<double, std::uint64_t>>> logs;
  std::vector<std::pair<std::size_t, double>> probes;  ///< (pending, now)
  std::vector<double> final_clocks;
  std::size_t fires = 0;
  std::set<std::thread::id> threads_seen;
};

ScriptResult run_script(Fabric& fab, std::uint64_t seed, ScriptShape shape = {}) {
  ScriptWorld world(fab, seed, shape);
  world.seed_roots();
  ScriptResult result;
  // A ladder of partial runs exercises run_until's inclusive final-stretch
  // window and the exactness of pending() at every barrier.
  for (const double t : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 1e6}) {
    fab.run_until(t);
    result.probes.emplace_back(fab.pending(), fab.kernel(0).now());
  }
  result.logs = std::move(world.logs);
  for (std::size_t s = 0; s < fab.shard_count(); ++s) {
    result.final_clocks.push_back(fab.kernel(s).now());
    result.fires += result.logs[s].size();
    result.threads_seen.insert(world.ran_on[s].begin(), world.ran_on[s].end());
  }
  return result;
}

/// Asserts a federation run fired exactly what the single kernel fired,
/// reporting the first fire that differs.
void expect_same_run(const ScriptResult& got, const ScriptResult& truth,
                     const std::string& label) {
  ASSERT_EQ(got.logs.size(), truth.logs.size()) << label;
  for (std::size_t s = 0; s < truth.logs.size(); ++s) {
    ASSERT_EQ(got.logs[s].size(), truth.logs[s].size()) << label << " shard " << s;
    for (std::size_t i = 0; i < got.logs[s].size(); ++i) {
      ASSERT_EQ(got.logs[s][i].first, truth.logs[s][i].first)
          << label << " shard " << s << " fire " << i;
      ASSERT_EQ(got.logs[s][i].second, truth.logs[s][i].second)
          << label << " shard " << s << " fire " << i;
    }
  }
  EXPECT_EQ(got.probes, truth.probes) << label;
  EXPECT_EQ(got.final_clocks, truth.final_clocks) << label;
}

TEST(FederationDifferential, ShardedMatchesSingleKernelOnRandomScripts) {
  for (const std::uint64_t seed : {11ULL, 2026ULL, 777216ULL}) {
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SingleKernelFabric single(shards);
      const ScriptResult truth = run_script(single, seed);
      ASSERT_GE(truth.fires, 10000u)
          << "script too small to be meaningful; seed " << seed << " shards "
          << shards;

      for (const std::size_t threads :
           {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        ShardedConfig config;
        config.shards = shards;
        config.threads = threads;
        if (shards > 1) config.lookahead_s = script_floors(shards);
        ShardedSimulator fed(config);
        ShardedFabric fabric(fed);
        const ScriptResult got = run_script(fabric, seed);

        const std::string label = "seed " + std::to_string(seed) + " shards " +
                                  std::to_string(shards) + " threads " +
                                  std::to_string(threads);
        expect_same_run(got, truth, label);
        EXPECT_EQ(got.probes.back().first, 0u) << label;
      }
    }
  }
}

TEST(FederationDifferential, RunAllDrainsEverythingIdentically) {
  const std::uint64_t seed = 4242;
  SingleKernelFabric single(2);
  ScriptWorld truth(single, seed);
  truth.seed_roots();
  single.sim().run_all();

  ShardedConfig config;
  config.shards = 2;
  config.threads = 2;
  config.lookahead_s = script_floors(2);
  ShardedSimulator fed(config);
  ShardedFabric fabric(fed);
  ScriptWorld got(fabric, seed);
  got.seed_roots();
  fed.run_all();

  EXPECT_EQ(got.logs, truth.logs);
  EXPECT_EQ(fed.pending(), 0u);
  EXPECT_GT(fed.messages_sent(), 0u);
  EXPECT_GT(fed.windows_run(), 0u);
}

// ---------------------------------------------------------------------------
// Thread dispatch: costly windows on the pool, cheap ones on the coordinator
// ---------------------------------------------------------------------------

TEST(FederationDispatch, HeavyWindowsRunOnThePoolAndMatchTheSingleKernel) {
  // Every event busy-waits past twice the pool threshold, so every window
  // after the first (which always runs inline: there is no cost estimate
  // yet) goes to the pool, whatever the host's speed. Floors 20x the
  // conformance script's widen the windows until most hold events on
  // several shards, which the pool's workers then share.
  const std::uint64_t seed = 31337;
  const std::size_t shards = 4;
  ScriptShape shape;
  shape.roots_per_shard = 2;
  shape.floor_scale = 20.0;
  SingleKernelFabric single(shards);
  const ScriptResult truth = run_script(single, seed, shape);
  ASSERT_GE(truth.fires, 100u) << "script too small to be meaningful";
  shape.spin = kHeavyEvent;

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ShardedConfig config;
    config.shards = shards;
    config.threads = threads;
    config.lookahead_s = script_floors(shards, shape.floor_scale);
    ShardedSimulator fed(config);
    ShardedFabric fabric(fed);
    const ScriptResult got = run_script(fabric, seed, shape);
    const std::string label = "threads " + std::to_string(threads);
    expect_same_run(got, truth, label);
    ASSERT_GT(fed.windows_run(), 1u) << label;
    EXPECT_EQ(fed.windows_pooled(), threads == 1 ? 0 : fed.windows_run() - 1)
        << label;
    if (threads == 1) {
      EXPECT_EQ(got.threads_seen.size(), 1u) << label;
      continue;
    }
    // The pool hands shards to more than one thread: after one heavy window,
    // the next (pooled) window holds a rendezvous between shards 0 and 1.
    const double t = fed.now() + 1.0;
    fed.shard(2).schedule_at(t, [] { spin_for(kHeavyEvent); });
    Rendezvous rendezvous;
    for (const std::size_t s : {std::size_t{0}, std::size_t{1}}) {
      fed.shard(s).schedule_at(t + 10.0, [&rendezvous] {
        rendezvous.arrive(std::chrono::seconds(10));
      });
    }
    fed.run_until(t + 20.0);
    EXPECT_EQ(rendezvous.arrived.load(), 2) << label;
    EXPECT_TRUE(rendezvous.met.load()) << label;
  }
}

TEST(FederationDispatch, AlternatingHeavyAndLightWindowsBuildThePoolMidRun) {
  // One light window, then heavy windows (every shard busy-waits) that
  // alternate with 1-event windows, each of which forwards a message to the
  // next shard. The first window runs inline and builds no pool; every
  // window after a heavy one goes to the pool, and light ones drift back to
  // the coordinator as the cost estimate halves. The fire order must not
  // notice any of it.
  constexpr std::size_t kShards = 4;
  constexpr int kRounds = 12;
  using Log = std::vector<std::vector<std::pair<double, int>>>;
  struct Run {
    Log logs;
    std::uint64_t windows = 0;
    std::uint64_t pooled = 0;
    std::uint64_t pooled_after_first_run = 0;
  };
  const auto run = [&](std::size_t threads) {
    ShardedConfig config;
    config.shards = kShards;
    config.threads = threads;
    config.uniform_lookahead_s = 0.25;
    ShardedSimulator fed(config);
    Run out;
    out.logs.resize(kShards);
    const auto log = [&fed, &out](std::size_t s, int what) {
      out.logs[s].emplace_back(fed.shard(s).now(), what);
    };
    fed.shard(0).schedule_at(1.0, [log] { log(0, -1); });
    for (int k = 0; k < kRounds; ++k) {
      const double heavy_s = 10.0 + 2.0 * k;
      for (std::size_t s = 0; s < kShards; ++s) {
        fed.shard(s).schedule_at(heavy_s, [log, s, k] {
          spin_for(kHeavyEvent);
          log(s, 100 + k);
        });
      }
      const std::size_t light = static_cast<std::size_t>(k) % kShards;
      const std::size_t next = (light + 1) % kShards;
      fed.shard(light).schedule_at(heavy_s + 1.0, [&fed, log, light, next, k] {
        log(light, 200 + k);
        fed.send(light, next, 0.5, [log, next, k] { log(next, 300 + k); });
      });
    }
    fed.run_until(5.0);
    out.pooled_after_first_run = fed.windows_pooled();
    fed.run_all();
    out.windows = fed.windows_run();
    out.pooled = fed.windows_pooled();
    return out;
  };

  const Run serial = run(1);
  ASSERT_EQ(serial.logs[0].front(), (std::pair<double, int>{1.0, -1}));
  EXPECT_EQ(serial.windows, 1u + 3u * kRounds);
  EXPECT_EQ(serial.pooled, 0u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const Run got = run(threads);
    EXPECT_EQ(got.logs, serial.logs) << "threads " << threads;
    EXPECT_EQ(got.windows, serial.windows) << "threads " << threads;
    EXPECT_EQ(got.pooled_after_first_run, 0u) << "threads " << threads;
    // Each heavy window sends the one after it to the pool; the first
    // window always runs inline.
    EXPECT_GE(got.pooled, static_cast<std::uint64_t>(kRounds))
        << "threads " << threads;
    EXPECT_LT(got.pooled, got.windows) << "threads " << threads;
  }
}

/// A 2-shard federation on 2 threads whose t = 2 window runs on the pool
/// (a heavy t = 1 window precedes it), where shard 0 makes `bad` at t = 2.
template <typename Error>
void expect_rejected_in_pooled_window(void (*bad)(ShardedSimulator&),
                                      const char* what) {
  ShardedConfig config;
  config.shards = 2;
  config.threads = 2;
  config.uniform_lookahead_s = 0.25;
  ShardedSimulator fed(config);
  fed.shard(0).schedule_at(1.0, [] { spin_for(kHeavyEvent); });
  fed.shard(0).schedule_at(2.0, [&fed, bad] { bad(fed); });
  fed.shard(1).schedule_at(2.0, [] {});  // keep both shards busy
  EXPECT_THROW(fed.run_until(5.0), Error) << what;
  EXPECT_EQ(fed.windows_pooled(), 1u) << what;
}

TEST(FederationDispatch, GuardsHoldInsideAPooledWindow) {
  expect_rejected_in_pooled_window<std::logic_error>(
      [](ShardedSimulator& fed) { fed.send(1, 0, 9.0, [] {}); },
      "impersonation");
  expect_rejected_in_pooled_window<std::invalid_argument>(
      [](ShardedSimulator& fed) { fed.send(0, 1, 0.1, [] {}); },
      "undersized send");
  expect_rejected_in_pooled_window<std::logic_error>(
      [](ShardedSimulator& fed) { fed.run_until(10.0); }, "re-entrant run");
}

// ---------------------------------------------------------------------------
// Degenerate federation: 1 shard replays direct computations bit-for-bit
// ---------------------------------------------------------------------------

TEST(FederationGolden, DegenerateFederationReplaysFigureTables) {
  // Each golden-gated figure table, recomputed inside an event on a 1-shard
  // federation, must match the direct computation bit-for-bit: running
  // under the federation must not perturb any numerics. (The direct tables
  // are themselves diffed against the checked-in CSVs by the FiguresGolden
  // suite, so this chains the federation to the goldens.)
  const auto direct = repro::all_figure_tables();
  std::vector<repro::FigureTable> federated;
  ShardedSimulator fed(ShardedConfig{});
  fed.shard(0).schedule_at(
      1.0, [&federated] { federated = repro::all_figure_tables(); });
  fed.run_all();
  ASSERT_EQ(federated.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(federated[i].name, direct[i].name);
    EXPECT_EQ(federated[i].columns, direct[i].columns) << direct[i].name;
    EXPECT_EQ(federated[i].rows, direct[i].rows) << direct[i].name;
  }
}

faults::RetryStormConfig small_storm(workload::RetryBackoff backoff,
                                     bool defended, std::uint64_t seed) {
  faults::RetryStormConfig config =
      faults::make_reference_retry_storm_config(backoff, 120.0, defended);
  config.clients.clients = 4000;
  config.clients.seed = seed;
  config.service_capacity_rps = 200.0;
  config.batch_rps = 60.0;
  config.naive_queue_capacity = 24000;
  config.defense.bucket = {180.0, 180.0};
  config.defense.queue_capacity = 360;
  config.outage_start_s = 120.0;
  config.horizon_s = 600.0;
  config.sla_goodput_fraction = 0.8;
  return config;
}


TEST(FederationGolden, DegenerateFederationReplaysRetryStorm) {
  // The retry-storm scenario, replayed through a 1-shard federation: the
  // driver-event chain must reproduce the serial epoch loop exactly (the
  // kernel's same-timestamp FIFO fires each epoch's completion cohort
  // before the next driver event).
  for (const bool defended : {true, false}) {
    const auto config =
        small_storm(workload::RetryBackoff::kExponential, defended, 7);
    const auto serial = faults::run_retry_storm(config);
    ShardedSimulator fed(ShardedConfig{});
    faults::FederatedRetryStorm storm(config, fed, 0);
    fed.run_until(storm.end_s());
    EXPECT_TRUE(storm.finish() == serial);
  }
}

TEST(FederationGolden, ConcurrentStormsOnSeparateShardsDoNotInterfere) {
  // Two different scenarios armed on two shards of one federation, run
  // together, must each match their own serial outcome — the federation
  // isolation property the kernel_federation bench relies on.
  const auto config_a =
      small_storm(workload::RetryBackoff::kExponential, true, 11);
  const auto config_b =
      small_storm(workload::RetryBackoff::kImmediate, false, 13);
  const auto serial_a = faults::run_retry_storm(config_a);
  const auto serial_b = faults::run_retry_storm(config_b);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ShardedConfig fed_config;
    fed_config.shards = 2;
    fed_config.threads = threads;
    fed_config.uniform_lookahead_s = 0.020;
    ShardedSimulator fed(fed_config);
    faults::FederatedRetryStorm storm_a(config_a, fed, 0);
    faults::FederatedRetryStorm storm_b(config_b, fed, 1);
    fed.run_until(std::max(storm_a.end_s(), storm_b.end_s()));
    EXPECT_TRUE(storm_a.finish() == serial_a);
    EXPECT_TRUE(storm_b.finish() == serial_b);
  }
}

TEST(FederationGolden, FinishTwiceThrows) {
  const auto config =
      small_storm(workload::RetryBackoff::kExponential, true, 11);
  ShardedSimulator fed(ShardedConfig{});
  faults::FederatedRetryStorm storm(config, fed, 0);
  fed.run_until(storm.end_s());
  (void)storm.finish();
  EXPECT_THROW((void)storm.finish(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Cross-kernel regressions: FaultInjector and ActuatorPlane under federation
// ---------------------------------------------------------------------------

TEST(FederationInjector, PlansArmedOnTwoShardsDeliverOnTheirOwnClocks) {
  // The latent single-kernel assumption this PR removed: FaultInjector used
  // to capture one Simulator&. Through the ScheduleHook, two injectors
  // armed on two shards of one federation each observe their own kernel's
  // clock.
  ShardedConfig config;
  config.shards = 2;
  config.threads = 2;
  config.uniform_lookahead_s = 0.5;
  ShardedSimulator fed(config);

  const auto hook_for = [&fed](std::size_t shard) {
    return faults::FaultInjector::ScheduleHook(
        [&fed, shard](double when_s, std::function<void(double)> edge) {
          fed.shard(shard).schedule_at(
              when_s, [&fed, shard, edge = std::move(edge)] {
                edge(fed.shard(shard).now());
              });
        });
  };

  faults::FaultInjector injector_a(
      hook_for(0), faults::FaultPlan::parse("outage@100+50;crac:0@120+100"));
  faults::FaultInjector injector_b(
      hook_for(1), faults::FaultPlan::parse("crash:3@10+5;surge:1@90+30x2.0"));

  std::vector<double> edges_a, edges_b;
  injector_a.subscribe([&](const faults::FaultEvent&, bool, double now_s) {
    edges_a.push_back(now_s);
    return true;
  });
  injector_b.subscribe([&](const faults::FaultEvent&, bool, double now_s) {
    edges_b.push_back(now_s);
    return true;
  });
  injector_a.arm();
  injector_b.arm();
  fed.run_until(300.0);

  EXPECT_TRUE(injector_a.conserved());
  EXPECT_TRUE(injector_b.conserved());
  EXPECT_EQ(edges_a, (std::vector<double>{100.0, 120.0, 150.0, 220.0}));
  EXPECT_EQ(edges_b, (std::vector<double>{10.0, 15.0, 90.0, 120.0}));
}

TEST(FederationInjector, SimulatorConstructorStillDelegates) {
  // The legacy single-kernel constructor must behave exactly as before the
  // hook refactor.
  Simulator sim;
  faults::FaultInjector injector(sim, faults::FaultPlan::parse("outage@5+2"));
  std::vector<std::pair<bool, double>> edges;
  injector.subscribe([&](const faults::FaultEvent&, bool onset, double now) {
    edges.push_back({onset, now});
    return true;
  });
  injector.arm();
  sim.run_all();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (std::pair<bool, double>{true, 5.0}));
  EXPECT_EQ(edges[1], (std::pair<bool, double>{false, 7.0}));
  EXPECT_TRUE(injector.conserved());
}

TEST(FederationInjector, NullHookRejected) {
  EXPECT_THROW(faults::FaultInjector(faults::FaultInjector::ScheduleHook{},
                                     faults::FaultPlan::parse("outage@5+2")),
               std::invalid_argument);
}

TEST(FederationActuator, IndependentPlanesOnTwoShardClocksMatchSerialRuns) {
  // ActuatorPlane is already per-instance and clock-passed (the PR 7 audit
  // found no captured kernel); this pins that: two planes driven from two
  // shard clocks reproduce standalone drives exactly.
  const auto drive = [](sensing::ActuatorPlane& plane, double base_s) {
    sensing::ActuatorCommand command;
    command.kind = sensing::CommandKind::kPstate;
    command.target = 2;
    command.value = 1.0;
    plane.issue(command, base_s);
    plane.tick(base_s + 30.0);
    command.value = 2.0;
    plane.issue(command, base_s + 60.0);
    plane.tick(base_s + 90.0);
  };

  sensing::ActuatorPlaneConfig plane_config;
  plane_config.max_attempts = 3;

  sensing::ActuatorPlane serial_a(plane_config);
  serial_a.set_applier([](const sensing::ActuatorCommand&) { return true; });
  drive(serial_a, 10.0);
  sensing::ActuatorPlane serial_b(plane_config);
  serial_b.set_applier([](const sensing::ActuatorCommand&) { return true; });
  drive(serial_b, 17.0);

  ShardedConfig config;
  config.shards = 2;
  config.threads = 2;
  config.uniform_lookahead_s = 1.0;
  ShardedSimulator fed(config);
  sensing::ActuatorPlane fed_a(plane_config);
  fed_a.set_applier([](const sensing::ActuatorCommand&) { return true; });
  sensing::ActuatorPlane fed_b(plane_config);
  fed_b.set_applier([](const sensing::ActuatorCommand&) { return true; });
  fed.shard(0).schedule_at(
      10.0, [&fed_a, &fed, &drive] { drive(fed_a, fed.shard(0).now()); });
  fed.shard(1).schedule_at(
      17.0, [&fed_b, &fed, &drive] { drive(fed_b, fed.shard(1).now()); });
  fed.run_until(200.0);

  EXPECT_EQ(fed_a.issued(), serial_a.issued());
  EXPECT_EQ(fed_a.acked(), serial_a.acked());
  EXPECT_EQ(fed_a.failed(), serial_a.failed());
  EXPECT_EQ(fed_a.retries(), serial_a.retries());
  EXPECT_EQ(fed_b.issued(), serial_b.issued());
  EXPECT_EQ(fed_b.acked(), serial_b.acked());
  EXPECT_EQ(fed_b.failed(), serial_b.failed());
  EXPECT_EQ(fed_b.retries(), serial_b.retries());
}

// ---------------------------------------------------------------------------
// Kernel primitives added for the federation: run_before / next_time
// ---------------------------------------------------------------------------

template <typename Sim>
void run_before_is_half_open() {
  Sim sim;
  std::vector<int> fired;
  sim.schedule_at(1.0, [&fired] { fired.push_back(1); });
  sim.schedule_at(2.0, [&fired] { fired.push_back(2); });
  sim.schedule_at(2.0, [&fired] { fired.push_back(3); });
  sim.schedule_at(3.0, [&fired] { fired.push_back(4); });

  EXPECT_EQ(sim.next_time(), 1.0);
  EXPECT_EQ(sim.run_before(2.0), 1u);  // strictly before: only t = 1
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), 1.0);  // run_before leaves now() at the last event
  EXPECT_EQ(sim.next_time(), 2.0);

  EXPECT_EQ(sim.run_before(2.5), 2u);  // both t = 2 events, FIFO order
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.next_time(), 3.0);

  EXPECT_EQ(sim.run_before(3.0), 0u);  // t = 3 is excluded
  sim.run_until(3.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.next_time(), std::numeric_limits<double>::infinity());
}

TEST(ShardedSimKernel, RunBeforeIsHalfOpenOnCalendar) {
  run_before_is_half_open<CalendarSimulator>();
}

TEST(ShardedSimKernel, RunBeforeIsHalfOpenOnHeap) {
  run_before_is_half_open<HeapSimulator>();
}

template <typename Sim>
void next_time_skips_cancelled_events() {
  Sim sim;
  bool fired = false;
  const auto dead = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [&fired] { fired = true; });
  sim.cancel(dead);
  EXPECT_EQ(sim.next_time(), 2.0);
  EXPECT_EQ(sim.run_before(5.0), 1u);
  EXPECT_TRUE(fired);
}

TEST(ShardedSimKernel, NextTimeSkipsCancelledOnCalendar) {
  next_time_skips_cancelled_events<CalendarSimulator>();
}

TEST(ShardedSimKernel, NextTimeSkipsCancelledOnHeap) {
  next_time_skips_cancelled_events<HeapSimulator>();
}

// ---------------------------------------------------------------------------
// Degraded links through the federation mailboxes
// ---------------------------------------------------------------------------

/// One tagged delivery as the hook observed it.
struct TaggedLog {
  std::size_t dst;
  double when_s;
  std::uint64_t tag;
  std::vector<std::uint64_t> payload;

  bool operator==(const TaggedLog& o) const {
    return dst == o.dst && when_s == o.when_s && tag == o.tag &&
           payload == o.payload;
  }
};

ShardedConfig plan_config(std::size_t shards, std::size_t threads) {
  ShardedConfig config;
  config.shards = shards;
  config.threads = threads;
  config.uniform_lookahead_s = 0.05;
  return config;
}

/// Runs a fixed tagged-message script (each shard sends to its successor
/// throughout the degradation windows) and returns everything observable.
struct PlanRunResult {
  std::vector<TaggedLog> logs;
  std::uint64_t sent = 0;
  std::uint64_t redelivered = 0;
  double now_s = 0.0;
};

PlanRunResult run_link_plan_script(const network::InterDcLinkPlan& plan,
                                   std::size_t threads) {
  const std::size_t shards = plan.site_count();
  ShardedSimulator fed(plan_config(shards, threads));
  PlanRunResult result;
  // The hook runs serially at barriers, so one shared log is race-free.
  fed.set_tagged_delivery([&result](std::size_t dst, double when_s,
                                    std::uint64_t tag,
                                    const std::vector<std::uint64_t>& p) {
    result.logs.push_back({dst, when_s, tag, p});
  });
  fed.set_link_plan(&plan);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::uint64_t k = 0; k < 40; ++k) {
      const double t = 0.05 + 0.1 * static_cast<double>(k);
      fed.shard(s).schedule_at(t, [&fed, s, k, shards] {
        fed.send_tagged(s, (s + 1) % shards, 0.06, 1,
                        {static_cast<std::uint64_t>(s), k});
      });
    }
  }
  fed.run_all();
  result.sent = fed.messages_sent();
  result.redelivered = fed.messages_redelivered();
  result.now_s = fed.now();
  return result;
}

TEST(FederationLinkPlan, DegradedRunsAreConformantAcrossThreadCounts) {
  network::InterDcLinkPlan plan(3);
  plan.slow(0, 1, 0.5, 3.0, 3.0);
  plan.lose(1, 2, 1.0, 4.0, 0.7);
  plan.partition(2, 0, 2.0, 5.0);  // closed: redelivery, no parking
  const PlanRunResult serial = run_link_plan_script(plan, 1);
  EXPECT_EQ(120U, serial.sent);
  EXPECT_EQ(120U, serial.logs.size());  // degraded, never dropped
  EXPECT_GT(serial.redelivered, 0U);
  for (const std::size_t threads : {2U, 8U}) {
    const PlanRunResult threaded = run_link_plan_script(plan, threads);
    EXPECT_EQ(serial.logs, threaded.logs) << "threads=" << threads;
    EXPECT_EQ(serial.sent, threaded.sent);
    EXPECT_EQ(serial.redelivered, threaded.redelivered);
    EXPECT_EQ(serial.now_s, threaded.now_s);
  }
}

TEST(FederationLinkPlan, AttachedPlanKeepsEachPairAnOrderedConnection) {
  // With a plan attached the (src, dst) channel is one ordered connection:
  // a later send never undercuts an earlier send's (possibly redelivered)
  // delivery time, so per-pair FIFO holds even through lossy windows.
  network::InterDcLinkPlan plan(2);
  plan.lose(0, 1, 0.0, 6.0, 0.9);
  const PlanRunResult run = run_link_plan_script(plan, 1);
  double last_01 = 0.0;
  std::uint64_t next_k = 0;
  for (const TaggedLog& log : run.logs) {
    if (log.dst != 1 || log.payload[0] != 0) continue;
    EXPECT_GE(log.when_s, last_01);
    last_01 = log.when_s;
    EXPECT_EQ(next_k, log.payload[1]);  // strictly in send order
    ++next_k;
  }
  EXPECT_EQ(40U, next_k);
}

TEST(FederationLinkPlan, OpenPartitionParksThenHealsInFifoOrder) {
  network::InterDcLinkPlan plan(2);
  plan.partition(0, 1, 1.0);
  ShardedSimulator fed(plan_config(2, 1));
  std::vector<TaggedLog> logs;
  fed.set_tagged_delivery([&logs](std::size_t dst, double when_s,
                                  std::uint64_t tag,
                                  const std::vector<std::uint64_t>& p) {
    logs.push_back({dst, when_s, tag, p});
  });
  fed.set_link_plan(&plan);
  for (std::uint64_t k = 0; k < 5; ++k) {
    const double t = 1.1 + 0.1 * static_cast<double>(k);
    fed.shard(0).schedule_at(
        t, [&fed, k] { fed.send_tagged(0, 1, 0.06, 7, {k}); });
  }
  fed.run_until(3.0);
  EXPECT_EQ(5U, fed.messages_parked());
  EXPECT_EQ(0U, fed.pending());  // parked messages are not pending events
  EXPECT_TRUE(logs.empty());

  plan.heal(0, 1, 5.0);  // at/beyond the committed horizon
  fed.run_until(10.0);
  EXPECT_EQ(0U, fed.messages_parked());
  EXPECT_GE(fed.messages_redelivered(), 5U);
  ASSERT_EQ(5U, logs.size());
  double last = 0.0;
  for (std::uint64_t k = 0; k < 5; ++k) {
    EXPECT_EQ(k, logs[k].payload[0]);  // FIFO drain in send order
    EXPECT_GE(logs[k].when_s, 5.0);    // nothing lands before the heal
    EXPECT_GE(logs[k].when_s, last);
    last = logs[k].when_s;
  }
}

TEST(FederationLinkPlan, ParkedCapacityOverflowThrows) {
  network::LinkPolicy policy;
  policy.parked_capacity = 2;
  network::InterDcLinkPlan plan(2, policy);
  plan.partition(0, 1, 0.5);
  ShardedSimulator fed(plan_config(2, 1));
  fed.set_tagged_delivery([](std::size_t, double, std::uint64_t,
                             const std::vector<std::uint64_t>&) {});
  fed.set_link_plan(&plan);
  for (std::uint64_t k = 0; k < 3; ++k) {
    fed.shard(0).schedule_at(
        1.0 + 0.1 * static_cast<double>(k),
        [&fed, k] { fed.send_tagged(0, 1, 0.06, 7, {k}); });
  }
  EXPECT_THROW(fed.run_until(3.0), std::runtime_error);
}

TEST(FederationLinkPlan, SetLinkPlanRequirements) {
  ShardedSimulator fed(plan_config(2, 1));
  fed.set_tagged_delivery([](std::size_t, double, std::uint64_t,
                             const std::vector<std::uint64_t>&) {});
  network::InterDcLinkPlan wrong_size(3);
  EXPECT_THROW(fed.set_link_plan(&wrong_size), std::invalid_argument);

  // Swapping or detaching the plan while messages are parked would strand
  // them: rejected.
  network::InterDcLinkPlan plan(2);
  plan.partition(0, 1, 0.5);
  fed.set_link_plan(&plan);
  fed.shard(0).schedule_at(1.0,
                           [&fed] { fed.send_tagged(0, 1, 0.06, 7, {1}); });
  fed.run_until(2.0);
  ASSERT_EQ(1U, fed.messages_parked());
  EXPECT_THROW(fed.set_link_plan(nullptr), std::invalid_argument);
  network::InterDcLinkPlan other(2);
  EXPECT_THROW(fed.set_link_plan(&other), std::invalid_argument);
}

TEST(FederationLinkPlan, HealInsideExecutedHorizonIsRejected) {
  network::InterDcLinkPlan plan(2);
  plan.partition(0, 1, 1.0);
  ShardedSimulator fed(plan_config(2, 1));
  fed.set_tagged_delivery([](std::size_t, double, std::uint64_t,
                             const std::vector<std::uint64_t>&) {});
  fed.set_link_plan(&plan);
  fed.shard(0).schedule_at(1.5,
                           [&fed] { fed.send_tagged(0, 1, 0.06, 7, {1}); });
  fed.run_until(8.0);
  ASSERT_EQ(1U, fed.messages_parked());
  // The plan accepts the heal (it is after the partition start), but the
  // federation must refuse to deliver into its already-executed horizon.
  plan.heal(0, 1, 4.0);
  EXPECT_THROW(fed.run_until(10.0), std::logic_error);
}

TEST(FederationLinkPlan, SaveStateCarriesParkedTaggedMessages) {
  network::InterDcLinkPlan plan(2);
  plan.partition(0, 1, 1.0);
  ShardedSimulator fed(plan_config(2, 1));
  fed.set_tagged_delivery([](std::size_t, double, std::uint64_t,
                             const std::vector<std::uint64_t>&) {});
  fed.set_link_plan(&plan);
  for (std::uint64_t k = 0; k < 3; ++k) {
    fed.shard(0).schedule_at(
        1.1 + 0.1 * static_cast<double>(k),
        [&fed, k] { fed.send_tagged(0, 1, 0.06, 7, {k}); });
  }
  fed.run_until(2.0);
  ASSERT_EQ(3U, fed.messages_parked());
  SnapshotWriter w;
  fed.save_state(w);
  const auto bytes = w.take();

  // Rebuild from nothing, restore, heal, drain: the parked backlog crossed
  // the snapshot and still arrives in FIFO order.
  network::InterDcLinkPlan plan2(2);
  plan2.partition(0, 1, 1.0);
  ShardedSimulator fed2(plan_config(2, 1));
  std::vector<TaggedLog> logs;
  fed2.set_tagged_delivery([&logs](std::size_t dst, double when_s,
                                   std::uint64_t tag,
                                   const std::vector<std::uint64_t>& p) {
    logs.push_back({dst, when_s, tag, p});
  });
  fed2.set_link_plan(&plan2);
  SnapshotReader r(bytes);
  fed2.restore_state(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_DOUBLE_EQ(2.0, fed2.now());
  EXPECT_EQ(3U, fed2.messages_parked());
  EXPECT_EQ(fed.messages_sent(), fed2.messages_sent());
  fed2.shard(0).restore_clock(2.0);
  fed2.shard(1).restore_clock(2.0);

  plan2.heal(0, 1, 5.0);
  fed2.run_until(10.0);
  EXPECT_EQ(0U, fed2.messages_parked());
  ASSERT_EQ(3U, logs.size());
  for (std::uint64_t k = 0; k < 3; ++k) {
    EXPECT_EQ(k, logs[k].payload[0]);
    EXPECT_GE(logs[k].when_s, 5.0);
  }

  // A federation with the wrong shard count refuses the snapshot.
  ShardedSimulator fed3(plan_config(3, 1));
  SnapshotReader r3(bytes);
  EXPECT_THROW(fed3.restore_state(r3), std::invalid_argument);
}

TEST(FederationLinkPlan, SaveStateRejectsParkedClosureMessages) {
  network::InterDcLinkPlan plan(2);
  plan.partition(0, 1, 1.0);
  ShardedSimulator fed(plan_config(2, 1));
  fed.set_link_plan(&plan);
  // A closure (untagged) message cannot be serialized once parked.
  fed.shard(0).schedule_at(1.5, [&fed] { fed.send(0, 1, 0.06, [] {}); });
  fed.run_until(2.0);
  ASSERT_EQ(1U, fed.messages_parked());
  SnapshotWriter w;
  EXPECT_THROW(fed.save_state(w), std::runtime_error);
}

}  // namespace
}  // namespace epm::sim
