// One drill driver for the federated scenario worlds.
//
// The chaos fleet (chaos_fleet.h), the control-plane world
// (control_chaos.h) and the fleet retry storm (fleet_storm.h) each model a
// different world, but the drills around them are the same. They live here
// once:
//
//   * TaggedShards — the snapshot plumbing every snapshot-capable world
//     shares: one sim::TaggedKernel per federation shard, tagged cross-shard
//     delivery into the destination shard's kernel, and the kernels' plus
//     the federation's snapshot sections.
//   * run_world / run_restore_drill — a world on a fresh federation, run
//     straight to the horizon; or checkpointed at a barrier, run on, then
//     killed (federation and world destroyed), rebuilt cold from the config,
//     restored from the snapshot bytes and finished. The continuation must
//     equal the uninterrupted run exactly.
//   * sweep_conformance — seeds x shards x threads: every run must equal its
//     seed's reference run and pass the world's own checks; the first point
//     that fails is reported as reproduction coordinates.
//   * scan_recovery / recovery_ratio — the pre-fault goodput basis, the
//     first run of healthy epochs after the last fault clears, and the
//     trailing end-of-run means, shared with the single-DC retry storm.
//
// Outcome equality is each outcome struct's defaulted operator== — exact,
// floats included, because the runs compared must be bit-identical, not
// merely close.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/require.h"
#include "network/interdc_link.h"
#include "sim/sharded_simulator.h"
#include "sim/snapshot.h"

namespace epm::faults {

/// Federation of `shards` kernels with one uniform cross-shard lookahead.
sim::ShardedConfig uniform_federation(std::size_t shards, std::size_t threads,
                                      double lookahead_s);

/// Deterministic uniform draw in [0, 1) for (seed, datacenter, counter): one
/// independent value per drive epoch, never shared across datacenters, so
/// streams never depend on sharding or threading.
double epoch_uniform(std::uint64_t seed, std::uint64_t dc, std::uint64_t ctr);

/// One TaggedKernel per shard of `fed`, with the federation's tagged
/// deliveries routed into the destination shard's kernel. A world
/// registers its handlers on the kernels, schedules through them, and ends
/// its own snapshot section with save()/restore() here.
class TaggedShards {
 public:
  explicit TaggedShards(sim::ShardedSimulator& fed);
  TaggedShards(const TaggedShards&) = delete;
  TaggedShards& operator=(const TaggedShards&) = delete;

  std::size_t size() const { return kernels_.size(); }
  sim::TaggedKernel& operator[](std::size_t shard) { return *kernels_[shard]; }

  /// Every kernel's record table, then the federation's own section.
  void save(sim::SnapshotWriter& w) const;
  void restore(sim::SnapshotReader& r);

 private:
  sim::ShardedSimulator& fed_;
  std::vector<std::unique_ptr<sim::TaggedKernel>> kernels_;
};

/// What a kill-and-restore drill measured.
template <typename Outcome>
struct RestoreReport {
  Outcome uninterrupted;
  Outcome restored;
  bool identical = false;
  std::size_t snapshot_bytes = 0;
};

// A drill world W over a Config is constructed as W(config, fed) with every
// handler registered and nothing scheduled, and provides:
//   void arm();              schedule a fresh run's first events (never
//                            called on the restore path: the snapshot
//                            carries the pending records);
//   void save(SnapshotWriter&) const; void restore(SnapshotReader&);
//                            all mutable world state plus TaggedShards;
//   Outcome finish() const;  the summary at the horizon.

/// A fresh run of World straight to `horizon_s`. `plan` (optional,
/// non-owning) degrades the federation's links.
template <typename World, typename Config>
auto run_world(const Config& config, const sim::ShardedConfig& sharded,
               double horizon_s,
               const network::InterDcLinkPlan* plan = nullptr) {
  sim::ShardedSimulator fed(sharded);
  if (plan != nullptr) fed.set_link_plan(plan);
  World world(config, fed);
  world.arm();
  fed.run_until(horizon_s);
  return world.finish();
}

/// Kill-and-restore drill: snapshot at `snapshot_at_s` (a barrier), keep
/// running to `kill_at_s`, destroy federation and world, rebuild both from
/// the config, restore from the snapshot bytes, and run to `horizon_s`.
/// Requires 0 < snapshot_at_s <= kill_at_s < horizon_s.
template <typename World, typename Config>
auto run_restore_drill(const Config& config, const sim::ShardedConfig& sharded,
                       double horizon_s, double snapshot_at_s,
                       double kill_at_s) {
  require(snapshot_at_s > 0.0 && snapshot_at_s <= kill_at_s &&
              kill_at_s < horizon_s,
          "restore drill requires 0 < snapshot_at <= kill_at < horizon");
  RestoreReport<decltype(run_world<World>(config, sharded, horizon_s))> rep;
  rep.uninterrupted = run_world<World>(config, sharded, horizon_s);

  std::vector<std::uint8_t> snapshot;
  {
    sim::ShardedSimulator fed(sharded);
    World world(config, fed);
    world.arm();
    fed.run_until(snapshot_at_s);
    sim::SnapshotWriter w;
    world.save(w);
    snapshot = w.take();
    // Keep running past the checkpoint, then "kill": federation and world
    // are destroyed at scope exit, everything after the snapshot discarded.
    fed.run_until(kill_at_s);
  }
  rep.snapshot_bytes = snapshot.size();

  {
    // A cold process: fresh federation, fresh world (handlers registered,
    // nothing armed), state rebuilt purely from the snapshot bytes.
    sim::ShardedSimulator fed(sharded);
    World world(config, fed);
    sim::SnapshotReader r(snapshot);
    world.restore(r);
    require(r.at_end(), "restore drill: snapshot has trailing bytes");
    fed.run_until(horizon_s);
    rep.restored = world.finish();
  }
  rep.identical = rep.uninterrupted == rep.restored;
  return rep;
}

/// Reproduction coordinates of one run in a conformance sweep. Worlds with
/// a single-kernel ground truth read shards == kSingleKernel as "no
/// federation".
struct SweepPoint {
  std::uint64_t seed = 0;
  std::size_t shards = 1;
  std::size_t threads = 1;
};
inline constexpr std::size_t kSingleKernel = 0;

/// Every (seed, shards, threads) combination, seed-major then shards.
std::vector<SweepPoint> sweep_grid(const std::vector<std::uint64_t>& seeds,
                                   const std::vector<std::size_t>& shards,
                                   const std::vector<std::size_t>& threads);

struct SweepReport {
  std::size_t runs = 0;
  bool ok = true;
  /// The first point whose run differed from its seed's reference or
  /// failed the world's check (meaningful only when !ok).
  SweepPoint failed;
};

/// The default sweep check: equality with the reference is the whole test.
struct NoCheck {
  template <typename Outcome>
  bool operator()(const Outcome&) const {
    return true;
  }
};

/// Runs `run(point)` at every point, in order. The first point listed for a
/// seed is that seed's reference; every later point of the same seed must
/// produce an outcome == to it. `check(outcome)` (the world's own
/// invariants) must hold for every run, the references included.
template <typename Run, typename Check = NoCheck>
SweepReport sweep_conformance(const std::vector<SweepPoint>& points, Run run,
                              Check check = {}) {
  using Outcome = decltype(run(points.front()));
  SweepReport rep;
  std::vector<std::pair<std::uint64_t, Outcome>> references;
  for (const SweepPoint& p : points) {
    Outcome out = run(p);
    ++rep.runs;
    bool ok = check(out);
    const auto ref = std::find_if(
        references.begin(), references.end(),
        [&p](const auto& r) { return r.first == p.seed; });
    if (ref == references.end()) {
      references.emplace_back(p.seed, std::move(out));
    } else {
      ok = ok && ref->second == out;
    }
    if (!ok && rep.ok) {
      rep.ok = false;
      rep.failed = p;
    }
  }
  return rep;
}

/// The recovery verdict over per-epoch rate series (req/s, one entry per
/// epoch, all the same length).
struct RecoveryCriteria {
  double epoch_s = 1.0;
  /// First faulted epoch: the pre-fault basis is the mean goodput over the
  /// half of the warm period [0, fault_epoch) closest to the fault.
  std::size_t fault_epoch = 0;
  /// Latest fault clear; the healthy-run scan starts at its epoch and
  /// recovery_s counts from it.
  double clear_s = 0.0;
  /// Healthy epoch: goodput >= sla_fraction x pre-fault and failures <=
  /// (1 - sla_fraction) x pre-fault.
  double sla_fraction = 0.9;
  /// Consecutive healthy epochs that declare recovery; also the trailing
  /// window of the end-of-run means.
  std::size_t window = 1;
};

struct RecoveryScan {
  double prefault_goodput_rps = 0.0;
  double end_offered_rps = 0.0;
  double end_goodput_rps = 0.0;
  bool recovered = false;
  /// Seconds from the last clear to the end of the first healthy window.
  double recovery_s = 0.0;
};

RecoveryScan scan_recovery(const RecoveryCriteria& criteria,
                           const std::vector<double>& offered_rps,
                           const std::vector<double>& goodput_rps,
                           const std::vector<double>& failure_rps);

/// End over pre-fault goodput; 0 when the pre-fault basis is not positive.
double recovery_ratio(double prefault, double end);

}  // namespace epm::faults
