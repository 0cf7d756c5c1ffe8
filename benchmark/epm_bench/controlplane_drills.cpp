// controlplane_drills: the 4-DC drill set of `epmctl controlplane` —
// leader-kill (defended vs naive), leader-kill with DC 0 partitioned
// through the failover window, split-brain fencing, and the mid-failover
// snapshot/restore drill. The same federation and kernel as fleet_4dc used
// the other way round: tagged control messages in many tiny windows, so a
// rep is barrier-bound, and it includes a snapshot save and restore.
#include <cstddef>
#include <vector>

#include "faults/control_chaos.h"
#include "harness.h"

namespace epmbench {
namespace {

using namespace epm;

constexpr std::size_t kDcs = 4;
/// Snapshot after the leader kill, before the successor's claim; the
/// checked-in controlplane_restore_equivalence record uses the same times.
constexpr double kSnapshotAtS = 14.0;
constexpr double kKillAtS = 16.5;

void add_outcome(Digest& d, const faults::ControlChaosOutcome& o) {
  for (const faults::ControlDcOutcome& dc : o.dcs) {
    d.add(dc.epochs).add(dc.demand_total).add(dc.served_total);
    d.add(dc.sla_violation_epochs).add(dc.thermal_alarm_epochs).add(dc.max_temp_c);
    d.add(dc.prefault_demand).add(dc.prefault_served).add(dc.end_demand);
    d.add(dc.end_served).add(dc.commands_applied).add(dc.fencing_rejections);
    d.add(dc.stale_rejected).add(dc.double_actuations).add(dc.stale_applied);
    d.add(dc.safe_state_trips).add(dc.heartbeats_seen);
  }
  for (const faults::ControlReplicaOutcome& r : o.replicas) {
    d.add(r.hosted).add(r.claims).add(r.depositions).add(r.crashes);
    d.add(r.stale_heartbeats).add(r.commands_issued).add(r.commands_replayed);
    d.add(r.journal_entries).add(r.journal_rejected_stale).add(r.final_max_token);
    d.add(r.claimed_tokens.size());
    for (const std::uint64_t token : r.claimed_tokens) d.add(token);
  }
  d.add(o.final_now_s).add(o.final_pending).add(o.control_messages);
  d.add(o.max_token).add(o.lease_unique_ok).add(o.fencing_clean);
  d.add(o.fleet_prefault_frac).add(o.fleet_end_frac);
  d.add(o.total_sla_violations).add(o.total_alarms).add(o.conservation_ok);
  d.add(o.report);
}

void add_kill(Digest& d, const faults::ControlLeaderKillReport& k) {
  add_outcome(d, k.defended);
  add_outcome(d, k.naive);
  d.add(k.goodput_threshold).add(k.defended_clean).add(k.naive_violates);
  d.add(k.gate_ok);
}

std::uint64_t fencing_rejections(const faults::ControlChaosOutcome& o) {
  std::uint64_t total = 0;
  for (const faults::ControlDcOutcome& dc : o.dcs) total += dc.fencing_rejections;
  return total;
}

class ControlplaneDrills final : public Workload {
 public:
  explicit ControlplaneDrills(const Params& params) : params_(params) {}

  void setup() override {
    base_ = faults::ControlChaosConfig{};
    base_.dcs = kDcs;
    base_.threads = params_.threads;
    base_.seed = scenario_seed(7, params_.seed);
    base_.controller_faults = faults::make_leader_kill_plan();
  }

  double sim_seconds() const override {
    // Two arms per leader-kill drill, one split-brain world, and the
    // restore drill's uninterrupted run, killed run and restored tail.
    const double h = base_.horizon_s;
    return 2.0 * h + 2.0 * h + h + (h + kKillAtS + (h - kSnapshotAtS));
  }

  RepResult run(Tracer* tracer) override {
    const std::size_t threads = params_.threads;
    const std::uint64_t seed = base_.seed;
    faults::ControlLeaderKillReport kill;
    faults::ControlLeaderKillReport part;
    faults::ControlSplitBrainReport split;
    faults::ControlRestoreReport restore;
    {
      Scope scope(tracer, "faults.leader_kill");
      kill = faults::run_leader_kill_drill(kDcs, threads, seed, false);
    }
    {
      Scope scope(tracer, "faults.leader_kill_partition");
      part = faults::run_leader_kill_drill(kDcs, threads, seed, true);
    }
    {
      Scope scope(tracer, "faults.split_brain");
      split = faults::run_split_brain_drill(kDcs, threads, seed);
    }
    {
      Scope scope(tracer, "faults.restore_drill");
      restore = faults::run_control_plane_with_restore(base_, kSnapshotAtS, kKillAtS);
    }

    Digest digest;
    add_kill(digest, kill);
    add_kill(digest, part);
    add_outcome(digest, split.outcome);
    digest.add(split.stale_fenced).add(split.double_actuations);
    digest.add(split.stale_leader_deposed).add(split.passed);
    add_outcome(digest, restore.uninterrupted);
    add_outcome(digest, restore.restored);
    digest.add(restore.identical).add(restore.snapshot_bytes);

    control_messages_ = 0;
    fencing_rejections_ = 0;
    for (const auto* o : {&kill.defended, &kill.naive, &part.defended, &part.naive,
                          &split.outcome, &restore.uninterrupted}) {
      control_messages_ += o->control_messages;
      fencing_rejections_ += fencing_rejections(*o);
    }
    snapshot_bytes_ = restore.snapshot_bytes;

    RepResult result;
    result.digest = digest.value();
    result.checks_ok = kill.gate_ok && part.gate_ok &&
                       part.defended.dcs[0].safe_state_trips >= 1 &&
                       split.passed && restore.identical;
    result.headline = {
        {"naive_end_frac", kill.naive.fleet_end_frac},
        {"naive_sla_violations", static_cast<double>(kill.naive.total_sla_violations)},
        {"naive_alarms", static_cast<double>(kill.naive.total_alarms)},
        {"defended_fencing_rejections",
         static_cast<double>(fencing_rejections(kill.defended))},
        {"split_brain_stale_fenced", static_cast<double>(split.stale_fenced)},
        {"snapshot_bytes", static_cast<double>(restore.snapshot_bytes)},
    };
    return result;
  }

  void probe(Tracer& tracer, double, std::uint64_t, LayerMetrics& layer,
             CheckTally& checks) override {
    layer["faults.leader_kill_ms_p50"] =
        quantile(tracer.durations_ms("faults.leader_kill"), 0.5);
    layer["faults.split_brain_ms_p50"] =
        quantile(tracer.durations_ms("faults.split_brain"), 0.5);
    layer["faults.restore_drill_ms_p50"] =
        quantile(tracer.durations_ms("faults.restore_drill"), 0.5);
    layer["macro.control_messages"] = static_cast<double>(control_messages_);
    layer["sensing.fencing_rejections"] = static_cast<double>(fencing_rejections_);
    layer["sim.snapshot_bytes"] = static_cast<double>(snapshot_bytes_);

    // Federation attribution on the leader-kill world: one kernel, four
    // shards on one thread, four shards on T threads — all bit-identical.
    const int reps = params_.smoke ? 2 : 20;
    const auto timed = [&](std::size_t shards, std::size_t threads,
                           const char* span, std::vector<double>& walls) {
      faults::ControlChaosConfig config = base_;
      config.shards = shards;
      config.threads = threads;
      Scope scope(&tracer, span);
      const double t0 = now_s();
      auto outcome = faults::run_control_plane(config);
      walls.push_back(now_s() - t0);
      return outcome;
    };
    std::vector<double> single;
    std::vector<double> serial;
    std::vector<double> sharded;
    for (int r = 0; r < reps; ++r) {
      const auto a = timed(1, 1, "sim.single_kernel", single);
      const auto b = timed(kDcs, 1, "sim.sharded@1t", serial);
      const auto c = timed(kDcs, params_.threads, "sim.sharded@Tt", sharded);
      checks.expect(faults::control_outcomes_equal(a, b) &&
                    faults::control_outcomes_equal(a, c));
    }
    const double single_s = quantile(single, 0.5);
    layer["sim.fed_speedup_vs_single"] = single_s / quantile(sharded, 0.5);
    layer["sim.fed_serial_overhead"] = quantile(serial, 0.5) / single_s;
  }

 private:
  Params params_;
  faults::ControlChaosConfig base_;
  std::uint64_t control_messages_ = 0;
  std::uint64_t fencing_rejections_ = 0;
  std::size_t snapshot_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_controlplane_drills(const Params& params) {
  return std::make_unique<ControlplaneDrills>(params);
}

}  // namespace epmbench
