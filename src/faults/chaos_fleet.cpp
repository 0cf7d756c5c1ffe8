#include "faults/chaos_fleet.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/require.h"
#include "faults/fault_domain.h"

namespace epm::faults {
namespace {

constexpr std::uint64_t kDriveTag = 1;
constexpr std::uint64_t kWorkTag = 2;
constexpr std::uint32_t kChaosMagic = 0x736f6163;  // "caos"
constexpr std::uint32_t kChaosVersion = 1;

constexpr double kLookaheadS = 0.05;       ///< uniform inter-DC latency floor
constexpr double kServiceRateRps = 240.0;  ///< per-DC service capacity
/// Local backlog bound; arrivals beyond it are dropped (and counted).
constexpr std::uint64_t kBacklogCap = 1000000;
static_assert(kLookaheadS > 0.0 && kServiceRateRps >= 0.0 &&
              kChaosRecoveryThreshold > 0.0 && kChaosRecoveryThreshold <= 1.0);

void validate(const ChaosFleetConfig& c) {
  require(c.dcs >= 1, "chaos fleet: need at least one datacenter");
  require(c.epoch_s > 0.0, "chaos fleet: epoch_s must be positive");
  require(c.drive_until_s > 0.0 && c.drive_until_s <= c.horizon_s,
          "chaos fleet: need 0 < drive_until_s <= horizon_s");
  require(c.arrival_rate_rps >= 0.0, "chaos fleet: arrival rate must be >= 0");
  require(c.forward_fraction >= 0.0 && c.forward_fraction <= 1.0,
          "chaos fleet: forward_fraction must be in [0, 1]");
}

sim::ShardedConfig make_sharded_config(const ChaosFleetConfig& c) {
  return uniform_federation(c.dcs, c.threads, kLookaheadS);
}

/// The snapshot-capable drive world (a drill world, see drill.h): one
/// TaggedKernel per shard, every event a (tag, payload) record, every
/// cross-shard message tagged. All mutable state is plain data, so
/// save()/restore() capture it exactly.
class ChaosWorld {
 public:
  ChaosWorld(const ChaosFleetConfig& config, sim::ShardedSimulator& fed)
      : config_(config), fed_(fed), dcs_(config.dcs), shards_(fed) {
    for (std::size_t d = 0; d < config_.dcs; ++d) {
      dcs_[d].fwd_seq.assign(config_.dcs, 0);
      dcs_[d].last_seen.assign(config_.dcs, 0);
      shards_[d].on(kDriveTag, [this](double now, const sim::TagPayload& p) {
        drive(static_cast<std::size_t>(p[0]), now);
      });
      shards_[d].on(kWorkTag, [this, d](double, const sim::TagPayload& p) {
        work(d, p);
      });
    }
  }

  /// First drive tick on every shard at t = 0.
  void arm() {
    for (std::size_t d = 0; d < config_.dcs; ++d) {
      shards_[d].schedule_tagged_at(0.0, kDriveTag,
                                    {static_cast<std::uint64_t>(d)});
    }
  }

  void save(sim::SnapshotWriter& w) const { fields(*this, w); }

  void restore(sim::SnapshotReader& r) {
    fields(*this, r);
    for (const Dc& dc : dcs_) {
      require(dc.fwd_seq.size() == config_.dcs &&
                  dc.last_seen.size() == config_.dcs,
              "chaos snapshot sequence tables do not match the fleet size");
    }
  }

  ChaosFleetOutcome finish() const {
    ChaosFleetOutcome out;
    out.dcs.resize(config_.dcs);
    std::uint64_t gen = 0, served = 0, dropped = 0, backlog = 0, fwd = 0,
                  recv = 0;
    for (std::size_t d = 0; d < config_.dcs; ++d) {
      const Dc& dc = dcs_[d];
      ChaosDcOutcome& o = out.dcs[d];
      o.generated = dc.generated;
      o.served = dc.served;
      o.dropped = dc.dropped;
      o.backlog = dc.backlog;
      o.forwarded_items = dc.forwarded_items;
      o.received_items = dc.received_items;
      o.epochs = dc.epoch;
      gen += dc.generated;
      served += dc.served;
      dropped += dc.dropped;
      backlog += dc.backlog;
      fwd += dc.forwarded_items;
      recv += dc.received_items;
    }
    out.final_now_s = fed_.now();
    out.final_pending = fed_.pending();
    out.messages_sent = fed_.messages_sent();
    out.messages_redelivered = fed_.messages_redelivered();
    out.messages_parked_end = fed_.messages_parked();
    out.fifo_ok = fifo_ok_;
    const bool drained =
        out.messages_parked_end == 0 && out.final_pending == 0;
    const bool zero_loss = fwd == recv;
    const bool ledger = gen == served + dropped + backlog + (fwd - recv);
    out.conservation_ok = drained && zero_loss && ledger;
    std::ostringstream os;
    os << "generated=" << gen << " served=" << served << " dropped=" << dropped
       << " backlog=" << backlog << " forwarded=" << fwd
       << " received=" << recv << " parked=" << out.messages_parked_end
       << " pending=" << out.final_pending
       << (out.conservation_ok ? " [conserved]" : " [NOT conserved]");
    out.conservation_report = os.str();
    return out;
  }

 private:
  /// The "caos" snapshot section, ending with the kernels' and the
  /// federation's sections.
  template <typename Self, typename Io>
  static void fields(Self& self, Io& io) {
    io.section(kChaosMagic, kChaosVersion);
    io.expect(self.config_.dcs,
              "chaos snapshot datacenter count does not match the config");
    io.field(self.fifo_ok_);
    for (auto& dc : self.dcs_) {
      io.field(dc.generated);
      io.field(dc.served);
      io.field(dc.dropped);
      io.field(dc.backlog);
      io.field(dc.forwarded_items);
      io.field(dc.received_items);
      io.field(dc.epoch);
      io.field(dc.rng_ctr);
      io.field(dc.fwd_seq);
      io.field(dc.last_seen);
    }
    io.nested(self.shards_);
  }

  struct Dc {
    std::uint64_t generated = 0;
    std::uint64_t served = 0;
    std::uint64_t dropped = 0;
    std::uint64_t backlog = 0;
    std::uint64_t forwarded_items = 0;
    std::uint64_t received_items = 0;
    std::uint64_t epoch = 0;
    std::uint64_t rng_ctr = 0;
    /// fwd_seq[dst]: messages ever forwarded to `dst` (the FIFO sequence
    /// stamped on each work message); last_seen[src]: highest sequence
    /// received from `src` — arrival must be exactly last_seen + 1.
    std::vector<std::uint64_t> fwd_seq;
    std::vector<std::uint64_t> last_seen;
  };

  void drive(std::size_t d, double now) {
    Dc& dc = dcs_[d];
    ++dc.epoch;
    const double u = epoch_uniform(config_.seed, d, dc.rng_ctr++);
    const auto arrivals = static_cast<std::uint64_t>(std::floor(
        config_.arrival_rate_rps * config_.epoch_s * (0.8 + 0.4 * u)));
    dc.generated += arrivals;
    const std::size_t n = config_.dcs;
    std::uint64_t fwd = static_cast<std::uint64_t>(
        std::floor(static_cast<double>(arrivals) * config_.forward_fraction));
    if (n <= 1) fwd = 0;
    dc.backlog += arrivals - fwd;
    if (fwd > 0) {
      // Rotate over peers by epoch; d + 1 + offset is never d itself.
      const std::size_t offset =
          static_cast<std::size_t>((dc.epoch - 1) % (n - 1));
      const std::size_t peer = (d + 1 + offset) % n;
      const std::uint64_t seq = ++dc.fwd_seq[peer];
      dc.forwarded_items += fwd;
      fed_.send_tagged(d, peer, kLookaheadS, kWorkTag,
                       {static_cast<std::uint64_t>(d), fwd, seq});
    }
    const auto capacity = static_cast<std::uint64_t>(
        std::floor(kServiceRateRps * config_.epoch_s));
    const std::uint64_t serve = std::min(dc.backlog, capacity);
    dc.backlog -= serve;
    dc.served += serve;
    if (dc.backlog > kBacklogCap) {
      dc.dropped += dc.backlog - kBacklogCap;
      dc.backlog = kBacklogCap;
    }
    // Self-reschedule with a fresh record id (snapshot invariant) until the
    // drive window closes; the slack to the horizon drains in-flight work.
    const double next = now + config_.epoch_s;
    if (next < config_.drive_until_s) {
      shards_[d].schedule_tagged_at(next, kDriveTag,
                                    {static_cast<std::uint64_t>(d)});
    }
  }

  void work(std::size_t dst, const sim::TagPayload& p) {
    require(p.size() == 3, "chaos work payload must be (src, count, seq)");
    const auto src = static_cast<std::size_t>(p[0]);
    require(src < config_.dcs, "chaos work message from unknown datacenter");
    Dc& dc = dcs_[dst];
    if (p[2] != dc.last_seen[src] + 1) fifo_ok_ = false;
    dc.last_seen[src] = p[2];
    dc.received_items += p[1];
    dc.backlog += p[1];
  }

  const ChaosFleetConfig config_;
  sim::ShardedSimulator& fed_;
  std::vector<Dc> dcs_;
  TaggedShards shards_;
  bool fifo_ok_ = true;
};

ChaosRecoveryArm summarize_arm(const FleetStormOutcome& o) {
  ChaosRecoveryArm arm;
  arm.fleet_prefault_goodput_rps = o.fleet_prefault_goodput_rps;
  arm.fleet_end_goodput_rps = o.fleet_end_goodput_rps;
  arm.ratio =
      recovery_ratio(o.fleet_prefault_goodput_rps, o.fleet_end_goodput_rps);
  for (const FleetDcOutcome& dc : o.dcs) arm.grid_signals += dc.grid_signals;
  arm.conservation_ok = o.conservation_ok;
  arm.recovered = arm.ratio >= kChaosRecoveryThreshold;
  return arm;
}

}  // namespace

ChaosFleetOutcome run_chaos_fleet(const ChaosFleetConfig& config,
                                  const network::InterDcLinkPlan* plan) {
  validate(config);
  return run_world<ChaosWorld>(config, make_sharded_config(config),
                               config.horizon_s, plan);
}

ChaosRestoreReport run_chaos_fleet_with_restore(const ChaosFleetConfig& config,
                                                double snapshot_at_s,
                                                double kill_at_s) {
  validate(config);
  return run_restore_drill<ChaosWorld>(config, make_sharded_config(config),
                                       config.horizon_s, snapshot_at_s,
                                       kill_at_s);
}

ChaosPartitionReport run_chaos_partition_drill(const ChaosFleetConfig& config,
                                               double partition_at_s,
                                               double check_at_s,
                                               double heal_at_s) {
  validate(config);
  require(config.dcs >= 2, "partition drill needs at least two datacenters");
  require(partition_at_s >= 0.0 && partition_at_s < check_at_s &&
              check_at_s <= heal_at_s && heal_at_s < config.horizon_s,
          "partition drill requires partition < check <= heal < horizon");

  network::InterDcLinkPlan plan(config.dcs);
  plan.partition(0, 1, partition_at_s);

  sim::ShardedSimulator fed(make_sharded_config(config));
  fed.set_link_plan(&plan);
  ChaosWorld world(config, fed);
  world.arm();
  fed.run_until(check_at_s);

  ChaosPartitionReport rep;
  rep.parked_at_check = fed.messages_parked();
  rep.parked_seen = rep.parked_at_check > 0;

  plan.heal(0, 1, heal_at_s);
  fed.run_until(config.horizon_s);

  rep.outcome = world.finish();
  rep.redelivered = rep.outcome.messages_redelivered;
  rep.drained = rep.outcome.messages_parked_end == 0;
  std::uint64_t fwd = 0, recv = 0;
  for (const ChaosDcOutcome& dc : rep.outcome.dcs) {
    fwd += dc.forwarded_items;
    recv += dc.received_items;
  }
  rep.zero_loss = fwd == recv && rep.outcome.final_pending == 0;
  rep.fifo_ok = rep.outcome.fifo_ok;
  rep.passed = rep.parked_seen && rep.drained && rep.zero_loss && rep.fifo_ok;
  return rep;
}

ChaosRecoveryReport run_chaos_recovery(std::size_t dcs,
                                       std::size_t clients_per_dc,
                                       std::uint64_t seed,
                                       const std::string& grid_script) {
  ChaosRecoveryReport rep;
  rep.grid_script = grid_script;

  const FleetStormConfig base =
      make_reference_fleet_storm_config(dcs, clients_per_dc, seed);
  std::vector<std::string> names;
  names.reserve(base.sites.size());
  for (const macro::SiteConfig& s : base.sites) names.push_back(s.name);
  const FaultDomainTree tree = make_reference_fault_domains(names);
  const DomainFaultPlan grid = DomainFaultPlan::parse(grid_script);
  const std::vector<FleetDisruption> disruptions =
      to_fleet_disruptions(expand_to_datacenters(tree, grid, seed));

  const auto run_arm = [&](bool defended) {
    FleetStormConfig c = base;
    c.disruptions.insert(c.disruptions.end(), disruptions.begin(),
                         disruptions.end());
    c.grid_broadcasts = defended;
    c.defense.enabled = defended;
    return summarize_arm(run_fleet_storm(c, kSingleKernel, 1));
  };
  rep.defended = run_arm(true);
  rep.naive = run_arm(false);
  rep.gate_ok = rep.defended.recovered && !rep.naive.recovered;
  return rep;
}

std::string make_reference_grid_script() {
  return "outage:region/americas@32+16;brownout:feed/grid-eu@36+12x0.5";
}

}  // namespace epm::faults
