#include "faults/control_chaos.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "core/require.h"
#include "faults/fault_domain.h"
#include "faults/fault_plan.h"
#include "macro/control_plane/controller.h"
#include "macro/geo.h"
#include "sensing/actuator_plane.h"
#include "sensing/fencing.h"

namespace epm::faults {
namespace {

constexpr std::uint64_t kDriveTag = 1;
constexpr std::uint64_t kHbTag = 2;
constexpr std::uint64_t kCmdTag = 3;
constexpr std::uint64_t kJrnTag = 4;
constexpr std::uint64_t kCtlFaultTag = 5;
constexpr std::uint32_t kControlMagic = 0x776c7463;  // "ctlw"
constexpr std::uint32_t kControlVersion = 1;

/// The drive world. Control ticks every kEpochS up to the last tick
/// strictly before kDriveUntilS; a message takes at least kLookaheadS.
/// Lease TTLs and transition staging take the ControllerConfig defaults.
constexpr double kEpochS = 0.5;
constexpr double kDriveUntilS = 40.0;
constexpr double kLookaheadS = 0.05;
constexpr double kDeadmanTtlS = 4.0;  ///< actuator watchdog

/// Plant: capacity = active servers * kPerServerRps * cap fraction, against
/// a demand that steps from base to peak at kDemandRiseS, jittered +-10%
/// uniformly per epoch.
constexpr std::uint64_t kServersPerDc = 20;
constexpr double kPerServerRps = 50.0;
constexpr double kBaseDemandRps = 400.0;
constexpr double kPeakDemandRps = 900.0;
constexpr double kDemandRiseS = 20.0;
constexpr double kDemandJitter = 0.1;

/// Thermal model: temp = setpoint + gain * min(demand/capacity, util cap).
/// The safe setpoint never alarms even overloaded; the eco setpoint alarms
/// only when the DC is left in eco under peak demand.
constexpr double kSafeSetpointC = 22.0;
constexpr double kEcoSetpointC = 27.0;
constexpr double kAlarmTempC = 31.0;
constexpr double kTempUtilGainC = 3.0;
constexpr double kUtilCap = 1.5;

/// Eco-mode program: enter at kEcoEnterS (cap, setpoint, fleet per DC),
/// exit at kEcoExitS (fleet, setpoint, cap per DC, rotated to start at DC 1
/// so DC 0 is still unreached when the reference kill lands).
constexpr double kEcoCap = 0.7;
constexpr double kEcoActiveFrac = 0.7;
constexpr double kEcoEnterS = 6.0;
constexpr double kEcoExitS = 12.0;

/// Goodput windows: pre-fault = epochs before kPrefaultUntilS, end = the
/// last kEndWindowS of the drive window.
constexpr double kPrefaultUntilS = 12.0;
constexpr double kEndWindowS = 8.0;

static_assert(kEpochS > 0.0 && kLookaheadS > 0.0 && kServersPerDc >= 1 &&
              kPerServerRps > 0.0 && kEcoCap > 0.0 && kEcoCap <= 1.0 &&
              kEcoActiveFrac > 0.0 && kEcoActiveFrac <= 1.0 &&
              kDemandJitter >= 0.0 && kDemandJitter < 1.0 &&
              kEndWindowS > 0.0 && kEndWindowS <= kDriveUntilS);

/// Controller fault edges delivered into the world clock.
enum class CtlFaultAction : std::uint64_t {
  kCrash = 0,
  kRestart,
  kHang,
  kResume,
};

void validate(const ControlChaosConfig& c) {
  require(c.dcs >= 1, "control chaos: need at least one datacenter");
  require(c.shards == 0 ||
              (c.shards <= c.dcs && c.dcs % c.shards == 0),
          "control chaos: shards must divide dcs");
  require(kDriveUntilS <= c.horizon_s,
          "control chaos: horizon_s must reach the last drive tick (40 s)");
}

std::size_t effective_shards(const ControlChaosConfig& c) {
  return c.shards == 0 ? c.dcs : c.shards;
}

sim::ShardedConfig make_sharded_config(const ControlChaosConfig& c) {
  return uniform_federation(effective_shards(c), c.threads, kLookaheadS);
}

/// The staged eco-mode transition: enter tightens cap, raises the CRAC
/// setpoint, and powers servers down per DC; exit reverses in the safe
/// order (capacity first). The exit sweep is rotated to start at DC 1 so
/// the reference leader kill lands while DC 0 is still unreached.
std::vector<macro::ProgramStep> make_program(const ControlChaosConfig& c) {
  std::vector<macro::ProgramStep> prog;
  const auto n = static_cast<std::uint32_t>(c.dcs);
  const double eco_servers =
      std::floor(static_cast<double>(kServersPerDc) * kEcoActiveFrac);
  for (std::uint32_t dc = 0; dc < n; ++dc) {
    prog.push_back({kEcoEnterS, dc, macro::ControlOp::kPowerCap, kEcoCap});
    prog.push_back(
        {kEcoEnterS, dc, macro::ControlOp::kCracSetpoint, kEcoSetpointC});
    prog.push_back({kEcoEnterS, dc, macro::ControlOp::kFleetActive, eco_servers});
  }
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint32_t dc = (1 + k) % n;
    prog.push_back({kEcoExitS, dc, macro::ControlOp::kFleetActive,
                    static_cast<double>(kServersPerDc)});
    prog.push_back(
        {kEcoExitS, dc, macro::ControlOp::kCracSetpoint, kSafeSetpointC});
    prog.push_back({kEcoExitS, dc, macro::ControlOp::kPowerCap, 1.0});
  }
  return prog;
}

struct ScheduledCtlFault {
  std::size_t dc = 0;
  CtlFaultAction action = CtlFaultAction::kCrash;
  double at_s = 0.0;
};

/// Expands the controller FaultPlan text plus the grid script into crash /
/// hang / restart edges on replica clocks. Grid outages and ctl-kill events
/// kill the controllers co-located with their datacenters.
std::vector<ScheduledCtlFault> expand_controller_faults(
    const ControlChaosConfig& c) {
  std::vector<ScheduledCtlFault> out;
  const auto push = [&](std::size_t dc, CtlFaultAction a, double at) {
    if (at >= 0.0 && at < kDriveUntilS) out.push_back({dc, a, at});
  };
  if (!c.controller_faults.empty()) {
    const FaultPlan plan = FaultPlan::parse(c.controller_faults);
    plan.validate_targets(0, 0, c.dcs);
    for (const FaultEvent& e : plan.events()) {
      switch (e.type) {
        case FaultType::kControllerCrash:
        case FaultType::kControllerRestart:
          push(e.target, CtlFaultAction::kCrash, e.start_s);
          push(e.target, CtlFaultAction::kRestart, e.end_s());
          break;
        case FaultType::kControllerHang:
          push(e.target, CtlFaultAction::kHang, e.start_s);
          push(e.target, CtlFaultAction::kResume, e.end_s());
          break;
        default:
          throw std::invalid_argument(
              "control chaos: controller_faults may only contain ctl-crash / "
              "ctl-hang / ctl-restart entries, got '" +
              faults::to_string(e.type) + "'");
      }
    }
  }
  if (!c.grid_script.empty()) {
    std::vector<std::string> names;
    names.reserve(c.dcs);
    for (const macro::SiteConfig& s : macro::make_reference_fleet_sites(c.dcs)) {
      names.push_back(s.name);
    }
    const FaultDomainTree tree = make_reference_fault_domains(names);
    const DomainFaultPlan grid = DomainFaultPlan::parse(c.grid_script);
    for (const ExpandedDcFault& x : expand_to_datacenters(tree, grid, c.seed)) {
      if (x.kind != GridEventKind::kOutage &&
          x.kind != GridEventKind::kControllerKill) {
        continue;  // price/brownout signals have no control-plane shadow here
      }
      push(x.dc, CtlFaultAction::kCrash, x.onset_s);
      push(x.dc, CtlFaultAction::kRestart, x.clear_s);
    }
  }
  return out;
}

sensing::ActuatorCommand to_actuator_command(const macro::ControlCommand& cmd) {
  sensing::ActuatorCommand ac;
  switch (cmd.op) {
    case macro::ControlOp::kPowerCap:
      ac.kind = sensing::CommandKind::kPowerCap;
      break;
    case macro::ControlOp::kCracSetpoint:
      ac.kind = sensing::CommandKind::kCracSupply;
      break;
    case macro::ControlOp::kFleetActive:
      ac.kind = sensing::CommandKind::kFleetSize;
      break;
    case macro::ControlOp::kPauseConsolidation:
      ac.kind = sensing::CommandKind::kConsolidation;
      break;
  }
  ac.target = cmd.dc;
  ac.value = cmd.value;
  return ac;
}

/// Snapshot-capable control-plane world (a drill world, see drill.h): one
/// TaggedKernel per shard, one plant + actuator endpoint per DC, one
/// controller replica per DC (or only at DC 0 in the naive arm). All
/// mutable state is plain data.
class ControlWorld {
 public:
  ControlWorld(const ControlChaosConfig& config, sim::ShardedSimulator& fed)
      : config_(config),
        fed_(fed),
        dcs_per_shard_(config.dcs / effective_shards(config)),
        plants_(config.dcs),
        shards_(fed),
        sent_per_shard_(effective_shards(config), 0) {
    const std::vector<macro::ProgramStep> program = make_program(config_);
    for (std::size_t d = 0; d < config_.dcs; ++d) {
      Plant& p = plants_[d];
      p.active_servers = static_cast<double>(kServersPerDc);
      p.cap_frac = 1.0;
      p.setpoint_c = kSafeSetpointC;
      endpoints_.push_back(std::make_unique<Endpoint>(config_));
      // The actuator plane's applier writes this DC's plant.
      endpoints_.back()->plane.set_applier(
          [this, d](const sensing::ActuatorCommand& c) {
            apply_to_plant(d, c);
            return true;
          });
      const bool hosted = config_.replicated || d == 0;
      if (hosted) {
        macro::ControllerConfig cc;
        cc.lease.replicas = config_.replicated ? config_.dcs : 1;
        cc.lease.id = config_.replicated ? d : 0;
        cc.lease.initial_leader = 0;
        cc.datacenters = config_.dcs;
        replicas_.push_back(
            std::make_unique<macro::ControllerReplica>(cc, program));
      } else {
        replicas_.push_back(nullptr);
      }
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      sim::TaggedKernel& tk = shards_[s];
      tk.on(kDriveTag, [this](double now, const sim::TagPayload& p) {
        drive(static_cast<std::size_t>(p[0]), now);
      });
      tk.on(kHbTag, [this](double now, const sim::TagPayload& p) {
        on_heartbeat(static_cast<std::size_t>(p[0]), p[1], p[2], now);
      });
      tk.on(kCmdTag, [this](double now, const sim::TagPayload& p) {
        on_command(static_cast<std::size_t>(p[0]), p, now);
      });
      tk.on(kJrnTag, [this](double, const sim::TagPayload& p) {
        on_journal(static_cast<std::size_t>(p[0]), p);
      });
      tk.on(kCtlFaultTag, [this](double now, const sim::TagPayload& p) {
        on_ctl_fault(static_cast<std::size_t>(p[0]),
                     static_cast<CtlFaultAction>(p[1]), now);
      });
    }
  }

  /// First drive tick per DC plus every scheduled controller fault edge.
  void arm() {
    for (std::size_t d = 0; d < config_.dcs; ++d) {
      shards_[shard_of(d)].schedule_tagged_at(
          0.0, kDriveTag, {static_cast<std::uint64_t>(d)});
    }
    for (const ScheduledCtlFault& f : expand_controller_faults(config_)) {
      shards_[shard_of(f.dc)].schedule_tagged_at(
          f.at_s, kCtlFaultTag,
          {static_cast<std::uint64_t>(f.dc),
           static_cast<std::uint64_t>(f.action)});
    }
  }

  void save(sim::SnapshotWriter& w) const { fields(*this, w); }

  void restore(sim::SnapshotReader& r) { fields(*this, r); }

  ControlChaosOutcome finish() const {
    ControlChaosOutcome out;
    out.dcs.resize(config_.dcs);
    out.replicas.resize(config_.dcs);
    double prefault_demand = 0.0, prefault_served = 0.0;
    double end_demand = 0.0, end_served = 0.0;
    for (std::size_t d = 0; d < config_.dcs; ++d) {
      const Plant& p = plants_[d];
      const Endpoint& e = *endpoints_[d];
      ControlDcOutcome& o = out.dcs[d];
      o.epochs = p.epochs;
      o.demand_total = p.demand_total;
      o.served_total = p.served_total;
      o.sla_violation_epochs = p.sla_violation_epochs;
      o.thermal_alarm_epochs = p.thermal_alarm_epochs;
      o.max_temp_c = p.max_temp_c;
      o.prefault_demand = p.prefault_demand;
      o.prefault_served = p.prefault_served;
      o.end_demand = p.end_demand;
      o.end_served = p.end_served;
      o.commands_applied = e.ledger.applied();
      o.fencing_rejections = e.plane.fencing_rejections();
      o.stale_rejected = e.ledger.rejected_stale();
      o.double_actuations = e.ledger.double_actuations();
      o.stale_applied = e.ledger.stale_applied();
      o.safe_state_trips = e.deadman.trips();
      o.heartbeats_seen = e.heartbeats_seen;
      out.max_token = std::max(out.max_token, e.ledger.max_token());
      out.total_sla_violations += o.sla_violation_epochs;
      out.total_alarms += o.thermal_alarm_epochs;
      prefault_demand += p.prefault_demand;
      prefault_served += p.prefault_served;
      end_demand += p.end_demand;
      end_served += p.end_served;

      ControlReplicaOutcome& ro = out.replicas[d];
      if (replicas_[d] != nullptr) {
        const macro::ControllerReplica& rep = *replicas_[d];
        ro.hosted = true;
        ro.claims = rep.lease().claimed_tokens().size();
        ro.depositions = rep.lease().depositions();
        ro.crashes = rep.lease().crashes();
        ro.stale_heartbeats = rep.lease().stale_heartbeats();
        ro.commands_issued = rep.commands_issued();
        ro.commands_replayed = rep.commands_replayed();
        ro.journal_entries = rep.journal().size();
        ro.journal_rejected_stale = rep.journal().rejected_stale();
        ro.final_max_token = rep.lease().max_token_seen();
        ro.claimed_tokens = rep.lease().claimed_tokens();
      }
    }
    out.final_now_s = fed_.now();
    out.final_pending = fed_.pending();
    for (const std::uint64_t n : sent_per_shard_) out.control_messages += n;
    out.fleet_prefault_frac =
        prefault_demand > 0.0 ? prefault_served / prefault_demand : 0.0;
    out.fleet_end_frac = end_demand > 0.0 ? end_served / end_demand : 0.0;

    // At most one live lease per epoch: every claimed token is globally
    // unique and congruent to its claimant mod the replica count.
    const std::uint64_t replicas =
        config_.replicated ? static_cast<std::uint64_t>(config_.dcs) : 1;
    std::set<std::uint64_t> seen_tokens;
    out.lease_unique_ok = true;
    for (std::size_t d = 0; d < config_.dcs; ++d) {
      const ControlReplicaOutcome& ro = out.replicas[d];
      const std::uint64_t id = config_.replicated ? d : 0;
      for (const std::uint64_t t : ro.claimed_tokens) {
        if (!seen_tokens.insert(t).second || t % replicas != id) {
          out.lease_unique_ok = false;
        }
      }
    }
    out.fencing_clean = true;
    for (const auto& e : endpoints_) {
      if (e->ledger.double_actuations() != 0) out.fencing_clean = false;
      if (e->ledger.enforced() && e->ledger.stale_applied() != 0) {
        out.fencing_clean = false;
      }
    }
    bool fractions_ok = true;
    for (const ControlDcOutcome& o : out.dcs) {
      if (o.served_total > o.demand_total + 1e-9) fractions_ok = false;
    }
    out.conservation_ok = fractions_ok && out.final_pending == 0 &&
                          fed_.messages_parked() == 0;
    std::ostringstream os;
    os << "prefault_frac=" << out.fleet_prefault_frac
       << " end_frac=" << out.fleet_end_frac
       << " sla_violations=" << out.total_sla_violations
       << " alarms=" << out.total_alarms << " max_token=" << out.max_token
       << " msgs=" << out.control_messages
       << (out.fencing_clean ? " [fencing-clean]" : " [DOUBLE-ACTUATED]")
       << (out.lease_unique_ok ? " [lease-unique]" : " [LEASE-DUP]")
       << (out.conservation_ok ? " [conserved]" : " [NOT conserved]");
    out.report = os.str();
    return out;
  }

 private:
  /// The "ctlw" snapshot section: per-DC plant state, each endpoint's
  /// ledger, dead-man switch and actuator plane, each hosted replica, then
  /// the kernels' and the federation's sections.
  template <typename Self, typename Io>
  static void fields(Self& self, Io& io) {
    io.section(kControlMagic, kControlVersion);
    io.expect(self.config_.dcs,
              "control snapshot datacenter count does not match the config");
    io.expect(self.shards_.size(),
              "control snapshot shard count does not match the config");
    for (auto& n : self.sent_per_shard_) io.field(n);
    for (auto& p : self.plants_) {
      io.field(p.active_servers);
      io.field(p.cap_frac);
      io.field(p.setpoint_c);
      io.field(p.paused);
      io.field(p.rng_ctr);
      io.field(p.epochs);
      io.field(p.demand_total);
      io.field(p.served_total);
      io.field(p.sla_violation_epochs);
      io.field(p.thermal_alarm_epochs);
      io.field(p.max_temp_c);
      io.field(p.prefault_demand);
      io.field(p.prefault_served);
      io.field(p.end_demand);
      io.field(p.end_served);
    }
    for (auto& e : self.endpoints_) {
      io.field(e->hb_token_floor);
      io.field(e->heartbeats_seen);
      io.nested(e->ledger);
      io.nested(e->deadman);
      io.nested(e->plane);
    }
    for (auto& replica : self.replicas_) {
      io.expect(replica != nullptr,
                "control snapshot replica layout does not match the config");
      if (replica != nullptr) io.nested(*replica);
    }
    io.nested(self.shards_);
  }

  struct Plant {
    double active_servers = 0.0;
    double cap_frac = 1.0;
    double setpoint_c = 22.0;
    bool paused = false;
    std::uint64_t rng_ctr = 0;
    std::uint64_t epochs = 0;
    double demand_total = 0.0;
    double served_total = 0.0;
    std::uint64_t sla_violation_epochs = 0;
    std::uint64_t thermal_alarm_epochs = 0;
    double max_temp_c = 0.0;
    double prefault_demand = 0.0;
    double prefault_served = 0.0;
    double end_demand = 0.0;
    double end_served = 0.0;
  };

  /// Actuator-side state at one DC: the fenced plane, the ledger, and the
  /// dead-man watchdog. The plane's applier writes the owning world's plant
  /// (wired by the world's constructor).
  struct Endpoint {
    explicit Endpoint(const ControlChaosConfig& c)
        : ledger(c.fencing),
          deadman(c.deadman ? kDeadmanTtlS : 0.0),
          plane(sensing::ActuatorPlaneConfig{}) {
      plane.set_fencing(&ledger);
    }
    sensing::FencingLedger ledger;
    sensing::DeadMansSwitch deadman;
    sensing::ActuatorPlane plane;
    std::uint64_t hb_token_floor = 0;
    std::uint64_t heartbeats_seen = 0;
  };

  std::size_t shard_of(std::size_t dc) const { return dc / dcs_per_shard_; }

  /// Routes one control message with the per-source delay stagger: arrivals
  /// from different source DCs can never tie at one timestamp, so handler
  /// order — and therefore the whole world — is shard-mapping invariant.
  /// Same-shard sends go through the destination kernel directly because
  /// federation loopback would deliver immediately instead of after the
  /// delay. The send counter is per source shard: during a window only the
  /// owning shard's worker touches its slot.
  void route(std::size_t src_dc, std::size_t dst_dc, double now_s,
             std::uint64_t tag, sim::TagPayload payload) {
    ++sent_per_shard_[shard_of(src_dc)];
    const double delay =
        kLookaheadS * (1.0 + static_cast<double>(src_dc + 1) * 0x1.0p-20);
    const std::size_t ss = shard_of(src_dc);
    const std::size_t ds = shard_of(dst_dc);
    if (ss == ds) {
      shards_[ds].schedule_tagged_at(now_s + delay, tag, std::move(payload));
    } else {
      fed_.send_tagged(ss, ds, delay, tag, std::move(payload));
    }
  }

  void apply_to_plant(std::size_t d, const sensing::ActuatorCommand& c) {
    Plant& p = plants_[d];
    switch (c.kind) {
      case sensing::CommandKind::kPowerCap:
        p.cap_frac = std::clamp(c.value, 0.0, 1.0);
        break;
      case sensing::CommandKind::kCracSupply:
        p.setpoint_c = c.value;
        break;
      case sensing::CommandKind::kFleetSize:
        p.active_servers =
            std::clamp(c.value, 0.0, static_cast<double>(kServersPerDc));
        break;
      case sensing::CommandKind::kConsolidation:
        p.paused = c.value != 0.0;
        break;
      default:
        break;
    }
  }

  /// The dead-man's safe state: caps released, CRAC to the safe setpoint,
  /// every server on, consolidation paused — uncontrolled but safe.
  void apply_safe_state(std::size_t d) {
    Plant& p = plants_[d];
    p.cap_frac = 1.0;
    p.setpoint_c = kSafeSetpointC;
    p.active_servers = static_cast<double>(kServersPerDc);
    p.paused = true;
  }

  void drive(std::size_t d, double now) {
    // Replica control tick first (messages leave; nothing lands before the
    // lookahead), then the local watchdog, then plant accounting.
    if (replicas_[d] != nullptr) {
      for (const macro::Outbound& msg : replicas_[d]->tick(now)) {
        switch (msg.kind) {
          case macro::OutboundKind::kHeartbeat:
            route(d, msg.dst, now, kHbTag,
                  {msg.dst, msg.token, msg.from});
            break;
          case macro::OutboundKind::kCommand: {
            sim::TagPayload p{msg.dst};
            const sim::TagPayload body = macro::encode_command(msg.cmd);
            p.insert(p.end(), body.begin(), body.end());
            route(d, msg.dst, now, kCmdTag, std::move(p));
            break;
          }
          case macro::OutboundKind::kJournalRecord: {
            sim::TagPayload p{msg.dst};
            const sim::TagPayload body = macro::encode_command(msg.cmd);
            p.insert(p.end(), body.begin(), body.end());
            route(d, msg.dst, now, kJrnTag, std::move(p));
            break;
          }
        }
      }
    }

    Endpoint& e = *endpoints_[d];
    if (e.deadman.expired(now)) apply_safe_state(d);
    e.plane.tick(now);

    Plant& p = plants_[d];
    ++p.epochs;
    const double u = epoch_uniform(config_.seed, d, p.rng_ctr++);
    const double base = now < kDemandRiseS ? kBaseDemandRps : kPeakDemandRps;
    const double demand =
        base * (1.0 - kDemandJitter + 2.0 * kDemandJitter * u);
    const double capacity = p.active_servers * kPerServerRps * p.cap_frac;
    const double served = std::min(demand, capacity);
    const double util = capacity > 0.0 ? demand / capacity : kUtilCap;
    const double temp = p.setpoint_c + kTempUtilGainC * std::min(util, kUtilCap);
    p.demand_total += demand;
    p.served_total += served;
    if (served < demand - 1e-9) ++p.sla_violation_epochs;
    if (temp > kAlarmTempC) ++p.thermal_alarm_epochs;
    p.max_temp_c = std::max(p.max_temp_c, temp);
    if (now < kPrefaultUntilS) {
      p.prefault_demand += demand;
      p.prefault_served += served;
    }
    if (now >= kDriveUntilS - kEndWindowS) {
      p.end_demand += demand;
      p.end_served += served;
    }
    const double next = now + kEpochS;
    if (next < kDriveUntilS) {
      shards_[shard_of(d)].schedule_tagged_at(
          next, kDriveTag, {static_cast<std::uint64_t>(d)});
    }
  }

  void on_heartbeat(std::size_t d, std::uint64_t token, std::uint64_t from,
                    double now) {
    Endpoint& e = *endpoints_[d];
    // Only a non-stale leader's heartbeat proves the control plane is
    // alive: a deposed split-brain survivor must not keep the watchdog fed.
    if (token >= e.hb_token_floor) {
      e.hb_token_floor = token;
      ++e.heartbeats_seen;
      e.deadman.feed(now);
    }
    if (replicas_[d] != nullptr) replicas_[d]->on_heartbeat(token, from, now);
  }

  void on_command(std::size_t d, const sim::TagPayload& p, double now) {
    require(p.size() == 8, "control command message must be 8 words");
    const macro::ControlCommand cmd =
        macro::decode_command(sim::TagPayload(p.begin() + 1, p.end()));
    Endpoint& e = *endpoints_[d];
    e.plane.issue_fenced(to_actuator_command(cmd), now, cmd.token, cmd.uid);
  }

  void on_journal(std::size_t d, const sim::TagPayload& p) {
    require(p.size() == 8, "journal record message must be 8 words");
    if (replicas_[d] == nullptr) return;
    replicas_[d]->on_journal_record(
        macro::decode_command(sim::TagPayload(p.begin() + 1, p.end())));
  }

  void on_ctl_fault(std::size_t d, CtlFaultAction action, double now) {
    if (replicas_[d] == nullptr) return;
    macro::ControllerReplica& rep = *replicas_[d];
    switch (action) {
      case CtlFaultAction::kCrash:
        if (rep.lease().role() != macro::LeaseRole::kCrashed) rep.crash();
        break;
      case CtlFaultAction::kRestart:
        if (rep.lease().role() == macro::LeaseRole::kCrashed) rep.restart(now);
        break;
      case CtlFaultAction::kHang:
        rep.hang();
        break;
      case CtlFaultAction::kResume:
        rep.resume();
        break;
    }
  }

  const ControlChaosConfig config_;
  sim::ShardedSimulator& fed_;
  std::size_t dcs_per_shard_;
  std::vector<Plant> plants_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::unique_ptr<macro::ControllerReplica>> replicas_;
  TaggedShards shards_;
  /// World-level sends, one slot per source shard (window-race-free).
  std::vector<std::uint64_t> sent_per_shard_;
};

}  // namespace

ControlChaosOutcome run_control_plane(const ControlChaosConfig& config,
                                      const network::InterDcLinkPlan* plan) {
  validate(config);
  if (plan != nullptr) {
    require(effective_shards(config) == config.dcs,
            "control chaos: a link plan requires shards == dcs");
    require(plan->site_count() == config.dcs,
            "control chaos: link plan site count must equal dcs");
  }
  return run_world<ControlWorld>(config, make_sharded_config(config),
                                 config.horizon_s, plan);
}

ControlRestoreReport run_control_plane_with_restore(
    const ControlChaosConfig& config, double snapshot_at_s, double kill_at_s) {
  validate(config);
  return run_restore_drill<ControlWorld>(config, make_sharded_config(config),
                                         config.horizon_s, snapshot_at_s,
                                         kill_at_s);
}

SweepReport sweep_control_plane(const ControlChaosConfig& base,
                                const std::vector<SweepPoint>& points) {
  return sweep_conformance(
      points,
      [&base](const SweepPoint& p) {
        ControlChaosConfig c = base;
        c.seed = p.seed;
        c.shards = p.shards;
        c.threads = p.threads;
        return run_control_plane(c);
      },
      [](const ControlChaosOutcome& o) {
        return o.lease_unique_ok && o.fencing_clean && o.conservation_ok;
      });
}

ControlLeaderKillReport run_leader_kill_drill(std::size_t dcs,
                                              std::size_t threads,
                                              std::uint64_t seed,
                                              bool with_partition) {
  require(dcs >= 3, "leader-kill drill needs >= 3 datacenters (the kill must "
                    "land mid-transition)");
  ControlChaosConfig base;
  base.dcs = dcs;
  base.threads = threads;
  base.seed = seed;
  base.controller_faults = make_leader_kill_plan();

  ControlLeaderKillReport rep;
  network::InterDcLinkPlan plan(dcs);
  if (with_partition) {
    // Isolate DC 0 (every inbound direction) through the failover window;
    // the closed window redelivers the backlog after it ends.
    for (std::size_t r = 1; r < dcs; ++r) plan.partition(r, 0, 13.0, 20.0);
  }
  const network::InterDcLinkPlan* plan_ptr =
      with_partition ? &plan : nullptr;

  ControlChaosConfig defended = base;
  if (with_partition) defended.shards = dcs;
  rep.defended = run_control_plane(defended, plan_ptr);

  ControlChaosConfig naive = base;
  naive.replicated = false;
  naive.fencing = false;
  naive.deadman = false;
  if (with_partition) naive.shards = dcs;
  rep.naive = run_control_plane(naive, plan_ptr);

  const auto goodput_ok = [&rep](const ControlChaosOutcome& o) {
    return recovery_ratio(o.fleet_prefault_frac, o.fleet_end_frac) >=
           rep.goodput_threshold;
  };
  rep.defended_clean = goodput_ok(rep.defended) &&
                       rep.defended.total_alarms == 0 &&
                       rep.defended.total_sla_violations == 0 &&
                       rep.defended.fencing_clean &&
                       rep.defended.lease_unique_ok &&
                       rep.defended.conservation_ok;
  rep.naive_violates =
      !goodput_ok(rep.naive) || rep.naive.total_alarms > 0;
  rep.gate_ok = rep.defended_clean && rep.naive_violates;
  return rep;
}

ControlSplitBrainReport run_split_brain_drill(std::size_t dcs,
                                              std::size_t threads,
                                              std::uint64_t seed) {
  require(dcs >= 2, "split-brain drill needs >= 2 datacenters");
  ControlChaosConfig config;
  config.dcs = dcs;
  config.threads = threads;
  config.seed = seed;
  config.controller_faults = make_split_brain_plan();

  ControlSplitBrainReport rep;
  rep.outcome = run_control_plane(config);
  // Stale-token rejections specifically, not replay-duplicate suppressions:
  // the woken leader's actuations must die on the token watermark.
  for (const ControlDcOutcome& dc : rep.outcome.dcs) {
    rep.double_actuations += dc.double_actuations;
    rep.stale_fenced += dc.stale_rejected;
  }
  std::uint64_t journal_rejections = 0;
  for (const ControlReplicaOutcome& r : rep.outcome.replicas) {
    journal_rejections += r.journal_rejected_stale;
  }
  rep.stale_leader_deposed =
      !rep.outcome.replicas.empty() && rep.outcome.replicas[0].depositions >= 1;
  rep.passed = rep.stale_fenced > 0 && journal_rejections > 0 &&
               rep.double_actuations == 0 && rep.stale_leader_deposed &&
               rep.outcome.lease_unique_ok && rep.outcome.fencing_clean &&
               rep.outcome.conservation_ok;
  return rep;
}

std::string make_leader_kill_plan() {
  // Permanent loss: the duration outlives the drive window, so the dead
  // leader never comes back — failover, not reboot, must save the run.
  return "ctl-crash:0@13.25+40";
}

std::string make_split_brain_plan() {
  // A long GC pause: the leader freezes mid-run, a follower takes over at
  // ~13 s, and the stale leader wakes at 16.25 still believing it leads.
  return "ctl-hang:0@10.25+6";
}

std::string make_reference_control_grid_script() {
  return "ctl-kill:region/americas@13+10";
}

}  // namespace epm::faults
