#include "macro/control_plane/controller.h"

#include "core/require.h"

namespace epm::macro {
namespace {

constexpr std::uint32_t kControllerMagic = 0x6c727463;  // "ctrl"
constexpr std::uint32_t kControllerVersion = 1;

}  // namespace

ControllerReplica::ControllerReplica(const ControllerConfig& config,
                                     std::vector<ProgramStep> program)
    : config_(config), program_(std::move(program)), lease_(config.lease) {
  require(config_.datacenters >= 1, "controller: need at least one DC");
  require(config_.max_steps_per_tick >= 1,
          "controller: max_steps_per_tick must be >= 1");
  require(program_.size() < kAdHocStep,
          "controller: transition program too long");
}

std::vector<Outbound> ControllerReplica::tick(double now_s) {
  std::vector<Outbound> out;
  const LeaseAction action = lease_.tick(now_s);
  if (action == LeaseAction::kNone) return out;

  for (std::uint64_t d = 0; d < config_.datacenters; ++d) {
    Outbound hb;
    hb.kind = OutboundKind::kHeartbeat;
    hb.dst = d;
    hb.token = lease_.token();
    hb.from = config_.lease.id;
    out.push_back(hb);
  }

  if (action == LeaseAction::kClaimed) {
    // Failover: resume every in-flight transition under the new token. The
    // uid is the original one, so actuators that already applied a command
    // suppress the duplicate and the rest apply it now.
    for (const ControlCommand& rec : journal_.replay_order()) {
      Outbound msg;
      msg.kind = OutboundKind::kCommand;
      msg.dst = rec.dc;
      msg.cmd = rec;
      msg.cmd.token = lease_.token();
      out.push_back(msg);
      ++commands_replayed_;
    }
  }

  issue_due_steps(now_s, out);
  return out;
}

void ControllerReplica::issue_due_steps(double now_s,
                                        std::vector<Outbound>& out) {
  std::uint64_t issued_this_tick = 0;
  for (std::uint32_t step = 0;
       step < static_cast<std::uint32_t>(program_.size()); ++step) {
    if (issued_this_tick >= config_.max_steps_per_tick) break;
    const ProgramStep& p = program_[step];
    if (p.at_s > now_s || journal_.has_program_step(step)) continue;
    const ControlCommand cmd =
        journal_.append_new(lease_.token(), p.op, p.dc, p.value, step);
    Outbound msg;
    msg.kind = OutboundKind::kCommand;
    msg.dst = cmd.dc;
    msg.cmd = cmd;
    out.push_back(msg);
    for (std::uint64_t d = 0; d < config_.datacenters; ++d) {
      if (d == config_.lease.id) continue;
      Outbound rep;
      rep.kind = OutboundKind::kJournalRecord;
      rep.dst = d;
      rep.cmd = cmd;
      out.push_back(rep);
    }
    ++commands_issued_;
    ++issued_this_tick;
  }
}

void ControllerReplica::on_heartbeat(std::uint64_t token, std::uint64_t from,
                                     double now_s) {
  lease_.on_heartbeat(token, from, now_s);
}

void ControllerReplica::on_journal_record(const ControlCommand& cmd) {
  if (lease_.role() == LeaseRole::kCrashed || lease_.hung()) {
    ++journal_drops_;
    return;
  }
  journal_.merge(cmd, lease_.max_token_seen());
}

template <typename Self, typename Io>
void ControllerReplica::fields(Self& self, Io& io) {
  io.section(kControllerMagic, kControllerVersion);
  io.field(self.commands_issued_);
  io.field(self.commands_replayed_);
  io.field(self.journal_drops_);
  io.nested(self.lease_);
  io.nested(self.journal_);
}

void ControllerReplica::save(sim::SnapshotWriter& w) const { fields(*this, w); }

void ControllerReplica::restore(sim::SnapshotReader& r) { fields(*this, r); }

}  // namespace epm::macro
