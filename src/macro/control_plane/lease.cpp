#include "macro/control_plane/lease.h"

#include "core/require.h"

namespace epm::macro {
namespace {

constexpr std::uint32_t kLeaseMagic = 0x7361656c;  // "leas"
constexpr std::uint32_t kLeaseVersion = 1;

}  // namespace

LeaseState::LeaseState(const LeaseConfig& config) : config_(config) {
  require(config_.replicas >= 1, "lease: need at least one replica");
  require(config_.id < config_.replicas, "lease: replica id out of range");
  require(config_.ttl_s > 0.0, "lease: ttl_s must be positive");
  require(config_.ttl_stagger_s >= 0.0, "lease: ttl_stagger_s must be >= 0");
  if (config_.initial_leader != kNoReplica) {
    require(config_.initial_leader < config_.replicas,
            "lease: initial_leader out of range");
    // Seed every replica with the same view: initial_leader holds the
    // smallest positive token congruent to its id, as if it had claimed it
    // just before t = 0. Only the seeded leader records it as claimed.
    const std::uint64_t seed_token = next_eligible_token_seed();
    max_token_ = seed_token;
    leader_ = config_.initial_leader;
    last_heartbeat_s_ = 0.0;
    if (config_.id == config_.initial_leader) {
      role_ = LeaseRole::kLeader;
      token_ = seed_token;
      claimed_.push_back(seed_token);
    }
  }
}

std::uint64_t LeaseState::next_eligible_token_seed() const {
  // Smallest token > 0 with token % replicas == initial_leader.
  const std::uint64_t n = config_.replicas;
  const std::uint64_t r = config_.initial_leader;
  return r == 0 ? n : r;
}

double LeaseState::effective_ttl_s() const {
  return config_.ttl_s +
         static_cast<double>(config_.id) * config_.ttl_stagger_s;
}

std::uint64_t LeaseState::next_eligible_token(std::uint64_t above) const {
  // Smallest token > above with token % replicas == id: walk to the next
  // multiple-of-n boundary past `above`, then land on this replica's slot.
  const std::uint64_t n = config_.replicas;
  const std::uint64_t base = (above / n + 1) * n;
  std::uint64_t t = base + config_.id;
  if (t - n > above) t -= n;
  return t;
}

LeaseAction LeaseState::tick(double now_s) {
  if (role_ == LeaseRole::kCrashed || hung_) return LeaseAction::kNone;
  if (role_ == LeaseRole::kLeader) return LeaseAction::kHeartbeat;
  if (now_s - last_heartbeat_s_ < effective_ttl_s()) return LeaseAction::kNone;
  token_ = next_eligible_token(max_token_);
  max_token_ = token_;
  role_ = LeaseRole::kLeader;
  leader_ = config_.id;
  last_heartbeat_s_ = now_s;
  claimed_.push_back(token_);
  return LeaseAction::kClaimed;
}

void LeaseState::on_heartbeat(std::uint64_t token, std::uint64_t from,
                              double now_s) {
  if (role_ == LeaseRole::kCrashed || hung_) return;
  if (token > max_token_) {
    if (role_ == LeaseRole::kLeader && from != config_.id) {
      role_ = LeaseRole::kFollower;
      ++depositions_;
    }
    max_token_ = token;
    leader_ = from;
    last_heartbeat_s_ = now_s;
    return;
  }
  if (token == max_token_ && from == leader_) {
    last_heartbeat_s_ = now_s;
    return;
  }
  ++stale_heartbeats_;
}

void LeaseState::crash() {
  role_ = LeaseRole::kCrashed;
  hung_ = false;
  token_ = 0;
  max_token_ = 0;
  leader_ = kNoReplica;
  ++crashes_;
}

void LeaseState::restart(double now_s, std::uint64_t journal_token) {
  require(role_ == LeaseRole::kCrashed, "lease: restart without a crash");
  role_ = LeaseRole::kFollower;
  hung_ = false;
  token_ = 0;
  max_token_ = journal_token;
  leader_ = kNoReplica;
  last_heartbeat_s_ = now_s;
}

template <typename Self, typename Io>
void LeaseState::fields(Self& self, Io& io) {
  io.section(kLeaseMagic, kLeaseVersion);
  io.expect(self.config_.replicas,
            "lease snapshot replica count does not match the config");
  io.expect(self.config_.id,
            "lease snapshot replica id does not match the config");
  io.field(self.role_);
  io.field(self.hung_);
  io.field(self.token_);
  io.field(self.max_token_);
  io.field(self.leader_);
  io.field(self.last_heartbeat_s_);
  io.field(self.claimed_);
  io.field(self.depositions_);
  io.field(self.stale_heartbeats_);
  io.field(self.crashes_);
}

void LeaseState::save(sim::SnapshotWriter& w) const { fields(*this, w); }

void LeaseState::restore(sim::SnapshotReader& r) { fields(*this, r); }

}  // namespace epm::macro
