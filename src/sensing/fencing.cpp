#include "sensing/fencing.h"

#include "core/require.h"

namespace epm::sensing {
namespace {

constexpr std::uint32_t kFencingMagic = 0x636e6566;  // "fenc"
constexpr std::uint32_t kFencingVersion = 1;
constexpr std::uint32_t kDeadmanMagic = 0x6e616d64;  // "dman"
constexpr std::uint32_t kDeadmanVersion = 1;

}  // namespace

FencingVerdict FencingLedger::admit(std::uint64_t token, std::uint64_t uid) {
  const bool stale = token < max_token_;
  const bool duplicate = applied_uids_.count(uid) != 0;
  if (enforce_) {
    if (stale) {
      ++rejected_stale_;
      return FencingVerdict::kStaleToken;
    }
    if (duplicate) {
      ++suppressed_duplicates_;
      return FencingVerdict::kDuplicate;
    }
  } else {
    // Audit-only: count the harm, then apply anyway.
    if (stale) ++stale_applied_;
    if (duplicate) ++double_actuations_;
  }
  if (token > max_token_) max_token_ = token;
  applied_uids_.insert(uid);
  ++applied_;
  return FencingVerdict::kApplied;
}

template <typename Self, typename Io>
void FencingLedger::fields(Self& self, Io& io, sim::TagPayload& uids) {
  io.section(kFencingMagic, kFencingVersion);
  io.expect(self.enforce_,
            "fencing snapshot enforcement mode does not match the config");
  io.field(self.max_token_);
  io.field(self.applied_);
  io.field(self.rejected_stale_);
  io.field(self.suppressed_duplicates_);
  io.field(self.double_actuations_);
  io.field(self.stale_applied_);
  io.field(uids);
}

void FencingLedger::save(sim::SnapshotWriter& w) const {
  sim::TagPayload uids(applied_uids_.begin(), applied_uids_.end());
  fields(*this, w, uids);
}

void FencingLedger::restore(sim::SnapshotReader& r) {
  sim::TagPayload uids;
  fields(*this, r, uids);
  applied_uids_ = std::set<std::uint64_t>(uids.begin(), uids.end());
}

bool DeadMansSwitch::expired(double now_s) {
  if (!enabled() || tripped_) return false;
  if (now_s - last_feed_s_ < ttl_s_) return false;
  tripped_ = true;
  ++trips_;
  return true;
}

template <typename Self, typename Io>
void DeadMansSwitch::fields(Self& self, Io& io) {
  io.section(kDeadmanMagic, kDeadmanVersion);
  io.expect(self.ttl_s_, "dead-man snapshot TTL does not match the config");
  io.field(self.last_feed_s_);
  io.field(self.tripped_);
  io.field(self.trips_);
}

void DeadMansSwitch::save(sim::SnapshotWriter& w) const { fields(*this, w); }

void DeadMansSwitch::restore(sim::SnapshotReader& r) { fields(*this, r); }

}  // namespace epm::sensing
