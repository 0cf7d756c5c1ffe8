#include "macro/control_plane/journal.h"

#include <bit>

#include "core/require.h"

namespace epm::macro {
namespace {

constexpr std::uint32_t kJournalMagic = 0x6e72756a;  // "jurn"
constexpr std::uint32_t kJournalVersion = 1;
/// Bytes of one serialized record: a 7-word command payload and its count.
constexpr std::size_t kRecordBytes = 8 * 8;

}  // namespace

sim::TagPayload encode_command(const ControlCommand& cmd) {
  return {cmd.uid,
          cmd.seq,
          cmd.token,
          static_cast<std::uint64_t>(cmd.op),
          static_cast<std::uint64_t>(cmd.dc),
          std::bit_cast<std::uint64_t>(cmd.value),
          static_cast<std::uint64_t>(cmd.program_step)};
}

ControlCommand decode_command(const sim::TagPayload& payload) {
  require(payload.size() == 7, "control command payload must be 7 words");
  ControlCommand cmd;
  cmd.uid = payload[0];
  cmd.seq = payload[1];
  cmd.token = payload[2];
  cmd.op = static_cast<ControlOp>(payload[3]);
  cmd.dc = static_cast<std::uint32_t>(payload[4]);
  cmd.value = std::bit_cast<double>(payload[5]);
  cmd.program_step = static_cast<std::uint32_t>(payload[6]);
  return cmd;
}

ControlCommand CommandJournal::append_new(std::uint64_t token, ControlOp op,
                                          std::uint32_t dc, double value,
                                          std::uint32_t program_step) {
  require(next_seq_ < (1ULL << kJournalSeqBits),
          "command journal seq overflow");
  ControlCommand cmd;
  cmd.seq = next_seq_++;
  cmd.uid = (token << kJournalSeqBits) | cmd.seq;
  cmd.token = token;
  cmd.op = op;
  cmd.dc = dc;
  cmd.value = value;
  cmd.program_step = program_step;
  entries_.emplace(std::make_pair(cmd.seq, cmd.uid), cmd);
  by_uid_.emplace(cmd.uid, cmd.seq);
  if (token > max_token_) max_token_ = token;
  return cmd;
}

bool CommandJournal::merge(const ControlCommand& cmd,
                           std::uint64_t fence_token) {
  if (cmd.token < fence_token) {
    ++rejected_stale_;
    return false;
  }
  if (by_uid_.count(cmd.uid) != 0) {
    ++duplicates_;
    return false;
  }
  entries_.emplace(std::make_pair(cmd.seq, cmd.uid), cmd);
  by_uid_.emplace(cmd.uid, cmd.seq);
  if (cmd.token > max_token_) max_token_ = cmd.token;
  if (cmd.seq >= next_seq_) next_seq_ = cmd.seq + 1;
  return true;
}

bool CommandJournal::has_program_step(std::uint32_t step) const {
  for (const auto& [key, cmd] : entries_) {
    if (cmd.program_step == step) return true;
  }
  return false;
}

std::vector<ControlCommand> CommandJournal::replay_order() const {
  std::vector<ControlCommand> out;
  out.reserve(entries_.size());
  for (const auto& [key, cmd] : entries_) out.push_back(cmd);
  return out;
}

template <typename Self, typename Io>
void CommandJournal::fields(Self& self, Io& io,
                            std::vector<sim::TagPayload>& records) {
  io.section(kJournalMagic, kJournalVersion);
  io.field(self.next_seq_);
  io.field(self.max_token_);
  io.field(self.rejected_stale_);
  io.field(self.duplicates_);
  io.size(records, kRecordBytes);
  for (auto& record : records) io.field(record);
}

void CommandJournal::save(sim::SnapshotWriter& w) const {
  std::vector<sim::TagPayload> records;
  records.reserve(entries_.size());
  for (const auto& [key, cmd] : entries_) records.push_back(encode_command(cmd));
  fields(*this, w, records);
}

void CommandJournal::restore(sim::SnapshotReader& r) {
  std::vector<sim::TagPayload> records;
  fields(*this, r, records);
  entries_.clear();
  by_uid_.clear();
  for (const sim::TagPayload& record : records) {
    const ControlCommand cmd = decode_command(record);
    entries_.emplace(std::make_pair(cmd.seq, cmd.uid), cmd);
    by_uid_.emplace(cmd.uid, cmd.seq);
  }
}

}  // namespace epm::macro
